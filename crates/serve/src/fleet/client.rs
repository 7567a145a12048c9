//! The high-level routing client: picks replicas, retries across them,
//! and learns which shards to avoid.
//!
//! A [`FleetClient`] owns at most one [`Client`] per shard (opened
//! lazily, dropped on the first IO error so a dead shard doesn't wedge
//! the pool). Per request it walks the sketch's replica set in preference
//! order: the *affinity* shard — whoever answered this sketch last —
//! first, then the ring order, with shards that look unhealthy (open
//! client-side circuit breaker, or marked degraded by gossip) demoted to
//! the back rather than skipped, so a fleet that is entirely unhealthy
//! still gets tried. Client-side breakers are keyed by shard index and
//! reuse the server's [`CircuitBreaker`](crate::breaker::CircuitBreaker)
//! implementation — the same
//! open/half-open/closed state machine steers routing away from a flapping
//! replica and probes it back in after the cooldown.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ds_obs::{Counter, IdSource, TraceContext};

use crate::breaker::{BreakerConfig, BreakerRegistry, Verdict};
use crate::client::Client;
use crate::protocol::{ErrorCode, Request, Response};

use super::FleetTopology;

/// Per-connection connect/read deadline of a [`FleetClient`].
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// The routing counters of a [`FleetClient`], shared through an `Arc`.
#[derive(Debug, Default)]
pub struct FleetCounters {
    /// Requests answered by a replica other than the first candidate.
    pub failovers: Counter,
}

/// A routing client over a [`FleetTopology`].
pub struct FleetClient {
    topology: FleetTopology,
    conns: HashMap<usize, Client>,
    breakers: BreakerRegistry,
    affinity: HashMap<String, usize>,
    degraded: HashSet<usize>,
    counters: Arc<FleetCounters>,
    /// Mints one root trace per routed request (`trace=` tokens).
    ids: IdSource,
    /// The trace minted for the most recent [`FleetClient::estimate`]
    /// sweep — tests join it against the shards' `TRACE` exemplars.
    last_trace: Option<TraceContext>,
}

impl FleetClient {
    /// A client over `topology`, its per-shard breakers at
    /// [`BreakerConfig::default`].
    pub fn new(topology: FleetTopology) -> Self {
        Self {
            topology,
            conns: HashMap::new(),
            breakers: BreakerRegistry::new(BreakerConfig::default()),
            affinity: HashMap::new(),
            degraded: HashSet::new(),
            counters: Arc::default(),
            ids: IdSource::from_entropy(),
            last_trace: None,
        }
    }

    /// The routing counters (shared — clone the `Arc` to aggregate).
    pub fn counters(&self) -> Arc<FleetCounters> {
        Arc::clone(&self.counters)
    }

    /// The root trace context minted for the most recent
    /// [`FleetClient::estimate`] call, sent on the wire to every shard
    /// that call tried.
    pub fn last_trace(&self) -> Option<TraceContext> {
        self.last_trace
    }

    /// The topology this client routes over.
    pub fn topology(&self) -> &FleetTopology {
        &self.topology
    }

    /// Marks a shard (by index) as degraded or healthy. Gossip feeds this:
    /// a shard whose `STATS` show open per-sketch breakers, or that
    /// refuses connections, gets demoted to last-resort until cleared.
    pub fn set_degraded(&mut self, shard: usize, degraded: bool) {
        if degraded {
            self.degraded.insert(shard);
        } else {
            self.degraded.remove(&shard);
        }
    }

    /// The replica candidates for `sketch` in the order this client would
    /// try them right now: affinity first, then ring order, unhealthy
    /// shards demoted to the back.
    pub fn candidates(&self, sketch: &str) -> Vec<usize> {
        let mut order = Vec::new();
        if let Some(&aff) = self.affinity.get(sketch) {
            order.push(aff);
        }
        for shard in self.topology.replicas(sketch) {
            if !order.contains(&shard) {
                order.push(shard);
            }
        }
        // Stable partition: healthy first, demoted (open breaker or
        // gossip-degraded) behind them — still tried, never skipped.
        let (healthy, demoted): (Vec<_>, Vec<_>) = order.into_iter().partition(|s| {
            !self.degraded.contains(s) && !self.breakers.breaker(&s.to_string()).is_open()
        });
        healthy.into_iter().chain(demoted).collect()
    }

    fn conn(&mut self, shard: usize) -> std::io::Result<&mut Client> {
        if !self.conns.contains_key(&shard) {
            let addr = self.topology.shards.get(shard).copied().ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("no shard {shard} in topology"),
                )
            })?;
            let mut conn = Client::connect_timeout(addr, CONNECT_TIMEOUT)?;
            conn.hello()?;
            self.conns.insert(shard, conn);
        }
        Ok(self.conns.get_mut(&shard).expect("just inserted"))
    }

    /// Estimates `sql` with the named sketch, failing over across its
    /// replicas: one sweep over [`FleetClient::candidates`], dropping the
    /// connection and moving on when a replica is dead, busy, or doesn't
    /// hold the sketch (yet). Definitive errors — a query that won't parse
    /// anywhere — return immediately. On success the answering shard
    /// becomes the sketch's affinity. Returns the estimate and its
    /// `degraded` wire flag.
    pub fn estimate(&mut self, sketch: &str, sql: &str) -> std::io::Result<(f64, bool)> {
        // One root trace covers the whole sweep: every shard tried (the
        // failed attempt and the failover that answered) parents its
        // server span under the same client span, so the aggregator can
        // stitch the full causal tree.
        let root = self.ids.mint();
        self.last_trace = Some(root);
        let req = Request::Estimate {
            sketch: sketch.to_string(),
            sql: sql.to_string(),
            trace: Some(root),
        };
        let candidates = self.candidates(sketch);
        let mut last_err: Option<std::io::Error> = None;
        for (attempt, shard) in candidates.iter().copied().enumerate() {
            let breaker = self.breakers.breaker(&shard.to_string());
            let resp = self.conn(shard).and_then(|conn| conn.roundtrip(&req));
            // Flatten the two success variants into (value, degraded-flag)
            // before matching, so the flag survives the move.
            let resp = match resp {
                Ok(Response::Estimate(v)) => Ok(Ok((v, false))),
                Ok(Response::Degraded(v)) => Ok(Ok((v, true))),
                Ok(other) => Ok(Err(other)),
                Err(e) => Err(e),
            };
            match resp {
                Ok(Ok((v, degraded))) => {
                    breaker.record(Verdict::Healthy);
                    if attempt > 0 {
                        self.counters.failovers.inc();
                    }
                    self.affinity.insert(sketch.to_string(), shard);
                    return Ok((v, degraded));
                }
                Ok(Err(Response::Error { code, message })) => match code {
                    // Replica-local conditions: another copy may answer.
                    ErrorCode::UnknownSketch
                    | ErrorCode::NotReady
                    | ErrorCode::Timeout
                    | ErrorCode::Decode
                    | ErrorCode::Internal => {
                        breaker.record(Verdict::Failed);
                        last_err = Some(std::io::Error::new(
                            std::io::ErrorKind::NotFound,
                            format!("shard {shard}: {} {message}", code.as_str()),
                        ));
                    }
                    // Definitive: the query itself is bad everywhere.
                    _ => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidInput,
                            format!("{} {message}", code.as_str()),
                        ));
                    }
                },
                Ok(Err(Response::Busy(m))) => {
                    // Overload, not ill health: don't trip the breaker.
                    last_err = Some(std::io::Error::new(
                        std::io::ErrorKind::WouldBlock,
                        format!("shard {shard} busy: {m}"),
                    ));
                }
                Ok(Err(other)) => {
                    breaker.record(Verdict::Failed);
                    self.conns.remove(&shard);
                    last_err = Some(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("shard {shard}: unexpected {other:?}"),
                    ));
                }
                Err(e) => {
                    // Dead or wedged: drop the pooled connection so the
                    // next attempt redials instead of reusing a corpse.
                    breaker.record(Verdict::Failed);
                    self.conns.remove(&shard);
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no replicas for sketch '{sketch}'"),
            )
        }))
    }

    /// [`FleetClient::estimate`] with retry-until-deadline: sweeps are
    /// repeated (with a short backoff) until one succeeds or `deadline`
    /// passes — the chaos tests' "zero failed-forever requests" contract.
    /// Definitive errors (bad query) still return immediately.
    pub fn estimate_with_deadline(
        &mut self,
        sketch: &str,
        sql: &str,
        deadline: Instant,
    ) -> std::io::Result<(f64, bool)> {
        loop {
            match self.estimate(sketch, sql) {
                Ok(v) => return Ok(v),
                Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => return Err(e),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }
}
