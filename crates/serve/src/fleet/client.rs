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
//! reuse the server's [`CircuitBreaker`] implementation — the same
//! open/half-open/closed state machine steers routing away from a flapping
//! replica and probes it back in after the cooldown: every sweep asks each
//! replica's breaker to [`admit`](CircuitBreaker::admit) it, a breaker
//! past its cooldown hands out its one probe and keeps the shard in its
//! place, and a probe the sweep never sends is handed back.
#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::panic, clippy::unreachable)
)]

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ds_obs::{Counter, IdSource, TraceContext};

use crate::breaker::{Admit, BreakerConfig, BreakerRegistry, CircuitBreaker, Verdict};
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
    /// try them right now: affinity first, then ring order, shards marked
    /// degraded or whose breaker would short-circuit them (open and
    /// cooling down, or half-open with its probe out) demoted to the back.
    pub fn candidates(&self, sketch: &str) -> Vec<usize> {
        self.ordered(sketch, |_, breaker| breaker.short_circuits_now())
    }

    /// `sketch`'s replicas in preference order — affinity first, then ring
    /// order — with the shards gossip marked degraded and those `demote`
    /// names (given each shard and its breaker once, in that order) behind
    /// the rest: still tried, never skipped.
    fn ordered(
        &self,
        sketch: &str,
        mut demote: impl FnMut(usize, &CircuitBreaker) -> bool,
    ) -> Vec<usize> {
        let mut order = Vec::new();
        if let Some(&aff) = self.affinity.get(sketch) {
            order.push(aff);
        }
        for shard in self.topology.replicas(sketch) {
            if !order.contains(&shard) {
                order.push(shard);
            }
        }
        let (healthy, demoted): (Vec<_>, Vec<_>) = order.into_iter().partition(|&s| {
            let demoted = demote(s, &self.breakers.breaker(&s.to_string()));
            !demoted && !self.degraded.contains(&s)
        });
        healthy.into_iter().chain(demoted).collect()
    }

    fn conn(&mut self, shard: usize) -> std::io::Result<&mut Client> {
        match self.conns.entry(shard) {
            Entry::Occupied(pooled) => Ok(pooled.into_mut()),
            Entry::Vacant(slot) => {
                let addr = self.topology.shards.get(shard).copied().ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        format!("no shard {shard} in topology"),
                    )
                })?;
                let mut conn = Client::connect_timeout(addr, CONNECT_TIMEOUT)?;
                conn.hello()?;
                Ok(slot.insert(conn))
            }
        }
    }

    /// Estimates `sql` with the named sketch, failing over across its
    /// replicas: one sweep over them in [`FleetClient::candidates`] order,
    /// each replica's breaker asked to admit it first (a breaker past its
    /// cooldown hands out its probe, and its shard keeps its place),
    /// dropping the connection and moving on when a replica is dead, busy,
    /// or doesn't hold the sketch (yet). Definitive errors — a query that
    /// won't parse anywhere — return immediately. On success the answering
    /// shard becomes the sketch's affinity. Every shard tried gives its
    /// breaker one verdict, and a probe admitted but not sent is handed
    /// back. Returns the estimate and its `degraded` wire flag.
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
        let mut probes = Vec::new();
        let candidates = self.ordered(sketch, |shard, breaker| match breaker.admit() {
            Admit::Allow => false,
            Admit::Probe => {
                probes.push(shard);
                false
            }
            Admit::ShortCircuit => true,
        });
        let mut tried = 0;
        let answer = self.sweep(sketch, &req, &candidates, &mut tried);
        for &shard in &candidates[tried..] {
            if probes.contains(&shard) {
                self.breakers
                    .breaker(&shard.to_string())
                    .record(Verdict::Neutral);
            }
        }
        answer
    }

    /// [`FleetClient::estimate`]'s sweep over `candidates`, counting in
    /// `tried` the shards it sent the request to.
    fn sweep(
        &mut self,
        sketch: &str,
        req: &Request,
        candidates: &[usize],
        tried: &mut usize,
    ) -> std::io::Result<(f64, bool)> {
        let mut last_err: Option<std::io::Error> = None;
        for (attempt, shard) in candidates.iter().copied().enumerate() {
            *tried = attempt + 1;
            let breaker = self.breakers.breaker(&shard.to_string());
            let resp = self.conn(shard).and_then(|conn| conn.roundtrip(req));
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
                    // Definitive: the query itself is bad everywhere, and
                    // says nothing about the shard.
                    _ => {
                        breaker.record(Verdict::Neutral);
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidInput,
                            format!("{} {message}", code.as_str()),
                        ));
                    }
                },
                Ok(Err(Response::Busy(m))) => {
                    // Overload, not ill health: a neutral verdict, which
                    // trips nothing and hands a probe back.
                    breaker.record(Verdict::Neutral);
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

#[cfg(test)]
mod tests {
    use std::io::{BufRead, BufReader, ErrorKind, Write};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, Ordering};

    use super::*;
    use crate::protocol::{format_response, hello_response, parse_request};

    /// A shard that answers `HELLO`, and every `ESTIMATE` with its own
    /// index — or with `ERR internal` while `failing` — one connection at
    /// a time, until `stop` is set.
    fn fake_shard(index: usize, listener: &TcpListener, failing: &AtomicBool, stop: &AtomicBool) {
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        while !stop.load(Ordering::SeqCst) {
            let Ok((stream, _)) = listener.accept() else {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            };
            stream.set_nonblocking(false).expect("blocking connection");
            let poll = Some(Duration::from_millis(20));
            stream.set_read_timeout(poll).expect("read timeout");
            let mut writer = stream.try_clone().expect("clone the stream");
            let (mut reader, mut line) = (BufReader::new(stream), String::new());
            while !stop.load(Ordering::SeqCst) {
                match reader.read_line(&mut line) {
                    Ok(0) => break,
                    Ok(_) => {}
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        continue
                    }
                    Err(_) => break,
                }
                let resp = match parse_request(&line) {
                    Ok(Request::Hello { version }) => hello_response(version),
                    Ok(Request::Estimate { .. }) if failing.load(Ordering::SeqCst) => {
                        Response::Error {
                            code: ErrorCode::Internal,
                            message: "failing".into(),
                        }
                    }
                    Ok(Request::Estimate { .. }) => Response::Estimate(index as f64),
                    Ok(_) => Response::Bye,
                    Err(err) => err,
                };
                line.clear();
                let reply = format!("{}\n", format_response(&resp));
                if writer.write_all(reply.as_bytes()).is_err() {
                    break;
                }
            }
        }
    }

    /// Sets its flag when dropped — also while a failed assertion unwinds,
    /// so the fake shards stop and the scope can join them.
    struct StopOnDrop<'a>(&'a AtomicBool);

    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn an_open_breaker_past_its_cooldown_is_probed_in_its_ring_position() {
        let listeners: Vec<TcpListener> = (0..3)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind a fake shard"))
            .collect();
        let addrs = listeners.iter().map(|l| l.local_addr().expect("addr"));
        let topology = FleetTopology::new(addrs.collect(), 3);
        let failing: Vec<AtomicBool> = (0..3).map(|_| AtomicBool::new(false)).collect();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let _stop = StopOnDrop(&stop);
            for (i, listener) in listeners.iter().enumerate() {
                let (failing, stop) = (&failing[i], &stop);
                s.spawn(move || fake_shard(i, listener, failing, stop));
            }
            let mut client = FleetClient::new(topology);
            let cooldown = Duration::from_millis(50);
            client.breakers = BreakerRegistry::new(BreakerConfig {
                failure_threshold: 1,
                cooldown,
            });
            let ring = client.topology().replicas("imdb");
            let breaker = |c: &FleetClient, shard: usize| c.breakers.breaker(&shard.to_string());
            let sql = "SELECT COUNT(*) FROM title t";

            // The first shard's breaker opens: while it cools down the
            // shard is demoted, and the next one answers.
            breaker(&client, ring[0]).record(Verdict::Failed);
            assert_eq!(client.candidates("imdb"), [ring[1], ring[2], ring[0]]);
            let answer = client.estimate("imdb", sql).expect("an answer");
            assert_eq!(answer, (ring[1] as f64, false));
            assert_eq!(breaker(&client, ring[0]).state_name(), "open");

            // Past the cooldown it is back in its ring position, and its
            // probe answers and closes the breaker.
            client.affinity.clear();
            std::thread::sleep(cooldown);
            assert_eq!(client.candidates("imdb"), ring);
            let answer = client.estimate("imdb", sql).expect("an answer");
            assert_eq!(answer, (ring[0] as f64, false));
            assert_eq!(breaker(&client, ring[0]).state_name(), "closed");
            assert_eq!(
                client.counters().failovers.get(),
                0,
                "each first choice answered"
            );

            // A probe the sweep admits but never sends — the shard ahead
            // of it answered — is handed back for the next sweep.
            breaker(&client, ring[2]).record(Verdict::Failed);
            std::thread::sleep(cooldown);
            let answer = client.estimate("imdb", sql).expect("an answer");
            assert_eq!(answer, (ring[0] as f64, false));
            assert_eq!(breaker(&client, ring[2]).admit(), Admit::Probe);

            // A probe that fails re-opens its breaker for another
            // cooldown, and the next shard in the ring answers.
            failing[ring[0]].store(true, Ordering::SeqCst);
            breaker(&client, ring[0]).record(Verdict::Failed);
            client.affinity.clear();
            std::thread::sleep(cooldown);
            let answer = client.estimate("imdb", sql).expect("an answer");
            assert_eq!(answer, (ring[1] as f64, false));
            assert_eq!(client.counters().failovers.get(), 1, "the probe went first");
            assert_eq!(breaker(&client, ring[0]).opened(), 3);
            assert_eq!(breaker(&client, ring[0]).state_name(), "open");
        });
    }
}
