//! Per-sketch circuit breakers: the first stage of the degradation chain.
//!
//! A sketch that keeps failing health-style (decode errors, execution
//! failures, deadline misses) stops being asked: after
//! [`BreakerConfig::failure_threshold`] *consecutive* failures the breaker
//! opens and `ESTIMATE` traffic short-circuits to the configured fallback
//! estimator instead of burning a handler on a forward pass that will fail
//! again. After [`BreakerConfig::cooldown`] the breaker half-opens and
//! admits exactly one probe request.
//!
//! Every admitted request gives its breaker exactly one [`Verdict`]: a
//! healthy answer closes it, a health failure counts toward opening it (a
//! failed probe re-opens it for another cooldown), and a neutral outcome —
//! a client error such as malformed SQL, an out-of-vocabulary column or an
//! unroutable join, or a pass refused at shutdown — says nothing about the
//! sketch: it changes nothing, except that a neutral probe hands the probe
//! back for the next request. The server's `settle` gives the verdict; the
//! breaker only counts what it is told.
#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::panic, clippy::unreachable)
)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

use ds_obs::PromText;

/// Breaker tuning knobs (shared by every per-sketch breaker of a server).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive health failures that open the breaker.
    pub failure_threshold: u32,
    /// How long an open breaker waits before half-opening for one probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 3,
            cooldown: Duration::from_secs(1),
        }
    }
}

/// What one admitted request says about its sketch's health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The sketch answered: close the breaker.
    Healthy,
    /// A health failure: count it toward opening the breaker.
    Failed,
    /// Nothing about the sketch (a client error, a refused pass): change
    /// nothing, but hand a probe back.
    Neutral,
}

/// The admission decision for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// Send the request to the sketch: the breaker is closed.
    Allow,
    /// Send the request to the sketch as the half-open breaker's one probe:
    /// it must reach the model, not a cache in front of it.
    Probe,
    /// Do not touch the sketch; answer via the degradation path.
    ShortCircuit,
}

#[derive(Debug, Clone, Copy)]
enum State {
    /// Healthy; counts consecutive failures toward the threshold.
    Closed { consecutive_failures: u32 },
    /// Tripped; short-circuits until the cooldown elapses.
    Open { since: Instant },
    /// The cooldown has elapsed: the next request is the one probe, and
    /// while it is in flight (`probing`) everyone else short-circuits.
    HalfOpen { probing: bool },
}

/// One sketch's breaker. Cheap enough to sit on every estimate: a short
/// mutex hold on admit/record, no allocation.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: Mutex<State>,
    opened: AtomicU64,
    short_circuits: AtomicU64,
}

impl CircuitBreaker {
    /// Creates a closed breaker.
    pub fn new(cfg: BreakerConfig) -> Self {
        Self {
            cfg: BreakerConfig {
                failure_threshold: cfg.failure_threshold.max(1),
                ..cfg
            },
            state: Mutex::new(State::Closed {
                consecutive_failures: 0,
            }),
            opened: AtomicU64::new(0),
            short_circuits: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Decides whether a request may reach the sketch. Half-opens the
    /// breaker when the cooldown has elapsed, handing the `Probe` to
    /// exactly one caller.
    pub fn admit(&self) -> Admit {
        let mut st = self.lock();
        if let State::Open { since } = *st {
            if since.elapsed() >= self.cfg.cooldown {
                *st = State::HalfOpen { probing: false };
            }
        }
        match *st {
            State::Closed { .. } => Admit::Allow,
            State::HalfOpen { probing: false } => {
                *st = State::HalfOpen { probing: true };
                Admit::Probe
            }
            State::Open { .. } | State::HalfOpen { probing: true } => {
                self.short_circuits.fetch_add(1, Ordering::Relaxed);
                Admit::ShortCircuit
            }
        }
    }

    /// Records one admitted request's verdict. `Healthy` closes the
    /// breaker and zeroes the consecutive-failure count. `Failed` counts
    /// toward the threshold when closed and re-opens immediately when it
    /// was the half-open probe. `Neutral` leaves a closed breaker as it is
    /// and hands a half-open breaker's probe to the next request.
    pub fn record(&self, verdict: Verdict) {
        let mut st = self.lock();
        *st = match (verdict, *st) {
            (Verdict::Healthy, _) => State::Closed {
                consecutive_failures: 0,
            },
            (
                Verdict::Failed,
                State::Closed {
                    consecutive_failures,
                },
            ) if consecutive_failures + 1 < self.cfg.failure_threshold => State::Closed {
                consecutive_failures: consecutive_failures + 1,
            },
            (Verdict::Failed, State::Closed { .. } | State::HalfOpen { .. }) => {
                self.opened.fetch_add(1, Ordering::Relaxed);
                State::Open {
                    since: Instant::now(),
                }
            }
            (Verdict::Neutral, State::HalfOpen { .. }) => State::HalfOpen { probing: false },
            // Short-circuited requests never reach the sketch, so a verdict
            // while open can only come from a racing straggler; the breaker
            // is already open, keep the original cooldown clock.
            (Verdict::Failed | Verdict::Neutral, state) => state,
        };
    }

    /// Stable name of the current state: `closed`, `open`, or `half-open`.
    pub fn state_name(&self) -> &'static str {
        match *self.lock() {
            State::Closed { .. } => "closed",
            State::Open { .. } => "open",
            State::HalfOpen { .. } => "half-open",
        }
    }

    /// Whether the breaker currently short-circuits new traffic.
    pub fn is_open(&self) -> bool {
        !matches!(*self.lock(), State::Closed { .. })
    }

    /// Times this breaker transitioned to open.
    pub fn opened(&self) -> u64 {
        self.opened.load(Ordering::Relaxed)
    }

    /// Requests short-circuited away from the sketch.
    pub fn short_circuits(&self) -> u64 {
        self.short_circuits.load(Ordering::Relaxed)
    }
}

/// Lazily-created per-sketch breakers, keyed by sketch name.
#[derive(Debug)]
pub struct BreakerRegistry {
    cfg: BreakerConfig,
    map: RwLock<BTreeMap<String, Arc<CircuitBreaker>>>,
}

impl BreakerRegistry {
    /// Creates an empty registry; every breaker it mints uses `cfg`.
    pub fn new(cfg: BreakerConfig) -> Self {
        Self {
            cfg,
            map: RwLock::new(BTreeMap::new()),
        }
    }

    /// The breaker for `sketch`, created closed on first sight.
    pub fn breaker(&self, sketch: &str) -> Arc<CircuitBreaker> {
        if let Some(b) = self
            .map
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(sketch)
        {
            return Arc::clone(b);
        }
        let mut map = self.map.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            map.entry(sketch.to_string())
                .or_insert_with(|| Arc::new(CircuitBreaker::new(self.cfg))),
        )
    }

    /// Renders each breaker's opened and short-circuit counters and its
    /// open gauge (1 while not closed), by sketch name.
    pub fn render(&self, p: &mut PromText) {
        let map = self.map.read().unwrap_or_else(PoisonError::into_inner);
        for (name, b) in map.iter() {
            p.counter(&format!("serve/breaker/{name}/opened"), b.opened())
                .counter(
                    &format!("serve/breaker/{name}/short_circuits"),
                    b.short_circuits(),
                )
                .gauge(
                    &format!("serve/breaker/{name}/open"),
                    if b.is_open() { 1.0 } else { 0.0 },
                );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(20),
        }
    }

    #[test]
    fn opens_only_after_consecutive_failures() {
        let b = CircuitBreaker::new(fast_cfg());
        b.record(Verdict::Failed);
        b.record(Verdict::Failed);
        // A success in between resets the consecutive count.
        b.record(Verdict::Healthy);
        b.record(Verdict::Failed);
        b.record(Verdict::Failed);
        assert_eq!(b.admit(), Admit::Allow);
        assert_eq!(b.state_name(), "closed");
        b.record(Verdict::Failed);
        assert_eq!(b.state_name(), "open");
        assert_eq!(b.admit(), Admit::ShortCircuit);
        assert_eq!(b.opened(), 1);
        assert!(b.short_circuits() >= 1);
    }

    #[test]
    fn half_open_admits_exactly_one_probe() {
        let b = CircuitBreaker::new(fast_cfg());
        for _ in 0..3 {
            b.record(Verdict::Failed);
        }
        assert_eq!(b.admit(), Admit::ShortCircuit);
        std::thread::sleep(Duration::from_millis(25));
        // First admit after cooldown is the probe; the next short-circuits.
        assert_eq!(b.admit(), Admit::Probe);
        assert_eq!(b.state_name(), "half-open");
        assert_eq!(b.admit(), Admit::ShortCircuit);
        // Probe failure re-opens for another full cooldown.
        b.record(Verdict::Failed);
        assert_eq!(b.state_name(), "open");
        assert_eq!(b.admit(), Admit::ShortCircuit);
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(b.admit(), Admit::Probe);
        // A neutral probe hands the probe back; a neutral closed breaker
        // stays closed.
        b.record(Verdict::Neutral);
        assert_eq!(b.state_name(), "half-open");
        assert_eq!(b.admit(), Admit::Probe);
        // Probe success closes.
        b.record(Verdict::Healthy);
        assert_eq!(b.state_name(), "closed");
        b.record(Verdict::Neutral);
        assert_eq!(b.admit(), Admit::Allow);
        assert_eq!(b.opened(), 2);
    }

    #[test]
    fn threshold_is_at_least_one() {
        let b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 0,
            cooldown: Duration::from_secs(10),
        });
        b.record(Verdict::Failed);
        assert_eq!(b.state_name(), "open");
    }

    #[test]
    fn registry_hands_out_one_breaker_per_name() {
        let reg = BreakerRegistry::new(fast_cfg());
        let a = reg.breaker("imdb");
        let b = reg.breaker("imdb");
        assert!(Arc::ptr_eq(&a, &b));
        let other = reg.breaker("tpch");
        assert!(!Arc::ptr_eq(&a, &other));
        // State is shared through the registry, and each breaker renders
        // under its own name.
        for _ in 0..3 {
            a.record(Verdict::Failed);
        }
        assert_eq!(reg.breaker("imdb").admit(), Admit::ShortCircuit);
        let mut p = PromText::new();
        reg.render(&mut p);
        let doc = p.finish().unwrap();
        assert!(doc.contains("ds_serve_breaker_imdb_opened 1\n"), "{doc}");
        assert!(doc.contains("ds_serve_breaker_imdb_open 1\n"), "{doc}");
        assert!(doc.contains("ds_serve_breaker_tpch_open 0\n"), "{doc}");
    }

    #[test]
    fn concurrent_admits_race_for_a_single_probe() {
        let b = Arc::new(CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_millis(5),
        }));
        b.record(Verdict::Failed);
        std::thread::sleep(Duration::from_millis(10));
        let allowed: u32 = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let b = Arc::clone(&b);
                    s.spawn(move || u32::from(b.admit() == Admit::Probe))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(allowed, 1, "exactly one thread wins the probe slot");
    }
}
