//! Server configuration behind a validating builder.
//!
//! The builder is the only way to construct a non-default config:
//! [`ServeConfig::builder`] collects the knobs, [`ServeConfigBuilder::build`]
//! validates them once (a zero deadline, an empty address, an SLO or
//! lifecycle sub-config that contradicts itself), and the server can trust
//! every config it receives.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ds_core::lifecycle::LifecycleConfig;
use ds_est::CardinalityEstimator;
use ds_obs::SloSpec;

use crate::breaker::BreakerConfig;
use crate::faults::FaultInjector;

/// The estimators a server holds: any trait object that can cross
/// threads. `Arc<DeepSketch>` coerces directly.
pub type SharedEstimator = Arc<dyn CardinalityEstimator + Send + Sync>;

/// The serving signal a declarative SLO grades requests against.
#[derive(Debug, Clone, PartialEq)]
pub enum SloSignal {
    /// Latency objective: a request is good when it finishes within the
    /// threshold (µs).
    LatencyUs(u64),
    /// Availability objective: a request is good unless it produced an
    /// `ERR`/`BUSY` response.
    Errors,
    /// Accuracy objective: a graded `FEEDBACK` request is good when its
    /// q-error stays at or below this bound.
    QErrorMax(f64),
}

impl SloSignal {
    /// Grades one finished request: `Some(good)`, or `None` when the
    /// signal does not apply (no wall time, or an ungraded request).
    /// `latency` is the end-to-end wall time, compared exactly — a 0.9 µs
    /// request misses a 0 µs objective; `errored` marks `ERR`/`BUSY`
    /// responses; `qerror` is present only for graded `FEEDBACK` requests.
    pub(crate) fn grade(
        &self,
        latency: Option<Duration>,
        errored: bool,
        qerror: Option<f64>,
    ) -> Option<bool> {
        match *self {
            SloSignal::LatencyUs(limit) => latency.map(|l| l <= Duration::from_micros(limit)),
            SloSignal::Errors => Some(!errored),
            SloSignal::QErrorMax(limit) => qerror.map(|q| q <= limit),
        }
    }
}

/// One declarative serving SLO: the burn-rate spec plus the signal that
/// classifies each request as good or bad.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSlo {
    /// Windows, objective, and burn thresholds.
    pub spec: SloSpec,
    /// What the SLO measures.
    pub signal: SloSignal,
}

impl ServeSlo {
    /// A paging-priority latency SLO: `objective` of requests finish
    /// within `threshold_us`.
    pub fn latency(name: &str, objective: f64, threshold_us: u64) -> Self {
        Self {
            spec: SloSpec::paging(name, objective),
            signal: SloSignal::LatencyUs(threshold_us),
        }
    }

    /// A paging-priority availability SLO: `objective` of requests do not
    /// error.
    pub fn errors(name: &str, objective: f64) -> Self {
        Self {
            spec: SloSpec::paging(name, objective),
            signal: SloSignal::Errors,
        }
    }

    /// A paging-priority accuracy SLO over graded `FEEDBACK` requests:
    /// `objective` of them land at or below `max_qerror`.
    pub fn accuracy(name: &str, objective: f64, max_qerror: f64) -> Self {
        Self {
            spec: SloSpec::paging(name, objective),
            signal: SloSignal::QErrorMax(max_qerror),
        }
    }

    /// Validates the spec plus the signal's own bounds.
    pub fn validate(&self) -> Result<(), String> {
        self.spec.validate()?;
        if let SloSignal::QErrorMax(q) = self.signal {
            if !q.is_finite() || q < 1.0 {
                return Err(format!(
                    "slo '{}': q-error bound must be finite and >= 1, got {q}",
                    self.spec.name
                ));
            }
        }
        Ok(())
    }
}

/// Validated server tuning knobs. Construct the default with
/// [`ServeConfig::default`] or anything else through
/// [`ServeConfig::builder`]; the fields themselves are crate-private so an
/// invalid combination cannot be assembled by hand.
#[derive(Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 lets the OS pick one.
    pub(crate) addr: String,
    /// Per-request deadline.
    pub(crate) request_timeout: Duration,
    /// Concurrent-connection cap.
    pub(crate) max_connections: usize,
    /// Record per-request stage timelines.
    pub(crate) timeline: bool,
    /// Requests at least this slow become `TRACE` exemplars.
    pub(crate) slow_threshold: Duration,
    /// Fallback estimator for the degradation chain.
    pub(crate) fallback: Option<SharedEstimator>,
    /// Per-sketch circuit-breaker thresholds.
    pub(crate) breaker: BreakerConfig,
    /// Deterministic fault plan for degradation tests.
    pub(crate) faults: Option<Arc<FaultInjector>>,
    /// Entries each served artifact's estimate cache holds at most (0
    /// disables caching). The bound is per artifact, so the server caches
    /// at most this × (sketches served + rollback targets kept while
    /// Watching) entries.
    pub(crate) cache_capacity: usize,
    /// Directory for durable snapshots; when set, the server recovers it
    /// at start and quarantines refused `SYNC` transfers under
    /// `<dir>/quarantine/` for post-mortems.
    pub(crate) snapshot_dir: Option<PathBuf>,
    /// Retrain-and-hot-swap lifecycle; `None` disables the daemon (no
    /// harvesting, no shadow mirroring, `LIFECYCLE` answers "disabled").
    pub(crate) lifecycle: Option<LifecycleConfig>,
    /// Declarative serving SLOs, evaluated per request and exported with
    /// burn rates in `STATS`. Empty disables SLO tracking.
    pub(crate) slos: Vec<ServeSlo>,
}

impl ServeConfig {
    /// Starts a builder seeded with the default knobs.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            cfg: Self::default(),
        }
    }

    /// Entries each served artifact's estimate cache holds at most (0 =
    /// disabled).
    pub fn cache_capacity(&self) -> usize {
        self.cache_capacity
    }
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("addr", &self.addr)
            .field("request_timeout", &self.request_timeout)
            .field("max_connections", &self.max_connections)
            .field("timeline", &self.timeline)
            .field("slow_threshold", &self.slow_threshold)
            .field(
                "fallback",
                &self.fallback.as_ref().map(|e| e.name().to_string()),
            )
            .field("breaker", &self.breaker)
            .field("faults", &self.faults)
            .field("cache_capacity", &self.cache_capacity)
            .field("snapshot_dir", &self.snapshot_dir)
            .field("lifecycle", &self.lifecycle)
            .field("slos", &self.slos)
            .finish()
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            request_timeout: Duration::from_secs(2),
            max_connections: 256,
            timeline: true,
            slow_threshold: Duration::from_millis(1),
            fallback: None,
            breaker: BreakerConfig::default(),
            faults: None,
            cache_capacity: 4096,
            snapshot_dir: None,
            lifecycle: None,
            slos: Vec::new(),
        }
    }
}

/// A knob combination [`ServeConfigBuilder::build`] refused, with the
/// invariant it violates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid serve config: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for std::io::Error {
    fn from(e: ConfigError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, e)
    }
}

/// Builder for [`ServeConfig`]. Setters collect; [`ServeConfigBuilder::build`]
/// validates the cross-field invariants once:
///
/// * `max_connections` ≥ 1;
/// * `request_timeout` > 0 and `addr` non-empty;
/// * the lifecycle sub-config and every SLO validate, SLO names are unique.
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl ServeConfigBuilder {
    /// Bind address (`host:port`; port 0 lets the OS pick).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.cfg.addr = addr.into();
        self
    }

    /// Per-request deadline.
    pub fn request_timeout(mut self, timeout: Duration) -> Self {
        self.cfg.request_timeout = timeout;
        self
    }

    /// Concurrent-connection cap — the server's admission control, since
    /// a connection has one request in flight: excess connections are told
    /// `BUSY` and closed.
    pub fn max_connections(mut self, max_connections: usize) -> Self {
        self.cfg.max_connections = max_connections;
        self
    }

    /// Record per-request stage timelines (parse/forward/write histograms
    /// plus slow-request exemplars).
    pub fn timeline(mut self, timeline: bool) -> Self {
        self.cfg.timeline = timeline;
        self
    }

    /// Requests at least this slow end to end are kept as `TRACE`
    /// exemplars. Zero keeps every request.
    pub fn slow_threshold(mut self, threshold: Duration) -> Self {
        self.cfg.slow_threshold = threshold;
        self
    }

    /// Fallback estimator for the degradation chain; `None` disables
    /// degradation (unhealthy sketches return their typed errors).
    pub fn fallback(mut self, fallback: Option<SharedEstimator>) -> Self {
        self.cfg.fallback = fallback;
        self
    }

    /// Per-sketch circuit-breaker thresholds.
    pub fn breaker(mut self, breaker: BreakerConfig) -> Self {
        self.cfg.breaker = breaker;
        self
    }

    /// Deterministic fault plan for degradation tests (`None` in
    /// production; inert in release builds).
    pub fn faults(mut self, faults: Option<Arc<FaultInjector>>) -> Self {
        self.cfg.faults = faults;
        self
    }

    /// Entries each served artifact's estimate cache holds at most, so at
    /// most this × (sketches served + rollback targets kept while Watching)
    /// in all. `0` disables caching.
    pub fn cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.cfg.cache_capacity = cache_capacity;
        self
    }

    /// Directory for durable snapshots: [`crate::Server::start`] recovers
    /// it into the store and monitors before serving (a directory that
    /// does not exist recovers nothing), the lifecycle persists into it,
    /// and refused `SYNC` transfers are quarantined under
    /// `<dir>/quarantine/`.
    pub fn snapshot_dir(mut self, dir: Option<PathBuf>) -> Self {
        self.cfg.snapshot_dir = dir;
        self
    }

    /// Enables the retrain-and-hot-swap lifecycle daemon. Its own
    /// invariants are validated in [`ServeConfigBuilder::build`].
    pub fn lifecycle(mut self, lifecycle: Option<LifecycleConfig>) -> Self {
        self.cfg.lifecycle = lifecycle;
        self
    }

    /// Declarative serving SLOs evaluated per request (latency, errors,
    /// accuracy), exported with burn rates in `STATS`. Names must be
    /// unique; each is validated in [`ServeConfigBuilder::build`].
    pub fn slos(mut self, slos: Vec<ServeSlo>) -> Self {
        self.cfg.slos = slos;
        self
    }

    /// Validates the invariants and returns the config, or a
    /// [`ConfigError`] naming the first violated one.
    pub fn build(self) -> Result<ServeConfig, ConfigError> {
        let c = &self.cfg;
        if c.addr.trim().is_empty() {
            return Err(ConfigError("addr must be non-empty".to_string()));
        }
        if c.max_connections == 0 {
            return Err(ConfigError("max_connections must be >= 1".to_string()));
        }
        if c.request_timeout.is_zero() {
            return Err(ConfigError("request_timeout must be > 0".to_string()));
        }
        if let Some(lc) = c.lifecycle.as_ref() {
            lc.validate().map_err(ConfigError)?;
        }
        for (i, slo) in c.slos.iter().enumerate() {
            slo.validate().map_err(ConfigError)?;
            if c.slos[..i].iter().any(|s| s.spec.name == slo.spec.name) {
                return Err(ConfigError(format!(
                    "duplicate slo name '{}'",
                    slo.spec.name
                )));
            }
        }
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        // The Default impl and the builder must never drift apart.
        ServeConfig::builder().build().expect("default is valid");
    }

    #[test]
    fn builder_sets_every_knob() {
        let faults = Arc::new(FaultInjector::new(3));
        let cfg = ServeConfig::builder()
            .addr("0.0.0.0:0")
            .request_timeout(Duration::from_secs(30))
            .max_connections(12)
            .timeline(false)
            .slow_threshold(Duration::ZERO)
            .breaker(BreakerConfig {
                failure_threshold: 1,
                cooldown: Duration::from_millis(5),
            })
            .faults(Some(Arc::clone(&faults)))
            .cache_capacity(0)
            .snapshot_dir(Some(PathBuf::from("/tmp/snaps")))
            .lifecycle(Some(LifecycleConfig::default()))
            .slos(vec![
                ServeSlo::latency("latency-p99", 0.99, 5_000),
                ServeSlo::errors("availability", 0.999),
                ServeSlo::accuracy("qerror", 0.95, 16.0),
            ])
            .build()
            .expect("valid");
        assert_eq!(cfg.addr, "0.0.0.0:0");
        assert_eq!(cfg.cache_capacity(), 0);
        assert_eq!(cfg.request_timeout, Duration::from_secs(30));
        assert!(!cfg.timeline);
        assert_eq!(cfg.snapshot_dir.as_deref(), Some("/tmp/snaps".as_ref()));
        assert!(cfg.faults.is_some());
        assert!(cfg.lifecycle.is_some());
        assert_eq!(cfg.slos.len(), 3);
    }

    #[test]
    fn latency_slos_grade_the_exact_duration() {
        let grade = |limit_us, latency| SloSignal::LatencyUs(limit_us).grade(latency, false, None);
        assert_eq!(grade(0, Some(Duration::from_nanos(500))), Some(false));
        assert_eq!(grade(1, Some(Duration::from_micros(1))), Some(true));
        assert_eq!(grade(1, Some(Duration::from_nanos(1_001))), Some(false));
        assert_eq!(grade(1, None), None);
        assert_eq!(SloSignal::Errors.grade(None, true, None), Some(false));
        let accuracy = SloSignal::QErrorMax(2.0);
        assert_eq!(accuracy.grade(None, false, Some(2.0)), Some(true));
        assert_eq!(accuracy.grade(None, false, None), None);
    }

    #[test]
    fn invariants_are_enforced() {
        let violations: Vec<(&str, ServeConfigBuilder)> = vec![
            ("empty addr", ServeConfig::builder().addr("  ")),
            (
                "zero max_connections",
                ServeConfig::builder().max_connections(0),
            ),
            (
                "zero timeout",
                ServeConfig::builder().request_timeout(Duration::ZERO),
            ),
            (
                "invalid lifecycle sub-config",
                ServeConfig::builder().lifecycle(Some(LifecycleConfig {
                    shadow_gate_ratio: 0.0,
                    ..LifecycleConfig::default()
                })),
            ),
            (
                "slo objective out of range",
                ServeConfig::builder().slos(vec![ServeSlo::latency("lat", 1.5, 1000)]),
            ),
            (
                "slo q-error bound below 1",
                ServeConfig::builder().slos(vec![ServeSlo::accuracy("acc", 0.99, 0.5)]),
            ),
            (
                "duplicate slo names",
                ServeConfig::builder().slos(vec![
                    ServeSlo::latency("dup", 0.99, 1000),
                    ServeSlo::errors("dup", 0.999),
                ]),
            ),
        ];
        for (what, builder) in violations {
            assert!(builder.build().is_err(), "{what} must be rejected");
        }
        // Any cache size is valid, "off" included.
        for capacity in [0, 1] {
            let cfg = ServeConfig::builder().cache_capacity(capacity).build();
            assert_eq!(cfg.expect("valid").cache_capacity(), capacity);
        }
    }
}
