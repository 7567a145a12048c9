//! The forward-pass wrapper: one [`CardinalityEstimator::try_estimate`]
//! call, on the thread its request arrived on, with everything serving
//! wants around a pass.
//!
//! A handler thread (or the shadow scorer) calls
//! [`Batcher::estimate_stamped`] and gets the answer back from its own
//! stack: no queue, no worker, no reply channel, no thread hop. Around the
//! estimator call sit, in order: the refusal once [`Batcher::shutdown`] was
//! called, the `serve/batch` span, the fault plan's injected stall, the two
//! stamps the request timeline is cut at, the pass counter, and the
//! deadline — nobody waits on a pass from outside, so nothing can give up
//! while it runs, and one that returns past `request_timeout` is reported
//! (and counted) as [`Rejection::Timeout`] then, which is what trips a
//! wedged model's breaker.
//!
//! Concurrent requests run concurrent passes; the connection cap is what
//! bounds them. Requests are not gathered into batches: a pass costs what
//! its kernel costs (compute-bound, ≈ the same per query alone as in a
//! batch of 64), and handing it to another thread cost more than sharing
//! the weights saved (EXPERIMENTS.md E16, E23, E24).
//!
//! The type names, [`Batcher::new`], [`Batcher::estimate`] and
//! [`Batcher::shutdown`] are what the benchmark's source names.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ds_est::{CardinalityEstimator, EstimateError};
use ds_query::query::Query;

use crate::faults::FaultInjector;
use crate::metrics::Metrics;

/// The estimators a server holds: any trait object that can cross
/// threads. `Arc<DeepSketch>` coerces directly.
pub type SharedEstimator = Arc<dyn CardinalityEstimator + Send + Sync>;

/// Why a request did not produce an estimate.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejection {
    /// The request missed its deadline.
    Timeout,
    /// The batcher is shutting down.
    ShuttingDown,
    /// The estimator rejected the query.
    Estimate(EstimateError),
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::Timeout => write!(f, "request deadline exceeded"),
            Rejection::ShuttingDown => write!(f, "server shutting down"),
            Rejection::Estimate(e) => write!(f, "{e}"),
        }
    }
}

/// The one thing to set about a pass.
#[derive(Debug, Clone)]
pub struct BatcherConfig {
    /// Per-request deadline, measured over the pass.
    pub request_timeout: Duration,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self {
            request_timeout: Duration::from_secs(2),
        }
    }
}

/// Where a pass began and ended. The server cuts the request timeline at
/// these (parse → forward → write); they are ordered, so the three stage
/// durations sum to the span they cover by construction.
#[derive(Debug, Clone, Copy)]
pub struct StageStamps {
    /// When the forward pass started (before an injected stall: a stalled
    /// pass is a slow pass).
    pub forward_start: Instant,
    /// When the forward pass finished.
    pub forward_end: Instant,
}

/// Runs forward passes on their callers' threads. One per server.
pub struct Batcher {
    metrics: Arc<Metrics>,
    cfg: BatcherConfig,
    shut_down: AtomicBool,
    /// Test-only fault plan; `None` in production, and inert in release
    /// builds even when set (see [`FaultInjector::armed`]).
    faults: Option<Arc<FaultInjector>>,
}

impl Batcher {
    /// A batcher that counts its passes into `metrics`.
    pub fn new(cfg: BatcherConfig, metrics: Arc<Metrics>) -> Self {
        Self::with_faults(cfg, metrics, None)
    }

    /// Like [`Batcher::new`], with an optional fault plan whose
    /// forward-delay faults stall forward passes (degradation tests only —
    /// a configured injector is inert in release builds).
    pub fn with_faults(
        cfg: BatcherConfig,
        metrics: Arc<Metrics>,
        faults: Option<Arc<FaultInjector>>,
    ) -> Self {
        Self {
            metrics,
            cfg,
            shut_down: AtomicBool::new(false),
            faults,
        }
    }

    /// [`Batcher::estimate_stamped`] for a caller that owns its arguments
    /// and wants the number only.
    pub fn estimate(&self, estimator: SharedEstimator, query: Query) -> Result<f64, Rejection> {
        self.estimate_stamped(&*estimator, &query).map(|(v, _)| v)
    }

    /// One forward pass over `query` on the calling thread (see the module
    /// docs for what surrounds it), with the stamps it was taken between.
    pub fn estimate_stamped(
        &self,
        estimator: &dyn CardinalityEstimator,
        query: &Query,
    ) -> Result<(f64, StageStamps), Rejection> {
        if self.shut_down.load(Ordering::Acquire) {
            return Err(Rejection::ShuttingDown);
        }
        let span = ds_obs::global().span("serve/batch");
        let forward_start = Instant::now();
        // Injected stall (tests only): models a wedged forward pass so
        // deadline handling and breaker trips are exercised on the real
        // serving path.
        if let Some(delay) = self.faults.as_ref().and_then(|f| f.forward_delay()) {
            std::thread::sleep(delay);
        }
        let result = estimator.try_estimate(query);
        let forward_end = Instant::now();
        drop(span);
        self.metrics.record_batch(1);
        if forward_end.duration_since(forward_start) > self.cfg.request_timeout {
            self.metrics.timeouts.inc();
            return Err(Rejection::Timeout);
        }
        let stamps = StageStamps {
            forward_start,
            forward_end,
        };
        result.map(|v| (v, stamps)).map_err(Rejection::Estimate)
    }

    /// Stops admission: every later estimate is refused with
    /// [`Rejection::ShuttingDown`]. There is nothing to drain or join — a
    /// pass in progress is on its caller's stack and returns there. Kept,
    /// like [`Batcher::estimate`], because the benchmark's source calls it;
    /// the server never does (it joins its handlers, and a joined handler
    /// asks for no pass).
    pub fn shutdown(&self) {
        self.shut_down.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_est::each_query;

    /// Deterministic stub: returns `base + query.tables.len()` after an
    /// optional artificial delay.
    struct StubEstimator {
        base: f64,
        delay: Duration,
    }

    impl CardinalityEstimator for StubEstimator {
        fn name(&self) -> &str {
            "Stub"
        }

        fn estimate_into(&self, queries: &[Query], out: &mut [Result<f64, EstimateError>]) {
            each_query(queries, out, |query| {
                std::thread::sleep(self.delay);
                Ok(self.base + query.tables.len() as f64)
            })
        }
    }

    fn stub(base: f64, delay: Duration) -> SharedEstimator {
        Arc::new(StubEstimator { base, delay })
    }

    fn queries(n: usize) -> Vec<Query> {
        // Queries only need distinguishable table counts for the stub.
        (0..n)
            .map(|i| {
                let mut q = Query::new();
                for t in 0..(i % 3) {
                    q.tables.push(ds_storage::catalog::TableId(t));
                }
                q
            })
            .collect()
    }

    #[test]
    fn concurrent_answers_match_try_estimate_and_every_pass_is_counted() {
        let est = stub(10.0, Duration::from_millis(1));
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::new(BatcherConfig::default(), Arc::clone(&metrics));
        let qs = queries(48);
        std::thread::scope(|s| {
            let handles: Vec<_> = qs
                .iter()
                .map(|q| {
                    let (est, batcher) = (Arc::clone(&est), &batcher);
                    s.spawn(move || batcher.estimate(est, q.clone()))
                })
                .collect();
            for (h, q) in handles.into_iter().zip(&qs) {
                assert_eq!(h.join().unwrap().ok(), est.try_estimate(q).ok());
            }
        });
        // One `record_batch(1)` per pass: `serve.batches` counts passes.
        let snap = metrics.snapshot();
        assert_eq!((snap.batches, snap.max_batch), (48, 1));
        assert_eq!(snap.mean_batch, 1.0);
    }

    #[test]
    fn stamps_are_ordered_and_bracket_the_pass() {
        let est = stub(1.0, Duration::from_millis(10));
        let batcher = Batcher::new(BatcherConfig::default(), Arc::new(Metrics::new()));
        let query = queries(3).pop().expect("a two-table query");
        let before = Instant::now();
        let (v, stamps) = batcher.estimate_stamped(&*est, &query).expect("estimate");
        assert_eq!(v, 3.0);
        assert!(stamps.forward_start >= before);
        // The forward stage contains the stub's 10ms sleep.
        assert!(stamps.forward_end - stamps.forward_start >= Duration::from_millis(10));
        assert!(Instant::now() >= stamps.forward_end);
    }

    #[test]
    fn pass_that_overruns_its_deadline_is_a_counted_timeout() {
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::new(
            BatcherConfig {
                request_timeout: Duration::from_millis(5),
            },
            Arc::clone(&metrics),
        );
        assert_eq!(
            batcher.estimate(stub(0.0, Duration::from_millis(40)), Query::new()),
            Err(Rejection::Timeout)
        );
        assert_eq!(metrics.snapshot().timeouts, 1);
        // The overrun left nothing behind: the next pass answers.
        assert_eq!(
            batcher.estimate(stub(0.0, Duration::ZERO), Query::new()),
            Ok(0.0)
        );
        assert_eq!(metrics.snapshot().timeouts, 1);
    }

    #[test]
    fn estimator_errors_propagate() {
        struct FailingEstimator;
        impl CardinalityEstimator for FailingEstimator {
            fn name(&self) -> &str {
                "Failing"
            }
            fn estimate_into(&self, queries: &[Query], out: &mut [Result<f64, EstimateError>]) {
                each_query(queries, out, |q| {
                    if q.tables.is_empty() {
                        Err(EstimateError::Unroutable { tables: vec![] })
                    } else {
                        Ok(7.0)
                    }
                })
            }
        }
        let est: SharedEstimator = Arc::new(FailingEstimator);
        let batcher = Batcher::new(BatcherConfig::default(), Arc::new(Metrics::new()));
        let mut ok_query = Query::new();
        ok_query.tables.push(ds_storage::catalog::TableId(0));
        assert_eq!(batcher.estimate(Arc::clone(&est), ok_query), Ok(7.0));
        assert_eq!(
            batcher.estimate(Arc::clone(&est), Query::new()),
            Err(Rejection::Estimate(EstimateError::Unroutable {
                tables: vec![]
            }))
        );
    }

    #[test]
    fn forward_delay_fault_stalls_the_pass_inside_the_forward_stage() {
        let faults = Arc::new(FaultInjector::new(11));
        faults.delay_forwards(Duration::from_millis(40), 1.0);
        let batcher = Batcher::with_faults(
            BatcherConfig::default(),
            Arc::new(Metrics::new()),
            Some(Arc::clone(&faults)),
        );
        let (v, stamps) = batcher
            .estimate_stamped(&*stub(1.0, Duration::ZERO), &Query::new())
            .expect("estimate");
        assert_eq!(v, 1.0);
        if FaultInjector::armed() {
            let forward = stamps.forward_end - stamps.forward_start;
            assert!(
                forward >= Duration::from_millis(40),
                "injected stall skipped: {forward:?}"
            );
        }
    }

    #[test]
    fn estimates_after_shutdown_are_refused_and_run_no_pass() {
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::new(BatcherConfig::default(), Arc::clone(&metrics));
        batcher.shutdown();
        assert_eq!(
            batcher.estimate(stub(0.0, Duration::ZERO), Query::new()),
            Err(Rejection::ShuttingDown)
        );
        assert_eq!(metrics.snapshot().batches, 0);
    }
}
