//! Request coalescing: concurrent in-flight estimates against the same
//! sketch are gathered into micro-batches and answered through one
//! [`CardinalityEstimator::try_estimate_batch`] call instead of one forward
//! pass per connection — and a request with nothing to coalesce with is
//! answered right where it arrived.
//!
//! Design:
//!
//! * **The inline rule.** [`Batcher::estimate_with_trace`] runs the forward
//!   pass on the calling (connection handler) thread when the admission
//!   queue is empty and fewer than `workers` forward passes are in flight,
//!   on workers or inline. A lone request then costs what its kernel costs:
//!   no queue, no wake-up, no reply channel, no thread hop. As soon as
//!   `workers` passes are running, later arrivals queue up behind them —
//!   which is exactly when there is something to coalesce with. The rule
//!   reads state the batcher already has; there is no knob.
//! * A bounded admission queue guards the workers. When it is full,
//!   [`Batcher::submit`] fails fast with [`Rejection::Busy`] — the caller
//!   sheds the request with a `BUSY` response instead of queueing an
//!   unbounded backlog.
//! * Worker threads pop the oldest job, then sweep the queue for every
//!   other job aimed at the *same estimator instance* (up to `max_batch`)
//!   and run them as one batch. Under concurrency the batch forms
//!   naturally: while one forward pass runs, new arrivals pile up behind
//!   it.
//! * Each job carries a deadline. Expired jobs are dropped before doing
//!   work (their submitter has already given up); waiting submitters time
//!   out with [`Rejection::Timeout`], and an inline pass that overran its
//!   deadline reports the same once it returns.
//! * Shutdown is graceful: workers drain the queue, then exit.
//!
//! Both paths run the same forward-pass code (fault injection, spans,
//! batch metrics, batch-span minting) and neither changes results:
//! estimators guarantee `try_estimate_batch` is bit-identical to looped
//! `try_estimate` calls, and the integration tests assert it end to end.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ds_est::{CardinalityEstimator, EstimateError};
use ds_obs::{IdSource, TraceContext};
use ds_query::query::Query;

use crate::faults::FaultInjector;
use crate::metrics::Metrics;

/// The estimators a batcher serves: any trait object that can cross
/// threads. `Arc<DeepSketch>` coerces directly.
pub type SharedEstimator = Arc<dyn CardinalityEstimator + Send + Sync>;

/// Why a request did not produce an estimate.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejection {
    /// Admission queue full; request shed.
    Busy {
        /// Queue length at rejection time.
        queued: usize,
    },
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
            Rejection::Busy { queued } => write!(f, "admission queue full ({queued} waiting)"),
            Rejection::Timeout => write!(f, "request deadline exceeded"),
            Rejection::ShuttingDown => write!(f, "server shutting down"),
            Rejection::Estimate(e) => write!(f, "{e}"),
        }
    }
}

/// Tuning knobs for the coalescer.
#[derive(Debug, Clone)]
pub struct BatcherConfig {
    /// Worker threads executing micro-batches.
    pub workers: usize,
    /// Maximum queries coalesced into one forward pass.
    pub max_batch: usize,
    /// Admission-queue bound; beyond it requests shed with `BUSY`.
    pub queue_capacity: usize,
    /// Per-request deadline (submit → response).
    pub request_timeout: Duration,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_batch: 64,
            queue_capacity: 1024,
            request_timeout: Duration::from_secs(2),
        }
    }
}

/// Monotonic stamps marking where a job's time went, taken by `submit`
/// and the batch worker (an inline job takes all of them itself, with
/// `dequeued == enqueued`). The server stitches them into the request
/// timeline (parse → queue-wait → batch-wait → forward → write); the
/// stamps are strictly ordered, so consecutive differences are the stage
/// durations and they sum to the span they cover by construction.
#[derive(Debug, Clone, Copy)]
pub struct StageStamps {
    /// When `submit` placed the job in the admission queue.
    pub enqueued: Instant,
    /// When a worker swept the job out of the queue into a batch.
    pub dequeued: Instant,
    /// When the coalesced forward pass started.
    pub forward_start: Instant,
    /// When the coalesced forward pass finished.
    pub forward_end: Instant,
    /// Span id of the coalesced batch this job rode in — one id shared
    /// by every traced job in the batch, so a fleet aggregator can show
    /// which requests amortized one forward pass. Zero when no job in
    /// the batch was traced.
    pub batch_span: u64,
}

/// One finished job as delivered on the response channel: the estimate
/// (or error) plus its stage stamps.
#[derive(Debug)]
pub struct Completed {
    /// The estimator's answer for this job's query.
    pub result: Result<f64, EstimateError>,
    /// Where the job's time went.
    pub stamps: StageStamps,
}

struct Job {
    /// Coalescing key. The server passes the sketch's store *generation*
    /// (unique per insert/swap for the store's lifetime), so a background
    /// retraining swap can never mix models inside one batch — even if the
    /// allocator reuses a freed sketch's address for its replacement, the
    /// generations differ. Keyless submitters get the estimator's address;
    /// the worker sweep additionally requires [`Arc::ptr_eq`] so an
    /// address-reuse collision between the two key spaces is harmless.
    key: u64,
    estimator: SharedEstimator,
    query: Query,
    /// Trace context of the request (v3 peers), if any. Traced jobs make
    /// their batch mint a shared batch span id.
    trace: Option<TraceContext>,
    tx: Sender<Completed>,
    enqueued: Instant,
    deadline: Instant,
}

struct State {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    work_ready: Condvar,
    metrics: Arc<Metrics>,
    cfg: BatcherConfig,
    /// Forward passes running right now, on workers and inline. Raised
    /// only under the state lock (so the inline rule's read, also under
    /// the lock, never misses one) and lowered without it; it publishes
    /// no other data, hence `Relaxed`.
    in_flight: AtomicUsize,
    /// Jobs dropped unanswered because their deadline passed in-queue.
    expired: AtomicU64,
    /// Mints batch span ids for batches containing traced jobs.
    ids: IdSource,
    /// Test-only fault plan; `None` in production, and inert in release
    /// builds even when set (see [`FaultInjector::armed`]).
    faults: Option<Arc<FaultInjector>>,
}

/// The coalescing micro-batch executor. Share via the handle methods; one
/// per server.
pub struct Batcher {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Batcher {
    /// Starts the worker threads.
    pub fn new(cfg: BatcherConfig, metrics: Arc<Metrics>) -> Self {
        Self::with_faults(cfg, metrics, None)
    }

    /// Like [`Batcher::new`], with an optional fault plan whose
    /// forward-delay faults stall coalesced forward passes (degradation
    /// tests only — a configured injector is inert in release builds).
    pub fn with_faults(
        cfg: BatcherConfig,
        metrics: Arc<Metrics>,
        faults: Option<Arc<FaultInjector>>,
    ) -> Self {
        let cfg = BatcherConfig {
            workers: cfg.workers.max(1),
            max_batch: cfg.max_batch.max(1),
            queue_capacity: cfg.queue_capacity.max(1),
            ..cfg
        };
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            metrics,
            cfg,
            in_flight: AtomicUsize::new(0),
            expired: AtomicU64::new(0),
            ids: IdSource::from_entropy(),
            faults,
        });
        let workers = (0..inner.cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("ds-serve-batch-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn batch worker")
            })
            .collect();
        Self { inner, workers }
    }

    /// Enqueues one estimate without blocking, keyed by the estimator
    /// instance's address. Prefer [`Batcher::submit_keyed`] with a store
    /// generation when one is available — addresses can be reused across a
    /// drop/replace, generations cannot.
    pub fn submit(
        &self,
        estimator: SharedEstimator,
        query: Query,
    ) -> Result<Receiver<Completed>, Rejection> {
        let key = Arc::as_ptr(&estimator) as *const () as usize as u64;
        self.submit_keyed(key, estimator, query)
    }

    /// Enqueues one estimate under a caller-supplied coalescing key (the
    /// server uses the sketch's store generation). Returns the receiver the
    /// result will arrive on, or sheds immediately when the queue is full.
    pub fn submit_keyed(
        &self,
        key: u64,
        estimator: SharedEstimator,
        query: Query,
    ) -> Result<Receiver<Completed>, Rejection> {
        self.submit_with_trace(key, estimator, query, None)
    }

    /// [`Batcher::submit_keyed`] carrying the request's trace context.
    /// A batch containing at least one traced job mints a shared batch
    /// span id, returned to every job via [`StageStamps::batch_span`].
    pub fn submit_with_trace(
        &self,
        key: u64,
        estimator: SharedEstimator,
        query: Query,
        trace: Option<TraceContext>,
    ) -> Result<Receiver<Completed>, Rejection> {
        let st = self.inner.admit()?;
        self.inner.enqueue(st, key, estimator, query, trace)
    }

    /// Submits and waits for the result, enforcing the configured
    /// per-request timeout.
    pub fn estimate(&self, estimator: SharedEstimator, query: Query) -> Result<f64, Rejection> {
        self.estimate_traced(estimator, query).map(|(v, _)| v)
    }

    /// Like [`Batcher::estimate`], but also returns the job's stage stamps
    /// so the caller can attribute the latency.
    pub fn estimate_traced(
        &self,
        estimator: SharedEstimator,
        query: Query,
    ) -> Result<(f64, StageStamps), Rejection> {
        let key = Arc::as_ptr(&estimator) as *const () as usize as u64;
        self.estimate_traced_keyed(key, estimator, query)
    }

    /// [`Batcher::estimate_traced`] under a caller-supplied coalescing key.
    pub fn estimate_traced_keyed(
        &self,
        key: u64,
        estimator: SharedEstimator,
        query: Query,
    ) -> Result<(f64, StageStamps), Rejection> {
        self.estimate_with_trace(key, estimator, query, None)
    }

    /// [`Batcher::estimate_traced_keyed`] carrying the request's trace
    /// context into the batch (see [`Batcher::submit_with_trace`]). Runs
    /// the forward pass on the calling thread when nothing is queued and a
    /// forward slot is free (the inline rule, see the module docs);
    /// otherwise enqueues and waits.
    pub fn estimate_with_trace(
        &self,
        key: u64,
        estimator: SharedEstimator,
        query: Query,
        trace: Option<TraceContext>,
    ) -> Result<(f64, StageStamps), Rejection> {
        let inner = &*self.inner;
        let st = inner.admit()?;
        if st.queue.is_empty() && inner.in_flight.load(Ordering::Relaxed) < inner.cfg.workers {
            let slot = InFlight::claim(inner);
            drop(st);
            return inner.estimate_inline(slot, &estimator, query, trace);
        }
        let rx = inner.enqueue(st, key, estimator, query, trace)?;
        match rx.recv_timeout(inner.cfg.request_timeout) {
            Ok(Completed {
                result: Ok(v),
                stamps,
            }) => Ok((v, stamps)),
            Ok(Completed { result: Err(e), .. }) => Err(Rejection::Estimate(e)),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                inner.metrics.record_timeout();
                Err(Rejection::Timeout)
            }
        }
    }

    /// Current admission-queue length.
    pub fn queue_len(&self) -> usize {
        self.inner.state.lock().expect("batcher lock").queue.len()
    }

    /// Jobs dropped unanswered because their deadline passed in-queue.
    pub fn expired_jobs(&self) -> u64 {
        self.inner.expired.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: stops admission, drains every queued job, then
    /// joins the workers.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    fn begin_shutdown(&self) {
        self.inner.state.lock().expect("batcher lock").shutdown = true;
        self.inner.work_ready.notify_all();
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.begin_shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// One running forward pass's claim on [`Inner::in_flight`], released on
/// drop — also when the estimator panics.
struct InFlight<'a>(&'a AtomicUsize);

impl<'a> InFlight<'a> {
    /// Call with the state lock held.
    fn claim(inner: &'a Inner) -> Self {
        inner.in_flight.fetch_add(1, Ordering::Relaxed);
        Self(&inner.in_flight)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// What one forward pass produced, for the worker and the inline path to
/// stamp onto their jobs.
struct ForwardPass {
    results: Vec<Result<f64, EstimateError>>,
    start: Instant,
    end: Instant,
    batch_span: u64,
}

impl Inner {
    /// Takes the state lock for one admission decision, refusing after
    /// shutdown began.
    fn admit(&self) -> Result<MutexGuard<'_, State>, Rejection> {
        let st = self.state.lock().expect("batcher lock");
        if st.shutdown {
            return Err(Rejection::ShuttingDown);
        }
        Ok(st)
    }

    /// Queues one job for the workers, or sheds it when the queue is full.
    fn enqueue(
        &self,
        mut st: MutexGuard<'_, State>,
        key: u64,
        estimator: SharedEstimator,
        query: Query,
        trace: Option<TraceContext>,
    ) -> Result<Receiver<Completed>, Rejection> {
        if st.queue.len() >= self.cfg.queue_capacity {
            let queued = st.queue.len();
            drop(st);
            self.metrics.record_shed();
            return Err(Rejection::Busy { queued });
        }
        let (tx, rx) = channel();
        let enqueued = Instant::now();
        st.queue.push_back(Job {
            key,
            estimator,
            query,
            trace,
            tx,
            enqueued,
            deadline: enqueued + self.cfg.request_timeout,
        });
        drop(st);
        self.work_ready.notify_one();
        Ok(rx)
    }

    /// A batch of one on the calling thread. Nobody waits on a channel
    /// here, so nothing can give up at the deadline while the pass runs; a
    /// pass that overran it is reported (and counted) as the same
    /// [`Rejection::Timeout`] once it returns, which keeps a wedged model
    /// tripping its breaker whichever path its requests take.
    fn estimate_inline(
        &self,
        slot: InFlight<'_>,
        estimator: &SharedEstimator,
        query: Query,
        trace: Option<TraceContext>,
    ) -> Result<(f64, StageStamps), Rejection> {
        let enqueued = Instant::now();
        let mut pass = self.forward(estimator, std::slice::from_ref(&query), trace.is_some());
        drop(slot);
        if pass.end.duration_since(enqueued) > self.cfg.request_timeout {
            self.metrics.record_timeout();
            return Err(Rejection::Timeout);
        }
        let stamps = StageStamps {
            enqueued,
            dequeued: enqueued,
            forward_start: pass.start,
            forward_end: pass.end,
            batch_span: pass.batch_span,
        };
        match pass.results.pop().expect("one result per query") {
            Ok(v) => Ok((v, stamps)),
            Err(e) => Err(Rejection::Estimate(e)),
        }
    }

    /// One forward pass over `queries`, the same on a worker and inline:
    /// span, injected stall, the estimator call, batch metrics, and one
    /// batch span id when any of its jobs is traced.
    fn forward(&self, estimator: &SharedEstimator, queries: &[Query], traced: bool) -> ForwardPass {
        let obs = ds_obs::global();
        let span = obs.span("serve/batch");
        // Injected stall (tests only): models a wedged forward pass so
        // deadline handling and breaker trips are exercised on the real
        // serving paths.
        if let Some(delay) = self.faults.as_ref().and_then(|f| f.forward_delay()) {
            std::thread::sleep(delay);
        }
        let start = Instant::now();
        let results = estimator.try_estimate_batch(queries);
        let end = Instant::now();
        drop(span);
        if obs.is_enabled() {
            obs.observe("serve/batch_size", queries.len() as u64);
        }
        self.metrics.record_batch(queries.len());
        // One batch span links every traced request that shared this
        // forward pass; untraced batches mint nothing.
        let batch_span = if traced { self.ids.next_span() } else { 0 };
        ForwardPass {
            results,
            start,
            end,
            batch_span,
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        // Wait for work; exit only when shut down AND drained.
        let (mut batch, slot) = {
            let mut st = inner.state.lock().expect("batcher lock");
            loop {
                if !st.queue.is_empty() {
                    break;
                }
                if st.shutdown {
                    return;
                }
                st = inner.work_ready.wait(st).expect("batcher lock");
            }
            let first = st.queue.pop_front().expect("non-empty queue");
            let mut batch = vec![first];
            // Sweep the queue for jobs on the same estimator instance. The
            // key match is the intent ("same model version"); the pointer
            // check is the guarantee — two jobs whose keys collide across
            // key spaces (address-derived vs generation-derived) can never
            // hand different models to one forward pass.
            let mut i = 0;
            while batch.len() < inner.cfg.max_batch && i < st.queue.len() {
                if st.queue[i].key == batch[0].key
                    && Arc::ptr_eq(&st.queue[i].estimator, &batch[0].estimator)
                {
                    batch.push(st.queue.remove(i).expect("index in range"));
                } else {
                    i += 1;
                }
            }
            (batch, InFlight::claim(inner))
        };
        // The whole batch leaves the queue at one moment; the per-job
        // queue-wait is measured from each job's own enqueue stamp.
        let dequeued = Instant::now();

        // Skip jobs whose submitter already timed out.
        let before = batch.len();
        batch.retain(|j| j.deadline > dequeued);
        let dropped = (before - batch.len()) as u64;
        if dropped > 0 {
            inner.expired.fetch_add(dropped, Ordering::Relaxed);
        }
        if batch.is_empty() {
            continue;
        }

        // One coalesced forward pass outside the lock. The queries move
        // out of their jobs; what stays behind is who is waiting.
        let estimator = Arc::clone(&batch[0].estimator);
        let traced = batch.iter().any(|j| j.trace.is_some());
        let (queries, waiters): (Vec<Query>, Vec<_>) = batch
            .into_iter()
            .map(|j| (j.query, (j.tx, j.enqueued)))
            .unzip();
        let pass = inner.forward(&estimator, &queries, traced);
        drop(slot);
        for ((tx, enqueued), result) in waiters.into_iter().zip(pass.results) {
            let stamps = StageStamps {
                enqueued,
                dequeued,
                forward_start: pass.start,
                forward_end: pass.end,
                batch_span: pass.batch_span,
            };
            // A failed send means the waiter gave up; nothing to do.
            let _ = tx.send(Completed { result, stamps });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

        fn estimate(&self, query: &Query) -> f64 {
            std::thread::sleep(self.delay);
            self.base + query.tables.len() as f64
        }
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
    fn coalesced_results_match_direct_estimates() {
        let est: SharedEstimator = Arc::new(StubEstimator {
            base: 10.0,
            delay: Duration::from_millis(1),
        });
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::new(
            BatcherConfig {
                workers: 2,
                max_batch: 8,
                queue_capacity: 256,
                request_timeout: Duration::from_secs(10),
            },
            Arc::clone(&metrics),
        );
        let qs = queries(48);
        std::thread::scope(|s| {
            let handles: Vec<_> = qs
                .iter()
                .map(|q| {
                    let est = Arc::clone(&est);
                    let batcher = &batcher;
                    let q = q.clone();
                    s.spawn(move || batcher.estimate(est, q).expect("estimate"))
                })
                .collect();
            for (h, q) in handles.into_iter().zip(&qs) {
                assert_eq!(h.join().unwrap(), est.estimate(q));
            }
        });
        batcher.shutdown();
        let snap = metrics.snapshot();
        assert!(snap.batches > 0);
        assert!(snap.batches <= 48, "batches={}", snap.batches);
        // With 48 concurrent 1ms jobs on 2 workers, at least some
        // coalescing must have happened.
        assert!(snap.max_batch > 1, "no coalescing observed");
        assert!(snap.max_batch <= 8, "max_batch cap violated");
    }

    #[test]
    fn full_queue_sheds_with_busy() {
        let est: SharedEstimator = Arc::new(StubEstimator {
            base: 0.0,
            delay: Duration::from_millis(50),
        });
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::new(
            BatcherConfig {
                workers: 1,
                max_batch: 1,
                queue_capacity: 2,
                request_timeout: Duration::from_secs(5),
            },
            Arc::clone(&metrics),
        );
        // One slow job occupies the worker; then fill the queue.
        let mut receivers = vec![batcher.submit(Arc::clone(&est), Query::new()).unwrap()];
        let mut shed = 0;
        for _ in 0..16 {
            match batcher.submit(Arc::clone(&est), Query::new()) {
                Ok(rx) => receivers.push(rx),
                Err(Rejection::Busy { .. }) => shed += 1,
                Err(other) => panic!("unexpected rejection {other:?}"),
            }
        }
        assert!(shed > 0, "bounded queue never shed");
        assert_eq!(metrics.snapshot().shed, shed);
        // Everything admitted still completes (drain on shutdown).
        batcher.shutdown();
        for rx in receivers {
            assert!(rx.recv().unwrap().result.is_ok());
        }
    }

    #[test]
    fn inline_and_queued_paths_agree_and_stamp_in_order() {
        let est: SharedEstimator = Arc::new(StubEstimator {
            base: 1.0,
            delay: Duration::from_millis(10),
        });
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::new(BatcherConfig::default(), Arc::clone(&metrics));
        let query = queries(3).pop().expect("a two-table query");
        let before = Instant::now();
        // An idle batcher answers on the calling thread...
        let (inline, stamps) = batcher
            .estimate_with_trace(7, Arc::clone(&est), query.clone(), None)
            .expect("inline estimate");
        assert_eq!(stamps.dequeued, stamps.enqueued, "inline jobs never queue");
        // ...`submit` always goes through the queue and a worker.
        let done = batcher
            .submit_with_trace(7, Arc::clone(&est), query, None)
            .expect("submit")
            .recv()
            .expect("queued result");
        assert_eq!(done.result, Ok(inline));
        assert_eq!(inline, 3.0);
        for s in [stamps, done.stamps] {
            assert!(s.enqueued >= before);
            assert!(s.dequeued >= s.enqueued);
            assert!(s.forward_start >= s.dequeued);
            // The forward stage contains the stub's 10ms sleep.
            assert!(s.forward_end - s.forward_start >= Duration::from_millis(10));
            assert_eq!(s.batch_span, 0, "untraced jobs mint no batch span");
        }
        batcher.shutdown();
        // Both passes count as batches of one, so `serve.batches` and
        // `serve.mean_batch` describe inline traffic too.
        let snap = metrics.snapshot();
        assert_eq!((snap.batches, snap.max_batch), (2, 1));
    }

    #[test]
    fn sixteen_submitters_on_a_slow_model_still_coalesce() {
        // The inline rule hands out at most `workers` forward slots; the
        // other submitters find them taken, queue up, and ride together.
        let est: SharedEstimator = Arc::new(StubEstimator {
            base: 5.0,
            delay: Duration::from_millis(2),
        });
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::new(
            BatcherConfig {
                request_timeout: Duration::from_secs(10),
                ..BatcherConfig::default()
            },
            Arc::clone(&metrics),
        );
        let start = std::sync::Barrier::new(16);
        std::thread::scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..8 {
                        assert_eq!(batcher.estimate(Arc::clone(&est), Query::new()), Ok(5.0));
                    }
                });
            }
        });
        batcher.shutdown();
        let snap = metrics.snapshot();
        assert!(snap.max_batch > 1, "no coalescing under concurrency");
        assert!(snap.batches < 16 * 8, "batches={}", snap.batches);
    }

    #[test]
    fn inline_pass_that_overruns_its_deadline_is_a_counted_timeout() {
        let est: SharedEstimator = Arc::new(StubEstimator {
            base: 0.0,
            delay: Duration::from_millis(40),
        });
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::new(
            BatcherConfig {
                request_timeout: Duration::from_millis(5),
                ..BatcherConfig::default()
            },
            Arc::clone(&metrics),
        );
        assert_eq!(
            batcher.estimate(Arc::clone(&est), Query::new()),
            Err(Rejection::Timeout)
        );
        assert_eq!(metrics.snapshot().timeouts, 1);
        // The slot was released: the next request runs inline again.
        let (_, stamps) = batcher
            .estimate_traced(
                Arc::new(StubEstimator {
                    base: 0.0,
                    delay: Duration::ZERO,
                }),
                Query::new(),
            )
            .expect("estimate");
        assert_eq!(stamps.dequeued, stamps.enqueued);
        batcher.shutdown();
    }

    #[test]
    fn slow_estimator_times_out_without_blocking_forever() {
        let est: SharedEstimator = Arc::new(StubEstimator {
            base: 0.0,
            delay: Duration::from_millis(300),
        });
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::new(
            BatcherConfig {
                workers: 1,
                max_batch: 4,
                queue_capacity: 64,
                request_timeout: Duration::from_millis(30),
            },
            Arc::clone(&metrics),
        );
        let t0 = Instant::now();
        // First request occupies the worker for 300ms; the second cannot
        // start before its 30ms deadline and must time out.
        let _first = batcher.submit(Arc::clone(&est), Query::new()).unwrap();
        let second = batcher.estimate(Arc::clone(&est), Query::new());
        assert_eq!(second, Err(Rejection::Timeout));
        assert!(
            t0.elapsed() < Duration::from_millis(250),
            "blocked too long"
        );
        assert_eq!(metrics.snapshot().timeouts, 1);
        batcher.shutdown();
        // The expired job was dropped without being computed, or computed
        // before its deadline check — either way nothing hung or panicked.
    }

    #[test]
    fn estimator_errors_propagate_per_job() {
        struct FailingEstimator;
        impl CardinalityEstimator for FailingEstimator {
            fn name(&self) -> &str {
                "Failing"
            }
            fn estimate(&self, _q: &Query) -> f64 {
                1.0
            }
            fn try_estimate(&self, q: &Query) -> Result<f64, EstimateError> {
                if q.tables.is_empty() {
                    Err(EstimateError::Unroutable { tables: vec![] })
                } else {
                    Ok(7.0)
                }
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
        batcher.shutdown();
    }

    #[test]
    fn different_estimator_instances_never_share_a_batch() {
        let a: SharedEstimator = Arc::new(StubEstimator {
            base: 100.0,
            delay: Duration::from_millis(5),
        });
        let b: SharedEstimator = Arc::new(StubEstimator {
            base: 200.0,
            delay: Duration::from_millis(5),
        });
        let batcher = Batcher::new(
            BatcherConfig {
                workers: 1,
                max_batch: 64,
                queue_capacity: 256,
                request_timeout: Duration::from_secs(10),
            },
            Arc::new(Metrics::new()),
        );
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..32)
                .map(|i| {
                    let est = if i % 2 == 0 {
                        Arc::clone(&a)
                    } else {
                        Arc::clone(&b)
                    };
                    let expected = if i % 2 == 0 { 100.0 } else { 200.0 };
                    let batcher = &batcher;
                    s.spawn(move || {
                        let got = batcher.estimate(est, Query::new()).expect("estimate");
                        assert_eq!(got, expected);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        batcher.shutdown();
    }

    #[test]
    fn colliding_keys_never_mix_estimator_instances() {
        // Two distinct estimator instances submitted under the SAME key —
        // the ABA shape a store generation collision would produce. The
        // Arc::ptr_eq sweep guard must keep their batches separate.
        let a: SharedEstimator = Arc::new(StubEstimator {
            base: 100.0,
            delay: Duration::from_millis(5),
        });
        let b: SharedEstimator = Arc::new(StubEstimator {
            base: 200.0,
            delay: Duration::from_millis(5),
        });
        let batcher = Batcher::new(
            BatcherConfig {
                workers: 1,
                max_batch: 64,
                queue_capacity: 256,
                request_timeout: Duration::from_secs(10),
            },
            Arc::new(Metrics::new()),
        );
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..32)
                .map(|i| {
                    let est = if i % 2 == 0 {
                        Arc::clone(&a)
                    } else {
                        Arc::clone(&b)
                    };
                    let expected = if i % 2 == 0 { 100.0 } else { 200.0 };
                    let batcher = &batcher;
                    s.spawn(move || {
                        let rx = batcher.submit_keyed(7, est, Query::new()).expect("submit");
                        let got = rx.recv().expect("result").result.expect("estimate");
                        assert_eq!(got, expected);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        batcher.shutdown();
    }

    #[test]
    fn forward_delay_fault_stalls_the_forward_pass_on_either_path() {
        let faults = Arc::new(crate::faults::FaultInjector::new(11));
        faults.delay_forwards(Duration::from_millis(40), 1.0);
        let est: SharedEstimator = Arc::new(StubEstimator {
            base: 1.0,
            delay: Duration::ZERO,
        });
        let batcher = Batcher::with_faults(
            BatcherConfig::default(),
            Arc::new(Metrics::new()),
            Some(Arc::clone(&faults)),
        );
        // Inline (idle batcher), then through the queue.
        for queued in [false, true] {
            let t0 = Instant::now();
            let got = if queued {
                let rx = batcher.submit(Arc::clone(&est), Query::new()).unwrap();
                rx.recv().unwrap().result
            } else {
                Ok(batcher.estimate(Arc::clone(&est), Query::new()).unwrap())
            };
            assert_eq!(got, Ok(1.0));
            if crate::faults::FaultInjector::armed() {
                assert!(
                    t0.elapsed() >= Duration::from_millis(40),
                    "injected stall skipped (queued={queued}): {:?}",
                    t0.elapsed()
                );
            }
        }
        batcher.shutdown();
    }

    #[test]
    fn traced_batches_mint_one_shared_batch_span() {
        let est: SharedEstimator = Arc::new(StubEstimator {
            base: 1.0,
            delay: Duration::ZERO,
        });
        let batcher = Batcher::new(BatcherConfig::default(), Arc::new(Metrics::new()));
        // Untraced job: no batch span.
        let (_, stamps) = batcher
            .estimate_traced(Arc::clone(&est), Query::new())
            .expect("estimate");
        assert_eq!(stamps.batch_span, 0);
        // Traced job: a nonzero span.
        let ctx = TraceContext {
            trace_id: 7,
            span_id: 9,
        };
        let (_, stamps) = batcher
            .estimate_with_trace(3, Arc::clone(&est), Query::new(), Some(ctx))
            .expect("estimate");
        assert_ne!(stamps.batch_span, 0);
        assert_eq!(stamps.dequeued, stamps.enqueued, "ran inline");
        // And through the queue.
        let rx = batcher
            .submit_with_trace(3, Arc::clone(&est), Query::new(), Some(ctx))
            .expect("submit");
        assert_ne!(rx.recv().expect("result").stamps.batch_span, 0);
        batcher.shutdown();
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::new(BatcherConfig::default(), metrics);
        batcher.begin_shutdown();
        let est: SharedEstimator = Arc::new(StubEstimator {
            base: 0.0,
            delay: Duration::ZERO,
        });
        assert!(matches!(
            batcher.submit(Arc::clone(&est), Query::new()),
            Err(Rejection::ShuttingDown)
        ));
        // The inline path checks the same flag before it claims a slot.
        assert_eq!(
            batcher.estimate(est, Query::new()),
            Err(Rejection::ShuttingDown)
        );
        batcher.shutdown();
    }
}
