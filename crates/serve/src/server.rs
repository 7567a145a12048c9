//! The TCP front end: an acceptor thread plus one handler thread per
//! connection. A handler runs its request to the end itself — parse, cache
//! probe, the forward pass (through the shared [`Batcher`]), the write.
//!
//! Robustness properties (each covered by an integration test):
//!
//! * every malformed or unanswerable request gets a typed one-line `ERR` —
//!   no panic is reachable from client input;
//! * admission is the connection cap at accept time, shedding with `BUSY`:
//!   a connection has one request in flight, so the cap bounds the passes;
//! * `shutdown()` drains: every request already read is answered and every
//!   thread is joined before it returns.

use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ds_core::lifecycle::LifecycleManager;
use ds_core::monitor::MonitorRegistry;
use ds_core::snapshot::{self, decode_hex, encode_hex};
use ds_core::store::{AdoptOutcome, SketchStore};
use ds_est::EstimateError;
use ds_obs::{Counter, IdSource, PromText, SloTracker, TraceContext};
use ds_query::parser::Parser;
use ds_query::query::Query;
use ds_storage::catalog::Database;

use crate::batcher::{Batcher, BatcherConfig, Rejection, SharedEstimator, StageStamps};
use crate::breaker::{Admit, BreakerRegistry};
use crate::cache::{CanonicalQuery, EstimateCache, EstimateKey};
use crate::config::{ServeConfig, SloSignal};
use crate::faults::FaultInjector;
use crate::line_reader::{LineReader, POLL_INTERVAL};
use crate::metrics::{Metrics, MetricsSnapshot, RequestTimeline};
use crate::protocol::{
    estimate_error_response, format_response, hello_response, split_request, store_error_response,
    ErrorCode, Request, Response,
};

/// Bound on queued shadow-mirror jobs: the hot path never blocks on the
/// lifecycle daemon — when the scorer falls behind, mirrored jobs are
/// dropped and counted instead.
const SHADOW_QUEUE_CAPACITY: usize = 1024;

/// One mirrored request for the lifecycle daemon's shadow scorer: the
/// already-parsed query, the live model's answer, and (for FEEDBACK) the
/// true cardinality that grades both models.
struct ShadowJob {
    sketch: String,
    query: Query,
    live: f64,
    actual: Option<u64>,
}

/// One configured SLO with its live burn-rate tracker.
struct SloState {
    tracker: SloTracker,
    signal: SloSignal,
}

/// Lifecycle plumbing shared between the request handlers (harvest and
/// mirror hooks) and the maintain daemon (ticks and shadow scoring).
struct LifecycleShared {
    manager: Arc<LifecycleManager>,
    shadow_tx: SyncSender<ShadowJob>,
}

struct Shared {
    db: Arc<Database>,
    store: Arc<SketchStore>,
    batcher: Batcher,
    metrics: Arc<Metrics>,
    monitors: Arc<MonitorRegistry>,
    shutting_down: AtomicBool,
    max_connections: usize,
    timeline: bool,
    slow_threshold: Duration,
    templates: TemplateInterner,
    breakers: BreakerRegistry,
    fallback: Option<SharedEstimator>,
    faults: Option<Arc<FaultInjector>>,
    cache: Option<EstimateCache>,
    lifecycle: Option<LifecycleShared>,
    snapshot_dir: Option<PathBuf>,
    /// Mints this server's span ids for traced requests.
    ids: IdSource,
    /// Monotonic epoch anchoring SLO window timestamps — no wall clock
    /// on the request path.
    epoch: Instant,
    /// Configured SLOs with their burn-rate trackers (empty = disabled).
    slos: Vec<SloState>,
}

impl Shared {
    /// Milliseconds since the server started — the SLO clock.
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Grades one finished request against every configured SLO (see
    /// [`SloSignal::grade`]).
    fn record_slos(&self, latency: Option<Duration>, errored: bool, qerror: Option<f64>) {
        if self.slos.is_empty() {
            return;
        }
        let now = self.now_ms();
        for slo in &self.slos {
            if let Some(good) = slo.signal.grade(latency, errored, qerror) {
                slo.tracker.record(now, good);
            }
        }
    }

    /// Names of SLOs currently firing their burn-rate alert.
    fn firing_slos(&self) -> Vec<String> {
        let now = self.now_ms();
        self.slos
            .iter()
            .filter(|s| s.tracker.firing(now))
            .map(|s| s.tracker.spec().name.clone())
            .collect()
    }
}

/// A running sketch server. Dropping it shuts it down.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    lifecycle_daemon: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the acceptor, and returns immediately. Estimates are
    /// parsed against `db` and answered by the sketches in `store` (resolved
    /// by name per request, so background retraining swaps take effect
    /// live). With a snapshot directory, the server first recovers it into
    /// `store` and its own monitors ([`SketchStore::recover`]): a warm
    /// restart serves what the directory holds, drift windows included.
    pub fn start(
        db: Arc<Database>,
        store: Arc<SketchStore>,
        cfg: ServeConfig,
    ) -> std::io::Result<Self> {
        let monitors = Arc::new(MonitorRegistry::new());
        if let Some(dir) = cfg.snapshot_dir.as_deref() {
            store
                .recover(dir, &monitors)
                .map_err(std::io::Error::other)?;
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let metrics = Arc::new(Metrics {
            sync_quarantined: cfg.snapshot_dir.is_some().then(Counter::new),
            mirrored: cfg.lifecycle.is_some().then(Counter::new),
            shadow_dropped: cfg.lifecycle.is_some().then(Counter::new),
            ..Metrics::new()
        });
        let batcher = Batcher::with_faults(
            BatcherConfig {
                request_timeout: cfg.request_timeout,
            },
            Arc::clone(&metrics),
            cfg.faults.clone(),
        );
        // Lifecycle plumbing is built before `Shared` so the manager can
        // reload persisted harvest sets off the snapshot directory (the
        // warm-restart path) ahead of the first request.
        let mut daemon: Option<(Arc<LifecycleManager>, Receiver<ShadowJob>)> = None;
        let lifecycle = match cfg.lifecycle {
            Some(lc_cfg) => {
                let manager = Arc::new(
                    LifecycleManager::new(lc_cfg)
                        .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e))?,
                );
                if let Some(dir) = cfg.snapshot_dir.as_deref() {
                    manager.load_harvests(dir);
                }
                let (tx, rx) = std::sync::mpsc::sync_channel(SHADOW_QUEUE_CAPACITY);
                daemon = Some((Arc::clone(&manager), rx));
                Some(LifecycleShared {
                    manager,
                    shadow_tx: tx,
                })
            }
            None => None,
        };
        let shared = Arc::new(Shared {
            db,
            store,
            batcher,
            metrics,
            monitors,
            shutting_down: AtomicBool::new(false),
            max_connections: cfg.max_connections.max(1),
            timeline: cfg.timeline,
            slow_threshold: cfg.slow_threshold,
            templates: TemplateInterner::new(),
            breakers: BreakerRegistry::new(cfg.breaker),
            fallback: cfg.fallback,
            faults: cfg.faults,
            cache: (cfg.cache_capacity > 0).then(|| EstimateCache::new(cfg.cache_capacity, 8)),
            lifecycle,
            snapshot_dir: cfg.snapshot_dir,
            ids: IdSource::from_entropy(),
            epoch: Instant::now(),
            slos: cfg
                .slos
                .into_iter()
                .map(|s| SloState {
                    tracker: SloTracker::new(s.spec),
                    signal: s.signal,
                })
                .collect(),
        });
        let lifecycle_daemon = match daemon {
            Some((manager, rx)) => {
                let shared = Arc::clone(&shared);
                Some(
                    std::thread::Builder::new()
                        .name("ds-serve-lifecycle".to_string())
                        .spawn(move || run_lifecycle_daemon(&manager, &shared, &rx))?,
                )
            }
            None => None,
        };
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let handlers = Arc::clone(&handlers);
            std::thread::Builder::new()
                .name("ds-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared, &handlers))?
        };
        Ok(Self {
            addr,
            shared,
            acceptor: Some(acceptor),
            handlers,
            lifecycle_daemon,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live serving counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// The rolling q-error monitors fed by `FEEDBACK` requests. Hand this
    /// to [`ds_core::advisor::recommend_retraining`] together with the
    /// store to turn drift into retraining recommendations.
    pub fn monitors(&self) -> Arc<MonitorRegistry> {
        Arc::clone(&self.shared.monitors)
    }

    /// The retrain-and-hot-swap lifecycle manager, when the server was
    /// configured with one. Tests and drills use this to inspect phase and
    /// counters without a wire round-trip.
    pub fn lifecycle(&self) -> Option<Arc<LifecycleManager>> {
        self.shared
            .lifecycle
            .as_ref()
            .map(|lc| Arc::clone(&lc.manager))
    }

    /// The per-sketch circuit breaker for `sketch` (created on first use).
    /// Tests and operators read its state/counters; the serving path owns
    /// the transitions.
    pub fn breaker(&self, sketch: &str) -> Arc<crate::breaker::CircuitBreaker> {
        self.shared.breakers.breaker(sketch)
    }

    /// Names of configured SLOs whose multi-window burn-rate alert is
    /// currently firing. Empty when no SLOs are configured or none burn.
    pub fn firing_slos(&self) -> Vec<String> {
        self.shared.firing_slos()
    }

    /// Graceful shutdown: stop accepting, let in-flight requests finish,
    /// join every thread. Returns the final metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop_and_join();
        self.shared.metrics.snapshot()
    }

    fn stop_and_join(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking accept() with a wake-up
        // connection; it observes the flag and exits.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        let handlers: Vec<_> = self
            .handlers
            .lock()
            .expect("handler registry")
            .drain(..)
            .collect();
        for h in handlers {
            let _ = h.join();
        }
        // The daemon polls `shutting_down` between queue waits, so it
        // exits within one poll interval (persisting harvests on the way
        // out).
        if let Some(h) = self.lifecycle_daemon.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.stop_and_join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let active = shared.metrics.active_connections.load(Ordering::SeqCst);
        if active >= shared.max_connections {
            shared.metrics.shed.inc();
            let mut s = stream;
            let line = format_response(&Response::Busy(format!(
                "connection limit {} reached",
                shared.max_connections
            )));
            let _ = writeln!(s, "{line}");
            continue;
        }
        shared
            .metrics
            .active_connections
            .fetch_add(1, Ordering::SeqCst);
        let slot = ConnectionSlot(Arc::clone(shared));
        // The closure owns the slot: a handler that returns, one that
        // unwinds, and a spawn that fails (it drops the closure) all free it.
        let spawned = std::thread::Builder::new()
            .name("ds-serve-conn".to_string())
            .spawn(move || handle_connection(stream, &slot.0));
        if let Ok(handle) = spawned {
            let mut reg = handlers.lock().expect("handler registry");
            // Reap finished handlers so the registry stays bounded.
            reg.retain(|h| !h.is_finished());
            reg.push(handle);
        }
    }
}

/// One admitted connection's share of `max_connections`, given back when
/// dropped.
struct ConnectionSlot(Arc<Shared>);

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0
            .metrics
            .active_connections
            .fetch_sub(1, Ordering::SeqCst);
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let Ok(mut lines) = LineReader::new(stream, &shared.shutting_down) else {
        return;
    };
    let mut conn = ConnectionState::default();
    while let Some(request) = lines.next_line() {
        // t0 anchors the request timeline: everything from here to the
        // post-flush stamp is attributed to exactly one stage.
        let t0 = Instant::now();
        let (response, pending) = handle_line(request, shared, t0, &mut conn);
        if lines.respond(&response).is_err() {
            return;
        }
        if let Some(p) = pending {
            finish_timeline(p, &conn.sketch, t0, shared);
        }
        if response == Response::Bye {
            return;
        }
    }
}

/// What a handler keeps from one request to the next, beside its
/// [`LineReader`]'s line and reply buffers. A request is read as slices of
/// the line; everything derived from it lands in these, which keep their
/// allocations, so a cache hit allocates nothing. A miss lends `query` to
/// the forward pass and clones `key` into the cache.
#[derive(Default)]
struct ConnectionState {
    /// The SQL parser's token, term and alias buffers.
    parser: Parser,
    /// The request's parsed query.
    query: Query,
    /// Its canonical form: template shape, harvest key and cache key.
    canonical: CanonicalQuery,
    /// The key the cache is probed with.
    key: EstimateKey,
    /// The sketch the last timed request named: its timeline is finished
    /// after the reply is written, when the line is gone.
    sketch: String,
}

/// A successful estimate's timeline, waiting for the final write stamp.
struct PendingTimeline {
    template: Arc<str>,
    stamps: StageStamps,
    /// Incoming trace context plus this server's own span id, when the
    /// request carried a `trace=` token.
    trace: Option<(TraceContext, u64)>,
}

/// Stitches the stamps into the three contiguous stages, records them, and
/// keeps the request as a `TRACE` exemplar when it crossed the slow
/// threshold — or when it was traced, so a cross-process trace always has
/// its server-side spans available to the aggregator. Only kept exemplars
/// materialize their strings; the common fast-request path records three
/// histogram points and returns.
fn finish_timeline(p: PendingTimeline, sketch: &str, t0: Instant, shared: &Shared) {
    let done = Instant::now();
    let us = |d: Duration| d.as_micros() as u64;
    let s = &p.stamps;
    let total = done.saturating_duration_since(t0);
    let parse_us = us(s.forward_start.saturating_duration_since(t0));
    let forward_us = us(s.forward_end.saturating_duration_since(s.forward_start));
    let write_us = us(done.saturating_duration_since(s.forward_end));
    shared.metrics.record_stages(parse_us, forward_us, write_us);
    if total >= shared.slow_threshold || p.trace.is_some() {
        let (trace_id, parent_span, span_id) = match p.trace {
            Some((ctx, span)) => (ctx.trace_id, ctx.span_id, span),
            None => (0, 0, 0),
        };
        shared.metrics.slow.push(RequestTimeline {
            sketch: sketch.to_string(),
            template: p.template.as_ref().to_string(),
            total_us: us(total),
            parse_us,
            forward_us,
            write_us,
            trace_id,
            span_id,
            parent_span,
        });
    }
}

/// Interns structural templates: queries with the same shape share one
/// rendered string, so the per-request timeline path pays a read-locked
/// map hit on the shape its cache key already holds instead of
/// re-rendering [`query_template`] (string sorts and a dozen allocations)
/// on every request. Public for `ds-bench`'s `ceilings` test, which holds
/// the per-request timeline work under an absolute ceiling.
pub struct TemplateInterner {
    map: RwLock<HashMap<Vec<u32>, Arc<str>>>,
}

impl Default for TemplateInterner {
    fn default() -> Self {
        Self::new()
    }
}

impl TemplateInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self {
            map: RwLock::new(HashMap::new()),
        }
    }

    /// Returns the interned [`query_template`] of `query`, rendering and
    /// caching it on first sight of `shape`, the query's
    /// [`EstimateKey::shape`](crate::EstimateKey::shape).
    pub fn get(&self, db: &Database, query: &Query, shape: &[u32]) -> Arc<str> {
        if let Some(t) = self.map.read().expect("template cache poisoned").get(shape) {
            return Arc::clone(t);
        }
        let rendered: Arc<str> = query_template(db, query).into();
        let mut map = self.map.write().expect("template cache poisoned");
        // Bounded against unbounded shape churn; real workloads cycle a
        // handful of shapes, so eviction is effectively unreachable.
        if map.len() >= 4096 {
            map.clear();
        }
        Arc::clone(map.entry(shape.to_vec()).or_insert(rendered))
    }
}

/// The structural template of a query: sorted table names, join equalities,
/// and predicate shapes with literals elided. Space-free by construction
/// (identifier characters only plus `,|+=<>?.`), so it survives the
/// one-token wire formats, and canonical, so the same query shape always
/// feeds the same per-template drift monitor regardless of literal values
/// or clause order.
pub fn query_template(db: &Database, query: &Query) -> String {
    let mut tables: Vec<&str> = query.tables.iter().map(|t| db.table(*t).name()).collect();
    tables.sort_unstable();
    let mut joins: Vec<String> = query
        .joins
        .iter()
        .map(|j| {
            let (l, r) = (db.col_name(j.left), db.col_name(j.right));
            if l <= r {
                format!("{l}={r}")
            } else {
                format!("{r}={l}")
            }
        })
        .collect();
    joins.sort();
    let mut preds: Vec<String> = query
        .qualified_predicates()
        .map(|(cr, p)| {
            // Comparison tokens keep their legacy spelling; the word-like
            // operators get dot delimiters so the template stays
            // unambiguous against identifier characters.
            let tok = match p.op_kind() {
                ds_storage::predicate::PredOpKind::In => ".IN.",
                ds_storage::predicate::PredOpKind::Like => ".LIKE.",
                k => k.sql(),
            };
            format!("{}{}?", db.col_name(cr), tok)
        })
        .collect();
    preds.sort();
    let mut out = tables.join(",");
    if !joins.is_empty() {
        out.push('|');
        out.push_str(&joins.join("+"));
    }
    if !preds.is_empty() {
        out.push('|');
        out.push_str(&preds.join("+"));
    }
    out
}

/// Answers one request line. Total: every path, including malformed input,
/// produces exactly one response.
fn handle_line(
    line: &str,
    shared: &Shared,
    t0: Instant,
    conn: &mut ConnectionState,
) -> (Response, Option<PendingTimeline>) {
    shared.metrics.requests.inc();
    let request = match split_request(line) {
        Ok(r) => r,
        Err(resp) => {
            shared.metrics.errors.inc();
            return (resp, None);
        }
    };
    let response = match request {
        Request::Estimate { sketch, sql, trace } => {
            return handle_estimate(sketch, sql, trace, None, shared, t0, conn)
        }
        Request::Feedback {
            sketch,
            actual,
            sql,
            trace,
        } => return handle_estimate(sketch, sql, trace, Some(actual), shared, t0, conn),
        Request::Hello { version } => {
            let response = hello_response(version);
            if matches!(response, Response::Error { .. }) {
                shared.metrics.errors.inc();
            }
            response
        }
        Request::Snapshot { sketch } => handle_snapshot(sketch, shared),
        Request::Sync {
            name,
            generation,
            len,
            hex,
        } => handle_sync(name, generation, len, hex, shared),
        Request::Info { sketch } => match shared.store.get(sketch) {
            Ok(s) => Response::Text(s.info().to_string()),
            Err(e) => {
                shared.metrics.errors.inc();
                store_error_response(&e)
            }
        },
        Request::List => {
            let names: Vec<String> = shared.store.list().into_iter().map(|(n, _)| n).collect();
            Response::Text(if names.is_empty() {
                "(no sketches)".to_string()
            } else {
                names.join(" ")
            })
        }
        Request::Stats => match stats_payload(shared) {
            Ok(doc) => Response::Text(doc),
            Err(family) => {
                shared.metrics.errors.inc();
                Response::Error {
                    code: ErrorCode::Internal,
                    message: format!("duplicate family {family}"),
                }
            }
        },
        Request::Lifecycle { sketch } => handle_lifecycle(sketch, shared),
        Request::Trace => Response::Text(RequestTimeline::payload(&shared.metrics.slow.snapshot())),
        Request::Quit => Response::Bye,
    };
    (response, None)
}

/// Ships the named sketch as a hex-encoded DSNP blob. The bytes are
/// exactly what [`SketchStore::save_snapshot`] would write to disk —
/// generation-keyed and checksum-trailed — so a replica adopting them gets
/// a bit-identical model.
fn handle_snapshot(sketch: &str, shared: &Shared) -> Response {
    match shared.store.export_snapshot(sketch, Some(&shared.monitors)) {
        Ok((bytes, generation)) => {
            shared.metrics.snapshots_shipped.inc();
            Response::Text(format!(
                "SNAPSHOT {sketch} {generation} {} {}",
                bytes.len(),
                encode_hex(&bytes)
            ))
        }
        Err(e) => {
            shared.metrics.errors.inc();
            store_error_response(&e)
        }
    }
}

/// Adopts a shipped DSNP blob into this shard's store through
/// [`SketchStore::adopt`], newest generation wins. Bad hex, a length that
/// disagrees with the announced one, or any offer `adopt` refuses is
/// answered with a typed `ERR decode`, and the payload, when there is one,
/// is kept under `<snapshot_dir>/quarantine/` ([`snapshot::quarantine`]);
/// a refused transfer is never adopted.
fn handle_sync(name: &str, generation: u64, len: u64, hex: &str, shared: &Shared) -> Response {
    let (message, payload) = match decode_hex(hex) {
        None => (format!("SYNC {name}: payload is not valid hex"), None),
        Some(bytes) if bytes.len() as u64 != len => (
            format!("SYNC {name}: announced {len} bytes, got {}", bytes.len()),
            Some(bytes),
        ),
        Some(bytes) => match shared
            .store
            .adopt(&bytes, name, generation, &shared.monitors)
        {
            Ok(AdoptOutcome::Adopted { generation }) => {
                shared.metrics.sync_adopted.inc();
                return Response::Text(format!("SYNC {name} {generation} adopted"));
            }
            Ok(AdoptOutcome::Stale { current, .. }) => {
                shared.metrics.sync_stale.inc();
                return Response::Text(format!("SYNC {name} {current} stale"));
            }
            Err(reason) => (format!("SYNC {name}@{generation}: {reason}"), Some(bytes)),
        },
    };
    let m = &shared.metrics;
    m.sync_rejected.inc();
    m.errors.inc();
    if let (Some(bytes), Some(dir), Some(quarantined)) =
        (payload, &shared.snapshot_dir, &m.sync_quarantined)
    {
        // The rejection count keeps this process's names apart;
        // `quarantine` steps past a predecessor's.
        let file_name = format!("sync-reject-{}.dsnp", m.sync_rejected.get());
        if snapshot::quarantine(dir, &file_name, &bytes).is_ok() {
            quarantined.inc();
        }
    }
    Response::Error {
        code: ErrorCode::Decode,
        message,
    }
}

/// Whether a rejection says something about the *sketch's* health (and
/// should trip its circuit breaker / route to the fallback) rather than
/// about the client's query. Malformed/out-of-scope queries are not the
/// model's fault.
fn health_failure(r: &Rejection) -> bool {
    match r {
        Rejection::Timeout => true,
        Rejection::Estimate(e) => matches!(
            e,
            EstimateError::Decode(_) | EstimateError::Unavailable(_) | EstimateError::Execution(_)
        ),
        Rejection::ShuttingDown => false,
    }
}

/// Answers `query` through the configured fallback estimator, flagged
/// `degraded` on the wire. `None` when no fallback is configured or it
/// fails too (the caller then surfaces the original error).
fn degraded_answer(query: &ds_query::query::Query, shared: &Shared) -> Option<Response> {
    let fallback = shared.fallback.as_ref()?;
    match fallback.try_estimate(query) {
        Ok(v) => {
            shared.metrics.degraded.inc();
            Some(Response::Degraded(v))
        }
        Err(_) => None,
    }
}

/// Estimates `sql` with the named sketch; with `feedback`, additionally
/// records the q-error against the observed true cardinality. Both paths
/// answer through the same batcher call, so a `FEEDBACK` estimate is
/// bit-identical to the `ESTIMATE` it grades.
///
/// The degradation chain wraps the happy path: an open circuit breaker
/// short-circuits straight to the fallback, and a health-style failure
/// (decode/execution/unavailable/timeout) trips the breaker and answers
/// through the fallback when one is configured — flagged `degraded` on the
/// wire, never silently.
fn handle_estimate(
    sketch: &str,
    sql: &str,
    trace: Option<TraceContext>,
    feedback: Option<u64>,
    shared: &Shared,
    t0: Instant,
    conn: &mut ConnectionState,
) -> (Response, Option<PendingTimeline>) {
    let _span = ds_obs::global().span("serve/estimate");
    // A traced request gets this server's own span, parented under the
    // caller's, for its exemplar.
    let server_trace = trace.map(|ctx| (ctx, shared.ids.next_span()));
    let (estimator, generation) = match shared.store.get_with_generation(sketch) {
        Ok(p) => p,
        Err(e) => {
            shared.metrics.errors.inc();
            shared.record_slos(None, true, None);
            return (store_error_response(&e), None);
        }
    };
    let ConnectionState {
        parser,
        query,
        canonical,
        key,
        sketch: timed_sketch,
    } = conn;
    if let Err(e) = parser.parse_query(&shared.db, sql, query) {
        shared.metrics.errors.inc();
        shared.record_slos(None, true, None);
        return (
            Response::Error {
                code: ErrorCode::Parse,
                message: e.0,
            },
            None,
        );
    }
    let breaker = shared.breakers.breaker(sketch);
    let admit = breaker.admit();
    if admit == Admit::ShortCircuit {
        return match degraded_answer(query, shared) {
            Some(resp) => {
                shared.metrics.record_ok(t0.elapsed());
                shared.record_slos(Some(t0.elapsed()), false, None);
                (resp, None)
            }
            None => {
                shared.metrics.errors.inc();
                shared.record_slos(None, true, None);
                (
                    Response::Error {
                        code: ErrorCode::NotReady,
                        message: format!("sketch '{sketch}' circuit open; no fallback configured"),
                    },
                    None,
                )
            }
        };
    }
    // The cache is consulted only while the breaker is fully closed: an
    // open circuit already short-circuited above, and a half-open probe
    // must exercise the real model to prove recovery — a warm cache must
    // never mask an unhealthy sketch.
    let cache = shared.cache.as_ref().filter(|_| admit == Admit::Allow);
    // One canonicalisation of the query serves the interned template, the
    // harvest key and the cache key.
    let wants_template = shared.timeline || feedback.is_some();
    let canonical = (wants_template || cache.is_some()).then(|| {
        canonical.fill(query);
        &*canonical
    });
    let template = canonical
        .filter(|_| wants_template)
        .map(|c| shared.templates.get(&shared.db, query, &c.shape));
    // Shadow mirroring clones the query only while this sketch is actually
    // in the shadow phase — `shadowing` is one relaxed atomic load when no
    // candidate exists anywhere, keeping the steady-state path clone-free.
    let mirror_query = shared
        .lifecycle
        .as_ref()
        .filter(|lc| lc.manager.shadowing(sketch))
        .map(|_| query.clone());
    // Harvest key: graded queries dedupe on template + literals, so
    // re-grading the same concrete query refreshes (not duplicates) its
    // harvest entry.
    let harvest_key = canonical
        .filter(|_| feedback.is_some() && shared.lifecycle.is_some())
        .map(|c| harvest_key(template.as_deref().unwrap_or(""), c));
    // The key carries the store generation this request resolved, so an
    // entry of a swapped-out model is never looked up again.
    let cache_key = cache.zip(canonical).map(|(c, q)| {
        key.set(sketch, generation, q);
        (c, &*key)
    });
    let mut cache_hit = false;
    let outcome = if shared
        .faults
        .as_ref()
        .is_some_and(|f| f.is_poisoned(sketch))
    {
        // Injected fault: the in-memory model is corrupt; fail before the
        // forward pass, exactly where a real poisoned model would.
        Err(Rejection::Estimate(EstimateError::Execution(format!(
            "sketch '{sketch}' model poisoned (fault injection)"
        ))))
    } else if let Some(v) = cache_key.and_then(|(c, k)| c.get(k)) {
        // Warm cache: the memoized answer is bit-identical to what the
        // forward pass produced when it was inserted, so the wire bytes
        // match a cold estimate exactly.
        cache_hit = true;
        let now = Instant::now();
        Ok((
            v,
            StageStamps {
                forward_start: now,
                forward_end: now,
            },
        ))
    } else {
        // The pass runs here, on this handler's thread, against the model
        // this request resolved: a concurrent swap changes what the next
        // lookup finds, not what this pass holds.
        match shared.batcher.estimate_stamped(&*estimator, query) {
            Ok(_)
                if shared
                    .faults
                    .as_ref()
                    .is_some_and(|f| f.should_flip_decode(sketch)) =>
            {
                Err(Rejection::Estimate(EstimateError::Decode(format!(
                    "sketch '{sketch}' decode flipped (fault injection)"
                ))))
            }
            other => other,
        }
    };
    match outcome {
        Ok((v, stamps)) => {
            breaker.record_success();
            let latency = t0.elapsed();
            shared.metrics.record_ok(latency);
            let qerror = feedback.map(|actual| ds_core::metrics::qerror(v, actual.max(1) as f64));
            shared.record_slos(Some(latency), false, qerror);
            if let Some(actual) = feedback {
                let monitor = shared.monitors.monitor(sketch);
                monitor.record(template.as_deref().unwrap_or(""), v, actual as f64);
                // Graded queries feed the lifecycle harvest (and, post-swap,
                // the guard window) — the raw SQL rides along so the daemon
                // can re-parse it for incremental retraining.
                if let (Some(lc), Some(key)) = (shared.lifecycle.as_ref(), harvest_key.as_deref()) {
                    lc.manager
                        .observe_feedback(sketch, generation, key, sql, v, actual);
                }
            }
            if !cache_hit {
                if let Some((c, k)) = cache_key {
                    c.insert(k.clone(), v);
                }
            }
            // Mirror the request to the shadow scorer *after* answering is
            // decided: the candidate never contributes to the wire response,
            // and a full queue drops the mirror (counted), never the client.
            if let (Some(lc), Some(q)) = (shared.lifecycle.as_ref(), mirror_query) {
                let job = ShadowJob {
                    sketch: sketch.to_string(),
                    query: q,
                    live: v,
                    actual: feedback,
                };
                let counted = match lc.shadow_tx.try_send(job) {
                    Ok(()) => &shared.metrics.mirrored,
                    Err(_) => &shared.metrics.shadow_dropped,
                };
                if let Some(counted) = counted {
                    counted.inc();
                }
            }
            let pending = shared.timeline.then(|| {
                timed_sketch.clear();
                timed_sketch.push_str(sketch);
                PendingTimeline {
                    template: template.expect("template built when timeline on"),
                    stamps,
                    trace: server_trace,
                }
            });
            (Response::Estimate(v), pending)
        }
        Err(rejection) => {
            if health_failure(&rejection) {
                breaker.record_failure();
                if let Some(resp) = degraded_answer(query, shared) {
                    shared.metrics.record_ok(t0.elapsed());
                    shared.record_slos(Some(t0.elapsed()), false, None);
                    return (resp, None);
                }
            }
            shared.record_slos(None, true, None);
            match rejection {
                Rejection::Timeout => {
                    // The batcher already counted the timeout.
                    (
                        Response::Error {
                            code: ErrorCode::Timeout,
                            message: "request deadline exceeded".to_string(),
                        },
                        None,
                    )
                }
                Rejection::ShuttingDown => {
                    shared.metrics.errors.inc();
                    (
                        Response::Error {
                            code: ErrorCode::Internal,
                            message: "server shutting down".to_string(),
                        },
                        None,
                    )
                }
                Rejection::Estimate(e) => {
                    shared.metrics.errors.inc();
                    (estimate_error_response(&e), None)
                }
            }
        }
    }
}

/// The harvest deduplication key: the interner's canonical template plus
/// the concrete literals in the query's canonical predicate order. Two
/// gradings of the same concrete query collide (refreshing that harvest
/// entry); the same template with different literals stays distinct.
fn harvest_key(template: &str, query: &CanonicalQuery) -> String {
    use std::fmt::Write as _;
    let mut key = String::with_capacity(template.len() + query.preds.len() * 12);
    key.push_str(template);
    for (t, c, op, lits) in &query.preds {
        // Op codes < 3 are single-literal comparisons and keep the legacy
        // `#{t}.{c}:{op}={lit}` spelling; IN/LIKE render their full
        // literal vector so distinct lists and patterns stay distinct.
        let _ = write!(key, "#{t}.{c}:{op}=");
        for (i, lit) in query.lits[lits.start..lits.end].iter().enumerate() {
            if i > 0 {
                key.push(',');
            }
            let _ = write!(key, "{lit}");
        }
    }
    key
}

/// The lifecycle daemon loop: drains mirrored shadow jobs, steps the
/// retrain state machine every `tick_interval`, and persists dirty
/// harvest sets alongside the snapshots. Persists once more on shutdown
/// so a graceful stop never loses harvested queries.
fn run_lifecycle_daemon(manager: &LifecycleManager, shared: &Shared, rx: &Receiver<ShadowJob>) {
    let tick_every = manager.config().tick_interval;
    let mut last_tick = Instant::now();
    while !shared.shutting_down.load(Ordering::SeqCst) {
        match rx.recv_timeout(tick_every.min(POLL_INTERVAL)) {
            Ok(job) => shadow_score(job, manager, shared),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        if last_tick.elapsed() >= tick_every {
            last_tick = Instant::now();
            manager.tick(
                &shared.store,
                &shared.monitors,
                &shared.db,
                shared.snapshot_dir.as_deref(),
            );
            if let Some(dir) = shared.snapshot_dir.as_deref() {
                manager.persist_harvests(dir);
            }
        }
    }
    if let Some(dir) = shared.snapshot_dir.as_deref() {
        manager.persist_harvests(dir);
    }
}

/// Scores one mirrored request on the shadow candidate. The candidate
/// answers through the same batcher call as live traffic — bit-exact
/// mirroring — on the lifecycle daemon's thread, and never serves a client.
/// Graded mirrors (FEEDBACK) feed the shadow gate; ungraded ones still
/// run to keep mirroring cost honest but record nothing.
fn shadow_score(job: ShadowJob, manager: &LifecycleManager, shared: &Shared) {
    let Some(candidate) = manager.shadow_candidate(&job.sketch) else {
        return;
    };
    let Ok((candidate_v, _)) = shared.batcher.estimate_stamped(&*candidate, &job.query) else {
        return;
    };
    if let Some(actual) = job.actual {
        let truth = actual.max(1) as f64;
        manager.observe_shadow(
            &job.sketch,
            ds_core::metrics::qerror(job.live, truth),
            ds_core::metrics::qerror(candidate_v, truth),
        );
    }
}

/// `LIFECYCLE <sketch>`: one-line status of the retrain-and-hot-swap
/// state machine. Per-sketch phase and shadow medians come from the
/// manager; the counters are manager-wide so an operator can watch a
/// drill converge over a single connection.
fn handle_lifecycle(sketch: &str, shared: &Shared) -> Response {
    // An unknown name answers like INFO does, with the store error, whether
    // or not a lifecycle is configured.
    let generation = match shared.store.get_with_generation(sketch) {
        Ok((_, generation)) => generation,
        Err(e) => return store_error_response(&e),
    };
    let Some(lc) = shared.lifecycle.as_ref() else {
        return Response::Text(format!("LIFECYCLE {sketch} disabled"));
    };
    let status = lc.manager.status(sketch);
    let c = lc.manager.counters();
    Response::Text(format!(
        "LIFECYCLE {sketch} phase={} generation={} harvested={} shadow_samples={} \
         shadow_live_p50={:.3} shadow_candidate_p50={:.3} swaps={} rollbacks={} \
         gate_rejects={} retrains={} promotions={}",
        status.phase.as_str(),
        generation,
        status.harvested,
        status.shadow_samples,
        status.shadow_live_p50,
        status.shadow_candidate_p50,
        c.swaps.get(),
        c.rollbacks.get(),
        c.gate_rejects.get(),
        c.retrains_started.get(),
        c.promotions.get(),
    ))
}

/// Renders every metric family as Prometheus text exposition, each by its
/// owner, or names the first family two owners both emitted. Real newlines
/// cannot cross the one-line wire, so they are escaped as literal `\n`;
/// [`crate::Client::stats`] reverses this.
fn stats_payload(shared: &Shared) -> Result<String, String> {
    let mut p = PromText::new();
    shared.metrics.render(&mut p);
    if let Some(cache) = &shared.cache {
        cache.render(&mut p);
    }
    for (name, sketch) in shared.store.list() {
        sketch.render_memo(&name, &mut p);
    }
    shared.breakers.render(&mut p);
    shared.monitors.render(&mut p);
    if let Some(lc) = &shared.lifecycle {
        lc.manager.render(&mut p);
    }
    for slo in &shared.slos {
        slo.tracker.render(shared.now_ms(), &mut p);
    }
    p.tracer(ds_obs::global());
    Ok(p.finish()?.trim_end().replace('\n', "\\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_query::parser::parse_query;
    use ds_storage::gen::{imdb_database, ImdbConfig};

    #[test]
    fn interner_shares_one_rendering_per_query_shape() {
        let db = imdb_database(&ImdbConfig::tiny(3));
        let interner = TemplateInterner::new();
        // Same shape, different literals and clause order → one entry.
        let a = parse_query(
            &db,
            "SELECT COUNT(*) FROM title t, movie_keyword mk \
             WHERE mk.movie_id = t.id AND t.production_year > 1995",
        )
        .expect("parse");
        let b = parse_query(
            &db,
            "SELECT COUNT(*) FROM movie_keyword mk, title t \
             WHERE t.production_year > 2001 AND mk.movie_id = t.id",
        )
        .expect("parse");
        let get = |q: &Query| interner.get(&db, q, EstimateKey::new("imdb", 1, q).shape());
        let ta = get(&a);
        let tb = get(&b);
        assert!(Arc::ptr_eq(&ta, &tb), "same shape must intern to one Arc");
        assert_eq!(ta.as_ref(), query_template(&db, &a));
        assert_eq!(ta.as_ref(), query_template(&db, &b));

        // A different operator on the same column is a different shape.
        let c = parse_query(
            &db,
            "SELECT COUNT(*) FROM title t, movie_keyword mk \
             WHERE mk.movie_id = t.id AND t.production_year < 1995",
        )
        .expect("parse");
        let tc = get(&c);
        assert!(!Arc::ptr_eq(&ta, &tc));
        assert_eq!(tc.as_ref(), query_template(&db, &c));
    }

    /// The global tracer's families meet the server's in `STATS`: a traced
    /// counter under a name the server owns is an error there, not a
    /// second family. (No other test of this crate's unit suite reads
    /// `STATS` or counts into the global tracer.)
    #[test]
    fn a_family_the_tracer_shares_with_the_server_answers_an_error() {
        let db = Arc::new(imdb_database(&ImdbConfig::tiny(3)));
        let server = Server::start(db, Arc::new(SketchStore::new()), ServeConfig::default())
            .expect("server");
        let mut c = crate::Client::connect_timeout(server.local_addr(), Duration::from_secs(30))
            .expect("connect");
        assert!(c.send_raw("STATS").expect("STATS").starts_with("OK "));
        let tracer = ds_obs::global();
        tracer.enable();
        tracer.count("serve/requests", 1);
        let answer = c.send_raw("STATS");
        tracer.disable();
        tracer.reset();
        assert_eq!(
            answer.expect("STATS"),
            "ERR internal duplicate family ds_serve_requests"
        );
        assert!(c.send_raw("STATS").expect("STATS").starts_with("OK "));
        server.shutdown();
    }
}
