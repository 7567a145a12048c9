//! The TCP front end: an acceptor thread plus one handler thread per
//! connection. A handler runs its request to the end itself — parse, cache
//! probe, the forward pass (`pass`), the write.
//!
//! An `ESTIMATE` or `FEEDBACK` is one record from its line to its timeline.
//! `decide` answers it — by the model, the cache, the fallback or a typed
//! rejection — and writes none of the server's bookkeeping. `settle` books
//! that record once, in one order: the breaker's verdict, the counters and
//! SLOs, then, for an answer of the sketch's own, the drift monitor, the
//! lifecycle harvest and the shadow mirror (a graded request), and the
//! cache insert. The reply is a function of the record, and the stage
//! timeline is booked from the same record once the reply is written.
//!
//! Robustness properties (each covered by an integration test):
//!
//! * every malformed or unanswerable request gets a typed one-line `ERR` —
//!   no panic is reachable from client input, and none is left in this
//!   module outside its tests;
//! * admission is the connection cap at accept time, shedding with `BUSY`:
//!   a connection has one request in flight, so the cap bounds the passes;
//! * every request the breaker admits gives it exactly one verdict, so a
//!   half-open probe always resolves;
//! * `shutdown()` drains: every request already read is answered and every
//!   thread is joined before it returns.
#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::panic, clippy::unreachable)
)]

use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ds_core::lifecycle::LifecycleManager;
use ds_core::monitor::MonitorRegistry;
use ds_core::snapshot::{self, decode_hex, encode_hex};
use ds_core::store::{AdoptOutcome, SketchStore};
use ds_est::{CardinalityEstimator, EstimateError};
use ds_obs::{Counter, IdSource, PromText, SloTracker, TraceContext};
use ds_query::parser::Parser;
use ds_query::query::Query;
use ds_storage::catalog::Database;

use crate::breaker::{Admit, BreakerRegistry, CircuitBreaker, Verdict};
use crate::cache::{CanonicalQuery, EstimateCache, EstimateKey, TemplateInterner};
use crate::config::{ServeConfig, SharedEstimator, SloSignal};
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

/// One mirrored `FEEDBACK` for the lifecycle daemon's shadow scorer: the
/// already-parsed query, the answer the model serving under `generation`
/// gave, and the true cardinality that grades it and the shadow model's.
struct ShadowJob {
    sketch: String,
    generation: u64,
    query: Query,
    live: f64,
    actual: u64,
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
    /// Per-request deadline, measured over the forward pass.
    request_timeout: Duration,
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
    /// Everything the handlers and the lifecycle daemon read, built from
    /// `cfg`, with the shadow queue's receiving end when a lifecycle is
    /// configured. With a snapshot directory, `store` and the monitors are
    /// first recovered from it.
    fn new(
        db: Arc<Database>,
        store: Arc<SketchStore>,
        cfg: ServeConfig,
    ) -> std::io::Result<(Self, Option<Receiver<ShadowJob>>)> {
        let monitors = Arc::new(MonitorRegistry::new());
        let recovered = (cfg.snapshot_dir.as_deref())
            .map(|dir| store.recover(dir, &monitors))
            .transpose()
            .map_err(std::io::Error::other)?;
        let metrics = Arc::new(Metrics {
            sync_quarantined: cfg.snapshot_dir.is_some().then(Counter::new),
            recovered,
            mirrored: cfg.lifecycle.is_some().then(Counter::new),
            shadow_dropped: cfg.lifecycle.is_some().then(Counter::new),
            ..Metrics::new()
        });
        // The manager reloads persisted harvest sets off the snapshot
        // directory (the warm-restart path) ahead of the first request.
        let (lifecycle, shadow_rx) = match cfg.lifecycle {
            Some(lc_cfg) => {
                let manager = LifecycleManager::new(lc_cfg)
                    .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e))?;
                if let Some(dir) = cfg.snapshot_dir.as_deref() {
                    manager.load_harvests(dir);
                }
                let (shadow_tx, rx) = std::sync::mpsc::sync_channel(SHADOW_QUEUE_CAPACITY);
                let manager = Arc::new(manager);
                (Some(LifecycleShared { manager, shadow_tx }), Some(rx))
            }
            None => (None, None),
        };
        let shared = Self {
            db,
            store,
            request_timeout: cfg.request_timeout,
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
        };
        Ok((shared, shadow_rx))
    }

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
    /// restart serves what the directory holds, drift windows included,
    /// and `STATS` counts what it recovered (`serve/recovery/*`).
    pub fn start(
        db: Arc<Database>,
        store: Arc<SketchStore>,
        cfg: ServeConfig,
    ) -> std::io::Result<Self> {
        let bind_addr = cfg.addr.clone();
        let (shared, shadow_rx) = Shared::new(db, store, cfg)?;
        let shared = Arc::new(shared);
        let listener = TcpListener::bind(&bind_addr)?;
        let addr = listener.local_addr()?;
        let lifecycle_daemon = match (shadow_rx, &shared.lifecycle) {
            (Some(rx), Some(lc)) => {
                let (manager, shared) = (Arc::clone(&lc.manager), Arc::clone(&shared));
                Some(
                    std::thread::Builder::new()
                        .name("ds-serve-lifecycle".to_string())
                        .spawn(move || run_lifecycle_daemon(&manager, &shared, &rx))?,
                )
            }
            _ => None,
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
            .unwrap_or_else(PoisonError::into_inner)
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
            let mut reg = handlers.lock().unwrap_or_else(PoisonError::into_inner);
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
    while let Some((line, reply)) = lines.next_request() {
        // `received` anchors the request timeline: everything from here to
        // the post-flush stamp is attributed to exactly one stage.
        let received = Instant::now();
        match handle_line(line, shared, received) {
            Ok(ask) => {
                let served = decide(shared, &mut conn, ask);
                settle(&served, shared);
                if reply.send(&served.response()).is_err() {
                    return;
                }
                served.book_timeline(shared);
            }
            Err(response) => {
                if reply.send(&response).is_err() || response == Response::Bye {
                    return;
                }
            }
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
}

/// Answers one request line, except an `ESTIMATE` or `FEEDBACK`, which it
/// hands back to be decided. Total: every other line, malformed ones
/// included, gets exactly one response.
fn handle_line<'a>(line: &'a str, shared: &Shared, received: Instant) -> Result<Ask<'a>, Response> {
    shared.metrics.requests.inc();
    let request = split_request(line).inspect_err(|_| shared.metrics.errors.inc())?;
    let ask = |sketch, sql, trace, feedback| Ask {
        sketch,
        sql,
        trace,
        feedback,
        received,
    };
    let response = match request {
        Request::Estimate { sketch, sql, trace } => return Ok(ask(sketch, sql, trace, None)),
        Request::Feedback {
            sketch,
            actual,
            sql,
            trace,
        } => return Ok(ask(sketch, sql, trace, Some(actual))),
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
    Err(response)
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

/// One `ESTIMATE` or `FEEDBACK` (`feedback`: its true count), as slices
/// of its line, read at `received`.
#[derive(Debug, Clone, Copy)]
struct Ask<'a> {
    sketch: &'a str,
    sql: &'a str,
    trace: Option<TraceContext>,
    feedback: Option<u64>,
    received: Instant,
}

/// Why the model gave no estimate.
#[derive(Debug)]
pub(crate) enum Rejection {
    /// The pass returned past the request deadline.
    Timeout,
    /// The estimator rejected the query.
    Estimate(EstimateError),
}

/// Where a pass began (before an injected stall: a stalled pass is a slow
/// pass) and ended. The timeline is cut at these (parse → forward →
/// write); they are ordered, so the three stages sum to the span covered.
#[derive(Debug)]
pub(crate) struct StageStamps {
    forward_start: Instant,
    forward_end: Instant,
}

/// How an estimate request was answered.
#[derive(Debug)]
pub(crate) enum Answer {
    /// A forward pass of the sketch's model.
    Model(f64, StageStamps),
    /// The cache: an earlier pass's bits (both stamps: the hit's instant).
    Cached(f64, StageStamps),
    /// The fallback, flagged `degraded`, covering the model's health
    /// failure or, with `None`, an open circuit.
    Fallback(f64, Option<Rejection>),
    /// The model's failure, surfaced.
    Failed(Rejection),
    /// Refused before the model: an unknown sketch, SQL that does not
    /// parse, or an open circuit with no fallback.
    Refused(Response),
}

/// One estimate request's record: `decide` writes it, `settle` books it,
/// and the reply and the timeline are read from it.
struct Served<'a> {
    request: Ask<'a>,
    /// The caller's trace context and this server's span id under it.
    span: Option<(TraceContext, u64)>,
    /// The store generation resolved (0 for an unknown sketch).
    generation: u64,
    /// The sketch's breaker and its admission (`None`: refused before it).
    admitted: Option<(Arc<CircuitBreaker>, Admit)>,
    answer: Answer,
    /// The parsed query, its canonical form (filled for the sketch's own
    /// answer whenever the timeline, a grade or the cache reads it) and,
    /// when the cache was probed (`Admit::Allow`), the key.
    conn: &'a ConnectionState,
}

impl Served<'_> {
    /// The sketch's own estimate: the model's or the cache's.
    fn estimate(&self) -> Option<f64> {
        match self.answer {
            Answer::Model(v, _) | Answer::Cached(v, _) => Some(v),
            _ => None,
        }
    }

    /// What the request says about its sketch: its own answer is healthy,
    /// a health failure (surfaced or covered by the fallback) failed, any
    /// other failure neutral; `None` when no breaker admitted it.
    fn verdict(&self) -> Option<Verdict> {
        match &self.answer {
            Answer::Model(..) | Answer::Cached(..) => Some(Verdict::Healthy),
            Answer::Fallback(_, Some(_)) => Some(Verdict::Failed),
            Answer::Failed(r) if health_failure(r) => Some(Verdict::Failed),
            Answer::Failed(_) => Some(Verdict::Neutral),
            Answer::Fallback(_, None) | Answer::Refused(_) => None,
        }
    }

    /// The reply.
    fn response(&self) -> Response {
        match &self.answer {
            Answer::Model(v, _) | Answer::Cached(v, _) => Response::Estimate(*v),
            Answer::Fallback(v, _) => Response::Degraded(*v),
            Answer::Failed(Rejection::Estimate(e)) => estimate_error_response(e),
            Answer::Failed(Rejection::Timeout) => Response::Error {
                code: ErrorCode::Timeout,
                message: "request deadline exceeded".to_string(),
            },
            Answer::Refused(response) => response.clone(),
        }
    }

    /// The interned template of the request's query: read by a grade and
    /// by a kept exemplar only, so no other request renders or looks it up.
    fn template(&self, shared: &Shared) -> Arc<str> {
        let (conn, templates) = (self.conn, &shared.templates);
        templates.get(&shared.db, &conn.query, &conn.canonical.shape)
    }

    /// Books the stages of the sketch's own answer once its reply is
    /// written, and keeps the request as a `TRACE` exemplar when it crossed
    /// the slow threshold or was traced (so a cross-process trace always
    /// finds its server-side spans). Only an exemplar allocates, and only
    /// an exemplar interns its template.
    fn book_timeline(&self, shared: &Shared) {
        let (Answer::Model(_, stamps) | Answer::Cached(_, stamps)) = &self.answer else {
            return;
        };
        if !shared.timeline {
            return;
        }
        let (received, written) = (self.request.received, Instant::now());
        let us = |from: Instant, to: Instant| to.saturating_duration_since(from).as_micros() as u64;
        let parse_us = us(received, stamps.forward_start);
        let forward_us = us(stamps.forward_start, stamps.forward_end);
        let write_us = us(stamps.forward_end, written);
        shared.metrics.record_stages(parse_us, forward_us, write_us);
        let total = written.saturating_duration_since(received);
        if total >= shared.slow_threshold || self.span.is_some() {
            let (trace_id, parent_span, span_id) = self
                .span
                .map_or((0, 0, 0), |(ctx, span)| (ctx.trace_id, ctx.span_id, span));
            shared.metrics.slow.push(RequestTimeline {
                sketch: self.request.sketch.to_string(),
                template: self.template(shared).to_string(),
                total_us: total.as_micros() as u64,
                parse_us,
                forward_us,
                write_us,
                trace_id,
                span_id,
                parent_span,
            });
        }
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
    }
}

/// One forward pass of `estimator` over `query` on the calling thread,
/// with the stamps it was taken between. Around the `try_estimate` call
/// sit the `serve/batch` span, the fault plan's injected stall (tests only:
/// a wedged pass on the real serving path) and the stamps. Nobody waits on
/// a pass from outside, so nothing gives up while it runs: one that
/// returns past `request_timeout` is a timeout then, which is what trips a
/// wedged model's breaker. It counts nothing: a request's pass is counted
/// by [`decide`], and a shadow pass is no request's.
fn pass(
    shared: &Shared,
    estimator: &dyn CardinalityEstimator,
    query: &Query,
) -> Result<(f64, StageStamps), Rejection> {
    let span = ds_obs::global().span("serve/batch");
    let forward_start = Instant::now();
    if let Some(delay) = shared.faults.as_ref().and_then(|f| f.forward_delay()) {
        std::thread::sleep(delay);
    }
    let result = estimator.try_estimate(query);
    let forward_end = Instant::now();
    drop(span);
    if forward_end.duration_since(forward_start) > shared.request_timeout {
        return Err(Rejection::Timeout);
    }
    let stamps = StageStamps {
        forward_start,
        forward_end,
    };
    result.map(|v| (v, stamps)).map_err(Rejection::Estimate)
}

/// The fallback estimator's answer; `None` without one or when it fails.
fn fallback(shared: &Shared, query: &Query) -> Option<f64> {
    shared.fallback.as_ref()?.try_estimate(query).ok()
}

/// Answers one estimate request and returns its record. It books nothing:
/// what it touches shared is what answering needs (the breaker's admission,
/// the cache probe, the pass, the fallback). Both verbs answer through the
/// same [`pass`], so a `FEEDBACK` estimate is bit-identical to the
/// `ESTIMATE` it grades.
///
/// An open circuit short-circuits straight to the fallback, and a health
/// failure (decode/execution/unavailable/timeout) answers through the
/// fallback when one is configured — flagged `degraded`, never silently.
fn decide<'a>(shared: &Shared, conn: &'a mut ConnectionState, request: Ask<'a>) -> Served<'a> {
    let _span = ds_obs::global().span("serve/estimate");
    let span = request.trace.map(|ctx| (ctx, shared.ids.next_span()));
    let (mut generation, mut admitted) = (0, None);
    let answer = 'answer: {
        let (estimator, resolved) = match shared.store.get_with_generation(request.sketch) {
            Ok(found) => found,
            Err(e) => break 'answer Answer::Refused(store_error_response(&e)),
        };
        generation = resolved;
        if let Err(e) = conn
            .parser
            .parse_query(&shared.db, request.sql, &mut conn.query)
        {
            let code = ErrorCode::Parse;
            break 'answer Answer::Refused(Response::Error { code, message: e.0 });
        }
        let (breaker, query) = (shared.breakers.breaker(request.sketch), &conn.query);
        let admit = breaker.admit();
        admitted = Some((breaker, admit));
        if admit == Admit::ShortCircuit {
            let sketch = request.sketch;
            break 'answer fallback(shared, query).map_or_else(
                || {
                    let message = format!("sketch '{sketch}' circuit open; no fallback configured");
                    Answer::Refused(Response::Error {
                        code: ErrorCode::NotReady,
                        message,
                    })
                },
                |v| Answer::Fallback(v, None),
            );
        }
        // Only a closed breaker consults the cache: a half-open probe must
        // reach the model, and a warm cache must never mask an unhealthy
        // sketch. One canonical form serves template, harvest and cache key;
        // the key carries the generation resolved, so a swapped-out model's
        // entries are never looked up again.
        let cache = shared.cache.as_ref().filter(|_| admit == Admit::Allow);
        if shared.timeline || request.feedback.is_some() || cache.is_some() {
            conn.canonical.fill(query);
        }
        if cache.is_some() {
            conn.key.set(request.sketch, generation, &conn.canonical);
        }
        let key = &conn.key;
        let reached = FaultInjector::reach_model(shared.faults.as_deref(), request.sketch, || {
            // A hit's bits are what the pass produced when it was inserted.
            if let Some(v) = cache.and_then(|c| c.get(key)) {
                let now = Instant::now();
                let stamps = StageStamps {
                    forward_start: now,
                    forward_end: now,
                };
                return Ok(Answer::Cached(v, stamps));
            }
            // The pass runs on this thread against the model this request
            // resolved: a concurrent swap changes the next lookup only.
            let passed = pass(shared, &*estimator, query);
            shared.metrics.batches.inc();
            if matches!(passed, Err(Rejection::Timeout)) {
                shared.metrics.timeouts.inc();
            }
            passed.map(|(v, stamps)| Answer::Model(v, stamps))
        });
        match reached {
            Err(r) if health_failure(&r) => match fallback(shared, query) {
                Some(v) => Answer::Fallback(v, Some(r)),
                None => Answer::Failed(r),
            },
            reached => reached.unwrap_or_else(Answer::Failed),
        }
    };
    Served {
        request,
        span,
        generation,
        admitted,
        answer,
        conn,
    }
}

/// Books one record, each piece once, in this order: the breaker's
/// verdict; `ok` with the latency (and `degraded` for the fallback) or
/// `errors` (a timeout is counted once, as `timeouts`, by [`decide`]);
/// the SLOs; then, for the sketch's own answer, the drift monitor, the
/// lifecycle harvest and the shadow mirror (a graded request) and the
/// cache insert (a model's answer). Only a graded request is mirrored:
/// nothing reads the shadow model's answer to an ungraded one.
fn settle(served: &Served, shared: &Shared) {
    let (request, m) = (&served.request, &shared.metrics);
    if let (Some((breaker, _)), Some(verdict)) = (&served.admitted, served.verdict()) {
        breaker.record(verdict);
    }
    let latency = match served.answer {
        Answer::Failed(Rejection::Timeout) => None,
        Answer::Failed(_) | Answer::Refused(_) => {
            m.errors.inc();
            None
        }
        Answer::Model(..) | Answer::Cached(..) | Answer::Fallback(..) => {
            Some(request.received.elapsed())
        }
    };
    if let Some(latency) = latency {
        m.record_ok(latency);
    }
    if let Answer::Fallback(..) = served.answer {
        m.degraded.inc();
    }
    let estimate = served.estimate();
    let graded = estimate.zip(request.feedback);
    let qerror = graded.map(|(v, actual)| ds_core::metrics::qerror(v, actual.max(1) as f64));
    shared.record_slos(latency, latency.is_none(), qerror);
    let Some(v) = estimate else {
        return;
    };
    if let Some(actual) = request.feedback {
        let template = served.template(shared);
        let monitor = shared.monitors.monitor(request.sketch);
        monitor.record(&template, v, actual as f64);
        // A graded query feeds the lifecycle harvest, with its SQL for the
        // daemon to re-parse, and is mirrored to the shadow model. That
        // model never answers a client, and a full queue drops the mirror
        // (counted). `shadowing` is one relaxed atomic load while nothing
        // is mirrored anywhere, so the steady state clones nothing.
        if let Some(lc) = &shared.lifecycle {
            let key = served.conn.canonical.harvest_key(&template);
            lc.manager
                .observe_feedback(request.sketch, &key, request.sql, actual);
            if lc.manager.shadowing(request.sketch) {
                let job = ShadowJob {
                    sketch: request.sketch.to_string(),
                    generation: served.generation,
                    query: served.conn.query.clone(),
                    live: v,
                    actual,
                };
                let counted = match lc.shadow_tx.try_send(job) {
                    Ok(()) => &m.mirrored,
                    Err(_) => &m.shadow_dropped,
                };
                if let Some(counted) = counted {
                    counted.inc();
                }
            }
        }
    }
    if let (Answer::Model(..), Some(cache), Some((_, Admit::Allow))) =
        (&served.answer, &shared.cache, &served.admitted)
    {
        cache.insert(served.conn.key.clone(), v);
    }
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
            Ok(job) => shadow_score(&job, manager, shared),
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

/// Scores one mirrored `FEEDBACK` on the shadow model (the candidate in
/// Shadow, the rollback target in Watching) through the [`pass`] live
/// traffic takes, on the daemon's thread, and pairs it with the served one.
fn shadow_score(job: &ShadowJob, manager: &LifecycleManager, shared: &Shared) {
    let Some(model) = manager.shadow_model(&job.sketch) else {
        return;
    };
    let Ok((mirrored, _)) = pass(shared, &*model, &job.query) else {
        return;
    };
    let (sketch, truth) = (&job.sketch, job.actual.max(1) as f64);
    let q = |v| ds_core::metrics::qerror(v, truth);
    manager.observe_shadow(sketch, job.generation, q(job.live), q(mirrored));
}

/// `LIFECYCLE <sketch>`: one-line status of the retrain-and-hot-swap
/// state machine. Per-sketch phase and the open window's pairs and median
/// ratio come from the manager; the counters are manager-wide so an
/// operator can watch a drill converge over a single connection.
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
    let (status, c) = (lc.manager.status(sketch), lc.manager.counters());
    Response::Text(format!(
        "LIFECYCLE {sketch} phase={} generation={generation} harvested={} shadow_pairs={} \
         shadow_ratio={:.3} swaps={} rollbacks={} gate_rejects={} retrains={} promotions={}",
        status.phase.as_str(),
        status.harvested,
        status.shadow_pairs,
        status.shadow_ratio,
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
    use crate::breaker::BreakerConfig;
    use crate::config::ServeConfigBuilder;
    use crate::protocol::format_response;
    use ds_core::builder::SketchBuilder;
    use ds_core::lifecycle::{LifecycleConfig, LifecycleEvent};
    use ds_core::sketch::DeepSketch;
    use ds_est::postgres::PostgresEstimator;
    use ds_est::CardinalityEstimator;
    use ds_query::parser::parse_query;
    use ds_query::workloads::imdb_predicate_columns;
    use ds_storage::column::Column;
    use ds_storage::gen::{imdb_database, ImdbConfig};
    use ds_storage::table::Table;

    /// The sketch the tests serve, and a database wider than the one it was
    /// built on: a `note` column after `title`'s last, which the sketch has
    /// never seen, so `title.note` parses and the sketch refuses it as a
    /// client error.
    fn wide_fixture() -> (Arc<Database>, DeepSketch) {
        let db = imdb_database(&ImdbConfig::tiny(42));
        let model = SketchBuilder::new(&db, imdb_predicate_columns(&db))
            .training_queries(120)
            .epochs(2)
            .sample_size(8)
            .hidden_units(8)
            .seed(7)
            .build()
            .expect("sketch");
        let mut tables = db.tables().to_vec();
        let note = Column::new("note", vec![1; tables[0].num_rows()]);
        tables[0] = Table::new(tables[0].name(), [tables[0].columns(), &[note]].concat());
        let wide = Database::new(db.name(), tables, db.foreign_keys().to_vec());
        (Arc::new(wide), model)
    }

    /// An untraced request for `sketch`, received now: an `ESTIMATE`, or a
    /// `FEEDBACK` with its true count.
    fn ask<'a>(sketch: &'a str, sql: &'a str, feedback: Option<u64>) -> Ask<'a> {
        let (trace, received) = (None, Instant::now());
        Ask {
            sketch,
            sql,
            trace,
            feedback,
            received,
        }
    }

    /// One row per way `decide` can answer, each asserting the record
    /// (generation, admission, answer), the reply line, the verdict
    /// `settle` gives the breaker and the passes it ran, with no socket.
    /// Only a stalled pass counts a timeout, and a pass's stamps are ordered.
    #[test]
    fn decide_records_every_exit_and_settle_gives_one_verdict() {
        let (wide, model) = wide_fixture();
        let sql = "SELECT COUNT(*) FROM title WHERE title.kind_id = 1";
        let query = parse_query(&wide, sql).expect("parse");
        let fallback = PostgresEstimator::build(&wide);
        let ok = format_response(&Response::Estimate(model.estimate_one(&query)));
        let degraded = format_response(&Response::Degraded(fallback.estimate(&query)));
        let fallback: SharedEstimator = Arc::new(fallback);
        let shared = |cfg: ServeConfigBuilder, faults: Option<FaultInjector>| {
            let store = Arc::new(SketchStore::new());
            store.insert("imdb", model.clone()).expect("insert");
            let cfg = cfg.faults(faults.map(Arc::new)).build().expect("config");
            let (shared, _) = Shared::new(Arc::clone(&wide), store, cfg).expect("shared");
            shared
        };
        let plain = || ServeConfig::builder();
        let with_fallback = || plain().fallback(Some(Arc::clone(&fallback)));
        let trip = |cfg: ServeConfigBuilder, cooldown| {
            let failure_threshold = 1;
            let shared = shared(
                cfg.breaker(BreakerConfig {
                    failure_threshold,
                    cooldown,
                }),
                None,
            );
            shared.breakers.breaker("imdb").record(Verdict::Failed);
            shared
        };
        let (closed, open) = (shared(plain(), None), trip(plain(), Duration::MAX));
        let open_fallback = trip(with_fallback(), Duration::MAX);
        let probing = trip(plain(), Duration::ZERO);
        let (stall, poison) = (FaultInjector::new(1), FaultInjector::new(2));
        stall.delay_forwards(Duration::from_millis(60), 1.0);
        poison.poison("imdb");
        let deadline = Duration::from_millis(10);
        let stalled = shared(plain().request_timeout(deadline), Some(stall));
        let poisoned = shared(with_fallback(), Some(poison));
        let note = "SELECT COUNT(*) FROM title WHERE title.note = 1";
        let (allow, probe, short) = (
            Some(Admit::Allow),
            Some(Admit::Probe),
            Some(Admit::ShortCircuit),
        );
        let (healthy, failed, neutral) = (
            Some(Verdict::Healthy),
            Some(Verdict::Failed),
            Some(Verdict::Neutral),
        );
        let not_ready = "ERR not-ready sketch 'imdb' circuit open; no fallback configured";
        // exit, server, sketch, SQL, (generation, admit, answer, verdict, breaker after, passes), reply
        #[rustfmt::skip]
        let rows = [
            ("unknown sketch", &closed, "nosuch", sql, (0, None, "Refused", None, "closed", 0), "ERR unknown-sketch unknown sketch 'nosuch'"),
            ("parse error", &closed, "imdb", "SELECT x", (1, None, "Refused", None, "closed", 0), "ERR parse "),
            ("short circuit", &open, "imdb", sql, (1, short, "Refused", None, "open", 0), not_ready),
            ("short circuit, fallback", &open_fallback, "imdb", sql, (1, short, "Fallback", None, "open", 0), &degraded),
            ("cache miss", &closed, "imdb", sql, (1, allow, "Model", healthy, "closed", 1), &ok),
            ("cache hit", &closed, "imdb", sql, (1, allow, "Cached", healthy, "closed", 0), &ok),
            ("deadline", &stalled, "imdb", sql, (1, allow, "Failed", failed, "closed", 1), "ERR timeout request deadline exceeded"),
            ("health failure, fallback", &poisoned, "imdb", sql, (1, allow, "Fallback", failed, "closed", 0), &degraded),
            ("client error", &closed, "imdb", note, (1, allow, "Failed", neutral, "closed", 1), "ERR vocabulary "),
            ("client error on the probe", &probing, "imdb", note, (1, probe, "Failed", neutral, "half-open", 1), "ERR vocabulary "),
        ];
        // The injector is inert in release builds, where the two faulted
        // rows are skipped.
        for (exit, shared, sketch, sql, record, reply) in rows {
            if shared.faults.is_some() && !FaultInjector::armed() {
                continue;
            }
            let mut conn = ConnectionState::default();
            let before = shared.metrics.snapshot();
            let served = decide(shared, &mut conn, ask(sketch, sql, None));
            settle(&served, shared);
            let after = shared.metrics.snapshot();
            let line = format_response(&served.response());
            let answer = format!("{:?}", served.answer);
            let kind = answer.split('(').next().unwrap_or_default();
            let admit = served.admitted.as_ref().map(|(_, admit)| *admit);
            let state = shared.breakers.breaker("imdb").state_name();
            let passes = after.batches - before.batches;
            let got = (
                served.generation,
                admit,
                kind,
                served.verdict(),
                state,
                passes,
            );
            assert_eq!(got, record, "{exit}");
            assert!(line.starts_with(reply), "{exit}: {line}");
            let timeouts = after.timeouts - before.timeouts;
            assert_eq!(timeouts, u64::from(exit == "deadline"), "{exit}");
            if let Answer::Model(_, stamps) | Answer::Cached(_, stamps) = &served.answer {
                assert!(stamps.forward_start <= stamps.forward_end, "{exit}");
            }
        }
        // The neutral probe was handed back: the next request probes.
        assert_eq!(probing.breakers.breaker("imdb").admit(), Admit::Probe);
    }

    /// Only a reader interns a template: `ESTIMATE`s under the slow
    /// threshold leave the interner empty, and a `FEEDBACK` and a kept
    /// (traced) exemplar each intern their one shape, the exemplar keeping
    /// the query's [`query_template`](crate::query_template).
    #[test]
    fn only_a_grade_or_a_kept_exemplar_interns_its_template() {
        let (db, model) = wide_fixture();
        let store = Arc::new(SketchStore::new());
        store.insert("imdb", model).expect("insert");
        let cfg = ServeConfig::builder().slow_threshold(Duration::from_secs(60));
        let (shared, _) =
            Shared::new(Arc::clone(&db), store, cfg.build().expect("config")).expect("shared");
        let mut conn = ConnectionState::default();
        let mut serve = |sql, trace, feedback| {
            let ask = Ask {
                trace,
                ..ask("imdb", sql, feedback)
            };
            let served = decide(&shared, &mut conn, ask);
            settle(&served, &shared);
            assert!(served.estimate().is_some(), "{sql}: {:?}", served.answer);
            served.book_timeline(&shared);
        };
        let year = "SELECT COUNT(*) FROM title WHERE title.production_year > 2000";
        let joined = "SELECT COUNT(*) FROM title t, movie_keyword mk \
                      WHERE mk.movie_id = t.id AND t.kind_id = 1";
        for sql in [
            year,
            joined,
            "SELECT COUNT(*) FROM title WHERE title.kind_id = 1",
        ] {
            serve(sql, None, None);
            serve(sql, None, None);
        }
        assert_eq!(shared.templates.len(), 0, "an ESTIMATE interned");
        assert!(shared.metrics.slow.snapshot().is_empty());

        serve(year, None, Some(10));
        assert_eq!(shared.templates.len(), 1, "a FEEDBACK interns its shape");

        let ctx = TraceContext {
            trace_id: 7,
            span_id: 9,
        };
        serve(joined, Some(ctx), None);
        assert_eq!(shared.templates.len(), 2, "an exemplar interns its shape");
        let kept = shared.metrics.slow.snapshot();
        assert_eq!(kept.len(), 1);
        let query = parse_query(&db, joined).expect("parse");
        assert_eq!(kept[0].template, crate::query_template(&db, &query));
        assert_eq!(kept[0].trace_id, 7);
    }

    /// In Shadow and in Watching an `ESTIMATE` enqueues no mirror job and a
    /// `FEEDBACK` one; in Watching, one the replaced generation answered
    /// (decided before the swap, settled after it) pairs nothing.
    #[test]
    fn only_a_feedback_is_mirrored_and_watching_pairs_the_candidates_answers() {
        let (db, model) = wide_fixture();
        let store = Arc::new(SketchStore::new());
        store.insert("imdb", model.clone()).expect("insert");
        let cfg = ServeConfig::builder().lifecycle(Some(LifecycleConfig::default()));
        let (shared, rx) = Shared::new(db, store, cfg.build().expect("config")).expect("shared");
        let (rx, lc) = (rx.expect("mirror queue"), shared.lifecycle.as_ref());
        let manager = Arc::clone(&lc.expect("lifecycle").manager);
        let sql = "SELECT COUNT(*) FROM title WHERE title.kind_id = 1";
        // Settles a request and scores each job it enqueued: how many.
        let passes = std::cell::Cell::new(0);
        let mirror = |served: &Served| {
            passes.set(passes.get() + u64::from(matches!(served.answer, Answer::Model(..))));
            settle(served, &shared);
            let score = |job: &ShadowJob| shadow_score(job, &manager, &shared);
            rx.try_iter().inspect(score).count()
        };
        let mut conn = ConnectionState::default();
        let mut serve = |feedback| mirror(&decide(&shared, &mut conn, ask("imdb", sql, feedback)));
        manager.install_candidate("imdb", model);
        // The default gate's 32 pairs, each read alike by the two models.
        for _ in 0..32 {
            assert_eq!((serve(None), serve(Some(100))), (0, 1), "Shadow");
        }
        let status = manager.status("imdb");
        assert_eq!((status.shadow_pairs, status.shadow_ratio), (32, 1.0));

        let mut old_conn = ConnectionState::default();
        let stale = decide(&shared, &mut old_conn, ask("imdb", sql, Some(100)));
        let events = manager.tick(&shared.store, &shared.monitors, &shared.db, None);
        let swapped = matches!(events[..], [LifecycleEvent::Swapped { generation: 2, .. }]);
        assert!(swapped, "{events:?}");
        assert_eq!(mirror(&stale), 1, "Watching: the replaced generation's");
        assert_eq!(manager.status("imdb").shadow_pairs, 0, "it paired");
        assert_eq!((serve(None), serve(Some(100))), (0, 1), "Watching");
        assert_eq!(manager.status("imdb").shadow_pairs, 1);
        let mirrored = shared.metrics.mirrored.as_ref().map(Counter::get);
        assert_eq!(mirrored, Some(34), "every FEEDBACK, and nothing else");
        let batches = shared.metrics.batches.get();
        assert_eq!(batches, passes.get(), "a shadow pass is no request's");
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
