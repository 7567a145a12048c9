//! Serving metrics built on the workspace observability layer (`ds-obs`):
//! monotonic counters plus log₂ histograms for request latency and its
//! stages.
//!
//! Every record operation is a handful of relaxed atomic adds — safe to
//! call from every connection handler with no shared locks on the hot
//! path. Percentiles are derived from the histograms at
//! snapshot time; with power-of-two buckets they are upper bounds accurate
//! to 2×, which is the right fidelity for a serving dashboard (and costs
//! nothing to maintain). Quantiles are deterministic at the edges: an
//! empty histogram reports 0 everywhere, and a single-sample histogram
//! reports exactly that sample at every quantile (the bucket upper bound
//! is clamped to the observed min/max).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use ds_core::store::RecoveryReport;
use ds_obs::{Counter, ExemplarRing, LogHistogram, PromText};

/// Slow-request exemplars retained for the `TRACE` command.
const EXEMPLAR_CAPACITY: usize = 64;

/// One request's monotonic timeline, decomposed into the three contiguous
/// stages of the serving path. The stamps the stages derive from are
/// strictly ordered, so the stage durations sum to `total_us` exactly
/// (modulo independent sub-microsecond truncation per stage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTimeline {
    /// Sketch the request targeted.
    pub sketch: String,
    /// Structural template of the query (no literals, no spaces).
    pub template: String,
    /// Wall time, request read → response flushed (µs).
    pub total_us: u64,
    /// Request parsing + store lookup + breaker and cache checks (µs).
    pub parse_us: u64,
    /// The model forward pass (µs; zero for a cache hit).
    pub forward_us: u64,
    /// Response formatting + socket write + flush (µs).
    pub write_us: u64,
    /// Distributed trace this request belongs to (0 = untraced). Set
    /// when the peer sent a `trace=` token with the request.
    pub trace_id: u128,
    /// This server's span within the trace (0 = untraced).
    pub span_id: u64,
    /// The caller's span id — the parent of `span_id` (0 = unknown).
    pub parent_span: u64,
}

impl RequestTimeline {
    /// Sum of the three stage durations — within rounding of `total_us`.
    pub fn stage_sum_us(&self) -> u64 {
        self.parse_us + self.forward_us + self.write_us
    }

    /// Single-token-per-field wire form for one `TRACE` record. Trace
    /// identity fields are appended only for traced requests, so an
    /// untraced record carries no trace keys.
    pub fn to_wire(&self) -> String {
        let mut line = format!(
            "sketch={} template={} total_us={} parse_us={} forward_us={} write_us={}",
            self.sketch,
            self.template,
            self.total_us,
            self.parse_us,
            self.forward_us,
            self.write_us
        );
        if self.trace_id != 0 {
            line.push_str(&format!(
                " trace_id={:032x} span_id={:016x} parent_span={:016x}",
                self.trace_id, self.span_id, self.parent_span
            ));
        }
        line
    }

    /// The `TRACE` payload: the records in wire form, `;`-separated, or
    /// `(none)`.
    pub fn payload(timelines: &[Self]) -> String {
        if timelines.is_empty() {
            return "(none)".to_string();
        }
        let records: Vec<String> = timelines.iter().map(Self::to_wire).collect();
        records.join(";")
    }

    /// Parses one `TRACE` record (client side).
    pub fn from_wire(s: &str) -> Option<Self> {
        let mut sketch = None;
        let mut template = None;
        let mut nums = [None::<u64>; 4];
        let mut trace_id = 0u128;
        let mut spans = [0u64; 2];
        const KEYS: [&str; 4] = ["total_us", "parse_us", "forward_us", "write_us"];
        const SPAN_KEYS: [&str; 2] = ["span_id", "parent_span"];
        for field in s.split_whitespace() {
            let (key, value) = field.split_once('=')?;
            match key {
                "sketch" => sketch = Some(value.to_string()),
                "template" => template = Some(value.to_string()),
                "trace_id" => trace_id = u128::from_str_radix(value, 16).ok()?,
                _ => {
                    if let Some(i) = SPAN_KEYS.iter().position(|k| *k == key) {
                        spans[i] = u64::from_str_radix(value, 16).ok()?;
                    } else {
                        let i = KEYS.iter().position(|k| *k == key)?;
                        nums[i] = Some(value.parse().ok()?);
                    }
                }
            }
        }
        Some(Self {
            sketch: sketch?,
            template: template?,
            total_us: nums[0]?,
            parse_us: nums[1]?,
            forward_us: nums[2]?,
            write_us: nums[3]?,
            trace_id,
            span_id: spans[0],
            parent_span: spans[1],
        })
    }
}

/// The server's own metric families, shared via `Arc` between the
/// acceptor, the connection handlers and the forward passes they run. Each is
/// named in [`Metrics::render`] and nowhere else.
#[derive(Debug)]
pub struct Metrics {
    /// Request lines received (all commands).
    pub requests: Counter,
    /// Successful `OK` responses.
    pub ok: Counter,
    /// `ERR` responses (parse, vocabulary, unknown sketch, …).
    pub errors: Counter,
    /// Connections shed with `BUSY` at the connection limit.
    pub shed: Counter,
    /// Requests that exceeded their deadline.
    pub timeouts: Counter,
    /// Estimates answered by the fallback estimator with the `degraded`
    /// wire flag (poisoned sketch, open circuit breaker).
    pub degraded: Counter,
    /// Forward passes run (one per uncached estimate).
    pub batches: Counter,
    /// Connections being served; the acceptor sheds at the cap.
    pub active_connections: AtomicUsize,
    /// Sketches shipped by `SNAPSHOT`.
    pub snapshots_shipped: Counter,
    /// `SYNC` blobs adopted as the newest generation.
    pub sync_adopted: Counter,
    /// `SYNC` blobs older than the generation served.
    pub sync_stale: Counter,
    /// `SYNC` blobs rejected as corrupt.
    pub sync_rejected: Counter,
    /// Rejected `SYNC` blobs written under the snapshot directory's
    /// `quarantine/`; `None` on a server without a snapshot directory.
    pub sync_quarantined: Option<Counter>,
    /// What the server recovered from its snapshot directory at start;
    /// `None` on a server without one.
    pub recovered: Option<RecoveryReport>,
    /// `FEEDBACK`s mirrored to the lifecycle daemon's shadow scorer; `None`
    /// on a server without a lifecycle daemon, like `shadow_dropped`.
    pub mirrored: Option<Counter>,
    /// Mirrors dropped because the shadow queue was full.
    pub shadow_dropped: Option<Counter>,
    /// Request latency in microseconds (ESTIMATE requests).
    pub latency_us: LogHistogram,
    /// Stage histogram: parse + store lookup + breaker and cache (µs).
    pub stage_parse_us: LogHistogram,
    /// Stage histogram: forward pass (µs).
    pub stage_forward_us: LogHistogram,
    /// Stage histogram: response write + flush (µs).
    pub stage_write_us: LogHistogram,
    /// Slowest-request exemplars for `TRACE`.
    pub slow: ExemplarRing<RequestTimeline>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self {
            requests: Counter::default(),
            ok: Counter::default(),
            errors: Counter::default(),
            shed: Counter::default(),
            timeouts: Counter::default(),
            degraded: Counter::default(),
            batches: Counter::default(),
            active_connections: AtomicUsize::new(0),
            snapshots_shipped: Counter::default(),
            sync_adopted: Counter::default(),
            sync_stale: Counter::default(),
            sync_rejected: Counter::default(),
            sync_quarantined: None,
            recovered: None,
            mirrored: None,
            shadow_dropped: None,
            latency_us: LogHistogram::new(),
            stage_parse_us: LogHistogram::new(),
            stage_forward_us: LogHistogram::new(),
            stage_write_us: LogHistogram::new(),
            slow: ExemplarRing::new(EXEMPLAR_CAPACITY),
        }
    }
}

impl Metrics {
    /// Creates zeroed metrics, with neither a snapshot directory nor a
    /// shadow scorer to count for.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the three per-stage durations (µs) of one completed request;
    /// no [`RequestTimeline`] is assembled for requests that never become
    /// exemplars.
    pub fn record_stages(&self, parse_us: u64, forward_us: u64, write_us: u64) {
        self.stage_parse_us.record(parse_us);
        self.stage_forward_us.record(forward_us);
        self.stage_write_us.record(write_us);
    }

    /// Counts a successful estimate with its end-to-end latency.
    pub fn record_ok(&self, latency: Duration) {
        self.ok.inc();
        self.latency_us.record(latency.as_micros() as u64);
    }

    /// Renders every family above. The latency distribution goes out twice:
    /// as a summary, and as a native histogram whose cumulative buckets,
    /// unlike summary quantiles, merge exactly across shards.
    pub fn render(&self, p: &mut PromText) {
        p.counter("serve/requests", self.requests.get())
            .counter("serve/ok", self.ok.get())
            .counter("serve/errors", self.errors.get())
            .counter("serve/shed", self.shed.get())
            .counter("serve/timeouts", self.timeouts.get())
            .counter("serve/degraded", self.degraded.get())
            .counter("serve/batches", self.batches.get())
            .counter("serve/snapshots_shipped", self.snapshots_shipped.get())
            .counter("serve/sync/adopted", self.sync_adopted.get())
            .counter("serve/sync/stale", self.sync_stale.get())
            .counter("serve/sync/rejected", self.sync_rejected.get());
        if let Some(c) = &self.sync_quarantined {
            p.counter("serve/sync/quarantined", c.get());
        }
        if let Some(r) = &self.recovered {
            p.counter("serve/recovery/adopted", r.loaded.len() as u64)
                .counter("serve/recovery/stale", r.stale.len() as u64)
                .counter("serve/recovery/quarantined", r.quarantined.len() as u64)
                .counter("serve/recovery/temps_removed", r.removed_temps.len() as u64);
        }
        let latency = self.latency_us.snapshot();
        p.gauge(
            "serve/active_connections",
            self.active_connections.load(Ordering::SeqCst) as f64,
        )
        .summary("serve/latency_us", &latency)
        .histogram("serve/latency_us/hist", &latency)
        .summary("serve/stage/parse_us", &self.stage_parse_us.snapshot())
        .summary("serve/stage/forward_us", &self.stage_forward_us.snapshot())
        .summary("serve/stage/write_us", &self.stage_write_us.snapshot())
        .counter(
            "serve/trace/kept",
            self.slow.pushed().saturating_sub(self.slow.dropped()),
        )
        .counter("serve/trace/dropped", self.slow.dropped());
        if let (Some(mirrored), Some(dropped)) = (&self.mirrored, &self.shadow_dropped) {
            p.counter("serve/lifecycle/mirrored", mirrored.get())
                .counter("serve/lifecycle/shadow_dropped", dropped.get());
        }
    }

    /// A consistent-enough point-in-time copy for reporting.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let batches = self.batches.get();
        MetricsSnapshot {
            requests: self.requests.get(),
            ok: self.ok.get(),
            errors: self.errors.get(),
            shed: self.shed.get(),
            timeouts: self.timeouts.get(),
            degraded: self.degraded.get(),
            batches,
            mean_batch: if batches > 0 { 1.0 } else { 0.0 },
            max_batch: batches.min(1),
            p50_us: self.latency_us.quantile(0.50),
            p95_us: self.latency_us.quantile(0.95),
            p99_us: self.latency_us.quantile(0.99),
            max_us: self.latency_us.max(),
        }
    }
}

/// Point-in-time metric values, with derived percentiles.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Request lines received.
    pub requests: u64,
    /// Successful estimates.
    pub ok: u64,
    /// Error responses.
    pub errors: u64,
    /// Shed requests.
    pub shed: u64,
    /// Deadline misses.
    pub timeouts: u64,
    /// Estimates answered degraded through the fallback estimator.
    pub degraded: u64,
    /// Forward passes run.
    pub batches: u64,
    /// Mean queries per pass: 1.0 once a pass ran (the benchmark reads it).
    pub mean_batch: f64,
    /// Most queries in one pass: 1 once a pass ran (the benchmark reads it).
    pub max_batch: u64,
    /// Median latency upper bound (µs).
    pub p50_us: u64,
    /// 95th-percentile latency upper bound (µs).
    pub p95_us: u64,
    /// 99th-percentile latency upper bound (µs).
    pub p99_us: u64,
    /// Worst observed latency (µs).
    pub max_us: u64,
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "serving metrics:")?;
        writeln!(
            f,
            "  requests {:>8}   ok {:>8}   errors {:>6}   shed {:>6}   timeouts {:>6}   degraded {:>6}",
            self.requests, self.ok, self.errors, self.shed, self.timeouts, self.degraded
        )?;
        writeln!(
            f,
            "  batches  {:>8}   mean batch {:>6.2}   max batch {:>4}",
            self.batches, self.mean_batch, self.max_batch
        )?;
        write!(
            f,
            "  latency  p50 {:>7}µs   p95 {:>7}µs   p99 {:>7}µs   max {:>7}µs",
            self.p50_us, self.p95_us, self.p99_us, self.max_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_recorded_events() {
        let m = Metrics::new();
        m.requests.add(2);
        m.record_ok(Duration::from_micros(100));
        m.errors.inc();
        m.shed.inc();
        m.timeouts.inc();
        m.degraded.inc();
        m.batches.add(2);
        let s = m.snapshot();
        assert_eq!(
            (s.requests, s.ok, s.errors, s.shed, s.timeouts, s.batches),
            (2, 1, 1, 1, 1, 2)
        );
        assert_eq!(s.degraded, 1);
        assert_eq!((s.mean_batch, s.max_batch), (1.0, 1), "one query per pass");
        let none = Metrics::new().snapshot();
        assert_eq!((none.mean_batch, none.max_batch), (0.0, 0));
        assert_eq!(s.p50_us, 100, "single sample is exact");
        assert!(s.to_string().contains("p95"));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let m = std::sync::Arc::new(Metrics::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = std::sync::Arc::clone(&m);
                s.spawn(move || {
                    for i in 0..1000 {
                        m.requests.inc();
                        m.record_ok(Duration::from_micros(i));
                    }
                });
            }
        });
        let s = m.snapshot();
        assert_eq!(s.requests, 8000);
        assert_eq!(s.ok, 8000);
        assert_eq!(m.latency_us.count(), 8000);
    }

    fn timeline(total: u64) -> RequestTimeline {
        RequestTimeline {
            sketch: "imdb".into(),
            template: "title+movie_keyword".into(),
            total_us: total,
            parse_us: total / 10,
            forward_us: total / 2,
            write_us: total - total / 10 - total / 2,
            trace_id: 0,
            span_id: 0,
            parent_span: 0,
        }
    }

    #[test]
    fn timelines_roundtrip_the_trace_wire_format() {
        let t = timeline(1000);
        assert_eq!(t.stage_sum_us(), t.total_us);
        let wire = t.to_wire();
        assert!(!wire.contains(';') && !wire.contains('\n'), "{wire}");
        // Untraced records never mention the trace keys.
        assert!(!wire.contains("trace_id"), "{wire}");
        assert_eq!(RequestTimeline::from_wire(&wire).unwrap(), t);
        assert!(RequestTimeline::from_wire("sketch=x template=y").is_none());
        assert!(RequestTimeline::from_wire("garbage").is_none());
    }

    #[test]
    fn traced_timelines_carry_their_span_identity() {
        let mut t = timeline(500);
        t.trace_id = 0xdead_beef_cafe_f00d_1234_5678_9abc_def0;
        t.span_id = 0x1;
        t.parent_span = 0x2;
        let wire = t.to_wire();
        assert!(
            wire.contains("trace_id=deadbeefcafef00d123456789abcdef0"),
            "{wire}"
        );
        assert_eq!(RequestTimeline::from_wire(&wire).unwrap(), t);
        // Malformed hex in a trace field is a parse failure, not a panic.
        assert!(RequestTimeline::from_wire(
            &wire.replace("span_id=0000000000000001", "span_id=zz")
        )
        .is_none());
    }

    #[test]
    fn stage_histograms_and_exemplars_capture_timelines() {
        let m = Metrics::new();
        m.record_stages(100, 500, 100);
        m.record_stages(200, 1000, 200);
        assert_eq!(m.stage_parse_us.count(), 2);
        assert_eq!(m.stage_forward_us.max(), 1000);
        m.slow.push(timeline(2000));
        let slow = m.slow.snapshot();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].total_us, 2000);
    }
}
