//! Prometheus-style text exposition of tracer aggregates.
//!
//! Renders every counter, gauge, histogram, and span a [`Tracer`] has
//! aggregated in the classic `text/plain; version=0.0.4` shape — `# TYPE`
//! headers, `name{label="value"} number` samples — the format every
//! scraping stack already speaks. The serving layer's `STATS` wire
//! command is this text (newline-escaped onto one line), optionally
//! preceded by its own request/stage metrics rendered through
//! [`PromText`].
//!
//! Naming: raw metric names use `/` as a hierarchy separator
//! (`serve/latency_us`); exposition names must match
//! `[a-zA-Z_:][a-zA-Z0-9_:]*`, so every other character maps to `_` and
//! everything gets a `ds_` namespace prefix: `ds_serve_latency_us`.

use std::fmt::Write;
use std::ops::Range;

use crate::hist::HistogramSnapshot;
use crate::span::Tracer;

/// Sanitizes a raw `/`-separated metric name into a legal Prometheus
/// name with the workspace `ds_` prefix.
pub fn metric_name(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 3);
    out.push_str("ds_");
    for c in raw.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Incremental builder for one exposition document. Metric families are
/// emitted in call order; callers wanting determinism feed it sorted
/// names (tracer registries iterate sorted already).
///
/// A family name may be emitted once. The builder remembers where it wrote
/// every name, and a second emission of one makes [`PromText::finish`] an
/// error naming it, so two owners can never both claim a family.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
    /// Where each `# TYPE` header's family name sits in `out`.
    families: Vec<Range<usize>>,
}

impl PromText {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn header(&mut self, name: &str, kind: &str) {
        self.out.push_str("# TYPE ");
        let start = self.out.len();
        self.out.push_str(name);
        self.families.push(start..self.out.len());
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
    }

    pub(crate) fn sample(&mut self, name: &str, labels: &str, value: f64) {
        self.out.push_str(name);
        self.out.push_str(labels);
        self.out.push(' ');
        // Integers render without a fraction; everything else shortest-
        // roundtrip, matching the wire-float convention elsewhere. Writing
        // to a `String` cannot fail.
        let _ = if value.fract() == 0.0 && value.abs() < 1e15 {
            writeln!(self.out, "{}", value as i64)
        } else {
            writeln!(self.out, "{value:?}")
        };
    }

    /// Emits one monotonic counter.
    pub fn counter(&mut self, raw_name: &str, value: u64) -> &mut Self {
        let name = metric_name(raw_name);
        self.header(&name, "counter");
        self.sample(&name, "", value as f64);
        self
    }

    /// Emits one gauge (latest value of a continuous signal).
    pub fn gauge(&mut self, raw_name: &str, value: f64) -> &mut Self {
        let name = metric_name(raw_name);
        self.header(&name, "gauge");
        self.sample(&name, "", value);
        self
    }

    /// Emits one distribution as a Prometheus summary: `quantile` samples
    /// for p50/p95/p99, plus `_sum` and `_count`.
    pub fn summary(&mut self, raw_name: &str, snap: &HistogramSnapshot) -> &mut Self {
        let name = metric_name(raw_name);
        self.header(&name, "summary");
        for (labels, q) in [
            ("{quantile=\"0.5\"}", 0.50),
            ("{quantile=\"0.95\"}", 0.95),
            ("{quantile=\"0.99\"}", 0.99),
        ] {
            self.sample(&name, labels, snap.quantile(q) as f64);
        }
        self.sample(&format!("{name}_sum"), "", snap.sum() as f64);
        self.sample(&format!("{name}_count"), "", snap.count() as f64);
        self
    }

    /// Emits one distribution as a native Prometheus histogram —
    /// cumulative `_bucket{le="…"}` samples (log₂ bucket upper bounds,
    /// only non-empty buckets, plus `+Inf`), `_sum` and `_count` — and
    /// two sibling gauges `<name>_min` / `<name>_max`.
    ///
    /// Unlike [`PromText::summary`] quantiles, this family is **exactly
    /// mergeable** across processes: summing bucket/sum/count samples
    /// (min of mins, max of maxes) reproduces
    /// [`HistogramSnapshot::merge`], which is what the fleet aggregator
    /// relies on. Values are exact up to f64 integer precision (2⁵³).
    pub fn histogram(&mut self, raw_name: &str, snap: &HistogramSnapshot) -> &mut Self {
        self.histogram_sanitized(&metric_name(raw_name), snap);
        // The `_min` gauge merges by minimum (the aggregator special-cases
        // histogram siblings); together with `_max` it completes the
        // snapshot.
        self.gauge(&format!("{raw_name}_min"), snap.min() as f64);
        self.gauge(&format!("{raw_name}_max"), snap.max() as f64);
        self
    }

    /// The histogram family body (`_bucket`/`_sum`/`_count`) for an
    /// already-sanitized name — shared by [`PromText::histogram`] and the
    /// fleet aggregator's re-emission path.
    pub(crate) fn histogram_sanitized(&mut self, name: &str, snap: &HistogramSnapshot) {
        self.header(name, "histogram");
        let words = snap.to_words();
        let mut cumulative = 0u64;
        for (i, &b) in words[4..].iter().enumerate() {
            if b == 0 {
                continue;
            }
            cumulative += b;
            // Bucket 0 holds zeros; bucket i holds [2^(i-1), 2^i), so its
            // exact upper bound as an `le` is 2^i - 1.
            let le = if i == 0 { 0 } else { (1u64 << i) - 1 };
            self.sample(
                &format!("{name}_bucket"),
                &format!("{{le=\"{le}\"}}"),
                cumulative as f64,
            );
        }
        self.sample(
            &format!("{name}_bucket"),
            "{le=\"+Inf\"}",
            snap.count() as f64,
        );
        self.sample(&format!("{name}_sum"), "", snap.sum() as f64);
        self.sample(&format!("{name}_count"), "", snap.count() as f64);
    }

    /// Appends everything `tracer` has aggregated: counters, gauges,
    /// histograms (as summaries), and spans (as `_count`/`_total_ns`
    /// counter pairs under `span/<path>`).
    pub fn tracer(&mut self, tracer: &Tracer) -> &mut Self {
        let mut gauges = Vec::new();
        let mut hists = Vec::new();
        let mut counters = Vec::new();
        tracer.visit_registries(
            |name, c| counters.push((name.to_string(), c.get())),
            |name, g| gauges.push((name.to_string(), g.last())),
            |name, h| hists.push((name.to_string(), h.snapshot())),
        );
        for (name, v) in counters {
            self.counter(&name, v);
        }
        for (name, v) in gauges {
            self.gauge(&name, v);
        }
        for (name, snap) in hists {
            self.summary(&name, &snap);
        }
        let mut raw = String::new();
        for (path, stat) in tracer.span_stats() {
            for (what, value) in [("count", stat.count), ("total_ns", stat.total_ns)] {
                raw.clear();
                let _ = write!(raw, "span/{path}/{what}");
                self.counter(&raw, value);
            }
        }
        self
    }

    /// The finished document, or a family name (sanitized) that was
    /// emitted twice.
    pub fn finish(self) -> Result<String, String> {
        let mut names: Vec<&str> = self.families.iter().map(|r| &self.out[r.clone()]).collect();
        names.sort_unstable();
        match names.windows(2).find(|w| w[0] == w[1]) {
            Some(w) => Err(w[0].to_string()),
            None => Ok(self.out),
        }
    }
}

/// One parsed exposition sample: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Sanitized metric name (`ds_…`).
    pub name: String,
    /// `(key, value)` label pairs, in document order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// Parses an exposition document back into samples, skipping comment and
/// blank lines. Returns `None` on the first malformed sample line — used
/// by the typed `STATS` client. Label values must not contain escaped
/// quotes (the renderer never emits them).
pub fn parse_text(doc: &str) -> Option<Vec<PromSample>> {
    let mut out = Vec::new();
    for line in doc.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (head, value) = line.rsplit_once(' ')?;
        let value: f64 = value.parse().ok()?;
        let (name, labels) = match head.split_once('{') {
            None => (head.to_string(), Vec::new()),
            Some((name, rest)) => {
                let body = rest.strip_suffix('}')?;
                let mut labels = Vec::new();
                for pair in body.split(',').filter(|p| !p.is_empty()) {
                    let (k, v) = pair.split_once('=')?;
                    let v = v.strip_prefix('"')?.strip_suffix('"')?;
                    labels.push((k.to_string(), v.to_string()));
                }
                (name.to_string(), labels)
            }
        };
        if name.is_empty() {
            return None;
        }
        out.push(PromSample {
            name,
            labels,
            value,
        });
    }
    Some(out)
}

/// The declared type of one exposition family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyKind {
    /// Monotonic counter — fleet merge sums it.
    Counter,
    /// Point-in-time gauge — fleet merge takes the max (min for the
    /// `_min` companions of histogram families).
    Gauge,
    /// Quantile summary — not exactly mergeable; quantiles merge by max
    /// as an upper bound, `_sum`/`_count` by sum.
    Summary,
    /// Native histogram — exactly mergeable bucket-wise.
    Histogram,
    /// A sample with no preceding `# TYPE` header.
    Untyped,
}

impl FamilyKind {
    fn parse(s: &str) -> Self {
        match s {
            "counter" => Self::Counter,
            "gauge" => Self::Gauge,
            "summary" => Self::Summary,
            "histogram" => Self::Histogram,
            _ => Self::Untyped,
        }
    }
}

/// One metric family: a `# TYPE` header plus every sample belonging to
/// it (same name, or the name plus a `_bucket`/`_sum`/`_count`-style
/// suffix), in document order.
#[derive(Debug, Clone, PartialEq)]
pub struct PromFamily {
    /// Sanitized family name as declared by the header.
    pub name: String,
    /// Declared family type.
    pub kind: FamilyKind,
    /// The family's samples, in document order.
    pub samples: Vec<PromSample>,
}

impl PromFamily {
    /// The value of this family's only unlabeled sample named exactly
    /// `name` — the common case for counters and gauges.
    pub fn scalar(&self) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == self.name && s.labels.is_empty())
            .map(|s| s.value)
    }

    /// The value of the `<family>_<suffix>` sample, if present.
    pub fn suffixed(&self, suffix: &str) -> Option<f64> {
        let want = format!("{}_{suffix}", self.name);
        self.samples
            .iter()
            .find(|s| s.name == want && s.labels.is_empty())
            .map(|s| s.value)
    }
}

/// Parses an exposition document into typed families — the structured
/// counterpart of [`parse_text`], consuming the `# TYPE` headers that
/// `parse_text` skips. Samples appearing before any header (or not
/// matching the current family's name) become their own
/// [`FamilyKind::Untyped`] families. Returns `None` on the first
/// malformed header or sample line.
pub fn parse_families(doc: &str) -> Option<Vec<PromFamily>> {
    fn belongs(family: &str, sample: &str) -> bool {
        sample == family
            || sample
                .strip_prefix(family)
                .is_some_and(|rest| rest.starts_with('_'))
    }
    let mut out: Vec<PromFamily> = Vec::new();
    for line in doc.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix("# TYPE ") {
            let (name, kind) = header.split_once(' ')?;
            if name.is_empty() {
                return None;
            }
            out.push(PromFamily {
                name: name.to_string(),
                kind: FamilyKind::parse(kind.trim()),
                samples: Vec::new(),
            });
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments (e.g. # HELP)
        }
        let sample = parse_text(line)?.pop()?;
        match out.last_mut() {
            Some(fam) if belongs(&fam.name, &sample.name) => fam.samples.push(sample),
            _ => out.push(PromFamily {
                name: sample.name.clone(),
                kind: FamilyKind::Untyped,
                samples: vec![sample],
            }),
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LogHistogram;

    #[test]
    fn names_are_sanitized_and_prefixed() {
        assert_eq!(metric_name("serve/latency_us"), "ds_serve_latency_us");
        assert_eq!(metric_name("a b-c.d"), "ds_a_b_c_d");
    }

    #[test]
    fn a_family_emitted_twice_is_an_error_naming_it() {
        let h = LogHistogram::new();
        let mut p = PromText::new();
        p.counter("serve/requests", 1)
            .summary("serve/latency_us", &h.snapshot())
            .gauge("serve/requests", 2.0);
        assert_eq!(p.finish(), Err("ds_serve_requests".to_string()));
        // A histogram's `_sum`/`_count` samples are not families.
        let mut p = PromText::new();
        p.histogram("lat", &h.snapshot()).counter("lat_sum", 1);
        assert!(p.finish().is_ok());
    }

    #[test]
    fn renders_counters_gauges_and_summaries() {
        let h = LogHistogram::new();
        h.record(100);
        h.record(300);
        let mut p = PromText::new();
        p.counter("serve/requests", 42)
            .gauge("train/loss", 0.125)
            .summary("serve/latency_us", &h.snapshot());
        let doc = p.finish().unwrap();
        assert!(doc.contains("# TYPE ds_serve_requests counter\nds_serve_requests 42\n"));
        assert!(doc.contains("ds_train_loss 0.125"));
        assert!(doc.contains("ds_serve_latency_us{quantile=\"0.5\"}"));
        assert!(doc.contains("ds_serve_latency_us_sum 400"));
        assert!(doc.contains("ds_serve_latency_us_count 2"));
    }

    #[test]
    fn tracer_dump_roundtrips_through_the_parser() {
        let t = Tracer::new();
        t.enable();
        {
            let _s = t.span("work");
        }
        t.count("reqs", 7);
        t.gauge("loss", 0.5);
        t.observe("lat", 128);
        let mut p = PromText::new();
        p.tracer(&t);
        let samples = parse_text(&p.finish().unwrap()).expect("parseable");
        let get = |n: &str| samples.iter().find(|s| s.name == n).map(|s| s.value);
        assert_eq!(get("ds_reqs"), Some(7.0));
        assert_eq!(get("ds_loss"), Some(0.5));
        assert_eq!(get("ds_lat_count"), Some(1.0));
        assert_eq!(get("ds_span_work_count"), Some(1.0));
        let quant = samples
            .iter()
            .find(|s| s.name == "ds_lat" && !s.labels.is_empty())
            .expect("quantile sample");
        assert_eq!(quant.labels[0].0, "quantile");
        assert_eq!(quant.value, 128.0);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_text("ds_ok 1\n# comment\n\n").is_some());
        assert!(parse_text("no_value_here").is_none());
        assert!(parse_text("name{unterminated 1").is_none());
        assert!(parse_text("name x").is_none());
    }

    #[test]
    fn histograms_render_cumulative_buckets_with_min_max_gauges() {
        let h = LogHistogram::new();
        for v in [0u64, 3, 3, 100] {
            h.record(v);
        }
        let mut p = PromText::new();
        p.histogram("serve/latency_us", &h.snapshot());
        let doc = p.finish().unwrap();
        assert!(doc.contains("# TYPE ds_serve_latency_us histogram"));
        assert!(doc.contains("ds_serve_latency_us_bucket{le=\"0\"} 1"));
        assert!(doc.contains("ds_serve_latency_us_bucket{le=\"3\"} 3"));
        assert!(doc.contains("ds_serve_latency_us_bucket{le=\"127\"} 4"));
        assert!(doc.contains("ds_serve_latency_us_bucket{le=\"+Inf\"} 4"));
        assert!(doc.contains("ds_serve_latency_us_sum 106"));
        assert!(doc.contains("ds_serve_latency_us_count 4"));
        assert!(doc.contains("ds_serve_latency_us_min 0"));
        assert!(doc.contains("ds_serve_latency_us_max 100"));
    }

    #[test]
    fn families_parse_back_typed_with_suffix_attachment() {
        let h = LogHistogram::new();
        h.record(5);
        let mut p = PromText::new();
        p.counter("serve/requests", 3)
            .gauge("queue/len", 2.0)
            .histogram("lat", &h.snapshot())
            .summary("q", &h.snapshot());
        let fams = parse_families(&p.finish().unwrap()).expect("parseable");
        let get = |n: &str| fams.iter().find(|f| f.name == n).expect(n);
        let reqs = get("ds_serve_requests");
        assert_eq!(reqs.kind, FamilyKind::Counter);
        assert_eq!(reqs.scalar(), Some(3.0));
        assert_eq!(get("ds_queue_len").kind, FamilyKind::Gauge);
        let lat = get("ds_lat");
        assert_eq!(lat.kind, FamilyKind::Histogram);
        assert_eq!(lat.suffixed("count"), Some(1.0));
        assert_eq!(lat.suffixed("sum"), Some(5.0));
        // _min/_max carry their own gauge headers, so they are their own
        // families, not swallowed by the histogram.
        assert_eq!(get("ds_lat_min").kind, FamilyKind::Gauge);
        assert_eq!(get("ds_lat_min").scalar(), Some(5.0));
        assert_eq!(get("ds_q").kind, FamilyKind::Summary);
    }

    #[test]
    fn headerless_and_mismatched_samples_become_untyped_families() {
        let fams = parse_families("stray 1\n# TYPE ds_a counter\nds_a 2\nother 3\n").unwrap();
        assert_eq!(fams.len(), 3);
        assert_eq!(
            (fams[0].name.as_str(), fams[0].kind),
            ("stray", FamilyKind::Untyped)
        );
        assert_eq!(
            (fams[1].name.as_str(), fams[1].kind),
            ("ds_a", FamilyKind::Counter)
        );
        assert_eq!(
            (fams[2].name.as_str(), fams[2].kind),
            ("other", FamilyKind::Untyped)
        );
        assert!(parse_families("# TYPE  counter\n").is_none());
        assert!(parse_families("bad line here extra\n").is_none());
    }
}
