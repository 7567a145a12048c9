//! The CI-gated benchmark harness: typed metrics, JSON baselines, and
//! threshold-based regression comparison.
//!
//! A harness run produces a [`BenchReport`] — a flat list of named
//! [`Metric`]s — serialized as `BENCH_*.json` via the workspace JSON
//! module (`ds_obs::json`). [`compare`] diffs a current report against a
//! committed baseline and returns every metric that got worse by more
//! than the threshold, which the `bench_harness` binary turns into a
//! nonzero exit for CI.
//!
//! Metrics are split into two classes:
//!
//! * **portable** — dimensionless ratios (tiled speedup, cache-hit
//!   speedup) and deterministic quality numbers (seeded validation
//!   q-error). These are comparable across machines and gate CI by
//!   default.
//! * **non-portable** — absolute wall-clock timings. They are recorded
//!   for humans and for same-machine comparisons but only gate under
//!   `strict` (local perf work on one box), because CI hardware differs
//!   from the baseline's.

use ds_obs::json::{JsonError, JsonValue};

/// One named benchmark measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable, `/`-separated name, e.g. `kernel/hidden_384x256_x256/tiled_speedup`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Direction of goodness: `true` if larger is better (speedups,
    /// throughput), `false` if smaller is better (latency, q-error).
    pub higher_is_better: bool,
    /// Whether the value is comparable across machines (see module docs).
    pub portable: bool,
}

impl Metric {
    /// A machine-portable metric (gates CI).
    pub fn portable(name: impl Into<String>, value: f64, higher_is_better: bool) -> Self {
        Self {
            name: name.into(),
            value,
            higher_is_better,
            portable: true,
        }
    }

    /// A machine-local metric (absolute timing; gates only under strict).
    pub fn local(name: impl Into<String>, value: f64, higher_is_better: bool) -> Self {
        Self {
            name: name.into(),
            value,
            higher_is_better,
            portable: false,
        }
    }
}

/// A full harness run: suite name plus its metrics, JSON-serializable.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Suite identifier (e.g. `quick`).
    pub suite: String,
    /// All measurements of the run.
    pub metrics: Vec<Metric>,
}

impl BenchReport {
    /// An empty report for `suite`.
    pub fn new(suite: impl Into<String>) -> Self {
        Self {
            suite: suite.into(),
            metrics: Vec::new(),
        }
    }

    /// Appends a metric.
    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Serializes to the `BENCH_*.json` document shape.
    pub fn to_json(&self) -> JsonValue {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                JsonValue::Obj(vec![
                    ("name".into(), JsonValue::Str(m.name.clone())),
                    ("value".into(), JsonValue::Num(m.value)),
                    (
                        "higher_is_better".into(),
                        JsonValue::Bool(m.higher_is_better),
                    ),
                    ("portable".into(), JsonValue::Bool(m.portable)),
                ])
            })
            .collect();
        JsonValue::Obj(vec![
            ("suite".into(), JsonValue::Str(self.suite.clone())),
            ("metrics".into(), JsonValue::Arr(metrics)),
        ])
    }

    /// Pretty JSON text, ready to write to disk.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty()
    }

    /// Parses a report written by [`BenchReport::to_json_string`].
    pub fn from_json_str(text: &str) -> Result<Self, JsonError> {
        let doc = JsonValue::parse(text)?;
        let bad = |msg: &str| JsonError {
            offset: 0,
            message: msg.to_string(),
        };
        let suite = doc
            .get("suite")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| bad("missing 'suite'"))?
            .to_string();
        let mut metrics = Vec::new();
        for m in doc
            .get("metrics")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| bad("missing 'metrics'"))?
        {
            metrics.push(Metric {
                name: m
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| bad("metric missing 'name'"))?
                    .to_string(),
                value: m
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| bad("metric missing 'value'"))?,
                higher_is_better: m
                    .get("higher_is_better")
                    .and_then(JsonValue::as_bool)
                    .ok_or_else(|| bad("metric missing 'higher_is_better'"))?,
                portable: m
                    .get("portable")
                    .and_then(JsonValue::as_bool)
                    .ok_or_else(|| bad("metric missing 'portable'"))?,
            });
        }
        Ok(Self { suite, metrics })
    }
}

/// Why a metric failed the gate.
#[derive(Debug, Clone, PartialEq)]
pub enum RegressionKind {
    /// Present in the baseline but absent from the current run.
    Missing,
    /// Worse than the baseline by more than the threshold.
    Worse {
        /// Baseline value.
        baseline: f64,
        /// Current value.
        current: f64,
        /// Fractional worsening in the metric's bad direction (0.30 = 30%).
        worse_frac: f64,
    },
}

/// One gate failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The affected metric's name.
    pub name: String,
    /// What went wrong.
    pub kind: RegressionKind,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            RegressionKind::Missing => write!(f, "{}: missing from current run", self.name),
            RegressionKind::Worse {
                baseline,
                current,
                worse_frac,
            } => write!(
                f,
                "{}: {baseline:.4} -> {current:.4} ({:+.1}% worse)",
                self.name,
                worse_frac * 100.0
            ),
        }
    }
}

/// Diffs `current` against `baseline`. A baseline metric regresses when it
/// is missing from the current run or worse (in its bad direction) by more
/// than `threshold` (0.25 = tolerate up to 25% worse). Only portable
/// metrics gate unless `strict` also gates absolute timings. Metrics new
/// in `current` never fail the gate — they start gating once the baseline
/// is refreshed.
pub fn compare(
    baseline: &BenchReport,
    current: &BenchReport,
    threshold: f64,
    strict: bool,
) -> Vec<Regression> {
    assert!(threshold >= 0.0, "threshold must be non-negative");
    let mut out = Vec::new();
    for base in &baseline.metrics {
        if !base.portable && !strict {
            continue;
        }
        let Some(cur) = current.get(&base.name) else {
            out.push(Regression {
                name: base.name.clone(),
                kind: RegressionKind::Missing,
            });
            continue;
        };
        if !base.value.is_finite() || !cur.value.is_finite() || base.value == 0.0 {
            // Nothing sane to ratio against; presence is the only gate.
            continue;
        }
        let worse_frac = if base.higher_is_better {
            (base.value - cur.value) / base.value.abs()
        } else {
            (cur.value - base.value) / base.value.abs()
        };
        if worse_frac > threshold {
            out.push(Regression {
                name: base.name.clone(),
                kind: RegressionKind::Worse {
                    baseline: base.value,
                    current: cur.value,
                    worse_frac,
                },
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(pairs: &[(&str, f64, bool, bool)]) -> BenchReport {
        let mut r = BenchReport::new("quick");
        for &(name, value, higher, portable) in pairs {
            r.push(Metric {
                name: name.to_string(),
                value,
                higher_is_better: higher,
                portable,
            });
        }
        r
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let r = report(&[
            ("kernel/speedup", 2.75, true, true),
            ("train/total_secs", 9.28, false, false),
        ]);
        let text = r.to_json_string();
        let back = BenchReport::from_json_str(&text).unwrap();
        assert_eq!(r, back);
        assert!(BenchReport::from_json_str("{\"nope\": 1}").is_err());
    }

    #[test]
    fn synthetic_30_percent_regression_trips_the_gate() {
        // The CI contract: a 30% drop in a portable higher-is-better
        // metric must fail a 20% threshold (and the binary exits nonzero).
        let baseline = report(&[("serve/cache_hit_speedup", 7.0, true, true)]);
        let current = report(&[("serve/cache_hit_speedup", 4.9, true, true)]);
        let regs = compare(&baseline, &current, 0.20, false);
        assert_eq!(regs.len(), 1);
        let RegressionKind::Worse { worse_frac, .. } = regs[0].kind else {
            panic!("expected Worse, got {:?}", regs[0].kind);
        };
        assert!((worse_frac - 0.30).abs() < 1e-9, "worse_frac={worse_frac}");
        // The same 30% drop passes a generous 35% threshold.
        assert!(compare(&baseline, &current, 0.35, false).is_empty());
    }

    #[test]
    fn direction_and_portability_are_respected() {
        let baseline = report(&[
            ("train/val_qerror", 4.0, false, true),   // lower is better
            ("train/total_secs", 10.0, false, false), // non-portable
        ]);
        // q-error improved (3.0 < 4.0): no regression even at threshold 0.
        let better = report(&[
            ("train/val_qerror", 3.0, false, true),
            ("train/total_secs", 100.0, false, false),
        ]);
        assert!(compare(&baseline, &better, 0.0, false).is_empty());
        // Under strict, the 10x timing blow-up gates too.
        let regs = compare(&baseline, &better, 0.5, true);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "train/total_secs");
        // q-error worsening gates in the correct direction.
        let worse = report(&[
            ("train/val_qerror", 6.0, false, true),
            ("train/total_secs", 10.0, false, false),
        ]);
        assert_eq!(compare(&baseline, &worse, 0.25, false).len(), 1);
    }

    #[test]
    fn missing_metric_is_a_regression_and_new_metric_is_not() {
        let baseline = report(&[("a", 1.0, true, true)]);
        let current = report(&[("b", 1.0, true, true)]);
        let regs = compare(&baseline, &current, 0.5, false);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].kind, RegressionKind::Missing);
        // Display is human-readable for CI logs.
        assert!(regs[0].to_string().contains("missing"));
    }
}
