//! Online accuracy monitoring for served sketches.
//!
//! A deployed learned estimator fails *silently*: when the data or the
//! workload drifts away from what the model was trained on, estimates
//! degrade with no crash, no error — just worse plans. This module closes
//! the loop the literature says is missing ("Are We Ready For Learned
//! Cardinality Estimation?", Wang et al. 2021): production feeds observed
//! true cardinalities back (`FEEDBACK` wire command), each observation
//! becomes a q-error sample in a rolling window, and
//! [`crate::maintain::accuracy_drift`] compares the rolling distribution
//! against the training-time holdout baseline stored inside the sketch.
//!
//! Q-errors are dimensionless ratios ≥ 1 concentrated near 1, where the
//! log₂ histogram's buckets are uselessly coarse — so every q-error is
//! scaled by [`QERR_SCALE`] before recording (1.0 → 1000, 2.0 → 2000),
//! giving the buckets sub-2× resolution exactly where drift shows up.
//! Baseline and rolling windows use the same scale, so bucket-quantile
//! comparisons between them are apples-to-apples: identical distributions
//! produce identical bucketed quantiles, and a real 4× degradation moves
//! the rolling median two buckets regardless of machine or workload size.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use ds_obs::{HistogramSnapshot, LogHistogram, PromText, WindowedHistogram};

use crate::metrics::qerror;

/// Fixed-point scale applied to q-errors before histogram recording.
pub const QERR_SCALE: f64 = 1000.0;

/// Rolling-window generations per monitor.
pub const WINDOW_SLOTS: usize = 4;

/// Samples per window generation; the window therefore covers the last
/// 3×–4× this many feedback observations.
pub const WINDOW_SLOT_CAPACITY: u64 = 256;

/// Scales a q-error for histogram recording. Values are clamped to ≥ 1
/// (a q-error below 1 is impossible by definition) and non-finite inputs
/// saturate at `u64::MAX / 2` so they never wrap.
pub fn scale_qerror(q: f64) -> u64 {
    if !q.is_finite() {
        return u64::MAX / 2;
    }
    let scaled = (q.max(1.0) * QERR_SCALE).round();
    if scaled >= (u64::MAX / 2) as f64 {
        u64::MAX / 2
    } else {
        scaled as u64
    }
}

/// Descale a histogram value back into q-error units.
pub fn descale_qerror(v: u64) -> f64 {
    v as f64 / QERR_SCALE
}

/// Builds the training-time baseline histogram from the holdout q-errors
/// of the last training epoch (see
/// [`crate::train::TrainingReport::holdout_qerrors`]). Returns `None`
/// when there was no validation split to learn a baseline from.
pub fn baseline_from_qerrors(qerrs: &[f64]) -> Option<HistogramSnapshot> {
    if qerrs.is_empty() {
        return None;
    }
    let h = LogHistogram::new();
    for &q in qerrs {
        h.record(scale_qerror(q));
    }
    Some(h.snapshot())
}

/// Rolling q-error monitor for one served sketch: a sketch-wide window
/// plus one window per query template, all fed by `FEEDBACK`
/// observations. Recording is lock-free on the sketch-wide path and takes
/// a brief read lock on the template map (write lock only the first time
/// a template is seen).
#[derive(Debug)]
pub struct QErrorMonitor {
    overall: WindowedHistogram,
    templates: RwLock<BTreeMap<String, Arc<WindowedHistogram>>>,
    slots: usize,
    slot_capacity: u64,
}

impl Default for QErrorMonitor {
    fn default() -> Self {
        Self::new(WINDOW_SLOTS, WINDOW_SLOT_CAPACITY)
    }
}

impl QErrorMonitor {
    /// Creates a monitor whose windows keep `slots` generations of
    /// `slot_capacity` samples each.
    pub fn new(slots: usize, slot_capacity: u64) -> Self {
        Self {
            overall: WindowedHistogram::new(slots, slot_capacity),
            templates: RwLock::default(),
            slots,
            slot_capacity,
        }
    }

    /// The template windows, read; a poisoned lock is recovered.
    fn windows(&self) -> RwLockReadGuard<'_, BTreeMap<String, Arc<WindowedHistogram>>> {
        self.templates.read().unwrap_or_else(|e| e.into_inner())
    }

    /// The template windows, written; a poisoned lock is recovered.
    fn windows_mut(&self) -> RwLockWriteGuard<'_, BTreeMap<String, Arc<WindowedHistogram>>> {
        self.templates.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Records one feedback observation: the estimate the sketch produced
    /// and the true cardinality the system later observed. Returns the
    /// q-error that was recorded.
    pub fn record(&self, template: &str, estimate: f64, actual: f64) -> f64 {
        let q = qerror(estimate, actual.max(1.0));
        let scaled = scale_qerror(q);
        self.overall.record(scaled);
        let existing = self.windows().get(template).cloned();
        let window = existing.unwrap_or_else(|| {
            Arc::clone(
                self.windows_mut()
                    .entry(template.to_string())
                    .or_insert_with(|| {
                        Arc::new(WindowedHistogram::new(self.slots, self.slot_capacity))
                    }),
            )
        });
        window.record(scaled);
        q
    }

    /// Feedback observations currently inside the sketch-wide window.
    pub fn samples(&self) -> u64 {
        self.overall.count()
    }

    /// The rolling sketch-wide q-error distribution (scaled units).
    pub fn rolling(&self) -> HistogramSnapshot {
        self.overall.merged()
    }

    /// All templates with feedback, sorted by name, with their rolling
    /// distributions.
    pub fn templates(&self) -> Vec<(String, HistogramSnapshot)> {
        self.windows()
            .iter()
            .map(|(k, w)| (k.clone(), w.merged()))
            .collect()
    }

    /// Clears every window (e.g. after the sketch was retrained).
    pub fn reset(&self) {
        self.overall.reset();
        self.windows_mut().clear();
    }

    /// Freezes the monitor's complete window state — geometry, rotation
    /// cursors, and every per-template window — into a plain-data value
    /// that snapshots can serialize. Restoring with
    /// [`QErrorMonitor::from_state`] resumes drift tracking exactly where
    /// the exported monitor left off.
    pub fn export_state(&self) -> MonitorState {
        MonitorState {
            overall: self.overall.to_words(),
            templates: self
                .windows()
                .iter()
                .map(|(k, w)| (k.clone(), w.to_words()))
                .collect(),
        }
    }

    /// Rebuilds a monitor from an exported state. Returns `None` when any
    /// window fails validation or a template window's geometry disagrees
    /// with the sketch-wide window (all windows of one monitor share
    /// `slots`/`slot_capacity` by construction).
    pub fn from_state(state: &MonitorState) -> Option<Self> {
        let overall = WindowedHistogram::from_words(&state.overall)?;
        let (slots, slot_capacity) = (overall.slots(), overall.slot_capacity());
        let mut templates = BTreeMap::new();
        for (name, words) in &state.templates {
            let w = WindowedHistogram::from_words(words)?;
            if w.slots() != slots || w.slot_capacity() != slot_capacity {
                return None;
            }
            templates.insert(name.clone(), Arc::new(w));
        }
        Some(Self {
            overall,
            templates: RwLock::new(templates),
            slots,
            slot_capacity,
        })
    }
}

/// Plain-data copy of a [`QErrorMonitor`]'s full rolling-window state, in
/// the `u64`-word encoding of [`WindowedHistogram::to_words`]. This is
/// what crash-safe snapshots persist so a warm restart keeps the drift
/// signal instead of starting the windows cold.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MonitorState {
    /// Sketch-wide window words.
    pub overall: Vec<u64>,
    /// Per-template window words, sorted by template name.
    pub templates: Vec<(String, Vec<u64>)>,
}

/// Monitors for every served sketch, keyed by store name. Shared between
/// the serving layer (records feedback) and maintenance (reads drift).
#[derive(Debug, Default)]
pub struct MonitorRegistry {
    monitors: RwLock<BTreeMap<String, Arc<QErrorMonitor>>>,
}

impl MonitorRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The monitors, read; a poisoned lock is recovered.
    fn monitors(&self) -> RwLockReadGuard<'_, BTreeMap<String, Arc<QErrorMonitor>>> {
        self.monitors.read().unwrap_or_else(|e| e.into_inner())
    }

    /// The monitors, written; a poisoned lock is recovered.
    fn monitors_mut(&self) -> RwLockWriteGuard<'_, BTreeMap<String, Arc<QErrorMonitor>>> {
        self.monitors.write().unwrap_or_else(|e| e.into_inner())
    }

    /// The monitor for `sketch`, created on first use.
    pub fn monitor(&self, sketch: &str) -> Arc<QErrorMonitor> {
        if let Some(m) = self.monitors().get(sketch) {
            return Arc::clone(m);
        }
        Arc::clone(self.monitors_mut().entry(sketch.to_string()).or_default())
    }

    /// The monitor for `sketch` if any feedback ever arrived for it.
    pub fn get(&self, sketch: &str) -> Option<Arc<QErrorMonitor>> {
        self.monitors().get(sketch).cloned()
    }

    /// Installs a restored monitor for `sketch` (warm-restart recovery),
    /// replacing any existing one.
    pub fn restore(&self, sketch: &str, monitor: QErrorMonitor) {
        self.monitors_mut()
            .insert(sketch.to_string(), Arc::new(monitor));
    }

    /// Renders each sketch's rolling scaled q-error distribution
    /// ([`scale_qerror`]) as a summary.
    pub fn render(&self, p: &mut PromText) {
        for (name, monitor) in self.monitors().iter() {
            p.summary(
                &format!("feedback/{name}/qerror_scaled"),
                &monitor.rolling(),
            );
        }
    }

    /// Drops the monitor of a removed/retrained sketch.
    pub fn remove(&self, sketch: &str) -> bool {
        self.monitors_mut().remove(sketch).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_clamps_and_roundtrips() {
        assert_eq!(scale_qerror(1.0), 1000);
        assert_eq!(scale_qerror(2.5), 2500);
        assert_eq!(scale_qerror(0.5), 1000, "q-error below 1 is clamped");
        assert_eq!(scale_qerror(f64::INFINITY), u64::MAX / 2);
        assert_eq!(scale_qerror(f64::NAN), u64::MAX / 2);
        assert_eq!(descale_qerror(3000), 3.0);
    }

    #[test]
    fn baseline_reflects_the_holdout_distribution() {
        assert!(baseline_from_qerrors(&[]).is_none());
        let b = baseline_from_qerrors(&[1.0, 1.1, 1.2, 2.0, 8.0]).unwrap();
        assert_eq!(b.count(), 5);
        assert_eq!(b.min(), 1000);
        assert_eq!(b.max(), 8000);
        // Median in scaled units sits in the right bucket range.
        let p50 = b.quantile(0.5);
        assert!((1000..=2048).contains(&p50), "p50={p50}");
    }

    #[test]
    fn monitor_tracks_overall_and_per_template() {
        let m = QErrorMonitor::default();
        // Estimate 10 vs actual 10 → q-error 1; estimate 10 vs 40 → 4.
        assert_eq!(m.record("t1", 10.0, 10.0), 1.0);
        assert_eq!(m.record("t2", 10.0, 40.0), 4.0);
        assert_eq!(m.samples(), 2);
        assert_eq!(m.rolling().count(), 2);
        let templates = m.templates();
        let names: Vec<&str> = templates.iter().map(|(t, _)| t.as_str()).collect();
        assert_eq!(names, ["t1", "t2"]);
        assert_eq!(templates[0].1.count(), 1);
        assert_eq!(templates[0].1.max(), 1000);
        assert_eq!(templates[1].1.max(), 4000);
        // Actual cardinality 0 is clamped to 1, not a division blow-up.
        let q = m.record("t1", 5.0, 0.0);
        assert_eq!(q, 5.0);
        m.reset();
        assert_eq!(m.samples(), 0);
        assert!(m.templates().is_empty());
    }

    #[test]
    fn registry_creates_and_removes_monitors() {
        let r = MonitorRegistry::new();
        assert!(r.get("imdb").is_none());
        let m = r.monitor("imdb");
        m.record("t", 2.0, 1.0);
        assert_eq!(r.get("imdb").unwrap().samples(), 1);
        assert!(std::ptr::eq(&*r.monitor("imdb"), &*m));
        let mut p = PromText::new();
        r.render(&mut p);
        let doc = p.finish().unwrap();
        assert!(
            doc.contains("ds_feedback_imdb_qerror_scaled_count 1\n"),
            "{doc}"
        );
        assert!(r.remove("imdb"));
        assert!(!r.remove("imdb"));
        assert!(r.get("imdb").is_none());
    }

    #[test]
    fn monitor_state_roundtrips_and_resumes() {
        let m = QErrorMonitor::new(3, 8);
        for i in 0..20u32 {
            m.record(&format!("tpl{}", i % 2), (i + 1) as f64, 1.0);
        }
        let state = m.export_state();
        let restored = QErrorMonitor::from_state(&state).expect("roundtrip");
        assert_eq!(restored.samples(), m.samples());
        assert_eq!(restored.rolling(), m.rolling());
        assert_eq!(restored.templates(), m.templates());
        // Exporting the restored monitor is bit-identical.
        assert_eq!(restored.export_state(), state);
        // And it keeps recording/rotating like the original would.
        restored.record("tpl0", 2.0, 1.0);
        assert_eq!(restored.samples(), m.samples() + 1);
    }

    #[test]
    fn monitor_state_rejects_corruption() {
        let m = QErrorMonitor::new(2, 4);
        m.record("t", 3.0, 1.0);
        let good = m.export_state();
        assert!(QErrorMonitor::from_state(&good).is_some());
        let mut bad = good.clone();
        bad.overall.pop();
        assert!(QErrorMonitor::from_state(&bad).is_none());
        // Template window with mismatched geometry is rejected.
        let mut mismatched = good.clone();
        mismatched
            .templates
            .push(("other".into(), WindowedHistogram::new(5, 4).to_words()));
        assert!(QErrorMonitor::from_state(&mismatched).is_none());
        let mut bad_template = good;
        if let Some((_, words)) = bad_template.templates.first_mut() {
            words[3] ^= 1; // slot count no longer matches its buckets
        }
        assert!(QErrorMonitor::from_state(&bad_template).is_none());
    }

    #[test]
    fn concurrent_feedback_is_not_lost() {
        let m = std::sync::Arc::new(QErrorMonitor::new(4, 1_000_000));
        std::thread::scope(|s| {
            for t in 0..8 {
                let m = std::sync::Arc::clone(&m);
                s.spawn(move || {
                    for i in 0..500 {
                        m.record(&format!("tpl{}", i % 3), (t * i) as f64 + 1.0, 1.0);
                    }
                });
            }
        });
        assert_eq!(m.samples(), 4000);
        let total: u64 = m.templates().iter().map(|(_, h)| h.count()).sum();
        assert_eq!(total, 4000);
    }
}
