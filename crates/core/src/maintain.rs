//! Accuracy drift: a served sketch's rolling feedback q-error against the
//! training-time baseline it carries.
//!
//! The paper closes with "more research is needed to automate the training
//! and utilization of Deep Sketches in query optimizers". [`accuracy_drift`]
//! is the staleness signal that automation reads: the advisor's
//! [`crate::advisor::recommend_retraining`] and the lifecycle's retrain
//! trigger compare it against [`DEFAULT_DRIFT_RATIO`] once the window holds
//! [`DEFAULT_MIN_SAMPLES`] observations.

/// Default ratio threshold for [`AccuracyDrift::is_stale`]: the rolling
/// median or p95 q-error exceeding 2× its training-time counterpart is a
/// real degradation, not bucket noise (buckets are 2×-wide, so a ratio
/// > 2 means the quantile moved at least one whole bucket).
pub const DEFAULT_DRIFT_RATIO: f64 = 2.0;

/// Default minimum feedback sample count before
/// [`AccuracyDrift::is_stale`] may fire — below this, rolling quantiles
/// are too noisy to act on.
pub const DEFAULT_MIN_SAMPLES: u64 = 50;

/// Accuracy drift of a served sketch: its rolling feedback q-error
/// distribution compared against the training-time holdout baseline
/// stored inside the sketch. It looks at the *model's observed
/// accuracy*, so it catches workload shift and correlation changes that
/// leave per-column distributions untouched.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyDrift {
    /// Training-time holdout median q-error.
    pub baseline_p50: f64,
    /// Training-time holdout 95th-percentile q-error.
    pub baseline_p95: f64,
    /// Rolling feedback median q-error.
    pub rolling_p50: f64,
    /// Rolling feedback 95th-percentile q-error.
    pub rolling_p95: f64,
    /// `rolling_p50 / baseline_p50`.
    pub ratio_p50: f64,
    /// `rolling_p95 / baseline_p95`.
    pub ratio_p95: f64,
    /// Feedback observations inside the rolling window.
    pub samples: u64,
}

impl AccuracyDrift {
    /// Severity of the drift: the worse of the two quantile ratios
    /// (1.0 ≈ healthy, 2.0 = a whole bucket worse, …).
    pub fn severity(&self) -> f64 {
        self.ratio_p50.max(self.ratio_p95)
    }

    /// The staleness signal: true when the window holds at least
    /// `min_samples` observations and either quantile ratio exceeds
    /// `ratio_threshold`. See [`DEFAULT_DRIFT_RATIO`] /
    /// [`DEFAULT_MIN_SAMPLES`] for the standard knobs.
    pub fn is_stale(&self, ratio_threshold: f64, min_samples: u64) -> bool {
        self.samples >= min_samples && self.severity() > ratio_threshold
    }
}

impl std::fmt::Display for AccuracyDrift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "q-error p50 {:.2} vs baseline {:.2} ({:.2}x), p95 {:.2} vs {:.2} ({:.2}x), n={}",
            self.rolling_p50,
            self.baseline_p50,
            self.ratio_p50,
            self.rolling_p95,
            self.baseline_p95,
            self.ratio_p95,
            self.samples
        )
    }
}

/// Compares a rolling feedback q-error distribution against the
/// training-time baseline (both in [`crate::monitor::QERR_SCALE`]d
/// units, both bucketed the same way, so identical distributions give
/// ratios of exactly 1.0). Returns `None` when the baseline is empty —
/// with no reference there is nothing to drift from.
pub fn accuracy_drift(
    baseline: &ds_obs::HistogramSnapshot,
    rolling: &ds_obs::HistogramSnapshot,
) -> Option<AccuracyDrift> {
    if baseline.count() == 0 {
        return None;
    }
    let b50 = crate::monitor::descale_qerror(baseline.quantile(0.5).max(1));
    let b95 = crate::monitor::descale_qerror(baseline.quantile(0.95).max(1));
    let r50 = crate::monitor::descale_qerror(rolling.quantile(0.5));
    let r95 = crate::monitor::descale_qerror(rolling.quantile(0.95));
    Some(AccuracyDrift {
        baseline_p50: b50,
        baseline_p95: b95,
        rolling_p50: r50,
        rolling_p95: r95,
        ratio_p50: r50 / b50,
        ratio_p95: r95 / b95,
        samples: rolling.count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_drift_fires_on_degradation_and_stays_silent_when_stationary() {
        use crate::monitor::{baseline_from_qerrors, QErrorMonitor};

        let baseline = baseline_from_qerrors(&[1.0, 1.1, 1.3, 1.8, 2.5, 4.0]).unwrap();

        // Stationary: feedback drawn from the same distribution → ratios
        // stay at 1 and the signal is silent even with plenty of samples.
        let healthy = QErrorMonitor::default();
        for _ in 0..20 {
            for q in [1.0, 1.1, 1.3, 1.8, 2.5, 4.0] {
                healthy.record("t", q, 1.0);
            }
        }
        let d = accuracy_drift(&baseline, &healthy.rolling()).unwrap();
        assert_eq!(d.ratio_p50, 1.0, "{d}");
        assert_eq!(d.ratio_p95, 1.0, "{d}");
        assert!(!d.is_stale(DEFAULT_DRIFT_RATIO, DEFAULT_MIN_SAMPLES));

        // Drifted: q-errors 8× worse across the board → both ratios blow
        // past the threshold and the staleness signal fires.
        let drifted = QErrorMonitor::default();
        for _ in 0..20 {
            for q in [8.0, 8.8, 10.4, 14.4, 20.0, 32.0] {
                drifted.record("t", q, 1.0);
            }
        }
        let d = accuracy_drift(&baseline, &drifted.rolling()).unwrap();
        assert!(d.ratio_p50 > DEFAULT_DRIFT_RATIO, "{d}");
        assert!(d.is_stale(DEFAULT_DRIFT_RATIO, DEFAULT_MIN_SAMPLES));
        assert!(d.severity() >= d.ratio_p50.max(d.ratio_p95) - 1e-12);

        // Too few samples: even severe drift must not fire.
        let sparse = QErrorMonitor::default();
        for q in [50.0, 60.0] {
            sparse.record("t", q, 1.0);
        }
        let d = accuracy_drift(&baseline, &sparse.rolling()).unwrap();
        assert!(d.severity() > DEFAULT_DRIFT_RATIO);
        assert!(!d.is_stale(DEFAULT_DRIFT_RATIO, DEFAULT_MIN_SAMPLES));

        // No baseline → no signal at all.
        assert!(accuracy_drift(&ds_obs::HistogramSnapshot::new(), &drifted.rolling()).is_none());
    }
}
