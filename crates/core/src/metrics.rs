//! The q-error metric and the percentile summary used throughout the
//! paper's evaluation (Table 1 reports median, 90th, 95th, 99th, max, and
//! mean q-error).

use ds_nn::loss::qerror_scalar;

/// The q-error of an estimate: `max(est/true, true/est) ≥ 1`, with both
/// sides clamped to ≥ 1 tuple (Moerkotte et al., PVLDB 2009).
pub fn qerror(estimate: f64, truth: f64) -> f64 {
    qerror_scalar(estimate, truth)
}

/// The percentile summary of a set of q-errors, in the layout of Table 1.
///
/// ```
/// use ds_core::metrics::QErrorSummary;
/// let s = QErrorSummary::from_pairs(&[(10.0, 20.0), (100.0, 100.0), (5.0, 1.0)]);
/// assert_eq!(s.max, 5.0);
/// assert_eq!(s.count, 3);
/// println!("{}", s.table_row("Deep Sketch"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QErrorSummary {
    /// 50th percentile.
    pub median: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Number of samples summarized.
    pub count: usize,
}

impl QErrorSummary {
    /// Summarizes a set of q-errors.
    ///
    /// # Panics
    /// Panics on an empty input.
    pub fn from_qerrors(qerrors: &[f64]) -> Self {
        assert!(!qerrors.is_empty(), "cannot summarize zero q-errors");
        let mut sorted = qerrors.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        Self {
            median: percentile(&sorted, 0.50),
            p90: percentile(&sorted, 0.90),
            p95: percentile(&sorted, 0.95),
            p99: percentile(&sorted, 0.99),
            // Non-empty: asserted above.
            max: sorted[sorted.len() - 1],
            mean,
            count: sorted.len(),
        }
    }

    /// Summarizes paired (estimate, truth) data.
    pub fn from_pairs(pairs: &[(f64, f64)]) -> Self {
        let qs: Vec<f64> = pairs.iter().map(|&(e, t)| qerror(e, t)).collect();
        Self::from_qerrors(&qs)
    }

    /// Formats one row of the paper's Table 1: `median 90th 95th 99th max
    /// mean` with three significant digits.
    pub fn table_row(&self, label: &str) -> String {
        format!(
            "{label:<12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            sig3(self.median),
            sig3(self.p90),
            sig3(self.p95),
            sig3(self.p99),
            sig3(self.max),
            sig3(self.mean),
        )
    }

    /// The header matching [`QErrorSummary::table_row`].
    pub fn table_header() -> String {
        format!(
            "{:<12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "", "median", "90th", "95th", "99th", "max", "mean"
        )
    }
}

/// Linear-interpolated percentile of an ascending-sorted slice,
/// `p ∈ [0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    assert!((0.0..=1.0).contains(&p), "p out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Three-significant-digit formatting as in the paper (3.82, 78.4, 362, 1110).
fn sig3(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    if v == 0.0 {
        return "0".to_string();
    }
    let mag = v.abs().log10().floor() as i32;
    let decimals = (2 - mag).max(0) as usize;
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qerror_is_symmetric_ratio() {
        assert_eq!(qerror(10.0, 100.0), 10.0);
        assert_eq!(qerror(100.0, 10.0), 10.0);
        assert_eq!(qerror(7.0, 7.0), 1.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert!((percentile(&v, 0.9) - 3.7).abs() < 1e-9);
        assert_eq!(percentile(&[5.0], 0.3), 5.0);
    }

    #[test]
    fn summary_of_known_distribution() {
        let qs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = QErrorSummary::from_qerrors(&qs);
        assert!((s.median - 50.5).abs() < 1e-9);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert!((s.p90 - 90.1).abs() < 0.2);
        assert_eq!(s.count, 100);
    }

    #[test]
    fn from_pairs_computes_qerrors() {
        let pairs = [(10.0, 100.0), (100.0, 100.0)];
        let s = QErrorSummary::from_pairs(&pairs);
        assert_eq!(s.max, 10.0);
        assert!((s.mean - 5.5).abs() < 1e-9);
    }

    #[test]
    fn table_row_is_aligned_and_sig3() {
        let s = QErrorSummary::from_qerrors(&[3.8234, 78.41, 362.4, 927.2, 1110.0]);
        let row = s.table_row("Deep Sketch");
        assert!(row.starts_with("Deep Sketch"));
        assert!(row.contains("1110"));
        let header = QErrorSummary::table_header();
        assert!(header.contains("median") && header.contains("99th"));
    }

    #[test]
    fn sig3_formatting() {
        assert_eq!(sig3(3.8234), "3.82");
        assert_eq!(sig3(78.44), "78.4");
        assert_eq!(sig3(362.4), "362");
        assert_eq!(sig3(1110.0), "1110");
        assert_eq!(sig3(0.0), "0");
    }

    #[test]
    #[should_panic(expected = "zero q-errors")]
    fn empty_summary_panics() {
        QErrorSummary::from_qerrors(&[]);
    }
}
