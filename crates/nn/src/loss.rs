//! Training objectives.
//!
//! The paper trains "with the objective of minimizing the mean q-error"
//! (Moerkotte et al.): `q = max(est/true, true/est) ≥ 1`. The model's
//! sigmoid output is a *normalized log-cardinality*; [`LabelNormalizer`]
//! maps between that space and raw cardinalities, and [`QErrorLoss`]
//! differentiates the q-error through the de-normalization.

use crate::tensor::Tensor;

/// Maps cardinalities to the `[0, 1]` training target space and back:
/// `y = (ln c - ln c_min) / (ln c_max - ln c_min)`, following the paper
/// ("we logarithmize and then normalize cardinalities using the maximum
/// cardinality present in the training data").
///
/// Cardinalities are clamped to ≥ 1 so that empty results are representable.
///
/// ```
/// use ds_nn::loss::LabelNormalizer;
/// let norm = LabelNormalizer::fit(&[1, 100, 10_000]);
/// let y = norm.normalize(100);
/// assert!(y > 0.0 && y < 1.0);
/// let back = norm.denormalize(y);
/// assert!((back - 100.0).abs() / 100.0 < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LabelNormalizer {
    ln_min: f64,
    ln_max: f64,
}

impl LabelNormalizer {
    /// Fits the normalizer to the label range of the training data.
    /// Degenerate ranges (all labels equal) get an artificial +1 span.
    pub fn fit(labels: &[u64]) -> Self {
        let max = labels.iter().copied().max().unwrap_or(1).max(1);
        // The minimum is pinned at 1 (log 0-cardinality is clamped).
        let ln_min = 0.0;
        let mut ln_max = (max as f64).ln();
        if ln_max <= ln_min {
            ln_max = ln_min + 1.0;
        }
        Self { ln_min, ln_max }
    }

    /// Rebuilds from raw bounds (deserialization).
    pub fn from_bounds(ln_min: f64, ln_max: f64) -> Self {
        assert!(ln_max > ln_min, "degenerate normalizer bounds");
        Self { ln_min, ln_max }
    }

    /// `(ln_min, ln_max)` bounds.
    pub fn bounds(&self) -> (f64, f64) {
        (self.ln_min, self.ln_max)
    }

    /// Cardinality → normalized target in `[0, 1]` (clamped).
    pub fn normalize(&self, card: u64) -> f32 {
        let c = (card.max(1)) as f64;
        let y = (c.ln() - self.ln_min) / (self.ln_max - self.ln_min);
        y.clamp(0.0, 1.0) as f32
    }

    /// Normalized model output → cardinality estimate (≥ 1).
    pub fn denormalize(&self, y: f32) -> f64 {
        let y = y.clamp(0.0, 1.0) as f64;
        (y * (self.ln_max - self.ln_min) + self.ln_min).exp()
    }

    /// Scale factor `d(card)/d(y) / card = ln_max - ln_min`, used by the
    /// q-error gradient.
    fn log_span(&self) -> f64 {
        self.ln_max - self.ln_min
    }
}

/// The q-error of a single estimate (both sides clamped to ≥ 1).
pub fn qerror_scalar(estimate: f64, truth: f64) -> f64 {
    let e = estimate.max(1.0);
    let t = truth.max(1.0);
    (e / t).max(t / e)
}

/// Mean q-error loss over a batch, differentiable w.r.t. the model's
/// normalized outputs.
#[derive(Debug, Clone)]
pub struct QErrorLoss {
    norm: LabelNormalizer,
}

impl QErrorLoss {
    /// Creates the loss for a given label normalizer.
    pub fn new(norm: LabelNormalizer) -> Self {
        Self { norm }
    }

    /// The underlying normalizer.
    pub fn normalizer(&self) -> &LabelNormalizer {
        &self.norm
    }

    /// Computes `(mean q-error, ∂L/∂y)` for normalized outputs `y`
    /// (batch × 1) against true cardinalities.
    ///
    /// With `c(y) = exp(s·y + ln_min)` and `s = ln_max - ln_min`:
    /// `q = c/t` if `c > t` (then `∂q/∂y = s·c/t`), else `q = t/c`
    /// (then `∂q/∂y = -s·t/c`). The loss is averaged over the batch.
    pub fn forward_backward(&self, y: &Tensor, truths: &[u64]) -> (f64, Tensor) {
        let mut grad = Tensor::zeros(0, 0);
        let loss = self.forward_backward_into(y, truths, &mut grad);
        (loss, grad)
    }

    /// [`QErrorLoss::forward_backward`] with the gradient written into a
    /// reusable tensor; returns the loss.
    pub fn forward_backward_into(&self, y: &Tensor, truths: &[u64], grad: &mut Tensor) -> f64 {
        assert_eq!(y.cols(), 1, "expected (batch × 1) outputs");
        assert_eq!(y.rows(), truths.len(), "batch size mismatch");
        let n = truths.len();
        assert!(n > 0, "empty batch");
        let s = self.norm.log_span();
        grad.resize(n, 1);
        let mut total = 0.0;
        for (i, (&yi, &truth)) in y.data().iter().zip(truths).enumerate() {
            let est = self.norm.denormalize(yi).max(1.0);
            let t = (truth.max(1)) as f64;
            let (q, dq_dy) = if est >= t {
                (est / t, s * est / t)
            } else {
                (t / est, -s * t / est)
            };
            total += q;
            grad.data_mut()[i] = (dq_dy / n as f64) as f32;
        }
        total / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizer_roundtrip() {
        let norm = LabelNormalizer::fit(&[1, 50, 10_000]);
        for c in [1u64, 2, 99, 10_000] {
            let y = norm.normalize(c);
            assert!((0.0..=1.0).contains(&y));
            let back = norm.denormalize(y);
            let q = qerror_scalar(back, c as f64);
            assert!(q < 1.01, "c={c} back={back} q={q}");
        }
    }

    #[test]
    fn normalizer_clamps_out_of_range() {
        let norm = LabelNormalizer::fit(&[1, 100]);
        assert_eq!(norm.normalize(0), 0.0);
        assert_eq!(norm.normalize(1_000_000), 1.0);
        assert!((norm.denormalize(-0.5) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_labels_get_positive_span() {
        let norm = LabelNormalizer::fit(&[1, 1, 1]);
        let (lo, hi) = norm.bounds();
        assert!(hi > lo);
        let empty = LabelNormalizer::fit(&[]);
        let (lo2, hi2) = empty.bounds();
        assert!(hi2 > lo2);
    }

    #[test]
    fn qerror_scalar_symmetric_and_minimal_at_truth() {
        assert_eq!(qerror_scalar(10.0, 10.0), 1.0);
        assert_eq!(qerror_scalar(100.0, 10.0), 10.0);
        assert_eq!(qerror_scalar(10.0, 100.0), 10.0);
        // 0-clamping: estimating 0 for truth 5 is q=5, not infinite.
        assert_eq!(qerror_scalar(0.0, 5.0), 5.0);
    }

    #[test]
    fn qerror_loss_is_one_at_perfect_prediction() {
        let norm = LabelNormalizer::fit(&[1, 1000]);
        let loss = QErrorLoss::new(norm.clone());
        let y = Tensor::from_vec(1, 1, vec![norm.normalize(50)]);
        let (l, g) = loss.forward_backward(&y, &[50]);
        assert!(l < 1.02, "loss={l}");
        // q-error has a kink at q = 1: the gradient magnitude is bounded by
        // the log-span of the normalizer, not by 0.
        let (lo, hi) = norm.bounds();
        assert!(g.data()[0].abs() as f64 <= (hi - lo) * 1.05);
    }

    #[test]
    fn qerror_gradient_matches_finite_difference() {
        let norm = LabelNormalizer::fit(&[1, 100_000]);
        let loss = QErrorLoss::new(norm);
        let truths = [500u64, 3, 40_000];
        let y = Tensor::from_vec(3, 1, vec![0.3, 0.8, 0.5]);
        let (_, grad) = loss.forward_backward(&y, &truths);
        let eps = 1e-4_f32;
        for i in 0..3 {
            let mut yp = y.clone();
            yp.data_mut()[i] += eps;
            let mut ym = y.clone();
            ym.data_mut()[i] -= eps;
            let (lp, _) = loss.forward_backward(&yp, &truths);
            let (lm, _) = loss.forward_backward(&ym, &truths);
            let num = (lp - lm) / (2.0 * eps as f64);
            let ana = grad.data()[i] as f64;
            let rel = (num - ana).abs() / num.abs().max(1.0);
            assert!(rel < 2e-2, "i={i} num={num} ana={ana}");
        }
    }

    #[test]
    fn qerror_gradient_signs_push_toward_truth() {
        let norm = LabelNormalizer::fit(&[1, 10_000]);
        let loss = QErrorLoss::new(norm.clone());
        // Overestimate → positive gradient (decrease y).
        let hi = Tensor::from_vec(1, 1, vec![0.99]);
        let (_, g_hi) = loss.forward_backward(&hi, &[10]);
        assert!(g_hi.data()[0] > 0.0);
        // Underestimate → negative gradient (increase y).
        let lo = Tensor::from_vec(1, 1, vec![0.01]);
        let (_, g_lo) = loss.forward_backward(&lo, &[5000]);
        assert!(g_lo.data()[0] < 0.0);
    }
}
