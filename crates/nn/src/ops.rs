//! Activation functions and set-pooling operations with explicit backward
//! passes.

use crate::tensor::Tensor;

/// Elementwise ReLU.
pub fn relu(x: &Tensor) -> Tensor {
    x.map(|v| v.max(0.0))
}

/// Backward of ReLU: passes gradient where the *input* was positive.
pub fn relu_backward(x: &Tensor, grad_out: &Tensor) -> Tensor {
    let mut grad = grad_out.clone();
    relu_backward_inplace(x, &mut grad);
    grad
}

/// [`relu_backward`] masking `grad` in place — the scratch-arena variant.
pub fn relu_backward_inplace(x: &Tensor, grad: &mut Tensor) {
    assert_eq!(x.rows(), grad.rows());
    assert_eq!(x.cols(), grad.cols());
    for (g, &xi) in grad.data_mut().iter_mut().zip(x.data()) {
        if xi <= 0.0 {
            *g = 0.0;
        }
    }
}

/// Elementwise logistic sigmoid.
pub fn sigmoid(x: &Tensor) -> Tensor {
    let data = x.data().iter().map(|&v| sigmoid_scalar(v)).collect();
    Tensor::from_vec(x.rows(), x.cols(), data)
}

/// Scalar sigmoid, numerically stable for large |v|.
#[inline]
pub fn sigmoid_scalar(v: f32) -> f32 {
    if v >= 0.0 {
        1.0 / (1.0 + (-v).exp())
    } else {
        let e = v.exp();
        e / (1.0 + e)
    }
}

/// Backward of sigmoid given its *output* `y`: `grad_in = grad_out·y·(1-y)`.
pub fn sigmoid_backward(y: &Tensor, grad_out: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(0, 0);
    sigmoid_backward_into(y, grad_out, &mut out);
    out
}

/// [`sigmoid_backward`] into a reusable output tensor.
pub fn sigmoid_backward_into(y: &Tensor, grad_out: &Tensor, out: &mut Tensor) {
    assert_eq!(y.rows(), grad_out.rows());
    assert_eq!(y.cols(), grad_out.cols());
    out.resize(y.rows(), y.cols());
    for ((o, &yi), &g) in out.data_mut().iter_mut().zip(y.data()).zip(grad_out.data()) {
        *o = g * yi * (1.0 - yi);
    }
}

/// Segments of a flattened set batch: `segments[q] = (start, len)` selects
/// the rows of element-matrix belonging to query `q`. A segment may be
/// empty (`len == 0`) — e.g. a query with no join set — in which case its
/// pooled representation is the zero vector, matching MSCN's masked
/// averaging.
pub type Segments = Vec<(usize, usize)>;

/// Mean-pools each segment of rows: (total_elements × d) → (num_segments × d).
///
/// # Panics
/// Panics if segments overflow the input rows.
pub fn segment_mean(x: &Tensor, segments: &Segments) -> Tensor {
    let mut out = Tensor::zeros(0, 0);
    segment_mean_into(x, segments, &mut out);
    out
}

/// [`segment_mean`] into a reusable output tensor.
pub fn segment_mean_into(x: &Tensor, segments: &Segments, out: &mut Tensor) {
    let d = x.cols();
    out.resize(segments.len(), d);
    for (q, &(start, len)) in segments.iter().enumerate() {
        if len == 0 {
            continue;
        }
        assert!(start + len <= x.rows(), "segment out of range");
        let inv = 1.0 / len as f32;
        for r in start..start + len {
            let row = x.row(r);
            let orow = out.row_mut(q);
            for (o, &v) in orow.iter_mut().zip(row) {
                *o += v * inv;
            }
        }
    }
}

/// Backward of [`segment_mean`]: scatters `grad_out[q] / len` to every row
/// of segment `q`.
pub fn segment_mean_backward(total_rows: usize, grad_out: &Tensor, segments: &Segments) -> Tensor {
    let mut out = Tensor::zeros(0, 0);
    segment_mean_backward_into(total_rows, grad_out, segments, &mut out);
    out
}

/// [`segment_mean_backward`] into a reusable output tensor.
pub fn segment_mean_backward_into(
    total_rows: usize,
    grad_out: &Tensor,
    segments: &Segments,
    out: &mut Tensor,
) {
    assert_eq!(grad_out.rows(), segments.len(), "segment count mismatch");
    let d = grad_out.cols();
    out.resize(total_rows, d);
    for (q, &(start, len)) in segments.iter().enumerate() {
        if len == 0 {
            continue;
        }
        let inv = 1.0 / len as f32;
        let grow = grad_out.row(q);
        for r in start..start + len {
            let orow = out.row_mut(r);
            for (o, &g) in orow.iter_mut().zip(grow) {
                *o += g * inv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_and_backward() {
        let x = Tensor::from_vec(1, 4, vec![-1.0, 0.0, 0.5, 2.0]);
        let y = relu(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 0.5, 2.0]);
        let g = Tensor::from_vec(1, 4, vec![1.0, 1.0, 1.0, 1.0]);
        let gx = relu_backward(&x, &g);
        assert_eq!(gx.data(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn sigmoid_matches_analytic_values() {
        assert!((sigmoid_scalar(0.0) - 0.5).abs() < 1e-7);
        assert!((sigmoid_scalar(100.0) - 1.0).abs() < 1e-7);
        assert!(sigmoid_scalar(-100.0) < 1e-7);
        // Stability: no NaN at extremes.
        assert!(sigmoid_scalar(f32::MAX).is_finite());
        assert!(sigmoid_scalar(f32::MIN).is_finite());
    }

    #[test]
    fn sigmoid_backward_finite_difference() {
        let x = Tensor::from_vec(1, 3, vec![-0.7, 0.1, 1.3]);
        let y = sigmoid(&x);
        let g = Tensor::from_vec(1, 3, vec![1.0; 3]);
        let gx = sigmoid_backward(&y, &g);
        let eps = 1e-3;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (sigmoid(&xp).data()[i] - sigmoid(&xm).data()[i]) / (2.0 * eps);
            assert!((num - gx.data()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn segment_mean_pools_and_handles_empty() {
        let x = Tensor::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let segs: Segments = vec![(0, 2), (2, 0), (2, 1)];
        let m = segment_mean(&x, &segs);
        assert_eq!(m.row(0), &[2.0, 3.0]);
        assert_eq!(m.row(1), &[0.0, 0.0]); // empty set → zero vector
        assert_eq!(m.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn segment_mean_backward_scatters_evenly() {
        let segs: Segments = vec![(0, 2), (2, 1)];
        let g = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let gx = segment_mean_backward(3, &g, &segs);
        assert_eq!(gx.row(0), &[0.5, 1.0]);
        assert_eq!(gx.row(1), &[0.5, 1.0]);
        assert_eq!(gx.row(2), &[3.0, 4.0]);
    }

    #[test]
    fn segment_mean_grad_check() {
        // d/dx of sum(segment_mean(x)) via finite differences.
        let x = Tensor::from_vec(4, 2, (0..8).map(|i| i as f32 * 0.7 - 2.0).collect());
        let segs: Segments = vec![(0, 3), (3, 1)];
        let ones = Tensor::from_vec(2, 2, vec![1.0; 4]);
        let gx = segment_mean_backward(4, &ones, &segs);
        let f = |x: &Tensor| segment_mean(x, &segs).data().iter().sum::<f32>();
        let eps = 1e-3;
        for i in 0..8 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (f(&xp) - f(&xm)) / (2.0 * eps);
            assert!((num - gx.data()[i]).abs() < 1e-2, "i={i}");
        }
    }

    #[test]
    #[should_panic(expected = "segment out of range")]
    fn segment_overflow_panics() {
        let x = Tensor::zeros(2, 1);
        segment_mean(&x, &vec![(1, 5)]);
    }
}
