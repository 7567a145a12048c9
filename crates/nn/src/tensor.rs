//! Row-major `f32` matrices: the dense values between the model's kernels.
//!
//! A [`Tensor`] holds activations, gradients and weights. The one product
//! it offers, [`Tensor::matmul`], runs the crate's one kernel
//! ([`crate::sparse`]: the left operand's non-zeros times the right
//! operand, register-tiled), which accumulates every output element in
//! strictly ascending order of the reduction index — so it agrees with
//! the naive [`mod@reference`] kernels to exact `f32` equality. The
//! threaded and transposed products of training live on
//! [`crate::linear::Linear`], which keeps their scratch.

use crate::sparse::{self, Finish, IndexSet};

/// A dense row-major matrix of `f32`. A "vector" is a 1×n or n×1 tensor.
///
/// ```
/// use ds_nn::tensor::Tensor;
/// let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
/// let b = Tensor::from_vec(3, 1, vec![1., 0., 1.]);
/// assert_eq!(a.matmul(&b).data(), &[4., 10.]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// All-zero tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a tensor from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes to `rows × cols` zero-filled, reusing the allocation. The
    /// workhorse of the scratch-buffer arenas: repeated kernel calls into
    /// the same tensor allocate only on first use.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// `self · other` — (m×k)·(k×n) = m×n, through the crate's one kernel
    /// over `self`'s non-zeros. A caller that already holds its left
    /// operand as sparse rows, wants lanes or reuses its output calls
    /// [`crate::sparse::sparse_rows_pool`] (or
    /// [`crate::linear::Linear::forward_rows`]) directly.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = Tensor::zeros(self.rows, other.cols);
        if self.cols > 0 {
            let left = IndexSet::of_dense(&self.data, self.cols);
            sparse::sparse_rows(
                &other.data,
                other.cols,
                left.rows(),
                Finish::Store,
                &mut out.data,
            );
        }
        out
    }

    /// Adds `vec` (length = cols) to every row — bias broadcast.
    pub fn add_row_broadcast(&mut self, vec: &[f32]) {
        assert_eq!(vec.len(), self.cols, "broadcast length mismatch");
        for r in 0..self.rows {
            for (o, &v) in self.row_mut(r).iter_mut().zip(vec) {
                *o += v;
            }
        }
    }

    /// Column sums — gradient of a bias broadcast.
    pub fn col_sums(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.col_sums_into(&mut out);
        out
    }

    /// [`Tensor::col_sums`] into a reusable buffer: each column summed
    /// from zero, rows ascending.
    pub fn col_sums_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.cols, 0.0);
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// Explicit transpose (rows ↔ cols).
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(0, 0);
        self.transpose_into(&mut out);
        out
    }

    /// [`Tensor::transpose`] into a reusable output tensor, eight source
    /// rows at a time so every write is a contiguous run.
    pub fn transpose_into(&self, out: &mut Tensor) {
        const BLOCK: usize = 8;
        let (rows, cols) = (self.rows, self.cols);
        out.resize(cols, rows);
        let mut r0 = 0;
        while r0 < rows {
            let height = BLOCK.min(rows - r0);
            for c in 0..cols {
                let run = &mut out.data[c * rows + r0..c * rows + r0 + height];
                for (i, o) in run.iter_mut().enumerate() {
                    *o = self.data[(r0 + i) * cols + c];
                }
            }
            r0 += height;
        }
    }

    /// A new tensor with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Concatenates tensors horizontally (same row count).
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        let mut out = Tensor::zeros(0, 0);
        Self::concat_cols_into(parts, &mut out);
        out
    }

    /// [`Tensor::concat_cols`] into a reusable output tensor.
    pub fn concat_cols_into(parts: &[&Tensor], out: &mut Tensor) {
        assert!(!parts.is_empty(), "concat of nothing");
        let rows = parts[0].rows;
        assert!(
            parts.iter().all(|p| p.rows == rows),
            "row count mismatch in concat"
        );
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        out.resize(rows, cols);
        for r in 0..rows {
            let mut off = 0;
            for p in parts {
                out.row_mut(r)[off..off + p.cols].copy_from_slice(p.row(r));
                off += p.cols;
            }
        }
    }

    /// Splits a tensor into horizontal blocks of the given widths, one
    /// into each of `outs` — the backward of [`Tensor::concat_cols`].
    pub fn split_cols_into(&self, widths: &[usize], outs: &mut [Tensor]) {
        assert_eq!(widths.iter().sum::<usize>(), self.cols, "split widths");
        assert_eq!(widths.len(), outs.len(), "split output count");
        let mut off = 0;
        for (&w, t) in widths.iter().zip(outs.iter_mut()) {
            t.resize(self.rows, w);
            for r in 0..self.rows {
                t.row_mut(r).copy_from_slice(&self.row(r)[off..off + w]);
            }
            off += w;
        }
    }
}

/// The original naive kernels, kept verbatim as the oracle for the
/// property tests in `tests/kernel_properties.rs` — the tiled/parallel
/// kernel behind every forward, input-gradient and weight-gradient product
/// must agree with these to exact f32 equality.
#[doc(hidden)]
pub mod reference {
    use super::Tensor;

    /// Naive `a · b` with the zero-skip inner loop the crate shipped with.
    pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(a.cols(), b.rows(), "matmul dimension mismatch");
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = Tensor::zeros(m, n);
        for i in 0..m {
            let a_row = a.row(i);
            let out_row = &mut out.data_mut()[i * n..(i + 1) * n];
            for (p, &av) in a_row.iter().enumerate().take(k) {
                if av == 0.0 {
                    continue;
                }
                let b_row = &b.data()[p * n..(p + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// Naive `aᵀ · b`.
    pub fn t_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(a.rows(), b.rows(), "t_matmul dimension mismatch");
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = Tensor::zeros(k, n);
        for i in 0..m {
            let a_row = &a.data()[i * k..(i + 1) * k];
            let b_row = &b.data()[i * n..(i + 1) * n];
            for (p, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[p * n..(p + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// Naive `a · bᵀ`.
    pub fn matmul_t(a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(a.cols(), b.cols(), "matmul_t dimension mismatch");
        let (m, k, n) = (a.rows(), a.cols(), b.rows());
        let mut out = Tensor::zeros(m, n);
        for i in 0..m {
            let a_row = &a.data()[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &b.data()[j * k..(j + 1) * k];
                let mut acc = 0.0;
                for (&av, &bv) in a_row.iter().zip(b_row) {
                    acc += av * bv;
                }
                out.data[i * n + j] = acc;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_small_known() {
        let a = t(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = t(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_skips_zero_rows_correctly() {
        let a = t(1, 3, &[0., 2., 0.]);
        let b = t(3, 2, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.matmul(&b).data(), &[6., 8.]);
    }

    #[test]
    fn reference_transposed_products_agree_with_plain_matmul() {
        let a = t(
            4,
            3,
            &(0..12).map(|i| (i as f32) * 0.5 - 2.0).collect::<Vec<_>>(),
        );
        let b = t(
            4,
            2,
            &(0..8).map(|i| (i as f32) * 0.25 + 1.0).collect::<Vec<_>>(),
        );
        assert_eq!(reference::t_matmul(&a, &b), a.transpose().matmul(&b));
        let b2 = t(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(reference::matmul_t(&a, &b2), a.matmul(&b2.transpose()));
        assert_eq!(
            reference::matmul(&a, &b2.transpose()),
            a.matmul(&b2.transpose())
        );
    }

    #[test]
    fn broadcast_and_col_sums_are_inverse_shapes() {
        let mut a = Tensor::zeros(3, 2);
        a.add_row_broadcast(&[1.0, -2.0]);
        assert_eq!(a.data(), &[1., -2., 1., -2., 1., -2.]);
        assert_eq!(a.col_sums(), vec![3.0, -6.0]);
    }

    #[test]
    fn concat_split_roundtrip() {
        let a = t(2, 2, &[1., 2., 3., 4.]);
        let b = t(2, 1, &[9., 8.]);
        let c = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(c.cols(), 3);
        assert_eq!(c.row(0), &[1., 2., 9.]);
        let mut parts = [Tensor::zeros(0, 0), Tensor::zeros(0, 0)];
        c.split_cols_into(&[2, 1], &mut parts);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        t(2, 3, &[0.; 6]).matmul(&t(2, 2, &[0.; 4]));
    }

    #[test]
    fn transpose_handles_ragged_blocks() {
        for (rows, cols) in [(1, 1), (3, 5), (8, 2), (13, 9), (16, 16)] {
            let src = t(
                rows,
                cols,
                &(0..rows * cols).map(|i| i as f32).collect::<Vec<_>>(),
            );
            let mut dst = t(1, 3, &[9.0; 3]); // stale shape and contents
            src.transpose_into(&mut dst);
            assert_eq!((dst.rows(), dst.cols()), (cols, rows));
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(dst.get(c, r), src.get(r, c), "{rows}x{cols}");
                }
            }
        }
    }

    #[test]
    fn transpose_involution_and_matmul_identity() {
        let a = t(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let at = a.transpose();
        assert_eq!(at.rows(), 3);
        assert_eq!(at.get(0, 1), 4.0);
        assert_eq!(at.transpose(), a);
        // a·b == (bᵀ·aᵀ)ᵀ
        let b = t(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let lhs = a.matmul(&b);
        let rhs = b.transpose().matmul(&a.transpose()).transpose();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn scale_add_map_norm() {
        let a = t(1, 3, &[3., -3., 5.]);
        let abs = a.map(f32::abs);
        assert_eq!(abs.data(), &[3., 3., 5.]);
    }

    #[test]
    fn row_accessors() {
        let mut a = t(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.row(1), &[4., 5., 6.]);
        a.row_mut(0)[2] = 9.;
        assert_eq!(a.get(0, 2), 9.);
    }
}
