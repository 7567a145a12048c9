//! Fully-connected layers with explicit forward/backward passes.
//!
//! All three products of a layer — forward `x·W + b`, input gradient
//! `g·Wᵀ`, weight gradient `xᵀ·g` — run the crate's one kernel
//! ([`crate::sparse`]), so none of them multiplies a zero: the left
//! operand always arrives as sparse rows (index-list features, or the
//! non-zeros of a post-ReLU activation or a ReLU-masked gradient).

use rand::{rngs::StdRng, RngExt, SeedableRng};

use crate::pool::Team;
use crate::sparse::{self, Finish, IndexSet, Rows};
use crate::tensor::Tensor;

/// Reusable buffers of a layer's backward products; one arena serves every
/// layer of a model in turn. Buffers grow to the largest layer seen, so a
/// steady-state training step allocates nothing here.
#[derive(Debug, Default)]
pub struct GradScratch {
    /// The forward input's columns — the weight gradient's left operand.
    x_cols: IndexSet,
    /// Column sums of the output gradient — the bias gradient.
    col_sums: Vec<f32>,
    /// The non-zeros of the output gradient — the input gradient's left
    /// operand.
    grad_rows: IndexSet,
    /// `Wᵀ` — the input gradient's right operand.
    w_t: Tensor,
}

impl GradScratch {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A fully-connected layer `y = x·W + b`: its weights and nothing else.
///
/// `W` has shape (in_dim × out_dim); `b` has length out_dim. The gradients
/// of training live outside the layer, in a [`LinearGrads`] the trainer
/// owns: they accumulate across [`Linear::backward`] calls until
/// [`LinearGrads::zero`] (the optimizer does this after each step), which
/// lets several set-module applications share one weight matrix — the
/// weight sharing at the heart of the MSCN set modules.
#[derive(Debug, Clone)]
pub struct Linear {
    w: Tensor,
    b: Vec<f32>,
}

/// The accumulated `∂L/∂W` and `∂L/∂b` of one [`Linear`], in its shape.
#[derive(Debug, Clone)]
pub struct LinearGrads {
    w: Tensor,
    b: Vec<f32>,
}

impl LinearGrads {
    /// Zero gradients in `layer`'s shape.
    pub fn zeros(layer: &Linear) -> Self {
        Self {
            w: Tensor::zeros(layer.in_dim(), layer.out_dim()),
            b: vec![0.0; layer.out_dim()],
        }
    }

    /// `∂L/∂W`.
    pub fn weights(&self) -> &Tensor {
        &self.w
    }

    /// `∂L/∂b`.
    pub fn bias(&self) -> &[f32] {
        &self.b
    }

    /// Clears accumulated gradients.
    pub fn zero(&mut self) {
        self.w.data_mut().fill(0.0);
        self.b.fill(0.0);
    }
}

impl Linear {
    /// Creates a layer with Xavier/Glorot-uniform weights, deterministic in
    /// `seed`.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "degenerate layer shape");
        let mut rng = StdRng::seed_from_u64(seed);
        let bound = (6.0 / (in_dim + out_dim) as f32).sqrt();
        let data = (0..in_dim * out_dim)
            .map(|_| rng.random_range(-bound..bound))
            .collect();
        Self {
            w: Tensor::from_vec(in_dim, out_dim, data),
            b: vec![0.0; out_dim],
        }
    }

    /// Rebuilds a layer from raw parameters.
    ///
    /// # Panics
    /// Panics if `b.len()` differs from `w.cols()`.
    pub fn from_params(w: Tensor, b: Vec<f32>) -> Self {
        assert_eq!(b.len(), w.cols(), "bias length mismatch");
        Self { w, b }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Weight matrix.
    pub fn weights(&self) -> &Tensor {
        &self.w
    }

    /// Bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.b
    }

    /// Forward pass: `x` (batch × in_dim) → (batch × out_dim).
    pub fn forward(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.cols(), self.in_dim(), "input width mismatch");
        let rows = IndexSet::of_dense(x.data(), x.cols());
        let mut y = Tensor::zeros(0, 0);
        self.forward_rows(rows.rows(), false, &Team::solo(), &mut y);
        y
    }

    /// `out[r, :] = act(x[r] · W + b)` over sparse input rows (ascending
    /// indices `< in_dim`), `act` being ReLU when `relu` is set — the hot
    /// path, and bit for bit what a frozen copy of this layer computes,
    /// on however many of `team`'s lanes are idle.
    pub fn forward_rows(&self, x: Rows<'_>, relu: bool, team: &Team, out: &mut Tensor) {
        let _span = ds_obs::global().span("linear_fwd");
        out.resize(x.spans.len(), self.out_dim());
        let finish = Finish::Bias {
            bias: &self.b,
            relu,
        };
        let w = self.w.data();
        sparse::sparse_rows_pool(w, self.out_dim(), x, finish, team, out.data_mut());
    }

    /// Backward pass. `x` must be the input of the matching forward call and
    /// `grad_out` the gradient w.r.t. its output. Accumulates `∂L/∂W` and
    /// `∂L/∂b` into `grads`, returns `∂L/∂x`.
    pub fn backward(&self, x: &Tensor, grad_out: &Tensor, grads: &mut LinearGrads) -> Tensor {
        assert_eq!(x.cols(), self.in_dim(), "input width mismatch");
        let mut scratch = GradScratch::new();
        let rows = IndexSet::of_dense(x.data(), x.cols());
        let mut gx = Tensor::zeros(0, 0);
        let team = Team::solo();
        self.backward_into(rows.rows(), grad_out, grads, &team, &mut scratch, &mut gx);
        gx
    }

    /// The full backward pass into reusable buffers: what
    /// [`Linear::accumulate_grads`] does, and `∂L/∂x = grad_out · Wᵀ` into
    /// `out`, as the two pieces of one join — they share only their input
    /// `grad_out`, each with its own glue (a transpose, a compression) in
    /// front of its product, so a second lane takes one whole. `grad_out`
    /// is usually ReLU-masked, so about half of it is skipped.
    pub fn backward_into(
        &self,
        x: Rows<'_>,
        grad_out: &Tensor,
        grads: &mut LinearGrads,
        team: &Team,
        scratch: &mut GradScratch,
        out: &mut Tensor,
    ) {
        self.check_shape(grads);
        let GradScratch {
            x_cols,
            col_sums,
            grad_rows,
            w_t,
        } = scratch;
        team.join(
            || accumulate(grads, x, grad_out, team, x_cols, col_sums),
            || input_grad(&self.w, grad_out, team, grad_rows, w_t, out),
        );
    }

    /// Accumulates `∂L/∂W = xᵀ · grad_out` and `∂L/∂b` (the column sums of
    /// `grad_out`) into `grads` *without* computing `∂L/∂x` — all an input
    /// layer needs. `x` is the forward input as sparse rows. Each gradient
    /// element is summed over the batch rows ascending, from zero, and then
    /// added to what had accumulated.
    pub fn accumulate_grads(
        &self,
        x: Rows<'_>,
        grad_out: &Tensor,
        grads: &mut LinearGrads,
        team: &Team,
        scratch: &mut GradScratch,
    ) {
        self.check_shape(grads);
        let GradScratch {
            x_cols, col_sums, ..
        } = scratch;
        accumulate(grads, x, grad_out, team, x_cols, col_sums);
    }

    /// Number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.w.data().len() + self.b.len()
    }

    /// The layer's parameters beside their accumulated gradients, weights
    /// first, then bias — the optimizer's interface.
    pub fn params_and_grads_mut<'a>(
        &'a mut self,
        grads: &'a LinearGrads,
    ) -> [(&'a mut [f32], &'a [f32]); 2] {
        self.check_shape(grads);
        [(self.w.data_mut(), grads.w.data()), (&mut self.b, &grads.b)]
    }

    /// Every method that takes a layer's gradients panics unless they are
    /// in its shape.
    fn check_shape(&self, grads: &LinearGrads) {
        assert_eq!(grads.w.rows(), self.in_dim(), "gradient shape mismatch");
        assert_eq!(grads.w.cols(), self.out_dim(), "gradient shape mismatch");
    }
}

/// [`Linear::accumulate_grads`] over the gradients and scratch it uses.
fn accumulate(
    grads: &mut LinearGrads,
    x: Rows<'_>,
    grad_out: &Tensor,
    team: &Team,
    x_cols: &mut IndexSet,
    col_sums: &mut Vec<f32>,
) {
    let (in_dim, out_dim) = (grads.w.rows(), grads.w.cols());
    assert_eq!(grad_out.rows(), x.spans.len(), "batch mismatch");
    assert_eq!(grad_out.cols(), out_dim, "grad width mismatch");
    let _span = ds_obs::global().span("linear_bwd_grads");
    x_cols.transpose_of(x, in_dim);
    sparse::sparse_rows_pool(
        grad_out.data(),
        out_dim,
        x_cols.rows(),
        Finish::Accumulate,
        team,
        grads.w.data_mut(),
    );
    grad_out.col_sums_into(col_sums);
    for (a, b) in grads.b.iter_mut().zip(&*col_sums) {
        *a += b;
    }
}

/// `∂L/∂x = grad_out · Wᵀ` into `out`, the input-gradient half of
/// [`Linear::backward_into`], over the weights and scratch it uses.
fn input_grad(
    w: &Tensor,
    grad_out: &Tensor,
    team: &Team,
    grad_rows: &mut IndexSet,
    w_t: &mut Tensor,
    out: &mut Tensor,
) {
    let (in_dim, out_dim) = (w.rows(), w.cols());
    assert_eq!(grad_out.cols(), out_dim, "grad width mismatch");
    let _span = ds_obs::global().span("linear_bwd_input");
    w.transpose_into(w_t);
    grad_rows.compress_rows(grad_out.data(), out_dim);
    out.resize(grad_out.rows(), in_dim);
    sparse::sparse_rows_pool(
        w_t.data(),
        in_dim,
        grad_rows.rows(),
        Finish::Store,
        team,
        out.data_mut(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference gradient check for a scalar loss L = sum(forward(x)).
    #[test]
    fn gradients_match_finite_differences() {
        let layer = Linear::new(4, 3, 42);
        let mut grads = LinearGrads::zeros(&layer);
        let x = Tensor::from_vec(2, 4, (0..8).map(|i| i as f32 * 0.3 - 1.0).collect());
        // L = sum(y) → grad_out = ones.
        let grad_out = Tensor::from_vec(2, 3, vec![1.0; 6]);
        let grad_x = layer.backward(&x, &grad_out, &mut grads);

        let eps = 1e-3_f32;
        let loss = |l: &Linear, x: &Tensor| -> f32 { l.forward(x).data().iter().sum() };

        // Check ∂L/∂x numerically.
        for i in 0..x.data().len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * eps);
            let ana = grad_x.data()[i];
            assert!((num - ana).abs() < 1e-2, "dx[{i}]: num={num} ana={ana}");
        }

        // Check ∂L/∂W numerically.
        for i in 0..layer.w.data().len() {
            let mut lp = layer.clone();
            lp.w.data_mut()[i] += eps;
            let mut lm = layer.clone();
            lm.w.data_mut()[i] -= eps;
            let num = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * eps);
            let ana = grads.w.data()[i];
            assert!((num - ana).abs() < 1e-2, "dW[{i}]: num={num} ana={ana}");
        }

        // Check ∂L/∂b numerically: each bias sees the batch count.
        for (i, &g) in grads.b.iter().enumerate() {
            assert!((g - 2.0).abs() < 1e-6, "db[{i}]={g}");
        }
    }

    #[test]
    fn gradient_accumulates_until_zeroed() {
        let layer = Linear::new(2, 2, 1);
        let mut grads = LinearGrads::zeros(&layer);
        let x = Tensor::from_vec(1, 2, vec![1.0, 2.0]);
        let g = Tensor::from_vec(1, 2, vec![1.0, 1.0]);
        layer.backward(&x, &g, &mut grads);
        let first = grads.w.data().to_vec();
        layer.backward(&x, &g, &mut grads);
        for (a, b) in grads.w.data().iter().zip(&first) {
            assert!((a - 2.0 * b).abs() < 1e-6);
        }
        grads.zero();
        assert!(grads.w.data().iter().all(|&v| v == 0.0));
        assert!(grads.b.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn xavier_init_is_bounded_and_seeded() {
        let a = Linear::new(10, 10, 7);
        let b = Linear::new(10, 10, 7);
        assert_eq!(a.weights(), b.weights());
        let c = Linear::new(10, 10, 8);
        assert_ne!(a.weights(), c.weights());
        let bound = (6.0_f32 / 20.0).sqrt();
        assert!(a.weights().data().iter().all(|v| v.abs() <= bound));
        assert!(a.bias().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_params_roundtrip() {
        let l = Linear::new(3, 2, 9);
        let l2 = Linear::from_params(l.weights().clone(), l.bias().to_vec());
        let x = Tensor::from_vec(1, 3, vec![0.5, -1.0, 2.0]);
        assert_eq!(l.forward(&x), l2.forward(&x));
        assert_eq!(l2.num_params(), 8);
    }
}
