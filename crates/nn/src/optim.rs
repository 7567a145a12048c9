//! The optimizer: Adam (Kingma & Ba, 2015), which MSCN trains with at
//! learning rate 1e-3.

use std::collections::HashMap;

use crate::linear::{Linear, LinearGrads};
use crate::pool::Team;

/// Per-layer Adam state.
#[derive(Debug, Clone)]
struct AdamState {
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

/// Adam optimizer. Layers are identified by a caller-chosen id so one
/// optimizer instance can drive a whole model.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    states: HashMap<usize, AdamState>,
}

impl Adam {
    /// Creates Adam with standard hyper-parameters (β₁=0.9, β₂=0.999,
    /// ε=1e-8).
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "bad learning rate");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            states: HashMap::new(),
        }
    }

    /// Applies one Adam update to `layer` (identified by `id`) from its
    /// accumulated `grads`, and clears them. The update is elementwise — a parameter, its
    /// gradient and its two moments — so a large layer's parameters are
    /// cut in two for an idle lane of `team` without changing a bit.
    ///
    /// # Panics
    /// Panics if the same `id` is reused for a layer of a different size,
    /// or if `grads` is not in `layer`'s shape.
    pub fn step(&mut self, id: usize, layer: &mut Linear, grads: &mut LinearGrads, team: &Team) {
        let n = layer.num_params();
        let state = self.states.entry(id).or_insert_with(|| AdamState {
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
        });
        assert_eq!(
            state.m.len(),
            n,
            "layer id {id} reused with different shape"
        );
        state.t += 1;
        let t = state.t as f32;
        let step = AdamStep {
            b1: self.beta1,
            b2: self.beta2,
            eps: self.eps,
            lr: self.lr,
            bc1: 1.0 - self.beta1.powf(t),
            bc2: 1.0 - self.beta2.powf(t),
        };
        let mut at = 0;
        for (params, grads) in layer.params_and_grads_mut(grads) {
            let moments = at..at + params.len();
            let (m, v) = (&mut state.m[moments.clone()], &mut state.v[moments.clone()]);
            if params.len() >= FORK_MIN_PARAMS && team.has_idle() {
                let mid = params.len() / 2;
                let ((p0, p1), (g0, g1)) = (params.split_at_mut(mid), grads.split_at(mid));
                let ((m0, m1), (v0, v1)) = (m.split_at_mut(mid), v.split_at_mut(mid));
                team.join(|| step.apply(p0, g0, m0, v0), || step.apply(p1, g1, m1, v1));
            } else {
                step.apply(params, grads, m, v);
            }
            at = moments.end;
        }
        grads.zero();
    }
}

/// Parameters below which [`Adam::step`] does not fork: half of this is
/// ≈ 10 µs of update, ten times what a join with a polling helper costs.
const FORK_MIN_PARAMS: usize = 1 << 14;

/// The constants of one Adam step, and the update they define.
#[derive(Clone, Copy)]
struct AdamStep {
    b1: f32,
    b2: f32,
    eps: f32,
    lr: f32,
    /// Bias corrections `1 - βᵗ`.
    bc1: f32,
    bc2: f32,
}

impl AdamStep {
    /// Updates `params` and both moment vectors from `grads`, one
    /// parameter per lane. The arithmetic of a lane is the scalar
    /// formula's, operation for operation; IEEE multiply, add, divide and
    /// square root round the same at any vector width, so the AVX2 build
    /// of this loop changes no bit.
    fn apply(self, params: &mut [f32], grads: &[f32], m: &mut [f32], v: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { self.apply_avx2(params, grads, m, v) };
            return;
        }
        self.apply_lanes(params, grads, m, v);
    }

    /// [`AdamStep::apply`]'s loop compiled with 8-lane vectors.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn apply_avx2(self, params: &mut [f32], grads: &[f32], m: &mut [f32], v: &mut [f32]) {
        self.apply_lanes(params, grads, m, v);
    }

    #[inline(always)]
    fn apply_lanes(self, params: &mut [f32], grads: &[f32], m: &mut [f32], v: &mut [f32]) {
        let Self {
            b1,
            b2,
            eps,
            lr,
            bc1,
            bc2,
        } = self;
        for (((p, &g), m), v) in params.iter_mut().zip(grads).zip(m).zip(v) {
            *m = b1 * *m + (1.0 - b1) * g;
            *v = b2 * *v + (1.0 - b2) * g * g;
            let mhat = *m / bc1;
            let vhat = *v / bc2;
            *p -= lr * mhat / (vhat.sqrt() + eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    /// Trains y = 2x + 1 with a single linear layer.
    fn fit(optimizer: &mut dyn FnMut(&mut Linear, &mut LinearGrads), steps: usize) -> f32 {
        let mut layer = Linear::new(1, 1, 3);
        let mut grads = LinearGrads::zeros(&layer);
        let xs: Vec<f32> = (0..16).map(|i| i as f32 / 8.0 - 1.0).collect();
        let mut last_loss = f32::MAX;
        for _ in 0..steps {
            let x = Tensor::from_vec(16, 1, xs.clone());
            let y = layer.forward(&x);
            // L = mean((y - (2x+1))²)
            let mut grad = Tensor::zeros(16, 1);
            let mut loss = 0.0;
            for (i, (&xi, &yi)) in xs.iter().zip(y.data()).enumerate() {
                let target = 2.0 * xi + 1.0;
                let diff = yi - target;
                loss += diff * diff / 16.0;
                grad.data_mut()[i] = 2.0 * diff / 16.0;
            }
            layer.backward(&x, &grad, &mut grads);
            optimizer(&mut layer, &mut grads);
            last_loss = loss;
        }
        last_loss
    }

    #[test]
    fn adam_converges_on_linear_regression() {
        let mut adam = Adam::new(0.05);
        let loss = fit(&mut |l, g| adam.step(0, l, g, &Team::solo()), 300);
        assert!(loss < 1e-4, "loss={loss}");
    }

    #[test]
    fn adam_state_is_per_layer() {
        let mut adam = Adam::new(0.01);
        let mut l1 = Linear::new(2, 2, 1);
        let mut l2 = Linear::new(3, 1, 2);
        let (mut g1, mut g2) = (LinearGrads::zeros(&l1), LinearGrads::zeros(&l2));
        let x1 = Tensor::from_vec(1, 2, vec![1.0, 1.0]);
        let x2 = Tensor::from_vec(1, 3, vec![1.0, 1.0, 1.0]);
        l1.backward(&x1, &Tensor::from_vec(1, 2, vec![1.0, 1.0]), &mut g1);
        l2.backward(&x2, &Tensor::from_vec(1, 1, vec![1.0]), &mut g2);
        adam.step(0, &mut l1, &mut g1, &Team::solo());
        adam.step(1, &mut l2, &mut g2, &Team::solo());
        assert_eq!(adam.states.len(), 2);
    }

    #[test]
    #[should_panic(expected = "reused with different shape")]
    fn adam_rejects_id_reuse_across_shapes() {
        let mut adam = Adam::new(0.01);
        let mut l1 = Linear::new(2, 2, 1);
        let mut l2 = Linear::new(3, 1, 2);
        let (mut g1, mut g2) = (LinearGrads::zeros(&l1), LinearGrads::zeros(&l2));
        adam.step(0, &mut l1, &mut g1, &Team::solo());
        adam.step(0, &mut l2, &mut g2, &Team::solo());
    }

    #[test]
    fn a_forked_step_is_the_serial_step() {
        // Large enough to fork, odd so the halves end off a vector width.
        let (rows, cols) = (257, 129);
        let x = Tensor::from_vec(1, rows, (0..rows).map(|i| (i % 7) as f32 - 3.0).collect());
        let g = Tensor::from_vec(1, cols, (0..cols).map(|i| (i % 5) as f32 * 0.25).collect());
        let run = |lanes: usize| {
            let mut adam = Adam::new(0.01);
            let mut layer = Linear::new(rows, cols, 9);
            let mut grads = LinearGrads::zeros(&layer);
            Team::run(lanes, |team| {
                for _ in 0..3 {
                    layer.backward(&x, &g, &mut grads);
                    adam.step(0, &mut layer, &mut grads, team);
                }
            });
            (layer.weights().clone(), layer.bias().to_vec())
        };
        assert!(rows * cols >= FORK_MIN_PARAMS);
        let serial = run(1);
        assert_eq!(run(2), serial);
        assert_eq!(run(3), serial);
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut adam = Adam::new(0.01);
        let mut l = Linear::new(2, 1, 5);
        let mut grads = LinearGrads::zeros(&l);
        let x = Tensor::from_vec(1, 2, vec![1.0, -1.0]);
        l.backward(&x, &Tensor::from_vec(1, 1, vec![1.0]), &mut grads);
        assert!(grads.bias()[0] != 0.0);
        adam.step(0, &mut l, &mut grads, &Team::solo());
        assert!(grads
            .weights()
            .data()
            .iter()
            .chain(grads.bias())
            .all(|&g| g == 0.0));
    }
}
