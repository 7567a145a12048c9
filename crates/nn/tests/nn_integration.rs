//! Integration tests of ds-nn as a standalone library: train small networks
//! on classic tasks end-to-end, exercise serialization of whole models, and
//! validate the set-pooling path outside MSCN.

use ds_nn::frozen::FrozenLinear;
use ds_nn::linear::{Linear, LinearGrads};
use ds_nn::ops::{
    relu, relu_backward, segment_mean, segment_mean_backward, sigmoid, sigmoid_backward, Segments,
};
use ds_nn::optim::Adam;
use ds_nn::pool::Team;
use ds_nn::serialize::{Decoder, Encoder};
use ds_nn::tensor::Tensor;

/// A 2-layer MLP with sigmoid head used by these tests.
struct Mlp {
    l1: Linear,
    l2: Linear,
}

impl Mlp {
    fn new(inputs: usize, hidden: usize, seed: u64) -> Self {
        Self {
            l1: Linear::new(inputs, hidden, seed),
            l2: Linear::new(hidden, 1, seed ^ 0xFF),
        }
    }

    fn forward(&self, x: &Tensor) -> (Tensor, (Tensor, Tensor, Tensor)) {
        let z1 = self.l1.forward(x);
        let a1 = relu(&z1);
        let z2 = self.l2.forward(&a1);
        let y = sigmoid(&z2);
        (y.clone(), (z1, a1, y))
    }

    fn backward(
        &self,
        x: &Tensor,
        cache: &(Tensor, Tensor, Tensor),
        grad_y: &Tensor,
        [g1, g2]: &mut [LinearGrads; 2],
    ) {
        let (z1, a1, y) = cache;
        let g_z2 = sigmoid_backward(y, grad_y);
        let g_a1 = self.l2.backward(a1, &g_z2, g2);
        let g_z1 = relu_backward(z1, &g_a1);
        self.l1.backward(x, &g_z1, g1);
    }
}

/// XOR is not linearly separable: learning it proves the full
/// forward/backward/optimizer chain works beyond linear regression.
#[test]
fn mlp_learns_xor() {
    let x = Tensor::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
    let targets = [0.0f32, 1.0, 1.0, 0.0];
    let mut mlp = Mlp::new(2, 8, 11);
    let mut grads = [&mlp.l1, &mlp.l2].map(LinearGrads::zeros);
    let mut adam = Adam::new(0.05);
    for _ in 0..500 {
        let (y, cache) = mlp.forward(&x);
        let mut grad = Tensor::zeros(4, 1);
        for (i, (&yi, &t)) in y.data().iter().zip(&targets).enumerate() {
            grad.data_mut()[i] = 2.0 * (yi - t) / 4.0;
        }
        mlp.backward(&x, &cache, &grad, &mut grads);
        let [g1, g2] = &mut grads;
        adam.step(0, &mut mlp.l1, g1, &Team::solo());
        adam.step(1, &mut mlp.l2, g2, &Team::solo());
    }
    let (y, _) = mlp.forward(&x);
    for (i, &t) in targets.iter().enumerate() {
        let p = y.data()[i];
        assert!(
            (p - t).abs() < 0.2,
            "xor case {i}: predicted {p}, wanted {t}"
        );
    }
}

/// Mean-pooled set representations train too: predict the fraction of
/// positive elements in a variable-length set.
#[test]
fn set_network_learns_positive_fraction() {
    // Sets of 1..5 scalar elements; target = fraction of elements > 0.
    let mut elements: Vec<f32> = Vec::new();
    let mut segments: Segments = Vec::new();
    let mut targets: Vec<f32> = Vec::new();
    let mut rng_state = 12345u64;
    let mut next = || {
        rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((rng_state >> 33) as f32 / (1u32 << 31) as f32) * 2.0 - 1.0
    };
    for _ in 0..200 {
        let len = 1 + (next().abs() * 4.0) as usize;
        let start = elements.len();
        let mut pos = 0;
        for _ in 0..len {
            let v = next();
            if v > 0.0 {
                pos += 1;
            }
            elements.push(v);
        }
        segments.push((start, len));
        targets.push(pos as f32 / len as f32);
    }
    let x = Tensor::from_vec(elements.len(), 1, elements);

    let mut enc = Linear::new(1, 8, 3);
    let mut head = Linear::new(8, 1, 4);
    let (mut g_enc, mut g_head) = (LinearGrads::zeros(&enc), LinearGrads::zeros(&head));
    let mut adam = Adam::new(0.02);
    let mut final_loss = f32::MAX;
    for _ in 0..400 {
        let z1 = enc.forward(&x);
        let a1 = relu(&z1);
        let pooled = segment_mean(&a1, &segments);
        let z2 = head.forward(&pooled);
        let y = sigmoid(&z2);
        let mut grad = Tensor::zeros(y.rows(), 1);
        let mut loss = 0.0;
        let n = y.rows() as f32;
        for (i, (&yi, &t)) in y.data().iter().zip(&targets).enumerate() {
            let diff = yi - t;
            loss += diff * diff / n;
            grad.data_mut()[i] = 2.0 * diff / n;
        }
        final_loss = loss;
        let g_z2 = sigmoid_backward(&y, &grad);
        let g_pooled = head.backward(&pooled, &g_z2, &mut g_head);
        let g_a1 = segment_mean_backward(x.rows(), &g_pooled, &segments);
        let g_z1 = relu_backward(&z1, &g_a1);
        enc.backward(&x, &g_z1, &mut g_enc);
        adam.step(0, &mut enc, &mut g_enc, &Team::solo());
        adam.step(1, &mut head, &mut g_head, &Team::solo());
    }
    assert!(final_loss < 0.03, "set task MSE {final_loss}");
}

/// A whole multi-layer model serializes and reloads bit-exactly.
#[test]
fn whole_model_serialization_is_bit_exact() {
    let mlp = Mlp::new(3, 5, 42);
    let mut e = Encoder::new();
    e.header(b"TST2", 1);
    e.linear(&FrozenLinear::from_linear(&mlp.l1));
    e.linear(&FrozenLinear::from_linear(&mlp.l2));
    let bytes = e.finish();

    let mut d = Decoder::new(&bytes);
    assert_eq!(d.header(b"TST2").unwrap(), 1);
    let l1 = d.linear().unwrap().thaw();
    let l2 = d.linear().unwrap().thaw();
    assert!(d.is_done());
    let restored = Mlp { l1, l2 };

    let x = Tensor::from_vec(2, 3, vec![0.1, -0.5, 2.0, 1.0, 0.0, -1.0]);
    let (y1, _) = mlp.forward(&x);
    let (y2, _) = restored.forward(&x);
    assert_eq!(y1, y2);
}
