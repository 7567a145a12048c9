//! # ds-nn
//!
//! A minimal, dependency-free CPU neural-network library — the substrate
//! that replaces PyTorch in this reproduction. It provides exactly what the
//! MSCN model needs:
//!
//! * [`sparse`] — the one matrix kernel: sparse rows times a dense matrix,
//!   register-tiled and zero-skipping, behind every forward, input-gradient
//!   and weight-gradient product of training and every layer of serving;
//! * [`tensor::Tensor`] — row-major `f32` matrices with the handful of
//!   dense ops around the kernel (broadcasts, concat/split, column sums);
//! * [`pool`] — the lane team: helper threads scoped to one training run
//!   and one fork, `join`, with bit-identical results at any lane count;
//! * [`linear::Linear`] — fully-connected layers with explicit
//!   forward/backward and gradient accumulation;
//! * [`ops`] — activations (ReLU/sigmoid) and the *segment mean* used for
//!   masked average-pooling over variable-size sets;
//! * [`optim`] — Adam;
//! * [`loss`] — the mean q-error objective of the paper;
//! * [`serialize`] — a versioned binary codec for model weights;
//! * [`frozen`] — serving-only frozen inference artifacts: f32 weights
//!   in gather-friendly layout with one fused batched forward.
//!
//! Everything is deterministic given a seed, and every backward pass is
//! validated against finite differences in the test suite.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod frozen;
pub mod linear;
pub mod loss;
pub mod ops;
pub mod optim;
pub mod pool;
pub mod serialize;
pub mod sparse;
pub mod tensor;

pub use frozen::{FrozenLinear, FrozenModel, FrozenScratch, IndexSet};
pub use linear::{GradScratch, Linear, LinearGrads};
pub use loss::{LabelNormalizer, QErrorLoss};
pub use optim::Adam;
pub use pool::Team;
pub use sparse::Rows;
pub use tensor::Tensor;
