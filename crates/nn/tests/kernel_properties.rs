//! Property tests pinning the tiled/parallel kernel behind every product
//! of the model — forward, input gradient, weight gradient, in training
//! and frozen for serving — to the naive reference oracle
//! (`ds_nn::tensor::reference`): **exact** f32 equality, not approximate.
//! The kernel only re-tiles the output, never a reduction, and skipping a
//! zero is bit-neutral, so every element must come out bit-identical.
//!
//! Everything here goes through the runtime dispatch, so it reaches the
//! CPU's widest kernel only; `ds_nn::sparse`'s own tests pin each
//! instruction-set kernel against the portable oracle on its own.
//!
//! Two sets of shapes: small random ones (`m, k, n < 40`: at most two AVX2
//! tiles, or one AVX-512 tile, and every ragged remainder) and the shapes
//! the model runs —
//! `n ∈ {64, 256}`, `k ∈ {5, 13, 256, 262, 768}` — each with left operands that
//! are 0 %, 50 % and 100 % zero and carry `-0.0` and subnormals, on teams of
//! {1, 2, 8} lanes. A third test drives the entry-balanced row cut of
//! `sparse_rows_pool` through the inputs that leave it nothing, or nothing
//! even, to cut.

use ds_nn::frozen::{FrozenLinear, IndexSet};
use ds_nn::linear::{GradScratch, Linear, LinearGrads};
use ds_nn::pool::Team;
use ds_nn::sparse::{entry_cut, sparse_rows_pool, sparse_rows_portable, Finish};
use ds_nn::tensor::{reference, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Dense tensor with uniform values in [-1, 1).
fn dense(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
    with_zeros(rows, cols, 0.0, rng)
}

/// Mostly-zero tensor: each entry is nonzero with probability ~1/8, like a
/// one-hot row with a short bitmap tail.
fn sparse(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
    with_zeros(rows, cols, 0.875, rng)
}

/// Uniform values in [-1, 1), each replaced by an exact zero with
/// probability `zero_share`.
fn with_zeros(rows: usize, cols: usize, zero_share: f64, rng: &mut StdRng) -> Tensor {
    let data = (0..rows * cols)
        .map(|_| {
            if rng.random_bool(zero_share) {
                0.0
            } else {
                rng.random_range(-1.0f32..1.0)
            }
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// Asserts exact equality; `-0.0 == +0.0` holds, as it does between the
/// kernel's `max(z, 0)` and the oracle's.
fn assert_same(got: &Tensor, want: &Tensor, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.rows(), want.rows(), "{} rows", what);
    prop_assert_eq!(got.cols(), want.cols(), "{} cols", what);
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        prop_assert!(
            g == w,
            "{} element {} differs: {} vs {} (bits {:08x} vs {:08x})",
            what,
            i,
            g,
            w,
            g.to_bits(),
            w.to_bits()
        );
    }
    Ok(())
}

/// `relu?(x·W + b)` the naive way.
fn reference_forward(x: &Tensor, layer: &Linear, relu: bool) -> Tensor {
    let mut want = reference::matmul(x, layer.weights());
    want.add_row_broadcast(layer.bias());
    if relu {
        want = want.map(|v| v.max(0.0));
    }
    want
}

/// Every product of one layer over one input, against the oracle: the
/// training forward with and without ReLU, its frozen copy (dispatched and
/// portable), the weight and bias gradients accumulated twice, and the
/// input gradient — each at every thread count.
fn check_layer(x: &Tensor, layer: &Linear, grad_out: &Tensor) -> Result<(), TestCaseError> {
    let rows = IndexSet::of_dense(x.data(), x.cols());
    let what = format!("{}x{}·{}", x.rows(), x.cols(), layer.out_dim());
    let frozen = FrozenLinear::from_linear(layer);
    let mut scratch = GradScratch::new();
    let mut out = Tensor::zeros(3, 7); // wrong shape, overwritten
    for relu in [false, true] {
        let want = reference_forward(x, layer, relu);
        for threads in THREAD_COUNTS {
            Team::run(threads, |team| {
                layer.forward_rows(rows.rows(), relu, team, &mut out)
            });
            assert_same(
                &out,
                &want,
                &format!("forward {what} relu={relu} t={threads}"),
            )?;
        }
        let mut y = vec![f32::NAN; want.data().len()];
        frozen.forward_rows(&rows, relu, &mut y);
        let got = Tensor::from_vec(want.rows(), want.cols(), y.clone());
        assert_same(&got, &want, &format!("frozen {what} relu={relu}"))?;
        frozen.forward_rows_portable(&rows, relu, &mut y);
        let got = Tensor::from_vec(want.rows(), want.cols(), y);
        assert_same(&got, &want, &format!("portable {what} relu={relu}"))?;
    }
    assert_same(
        &x.matmul(layer.weights()),
        &reference::matmul(x, layer.weights()),
        "matmul",
    )?;

    let once_w = reference::t_matmul(x, grad_out);
    let once_b = grad_out.col_sums();
    let want_in = reference::matmul_t(grad_out, layer.weights());
    for threads in THREAD_COUNTS {
        let mut grads = LinearGrads::zeros(layer);
        for pass in 1..=2 {
            Team::run(threads, |team| {
                layer.accumulate_grads(rows.rows(), grad_out, &mut grads, team, &mut scratch)
            });
            // The second pass adds the same full product to the first.
            let scale = |v: f32| if pass == 1 { v } else { v + v };
            assert_same(
                grads.weights(),
                &once_w.map(scale),
                &format!("grad_w {what} t={threads}"),
            )?;
            let want_b: Vec<f32> = once_b.iter().map(|&v| scale(v)).collect();
            prop_assert_eq!(grads.bias(), &want_b[..], "grad_b {} t={}", &what, threads);
        }
        Team::run(threads, |team| {
            layer.input_grad_into(grad_out, team, &mut scratch, &mut out)
        });
        assert_same(&out, &want_in, &format!("input_grad {what} t={threads}"))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn small_shapes_match_reference(m in 1usize..40, k in 1usize..40, n in 1usize..40, seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let layer = Linear::from_params(dense(k, n, &mut rng), dense(1, n, &mut rng).data().to_vec());
        for x in [dense(m, k, &mut rng), sparse(m, k, &mut rng)] {
            // Output gradients are ReLU-masked in the model: half zeros.
            let grad_out = with_zeros(m, n, 0.5, &mut rng);
            check_layer(&x, &layer, &grad_out)?;
        }
    }
}

/// Plants the values a zero-skipping kernel could trip on: `-0.0` (equal
/// to zero, so skipped, and bit-neutral when not), the smallest subnormal
/// and the largest one.
fn plant_edge_values(t: &mut Tensor) {
    let edge = [-0.0f32, f32::from_bits(1), -f32::from_bits(0x007f_ffff)];
    let len = t.data().len();
    for (i, &v) in edge.iter().cycle().take(len.min(24)).enumerate() {
        t.data_mut()[(i * 37) % len] = v;
    }
}

/// The shapes the model runs at hidden widths 64 and 256: the input layers
/// (`k` = 5 joins, 13 predicate features, 262 table features), a hidden
/// layer (`k = 256`) and the output MLP's first layer (`k = 768 = 3·256`),
/// with 130 rows — a batch and a ragged split — that are dense, half zero
/// (post-ReLU) and all zero, everything carrying `-0.0` and subnormals.
/// From `k = 256` up these fork across lanes (the narrow input layers and
/// the small shapes above stay below the kernel's fork threshold).
#[test]
fn model_shapes_match_reference_with_zeros_negative_zeros_and_subnormals() {
    let mut rng = StdRng::seed_from_u64(0xD15C);
    let m = 130;
    for n in [64usize, 256] {
        for k in [5usize, 13, 256, 262, 768] {
            let mut w = dense(k, n, &mut rng);
            plant_edge_values(&mut w);
            let layer = Linear::from_params(w, dense(1, n, &mut rng).data().to_vec());
            for zero_share in [0.0, 0.5, 1.0] {
                let mut x = with_zeros(m, k, zero_share, &mut rng);
                let mut grad_out = with_zeros(m, n, 0.5, &mut rng);
                if zero_share < 1.0 {
                    plant_edge_values(&mut x);
                    plant_edge_values(&mut grad_out);
                }
                check_layer(&x, &layer, &grad_out)
                    .unwrap_or_else(|e| panic!("k={k} n={n} zeros={zero_share}: {e}"));
            }
        }
    }
}

/// Sparse rows over `k` columns with `counts[r]` entries in row `r`:
/// ascending distinct indices, values in [-1, 1).
fn rows_with_counts(counts: &[usize], k: usize, rng: &mut StdRng) -> IndexSet {
    let mut set = IndexSet::default();
    for &count in counts {
        let start = set.begin_elem();
        // Every `k / count`-th column, from a random offset below the stride.
        let stride = k.checked_div(count).unwrap_or(1);
        let first = rng.random_range(0..stride.max(1));
        for i in 0..count {
            set.push((first + i * stride) as u32, rng.random_range(-1.0f32..1.0));
        }
        set.finish_elem(start);
    }
    set
}

/// The row cut by entries, on the inputs that give it trouble: all the
/// work in one row, empty rows at either end, a single row, fewer rows
/// than lanes, no entries at all. Wherever the cuts fall — and whether or
/// not a helper was idle to take a half — every finish must agree with the
/// portable oracle bit for bit. The heavy rows carry 4 096 entries over
/// 136 output columns (AVX2: a 64-, a 64- and an 8-column tile; AVX-512:
/// one tile of nine vectors, the last masked to 8 lanes), which clears
/// the kernel's fork threshold; two of them clear the one from which a
/// call without a helper asks again.
#[test]
fn entry_balanced_cuts_match_the_portable_oracle_on_degenerate_rows() {
    const K: usize = 4096;
    const N: usize = 136;
    let mut rng = StdRng::seed_from_u64(0xC075);
    let w = dense(K, N, &mut rng);
    let bias = dense(1, N, &mut rng);
    // (what, entries per row, rows before the half-way cut)
    let cases: [(&str, &[usize], usize); 9] = [
        ("every entry in the first row", &[K, 0, 0, 0, 0], 1),
        ("every entry in a middle row", &[0, 0, K, 0, 0], 3),
        ("every entry in the last row", &[0, 0, 0, 0, K], 5),
        (
            "empty rows first and last",
            &[0, 0, K, K / 2, K / 2, 0, 0],
            3,
        ),
        ("one row", &[K], 1),
        ("two rows", &[K, K], 1),
        ("uneven rows", &[K / 8, K, K / 8, K / 4, K / 2], 2),
        ("no entries", &[0, 0, 0], 0),
        ("no rows", &[], 0),
    ];
    for (what, counts, half_way) in cases {
        let x = rows_with_counts(counts, K, &mut rng);
        assert_eq!(entry_cut(&x.elems, 1, 2), half_way, "{what}");
        let finishes = [
            Finish::Bias {
                bias: bias.data(),
                relu: true,
            },
            Finish::Store,
            Finish::Accumulate,
        ];
        for finish in finishes {
            let start: Vec<f32> = (0..counts.len() * N).map(|i| i as f32 * 0.25).collect();
            let mut want = start.clone();
            let weights = w.data();
            sparse_rows_portable(weights, N, x.rows(), finish, &mut want, 0..N);
            for lanes in [1, 2, 3, 8] {
                let mut got = start.clone();
                Team::run(lanes, |team| {
                    sparse_rows_pool(weights, N, x.rows(), finish, team, &mut got)
                });
                let same = got
                    .iter()
                    .zip(&want)
                    .all(|(g, w)| g.to_bits() == w.to_bits());
                assert!(same, "{what} at {lanes} lanes");
            }
        }
    }
}
