//! The multi-set convolutional network (MSCN) of the paper.
//!
//! "For each set, it has a separate module, comprised of one fully-connected
//! multi-layer perceptron (MLP) per set element with shared parameters. We
//! average module outputs, concatenate them, and feed them into a final
//! output MLP, which captures correlations between sets and outputs a
//! cardinality estimate."
//!
//! Concretely, with hidden width `h`:
//!
//! ```text
//! tables  (nt × dt) ─ MLP₂(ReLU) ─ mean ─┐
//! joins   (nj × dj) ─ MLP₂(ReLU) ─ mean ─┼─ concat (b × 3h) ─ MLP(ReLU) ─ σ → ŷ ∈ (0,1)
//! preds   (np × dp) ─ MLP₂(ReLU) ─ mean ─┘
//! ```
//!
//! Weight sharing across set elements comes for free: every element is a
//! row of the flattened batch and the same [`Linear`] is applied to all
//! rows; the segment mean then pools per query.
//!
//! ## Two forwards
//!
//! Training runs [`MscnModel::forward_into`] / [`MscnModel::backward_with`]
//! over a [`PoolBatch`] of index-list features: every product is the one
//! sparse-rows kernel of [`ds_nn::sparse`], fed by the featurizer's index
//! lists at the input layers and by the non-zeros of post-ReLU activations
//! and ReLU-masked gradients everywhere else. [`MscnModel::predict`] is
//! the oracle: the same arithmetic over dense feature tensors through the
//! naive [`ds_nn::tensor::reference`] product, sharing no kernel with
//! training or serving, and bit-identical to both.
//!
//! ## Lanes
//!
//! Forward, backward and the optimizer step take the training run's
//! [`Team`] and fork at two levels. **Modules:** the three set modules
//! share nothing until the concatenation (forward) and after the split
//! (backward) — each owns its two layers, their gradients, its forward
//! cache — so the table module runs on the calling lane while joins, then
//! predicates, run on a helper (tables cost about what the other two cost
//! together); with three lanes each module has its own, and the backward
//! scratch holds one arena per lane in use. **Kernels:** the output MLP,
//! and whatever a lane still has to do once the other has finished, cut
//! each product by rows ([`ds_nn::sparse::sparse_rows_pool`]); a layer's
//! backward runs its weight gradient beside its input gradient
//! ([`Linear::backward_into`]); the Adam step cuts each large layer's
//! parameters in two. A fork moves where an element is computed, never
//! how: every lane count trains the same bits.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use ds_nn::frozen::{FrozenLinear, FrozenModel, IndexSet};
use ds_nn::linear::{GradScratch, Linear};
use ds_nn::ops::{
    relu, relu_backward_inplace, segment_mean, segment_mean_backward_into, segment_mean_into,
    sigmoid_backward_into, sigmoid_scalar, Segments,
};
use ds_nn::optim::Adam;
use ds_nn::pool::Team;
use ds_nn::serialize::{DecodeError, Decoder, Encoder};
use ds_nn::tensor::{reference, Tensor};

use crate::featurize::{BatchSet, FeatureBatch, PoolBatch};

/// Hyper-parameters of the MSCN model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MscnConfig {
    /// Hidden width of every MLP (the paper/MSCN code uses 256; smaller
    /// values train faster on CPU with modest quality loss).
    pub hidden: usize,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl Default for MscnConfig {
    fn default() -> Self {
        Self {
            hidden: 128,
            seed: 0x5EED_CAFE,
        }
    }
}

/// One two-layer ReLU set module with shared weights across set elements.
#[derive(Debug, Clone)]
struct SetModule {
    l1: Linear,
    l2: Linear,
}

/// Forward cache of one set module: both post-ReLU activations (their
/// zeros are the ReLU masks of backward), the first one's non-zeros (the
/// second layer's input, and its weight gradient's), and the pooled
/// per-query output. The input rows are *not* copied — backward reads them
/// straight from the [`PoolBatch`].
#[derive(Default)]
struct SetCache {
    a1: Tensor,
    a1_rows: IndexSet,
    a2: Tensor,
    pooled: Tensor,
}

/// Reusable backward scratch of one set module.
#[derive(Default)]
struct SetScratch {
    g_a: Tensor,
    g_b: Tensor,
}

/// What one lane needs to run set modules backward, one after the other.
#[derive(Default)]
struct LaneScratch {
    set: SetScratch,
    grads: GradScratch,
}

impl SetModule {
    fn new(in_dim: usize, hidden: usize, seed: u64) -> Self {
        Self {
            l1: Linear::new(in_dim, hidden, seed),
            l2: Linear::new(hidden, hidden, seed ^ 0xABCD),
        }
    }

    /// Applies the element MLP and mean-pools per segment into `cache`.
    fn forward_into(&self, set: BatchSet<'_>, team: &Team, cache: &mut SetCache) {
        self.l1.forward_rows(set.rows, true, team, &mut cache.a1);
        cache
            .a1_rows
            .compress_rows(cache.a1.data(), cache.a1.cols());
        self.l2
            .forward_rows(cache.a1_rows.rows(), true, team, &mut cache.a2);
        segment_mean_into(&cache.a2, set.segs, &mut cache.pooled);
    }

    /// Accumulates gradients for both layers. The gradient w.r.t. the raw
    /// input features is never needed, so `l1` only accumulates — the
    /// whole `grad · Wᵀ` product of the widest layer is skipped.
    fn backward_with(
        &mut self,
        set: BatchSet<'_>,
        cache: &SetCache,
        grad_pooled: &Tensor,
        team: &Team,
        lane: &mut LaneScratch,
    ) {
        let LaneScratch { set: s, grads } = lane;
        segment_mean_backward_into(cache.a2.rows(), grad_pooled, set.segs, &mut s.g_a);
        relu_backward_inplace(&cache.a2, &mut s.g_a); // g_a is now ∂L/∂z2
        self.l2
            .backward_into(cache.a1_rows.rows(), &s.g_a, team, grads, &mut s.g_b);
        relu_backward_inplace(&cache.a1, &mut s.g_b); // g_b is now ∂L/∂z1
        self.l1.accumulate_grads(set.rows, &s.g_b, team, grads);
    }

    /// The module over dense rows through the naive product.
    fn reference_forward(&self, x: &Tensor, segs: &Segments) -> Tensor {
        let a1 = reference_layer(&self.l1, x, true);
        segment_mean(&reference_layer(&self.l2, &a1, true), segs)
    }

    fn num_params(&self) -> usize {
        self.l1.num_params() + self.l2.num_params()
    }
}

/// `act(x·W + b)` through [`reference::matmul`].
fn reference_layer(l: &Linear, x: &Tensor, with_relu: bool) -> Tensor {
    let mut z = reference::matmul(x, l.weights());
    z.add_row_broadcast(l.bias());
    if with_relu {
        relu(&z)
    } else {
        z
    }
}

/// The MSCN model: three set modules plus the output MLP.
#[derive(Debug, Clone)]
pub struct MscnModel {
    tables: SetModule,
    joins: SetModule,
    preds: SetModule,
    out1: Linear,
    out2: Linear,
    hidden: usize,
}

/// Forward cache for one batch, consumed by [`MscnModel::backward`]. All
/// buffers are reused across [`MscnModel::forward_into`] calls, so a
/// training loop that keeps one cache alive allocates nothing per batch.
#[derive(Default)]
pub struct ForwardCache {
    t: SetCache,
    j: SetCache,
    p: SetCache,
    concat: Tensor,
    concat_rows: IndexSet,
    a3: Tensor,
    a3_rows: IndexSet,
    y: Tensor,
}

impl ForwardCache {
    /// An empty cache; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// The sigmoid outputs of the forward pass that filled this cache
    /// (batch × 1).
    pub fn output(&self) -> &Tensor {
        &self.y
    }
}

/// Reusable backward scratch, the companion of [`ForwardCache`]: the
/// output MLP's gradients and one arena per lane the set modules run on
/// (at most three; the output MLP borrows the first).
#[derive(Default)]
pub struct BackwardScratch {
    g_z4: Tensor,
    g_a3: Tensor,
    g_concat: Tensor,
    g_parts: [Tensor; 3],
    lanes: Vec<LaneScratch>,
}

impl BackwardScratch {
    /// An empty scratch arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Serialization magic for model payloads.
const MAGIC: &[u8; 4] = b"MSCN";
const VERSION: u32 = 1;

impl MscnModel {
    /// Creates a model for the given feature dimensions.
    pub fn new(table_dim: usize, join_dim: usize, pred_dim: usize, cfg: MscnConfig) -> Self {
        assert!(cfg.hidden > 0, "hidden width must be positive");
        let h = cfg.hidden;
        Self {
            tables: SetModule::new(table_dim, h, cfg.seed ^ 0x01),
            joins: SetModule::new(join_dim, h, cfg.seed ^ 0x02),
            preds: SetModule::new(pred_dim, h, cfg.seed ^ 0x03),
            out1: Linear::new(3 * h, h, cfg.seed ^ 0x04),
            out2: Linear::new(h, 1, cfg.seed ^ 0x05),
            hidden: h,
        }
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input widths of the table, join and predicate set modules.
    pub fn input_dims(&self) -> [usize; 3] {
        [
            self.tables.l1.in_dim(),
            self.joins.l1.in_dim(),
            self.preds.l1.in_dim(),
        ]
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.tables.num_params()
            + self.joins.num_params()
            + self.preds.num_params()
            + self.out1.num_params()
            + self.out2.num_params()
    }

    /// Forward pass on the calling thread: returns per-query normalized
    /// outputs `(batch × 1)` in `(0, 1)` plus the cache for a subsequent
    /// backward pass.
    pub fn forward(&self, batch: &PoolBatch<'_>) -> (Tensor, ForwardCache) {
        let mut cache = ForwardCache::new();
        self.forward_into(batch, &Team::solo(), &mut cache);
        (cache.y.clone(), cache)
    }

    /// [`MscnModel::forward`] on `team`'s lanes into a reusable cache; read
    /// the outputs via [`ForwardCache::output`]. This is the
    /// allocation-free hot path.
    pub fn forward_into(&self, batch: &PoolBatch<'_>, team: &Team, cache: &mut ForwardCache) {
        let obs = ds_obs::global();
        let _fwd = obs.span("forward");
        let ForwardCache { t, j, p, .. } = cache;
        let module = |name, module: &SetModule, set, cache: &mut SetCache| {
            let _s = obs.span(name);
            module.forward_into(set, team, cache);
        };
        // The larger piece stays here: once the helper is through, this
        // lane's remaining kernels find it idle and cut themselves in two.
        team.join(
            || module("tables", &self.tables, batch.tables(), t),
            || {
                team.join(
                    || module("joins", &self.joins, batch.joins(), j),
                    || module("preds", &self.preds, batch.preds(), p),
                )
            },
        );
        let _out = obs.span("output");
        Tensor::concat_cols_into(
            &[&cache.t.pooled, &cache.j.pooled, &cache.p.pooled],
            &mut cache.concat,
        );
        cache
            .concat_rows
            .compress_rows(cache.concat.data(), cache.concat.cols());
        self.out1
            .forward_rows(cache.concat_rows.rows(), true, team, &mut cache.a3);
        cache
            .a3_rows
            .compress_rows(cache.a3.data(), cache.a3.cols());
        self.out2
            .forward_rows(cache.a3_rows.rows(), false, team, &mut cache.y);
        for v in cache.y.data_mut() {
            *v = sigmoid_scalar(*v);
        }
    }

    /// Inference-only reference forward: per-query normalized outputs from
    /// dense feature tensors through the naive product — the oracle the
    /// training and serving kernels are held against, bit for bit. Slow
    /// by design; nothing on a serving or training path calls it.
    pub fn predict(&self, batch: &FeatureBatch) -> Vec<f32> {
        let concat = Tensor::concat_cols(&[
            &self
                .tables
                .reference_forward(&batch.tables, &batch.table_segs),
            &self.joins.reference_forward(&batch.joins, &batch.join_segs),
            &self.preds.reference_forward(&batch.preds, &batch.pred_segs),
        ]);
        let a3 = reference_layer(&self.out1, &concat, true);
        let y = reference_layer(&self.out2, &a3, false);
        y.data().iter().map(|&v| sigmoid_scalar(v)).collect()
    }

    /// Backward pass on the calling thread: accumulates gradients in every
    /// layer. `batch` must be the batch of the matching forward pass,
    /// `grad_y` is `∂L/∂y` with `y` the sigmoid output.
    pub fn backward(&mut self, batch: &PoolBatch<'_>, cache: &ForwardCache, grad_y: &Tensor) {
        let mut scratch = BackwardScratch::new();
        self.backward_with(batch, cache, grad_y, &Team::solo(), &mut scratch);
    }

    /// [`MscnModel::backward`] on `team`'s lanes with a reusable scratch
    /// arena.
    pub fn backward_with(
        &mut self,
        batch: &PoolBatch<'_>,
        cache: &ForwardCache,
        grad_y: &Tensor,
        team: &Team,
        s: &mut BackwardScratch,
    ) {
        let obs = ds_obs::global();
        let _bwd = obs.span("backward");
        let lanes = team.lanes().min(3);
        if s.lanes.len() < lanes {
            s.lanes.resize_with(lanes, LaneScratch::default);
        }
        {
            let _s = obs.span("output");
            let grads = &mut s.lanes[0].grads;
            sigmoid_backward_into(&cache.y, grad_y, &mut s.g_z4);
            self.out2
                .backward_into(cache.a3_rows.rows(), &s.g_z4, team, grads, &mut s.g_a3);
            relu_backward_inplace(&cache.a3, &mut s.g_a3); // now ∂L/∂z3
            let x = cache.concat_rows.rows();
            self.out1
                .backward_into(x, &s.g_a3, team, grads, &mut s.g_concat);
        }
        let h = self.hidden;
        s.g_concat.split_cols_into(&[h, h, h], &mut s.g_parts);
        let [g_t, g_j, g_p] = &s.g_parts;
        let module = |name, module: &mut SetModule, set, cache, grad, lane: &mut LaneScratch| {
            let _s = obs.span(name);
            module.backward_with(set, cache, grad, team, lane);
        };
        let (tables, joins, preds) = (&mut self.tables, &mut self.joins, &mut self.preds);
        // Modules that share a lane share its scratch, one after the other.
        match &mut s.lanes[..lanes] {
            [t, j, p] => team.join(
                || module("tables", tables, batch.tables(), &cache.t, g_t, t),
                || {
                    team.join(
                        || module("joins", joins, batch.joins(), &cache.j, g_j, j),
                        || module("preds", preds, batch.preds(), &cache.p, g_p, p),
                    )
                },
            ),
            [t, jp] => team.join(
                || module("tables", tables, batch.tables(), &cache.t, g_t, t),
                || {
                    module("joins", joins, batch.joins(), &cache.j, g_j, jp);
                    module("preds", preds, batch.preds(), &cache.p, g_p, jp);
                },
            ),
            [all] => {
                module("tables", tables, batch.tables(), &cache.t, g_t, all);
                module("joins", joins, batch.joins(), &cache.j, g_j, all);
                module("preds", preds, batch.preds(), &cache.p, g_p, all);
            }
            _ => unreachable!("one to three lanes of scratch"),
        }
    }

    /// One Adam update over all layers (clears gradients), each large
    /// layer cut across `team`'s idle lanes.
    pub fn adam_step(&mut self, adam: &mut Adam, team: &Team) {
        adam.step(0, &mut self.tables.l1, team);
        adam.step(1, &mut self.tables.l2, team);
        adam.step(2, &mut self.joins.l1, team);
        adam.step(3, &mut self.joins.l2, team);
        adam.step(4, &mut self.preds.l1, team);
        adam.step(5, &mut self.preds.l2, team);
        adam.step(6, &mut self.out1, team);
        adam.step(7, &mut self.out2, team);
    }

    /// Converts the trained weights into a serving-only [`FrozenModel`]:
    /// every layer is copied into the gather-friendly frozen layout. This
    /// model keeps owning training and serialization; the frozen artifact
    /// serves every estimate.
    pub fn freeze(&self) -> FrozenModel {
        FrozenModel::new(
            FrozenLinear::from_linear(&self.tables.l1),
            FrozenLinear::from_linear(&self.tables.l2),
            FrozenLinear::from_linear(&self.joins.l1),
            FrozenLinear::from_linear(&self.joins.l2),
            FrozenLinear::from_linear(&self.preds.l1),
            FrozenLinear::from_linear(&self.preds.l2),
            FrozenLinear::from_linear(&self.out1),
            FrozenLinear::from_linear(&self.out2),
        )
    }

    /// Serializes the model (versioned).
    pub fn encode(&self, e: &mut Encoder) {
        e.header(MAGIC, VERSION);
        e.u64(self.hidden as u64);
        for l in [
            &self.tables.l1,
            &self.tables.l2,
            &self.joins.l1,
            &self.joins.l2,
            &self.preds.l1,
            &self.preds.l2,
            &self.out1,
            &self.out2,
        ] {
            e.linear(l);
        }
    }

    /// Deserializes a model written by [`MscnModel::encode`]. Every layer
    /// must fit the MSCN wiring — set modules `in → hidden → hidden`, the
    /// output MLP `3·hidden → hidden → 1` — or the blob is
    /// [`DecodeError::Corrupt`]; the set modules' input widths are the
    /// featurizer's to check.
    pub fn decode(d: &mut Decoder) -> Result<Self, DecodeError> {
        let version = d.header(MAGIC)?;
        if version != VERSION {
            return Err(DecodeError::BadHeader(format!(
                "unsupported MSCN version {version}"
            )));
        }
        let hidden = d.u64()? as usize;
        let t1 = d.linear()?;
        let t2 = d.linear()?;
        let j1 = d.linear()?;
        let j2 = d.linear()?;
        let p1 = d.linear()?;
        let p2 = d.linear()?;
        let out1 = d.linear()?;
        let out2 = d.linear()?;
        let wired = hidden > 0
            && [&t1, &j1, &p1].iter().all(|l| l.out_dim() == hidden)
            && [&t2, &j2, &p2]
                .iter()
                .all(|l| l.in_dim() == hidden && l.out_dim() == hidden)
            && Some(out1.in_dim()) == hidden.checked_mul(3)
            && out1.out_dim() == hidden
            && out2.in_dim() == hidden
            && out2.out_dim() == 1;
        if !wired {
            return Err(DecodeError::Corrupt("inconsistent MSCN shapes".into()));
        }
        Ok(Self {
            tables: SetModule { l1: t1, l2: t2 },
            joins: SetModule { l1: j1, l2: j2 },
            preds: SetModule { l1: p1, l2: p2 },
            out1,
            out2,
            hidden,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featurize::{FeaturePool, Featurizer};
    use ds_query::workloads::imdb_predicate_columns;
    use ds_query::GeneratorConfig;
    use ds_query::QueryGenerator;
    use ds_storage::gen::{imdb_database, ImdbConfig};
    use ds_storage::sample::sample_all;

    /// Eight generated queries, dense for the reference forward and
    /// pooled for the training forward.
    fn small_batch() -> (FeatureBatch, FeaturePool, Featurizer) {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let samples = sample_all(&db, 16, 2);
        let f = Featurizer::build(&db, &imdb_predicate_columns(&db), 16);
        let mut gen =
            QueryGenerator::new(&db, GeneratorConfig::new(imdb_predicate_columns(&db), 11));
        let qs = gen.generate_batch(8);
        (f.batch_queries(&qs, &samples), f.pool(&qs, &samples), f)
    }

    const ALL: [usize; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

    #[test]
    fn training_forward_is_the_reference_forward_bit_for_bit() {
        let (dense, pool, f) = small_batch();
        // 40 is one AVX-512 tile whose third vector is masked to 8 lanes
        // (on AVX2 a 32- and an 8-column tile); 6 is one masked vector (on
        // AVX2, all scalar).
        for hidden in [6, 40] {
            let model = MscnModel::new(
                f.table_dim(),
                f.join_dim(),
                f.pred_dim(),
                MscnConfig { hidden, seed: 3 },
            );
            let (y, _) = model.forward(&pool.batch_of(&ALL));
            assert_eq!(y.data(), model.predict(&dense), "hidden {hidden}");
        }
    }

    #[test]
    fn forward_outputs_are_probabilities() {
        let (_, pool, f) = small_batch();
        let batch = pool.batch_of(&ALL);
        let model = MscnModel::new(
            f.table_dim(),
            f.join_dim(),
            f.pred_dim(),
            MscnConfig {
                hidden: 16,
                seed: 3,
            },
        );
        let (y, _) = model.forward(&batch);
        assert_eq!(y.rows(), 8);
        assert_eq!(y.cols(), 1);
        for &v in y.data() {
            assert!(v > 0.0 && v < 1.0, "sigmoid output {v}");
        }
    }

    #[test]
    fn forward_is_deterministic_and_seed_dependent() {
        let (batch, _, f) = small_batch();
        let cfg = MscnConfig { hidden: 8, seed: 5 };
        let m1 = MscnModel::new(f.table_dim(), f.join_dim(), f.pred_dim(), cfg);
        let m2 = MscnModel::new(f.table_dim(), f.join_dim(), f.pred_dim(), cfg);
        assert_eq!(m1.predict(&batch), m2.predict(&batch));
        let m3 = MscnModel::new(
            f.table_dim(),
            f.join_dim(),
            f.pred_dim(),
            MscnConfig { hidden: 8, seed: 6 },
        );
        assert_ne!(m1.predict(&batch), m3.predict(&batch));
    }

    #[test]
    fn permutation_invariance_over_sets() {
        // The model must be invariant to the order of set elements:
        // {A,B,C} ≡ {C,B,A} (the Deep Sets property).
        let db = imdb_database(&ImdbConfig::tiny(3));
        let samples = sample_all(&db, 16, 2);
        let cols = imdb_predicate_columns(&db);
        let f = Featurizer::build(&db, &cols, 16);
        let sql_a = "SELECT COUNT(*) FROM title, movie_keyword, cast_info \
                     WHERE movie_keyword.movie_id = title.id AND cast_info.movie_id = title.id";
        let qa = ds_query::parser::parse_query(&db, sql_a).unwrap();
        // Same query, tables and joins listed in a different order.
        let mut qb = qa.clone();
        qb.tables.reverse();
        qb.joins.reverse();
        let model = MscnModel::new(
            f.table_dim(),
            f.join_dim(),
            f.pred_dim(),
            MscnConfig {
                hidden: 16,
                seed: 9,
            },
        );
        let ba = f.batch_queries(std::slice::from_ref(&qa), &samples);
        let bb = f.batch_queries(std::slice::from_ref(&qb), &samples);
        let ya = model.predict(&ba)[0];
        let yb = model.predict(&bb)[0];
        assert!(
            (ya - yb).abs() < 1e-6,
            "not permutation invariant: {ya} vs {yb}"
        );
    }

    #[test]
    fn gradient_check_through_whole_model() {
        // Finite-difference check of ∂L/∂θ for a few parameters of each
        // layer with L = sum(y).
        let (batch, pool, f) = small_batch();
        let mut model = MscnModel::new(
            f.table_dim(),
            f.join_dim(),
            f.pred_dim(),
            MscnConfig { hidden: 6, seed: 1 },
        );
        let pooled = pool.batch_of(&ALL);
        let (y, cache) = model.forward(&pooled);
        let ones = Tensor::from_vec(y.rows(), 1, vec![1.0; y.rows()]);
        model.backward(&pooled, &cache, &ones);

        let loss = |m: &MscnModel| -> f32 { m.predict(&batch).iter().sum() };
        let eps = 3e-3_f32;

        // Probe a parameter in out2 and one in the predicate module l1.
        let base = model.clone();
        let mut checked = 0;
        for probe in 0..2 {
            let (ana, num) = match probe {
                0 => {
                    let mut g = 0.0;
                    model.out2.for_each_param_mut(|i, _, grad| {
                        if i == 0 {
                            g = grad;
                        }
                    });
                    let mut mp = base.clone();
                    let mut mm = base.clone();
                    mp.out2.for_each_param_mut(|i, p, _| {
                        if i == 0 {
                            *p += eps;
                        }
                    });
                    mm.out2.for_each_param_mut(|i, p, _| {
                        if i == 0 {
                            *p -= eps;
                        }
                    });
                    (g, (loss(&mp) - loss(&mm)) / (2.0 * eps))
                }
                _ => {
                    let mut g = 0.0;
                    model.preds.l1.for_each_param_mut(|i, _, grad| {
                        if i == 3 {
                            g = grad;
                        }
                    });
                    let mut mp = base.clone();
                    let mut mm = base.clone();
                    mp.preds.l1.for_each_param_mut(|i, p, _| {
                        if i == 3 {
                            *p += eps;
                        }
                    });
                    mm.preds.l1.for_each_param_mut(|i, p, _| {
                        if i == 3 {
                            *p -= eps;
                        }
                    });
                    (g, (loss(&mp) - loss(&mm)) / (2.0 * eps))
                }
            };
            let tol = 0.05_f32.max(num.abs() * 0.15);
            assert!(
                (ana - num).abs() <= tol,
                "probe {probe}: analytic {ana} vs numeric {num}"
            );
            checked += 1;
        }
        assert_eq!(checked, 2);
    }

    #[test]
    fn encode_decode_preserves_predictions() {
        let (batch, _, f) = small_batch();
        let model = MscnModel::new(
            f.table_dim(),
            f.join_dim(),
            f.pred_dim(),
            MscnConfig {
                hidden: 12,
                seed: 7,
            },
        );
        let mut e = Encoder::new();
        model.encode(&mut e);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        let restored = MscnModel::decode(&mut d).unwrap();
        assert_eq!(model.predict(&batch), restored.predict(&batch));
        assert_eq!(model.num_params(), restored.num_params());
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut d = Decoder::new(b"not a model");
        assert!(MscnModel::decode(&mut d).is_err());
    }

    #[test]
    fn a_set_module_layer_off_the_wiring_is_corrupt() {
        // Hidden width 4; `tables.l2` writes `t2_out` columns.
        let blob = |t2_out: usize| {
            let mut e = Encoder::new();
            e.header(MAGIC, VERSION);
            e.u64(4);
            for (i, (rows, cols)) in [
                (5, 4),
                (4, t2_out),
                (3, 4),
                (4, 4),
                (6, 4),
                (4, 4),
                (12, 4),
                (4, 1),
            ]
            .into_iter()
            .enumerate()
            {
                e.linear(&Linear::new(rows, cols, i as u64));
            }
            e.finish()
        };
        assert!(MscnModel::decode(&mut Decoder::new(&blob(4))).is_ok());
        assert!(matches!(
            MscnModel::decode(&mut Decoder::new(&blob(5))),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn param_count_formula() {
        let m = MscnModel::new(10, 4, 7, MscnConfig { hidden: 8, seed: 0 });
        // 3 set modules: (in+1)*8 + (8+1)*8 each; out1: (24+1)*8; out2: (8+1)*1.
        let expect = (10 + 1) * 8
            + (8 + 1) * 8
            + (4 + 1) * 8
            + (8 + 1) * 8
            + (7 + 1) * 8
            + (8 + 1) * 8
            + (24 + 1) * 8
            + (8 + 1);
        assert_eq!(m.num_params(), expect);
    }
}
