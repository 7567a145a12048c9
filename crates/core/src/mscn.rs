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
//! Weight sharing across set elements comes for free: the same [`Linear`]
//! is applied to every row, and the segment mean then pools per query.
//! A row is a *distinct* element of the batch ([`BatchSet`]): each query's
//! elements name their rows through an index, so an element several
//! queries hold — a predicate-free table's bitmap, a common join — runs
//! through its module once per step. Forward, each query pools its
//! elements' rows in its own element order, so an output is bit for bit
//! what one row per element would give. Backward, a distinct row's
//! gradient is the sum of what each of its occurrences pools back (from
//! zero, occurrences in batch order), and each layer takes one outer
//! product per distinct row: exact in real arithmetic, rounded once per
//! row rather than once per occurrence in `f32`.
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
//! (backward) — each has its two layers, their gradients in
//! [`MscnGrads`], its forward cache over the batch's distinct rows — so
//! the table module runs on the calling lane while joins, then
//! predicates, run on a helper (tables cost about what the other two cost
//! together: a batch has fewer distinct table rows than predicate rows,
//! but each holds far more entries, and its joins are a handful of rows);
//! with three lanes each module has its own, and the backward scratch
//! holds three arenas, each growing only once a lane uses it. **Kernels:** the output MLP, and
//! whatever a lane still has to do once the other has finished, cut
//! each product by rows ([`ds_nn::sparse::sparse_rows_pool`]); a layer's
//! backward runs its weight gradient beside its input gradient
//! ([`Linear::backward_into`]); the Adam step cuts each large layer's
//! parameters in two. A fork moves where an element is computed, never
//! how: every lane count trains the same bits.
//!
//! ## Weights and gradients
//!
//! The model is its weights. The gradients a backward pass accumulates
//! live in an [`MscnGrads`] the trainer owns beside the optimizer's
//! moments ([`crate::train`]), so a model outside training carries none,
//! and a trained model is frozen ([`MscnModel::freeze`]) into the
//! serving artifact that becomes its only copy.

use ds_nn::frozen::{FrozenLinear, FrozenModel, IndexSet};
use ds_nn::linear::{GradScratch, Linear, LinearGrads};
use ds_nn::ops::{
    relu, relu_backward_inplace, segment_mean, segment_mean_backward_into, segment_mean_into,
    sigmoid_backward_into, sigmoid_scalar, Segments,
};
use ds_nn::optim::Adam;
use ds_nn::pool::Team;
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

/// Forward cache of one set module, one row per distinct element of the
/// batch: both post-ReLU activations (their zeros are the ReLU masks of
/// backward), the first one's non-zeros (the second layer's input, and its
/// weight gradient's), and the pooled per-query output. The input rows are
/// *not* copied — backward reads them straight from the [`PoolBatch`].
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

    /// Applies the element MLP to each distinct row and mean-pools each
    /// query's elements through the batch's index into `cache`.
    fn forward_into(&self, set: BatchSet<'_>, team: &Team, cache: &mut SetCache) {
        self.l1.forward_rows(set.rows, true, team, &mut cache.a1);
        cache
            .a1_rows
            .compress_rows(cache.a1.data(), cache.a1.cols());
        self.l2
            .forward_rows(cache.a1_rows.rows(), true, team, &mut cache.a2);
        segment_mean_into(&cache.a2, set.index, set.segs, &mut cache.pooled);
    }

    /// Accumulates gradients for both layers into `grads`, over the
    /// distinct rows: the pooled gradient is first summed into each row
    /// from its occurrences. The gradient w.r.t. the raw input features is
    /// never needed, so `l1` only accumulates — the whole `grad · Wᵀ`
    /// product of the widest layer is skipped.
    fn backward_with(
        &self,
        set: BatchSet<'_>,
        cache: &SetCache,
        grad_pooled: &Tensor,
        [g1, g2]: &mut [LinearGrads; 2],
        team: &Team,
        lane: &mut LaneScratch,
    ) {
        let LaneScratch { set: s, grads } = lane;
        let rows = cache.a2.rows();
        segment_mean_backward_into(rows, set.index, grad_pooled, set.segs, &mut s.g_a);
        relu_backward_inplace(&cache.a2, &mut s.g_a); // g_a is now ∂L/∂z2
        let x = cache.a1_rows.rows();
        self.l2
            .backward_into(x, &s.g_a, g2, team, grads, &mut s.g_b);
        relu_backward_inplace(&cache.a1, &mut s.g_b); // g_b is now ∂L/∂z1
        self.l1.accumulate_grads(set.rows, &s.g_b, g1, team, grads);
    }

    /// The module over dense rows through the naive product.
    fn reference_forward(&self, x: &Tensor, segs: &Segments) -> Tensor {
        let a1 = reference_layer(&self.l1, x, true);
        segment_mean(&reference_layer(&self.l2, &a1, true), segs)
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

/// The accumulated gradients of every layer of an [`MscnModel`]: of the
/// table, join and predicate modules and of the output MLP, two layers
/// each. A training run owns them beside the optimizer's moments;
/// [`MscnModel::backward_with`] adds to them and [`MscnModel::adam_step`]
/// spends and clears them.
#[derive(Debug, Clone)]
pub struct MscnGrads([[LinearGrads; 2]; 4]);

impl MscnGrads {
    /// Zero gradients in `model`'s shape.
    pub fn new(model: &MscnModel) -> Self {
        let [t1, t2, j1, j2, p1, p2, o1, o2] = model.layers().map(LinearGrads::zeros);
        Self([[t1, t2], [j1, j2], [p1, p2], [o1, o2]])
    }
}

/// Forward cache for one batch, consumed by [`MscnModel::backward_with`]. All
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
/// (the output MLP borrows the first; an unused one stays empty).
#[derive(Default)]
pub struct BackwardScratch {
    g_z4: Tensor,
    g_a3: Tensor,
    g_concat: Tensor,
    g_parts: [Tensor; 3],
    lanes: [LaneScratch; 3],
}

impl BackwardScratch {
    /// An empty scratch arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

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

    /// A training-layout copy of a frozen artifact's weights, bit for bit
    /// — what [`MscnModel::freeze`] undoes.
    pub fn thaw(frozen: &FrozenModel) -> Self {
        let [t1, t2, j1, j2, p1, p2, out1, out2] = frozen.layers().map(FrozenLinear::thaw);
        Self {
            tables: SetModule { l1: t1, l2: t2 },
            joins: SetModule { l1: j1, l2: j2 },
            preds: SetModule { l1: p1, l2: p2 },
            out1,
            out2,
            hidden: frozen.hidden(),
        }
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// The eight layers in order:
    /// `[t1, t2, j1, j2, p1, p2, out1, out2]`.
    fn layers(&self) -> [&Linear; 8] {
        let (t, j, p) = (&self.tables, &self.joins, &self.preds);
        [
            &t.l1, &t.l2, &j.l1, &j.l2, &p.l1, &p.l2, &self.out1, &self.out2,
        ]
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.layers().iter().map(|l| l.num_params()).sum()
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

    /// Backward pass on the calling thread: accumulates every layer's
    /// gradients into `grads`. `batch` must be the batch of the matching
    /// forward pass, `grad_y` is `∂L/∂y` with `y` the sigmoid output.
    pub fn backward(
        &self,
        batch: &PoolBatch<'_>,
        cache: &ForwardCache,
        grad_y: &Tensor,
        grads: &mut MscnGrads,
    ) {
        let mut scratch = BackwardScratch::new();
        self.backward_with(batch, cache, grad_y, grads, &Team::solo(), &mut scratch);
    }

    /// [`MscnModel::backward`] on `team`'s lanes with a reusable scratch
    /// arena.
    pub fn backward_with(
        &self,
        batch: &PoolBatch<'_>,
        cache: &ForwardCache,
        grad_y: &Tensor,
        grads: &mut MscnGrads,
        team: &Team,
        s: &mut BackwardScratch,
    ) {
        let obs = ds_obs::global();
        let _bwd = obs.span("backward");
        let [gt, gj, gp, [g_out1, g_out2]] = &mut grads.0;
        {
            let _s = obs.span("output");
            let scratch = &mut s.lanes[0].grads;
            sigmoid_backward_into(&cache.y, grad_y, &mut s.g_z4);
            let x = cache.a3_rows.rows();
            self.out2
                .backward_into(x, &s.g_z4, g_out2, team, scratch, &mut s.g_a3);
            relu_backward_inplace(&cache.a3, &mut s.g_a3); // now ∂L/∂z3
            let x = cache.concat_rows.rows();
            self.out1
                .backward_into(x, &s.g_a3, g_out1, team, scratch, &mut s.g_concat);
        }
        let h = self.hidden;
        s.g_concat.split_cols_into(&[h, h, h], &mut s.g_parts);
        let [g_t, g_j, g_p] = &s.g_parts;
        let module = |name, module: &SetModule, set, cache, grad, grads, lane: &mut LaneScratch| {
            let _s = obs.span(name);
            module.backward_with(set, cache, grad, grads, team, lane);
        };
        let (tables, joins, preds) = (&self.tables, &self.joins, &self.preds);
        // Modules that share a lane share its scratch, one after the other.
        let [t, j, p] = &mut s.lanes;
        match team.lanes() {
            0 | 1 => {
                module("tables", tables, batch.tables(), &cache.t, g_t, gt, t);
                module("joins", joins, batch.joins(), &cache.j, g_j, gj, t);
                module("preds", preds, batch.preds(), &cache.p, g_p, gp, t);
            }
            2 => team.join(
                || module("tables", tables, batch.tables(), &cache.t, g_t, gt, t),
                || {
                    module("joins", joins, batch.joins(), &cache.j, g_j, gj, j);
                    module("preds", preds, batch.preds(), &cache.p, g_p, gp, j);
                },
            ),
            _ => team.join(
                || module("tables", tables, batch.tables(), &cache.t, g_t, gt, t),
                || {
                    team.join(
                        || module("joins", joins, batch.joins(), &cache.j, g_j, gj, j),
                        || module("preds", preds, batch.preds(), &cache.p, g_p, gp, p),
                    )
                },
            ),
        }
    }

    /// One Adam update over all layers from `grads` (which it clears),
    /// each large layer cut across `team`'s idle lanes.
    pub fn adam_step(&mut self, adam: &mut Adam, grads: &mut MscnGrads, team: &Team) {
        let sets = [&mut self.tables, &mut self.joins, &mut self.preds];
        let layers = sets.into_iter().flat_map(|SetModule { l1, l2 }| [l1, l2]);
        let layers = layers.chain([&mut self.out1, &mut self.out2]);
        for (id, (layer, g)) in layers.zip(grads.0.iter_mut().flatten()).enumerate() {
            adam.step(id, layer, g, team);
        }
    }

    /// Converts the trained weights into the serving-only [`FrozenModel`]:
    /// every layer is copied into the gather-friendly frozen layout. The
    /// artifact serves every estimate and is what a sketch serializes;
    /// once it exists, this model can go.
    pub fn freeze(&self) -> FrozenModel {
        let [t1, t2, j1, j2, p1, p2, out1, out2] = self.layers().map(FrozenLinear::from_linear);
        FrozenModel::new(t1, t2, j1, j2, p1, p2, out1, out2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featurize::{FeaturePool, Featurizer};
    use ds_nn::ops::relu_backward;
    use ds_query::workloads::imdb_predicate_columns;
    use ds_query::GeneratorConfig;
    use ds_query::QueryGenerator;
    use ds_storage::gen::{imdb_database, ImdbConfig};
    use ds_storage::sample::sample_all;

    /// Eight generated queries, pooled for the training forward, and
    /// queries `idx` of them dense for the reference forward.
    fn small_batch(idx: &[usize]) -> (FeatureBatch, FeaturePool, Featurizer) {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let samples = sample_all(&db, 16, 2);
        let f = Featurizer::build(&db, &imdb_predicate_columns(&db), 16);
        let mut gen =
            QueryGenerator::new(&db, GeneratorConfig::new(imdb_predicate_columns(&db), 11));
        let qs = gen.generate_batch(8);
        let chosen: Vec<_> = idx.iter().map(|&i| qs[i].clone()).collect();
        (f.batch_queries(&chosen, &samples), f.pool(&qs, &samples), f)
    }

    const ALL: [usize; 8] = [0, 1, 2, 3, 4, 5, 6, 7];
    /// A batch that repeats queries, and so their elements.
    const REPEATS: [usize; 6] = [0, 3, 0, 5, 3, 7];

    #[test]
    fn training_forward_is_the_reference_forward_bit_for_bit() {
        for idx in [&ALL[..], &REPEATS] {
            let (dense, pool, f) = small_batch(idx);
            let batch = pool.batch_of(idx);
            if idx == REPEATS {
                let sets = [batch.tables(), batch.joins(), batch.preds()];
                let distinct: usize = sets.iter().map(|set| set.rows.spans.len()).sum();
                let elements: usize = sets.iter().map(|set| set.index.len()).sum();
                assert!(distinct < elements, "{distinct} of {elements}");
            }
            // 40 is one AVX-512 tile whose third vector is masked to 8
            // lanes (on AVX2 a 32- and an 8-column tile); 6 is one masked
            // vector (on AVX2, all scalar).
            for hidden in [6, 40] {
                let model = MscnModel::new(
                    f.table_dim(),
                    f.join_dim(),
                    f.pred_dim(),
                    MscnConfig { hidden, seed: 3 },
                );
                let (y, _) = model.forward(&batch);
                assert_eq!(y.data(), model.predict(&dense), "{idx:?} hidden {hidden}");
            }
        }
    }

    /// One layer's reference gradients: `∂L/∂W` and `∂L/∂b` beside the
    /// sums of their terms' magnitudes, which scale each element's
    /// rounding.
    struct Reference {
        w: Tensor,
        b: Vec<f32>,
        w_terms: Tensor,
        b_terms: Vec<f32>,
    }

    /// Every layer's gradients for upstream gradient `grad_y`, one row per
    /// set element as the paper's modules run, through the naive dense
    /// products: `[t1, t2, j1, j2, p1, p2, out1, out2]`.
    fn reference_gradients(
        model: &MscnModel,
        batch: &FeatureBatch,
        grad_y: &Tensor,
    ) -> Vec<Reference> {
        let modules = [
            (&model.tables, &batch.tables, &batch.table_segs),
            (&model.joins, &batch.joins, &batch.join_segs),
            (&model.preds, &batch.preds, &batch.pred_segs),
        ];
        let acts: Vec<_> = modules
            .iter()
            .map(|&(m, x, segs)| {
                let a1 = reference_layer(&m.l1, x, true);
                let a2 = reference_layer(&m.l2, &a1, true);
                let pooled = segment_mean(&a2, segs);
                (a1, a2, pooled)
            })
            .collect();
        let concat = Tensor::concat_cols(&[&acts[0].2, &acts[1].2, &acts[2].2]);
        let a3 = reference_layer(&model.out1, &concat, true);
        let y = reference_layer(&model.out2, &a3, false).map(sigmoid_scalar);
        // One layer's gradients from its input and `∂L/∂z`, and `∂L/∂x`.
        let layer = |l: &Linear, x: &Tensor, g_z: &Tensor| {
            let (x_abs, g_abs) = (x.map(f32::abs), g_z.map(f32::abs));
            let grads = Reference {
                w: reference::t_matmul(x, g_z),
                b: g_z.col_sums(),
                w_terms: reference::t_matmul(&x_abs, &g_abs),
                b_terms: g_abs.col_sums(),
            };
            (grads, reference::matmul_t(g_z, l.weights()))
        };
        let mask = |a: &Tensor, g: Tensor| relu_backward(a, &g);
        let g_z4 = ds_nn::ops::sigmoid_backward(&y, grad_y);
        let (g_out2, g_a3) = layer(&model.out2, &a3, &g_z4);
        let (g_out1, g_concat) = layer(&model.out1, &concat, &mask(&a3, g_a3));
        let mut g_pooled: [Tensor; 3] = Default::default();
        let h = model.hidden;
        g_concat.split_cols_into(&[h, h, h], &mut g_pooled);
        let mut out = Vec::new();
        for ((&(m, x, segs), (a1, a2, _)), g) in modules.iter().zip(&acts).zip(&g_pooled) {
            let g_a2 = ds_nn::ops::segment_mean_backward(x.rows(), g, segs);
            let (g2, g_a1) = layer(&m.l2, a1, &mask(a2, g_a2));
            let (g1, _) = layer(&m.l1, x, &mask(a1, g_a1));
            out.extend([g1, g2]);
        }
        out.extend([g_out1, g_out2]);
        out
    }

    /// Forward and backward on `lanes` lanes from zero gradients.
    fn gradients_on(
        model: &MscnModel,
        batch: &PoolBatch<'_>,
        grad_y: &Tensor,
        lanes: usize,
    ) -> MscnGrads {
        let mut grads = MscnGrads::new(model);
        Team::run(lanes, |team| {
            let mut cache = ForwardCache::new();
            model.forward_into(batch, team, &mut cache);
            let mut scratch = BackwardScratch::new();
            model.backward_with(batch, &cache, grad_y, &mut grads, team, &mut scratch);
        });
        grads
    }

    #[test]
    fn the_distinct_row_backward_is_the_per_element_backward() {
        let (dense, pool, f) = small_batch(&REPEATS);
        let batch = pool.batch_of(&REPEATS);
        let model = MscnModel::new(
            f.table_dim(),
            f.join_dim(),
            f.pred_dim(),
            MscnConfig {
                hidden: 40,
                seed: 12,
            },
        );
        let grad_y = Tensor::from_vec(6, 1, vec![0.7, -1.3, 0.4, 2.1, -0.6, 1.0]);
        let grads = gradients_on(&model, &batch, &grad_y, 1);
        let reference = reference_gradients(&model, &dense, &grad_y);
        let layers = grads.0.iter().flatten();
        // Relative to the magnitude of the terms summed, which bounds
        // what reordering the sum can move.
        for (l, (g, r)) in layers.zip(&reference).enumerate() {
            let got = g.weights().data().iter().chain(g.bias());
            let want = r.w.data().iter().chain(&r.b);
            let terms = r.w_terms.data().iter().chain(&r.b_terms);
            for (i, ((&got, &want), &terms)) in got.zip(want).zip(terms).enumerate() {
                assert!(
                    (got - want).abs() <= 1e-5 * terms,
                    "layer {l} gradient {i}: {got} against {want} (terms {terms})"
                );
            }
        }
        let bits = |g: &MscnGrads| -> Vec<u32> {
            let layers = g.0.iter().flatten();
            let values = layers.flat_map(|g| g.weights().data().iter().chain(g.bias()));
            values.map(|v| v.to_bits()).collect()
        };
        for lanes in [2, 3] {
            let on_lanes = gradients_on(&model, &batch, &grad_y, lanes);
            assert!(bits(&on_lanes) == bits(&grads), "{lanes} lanes");
        }
    }

    #[test]
    fn forward_outputs_are_probabilities() {
        let (_, pool, f) = small_batch(&ALL);
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
        let (batch, _, f) = small_batch(&ALL);
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
        for idx in [&ALL[..], &REPEATS] {
            gradient_check(idx);
        }
    }

    /// Finite-difference check of ∂L/∂θ for a few parameters of each
    /// layer with L = sum(y), over the batch of queries `idx`.
    fn gradient_check(idx: &[usize]) {
        let (batch, pool, f) = small_batch(idx);
        let model = MscnModel::new(
            f.table_dim(),
            f.join_dim(),
            f.pred_dim(),
            MscnConfig { hidden: 6, seed: 1 },
        );
        let pooled = pool.batch_of(idx);
        let (y, cache) = model.forward(&pooled);
        let ones = Tensor::from_vec(y.rows(), 1, vec![1.0; y.rows()]);
        let mut grads = MscnGrads::new(&model);
        model.backward(&pooled, &cache, &ones, &mut grads);

        let loss = |m: &MscnModel| -> f32 { m.predict(&batch).iter().sum() };
        let eps = 3e-3_f32;
        // `layer` with weight `i` moved by `by`.
        let nudged = |layer: &Linear, i: usize, by: f32| {
            let mut w = layer.weights().clone();
            w.data_mut()[i] += by;
            Linear::from_params(w, layer.bias().to_vec())
        };

        // Probe a weight in out2 and one in the predicate module l1.
        let [_, _, [g_p1, _], [_, g_out2]] = &grads.0;
        for (probe, ana) in [
            (0, g_out2.weights().data()[0]),
            (1, g_p1.weights().data()[3]),
        ] {
            let [mut mp, mut mm] = [model.clone(), model.clone()];
            if probe == 0 {
                mp.out2 = nudged(&model.out2, 0, eps);
                mm.out2 = nudged(&model.out2, 0, -eps);
            } else {
                mp.preds.l1 = nudged(&model.preds.l1, 3, eps);
                mm.preds.l1 = nudged(&model.preds.l1, 3, -eps);
            }
            let num = (loss(&mp) - loss(&mm)) / (2.0 * eps);
            let tol = 0.05_f32.max(num.abs() * 0.15);
            assert!(
                (ana - num).abs() <= tol,
                "{idx:?} probe {probe}: analytic {ana} vs numeric {num}"
            );
        }
    }

    #[test]
    fn a_thawed_model_is_the_model_that_froze() {
        let (batch, _, f) = small_batch(&ALL);
        let model = MscnModel::new(
            f.table_dim(),
            f.join_dim(),
            f.pred_dim(),
            MscnConfig {
                hidden: 12,
                seed: 7,
            },
        );
        let frozen = model.freeze();
        let thawed = MscnModel::thaw(&frozen);
        assert_eq!(thawed.predict(&batch), model.predict(&batch));
        assert_eq!(thawed.num_params(), model.num_params());
        assert_eq!(thawed.freeze(), frozen);
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
        assert_eq!(m.freeze().num_params(), expect);
    }
}
