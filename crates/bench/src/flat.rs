//! A flat-vector baseline model — the ablation behind §2's design claim.
//!
//! The paper argues for *set semantics*: "the cardinality of a query is
//! independent of its query plan — e.g., both (A ⋈ B) ⋈ C and A ⋈ (B ⋈ C)
//! can be represented as {A, B, C}", differentiating MSCN from
//! "other learning-based approaches" that featurize queries as flat
//! vectors. This module implements that flat alternative faithfully so the
//! claim can be measured (experiment E11): one fixed-width vector per
//! query — table membership bits, join membership bits, a `(op one-hot,
//! literal)` slot per vocabulary column, and the concatenated sample
//! bitmaps — fed to a plain 2-hidden-layer MLP trained with the same
//! q-error objective.
//!
//! The flat encoding is permutation-invariant only by construction of its
//! slots; its weakness is capacity/shape, not input ordering: every column
//! gets a slot whether or not the query uses it, conjunctions of multiple
//! predicates on one column collapse into one slot, and there is no
//! weight sharing across set elements.

use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

use ds_nn::linear::{Linear, LinearGrads};
use ds_nn::loss::{LabelNormalizer, QErrorLoss};
use ds_nn::ops::{relu, relu_backward, sigmoid, sigmoid_backward};
use ds_nn::optim::Adam;
use ds_nn::pool::Team;
use ds_nn::tensor::Tensor;
use ds_query::query::Query;
use ds_storage::sample::TableSample;

use ds_core::featurize::Featurizer;

/// Flat featurization on top of the shared [`Featurizer`] vocabulary.
#[derive(Debug, Clone)]
pub struct FlatFeaturizer {
    vocab: Featurizer,
}

impl FlatFeaturizer {
    /// Wraps the shared vocabulary.
    pub fn new(vocab: Featurizer) -> Self {
        Self { vocab }
    }

    /// Width of the flat vector: tables + joins + 4·columns + bitmaps.
    pub fn dim(&self) -> usize {
        let bitmaps = if self.vocab.use_bitmaps() {
            self.vocab.num_tables() * self.vocab.sample_size()
        } else {
            0
        };
        self.vocab.num_tables()
            + self.vocab.joins().len()
            + 4 * self.vocab.columns().len()
            + bitmaps
    }

    /// Encodes one query as a flat vector.
    pub fn featurize(&self, query: &Query, samples: &[TableSample]) -> Vec<f32> {
        let nt = self.vocab.num_tables();
        let nj = self.vocab.joins().len();
        let nc = self.vocab.columns().len();
        let mut v = vec![0.0f32; self.dim()];
        for &t in &query.tables {
            v[t.0] = 1.0;
        }
        for j in &query.joins {
            if let Some(idx) = self.vocab.joins().iter().position(|e| *e == j.canonical()) {
                v[nt + idx] = 1.0;
            }
        }
        for (cr, p) in query.qualified_predicates() {
            if let Some(idx) = self.vocab.columns().iter().position(|c| *c == cr) {
                let base = nt + nj + 4 * idx;
                // The flat slots keep the paper's 3-op layout; IN/LIKE
                // collapse to a mid-scale literal with no op bit — the
                // flat ablation is measured on the cmp vocabulary.
                if let Some((op, lit)) = p.as_cmp() {
                    v[base + op.index()] = 1.0;
                    v[base + 3] = self.vocab.normalize_literal(idx, lit);
                } else {
                    v[base + 3] = 0.5;
                }
            }
        }
        if self.vocab.use_bitmaps() {
            let bm_base = nt + nj + 4 * nc;
            for &t in &query.tables {
                let bm = samples[t.0].qualifying_bitmap(query.preds_of(t));
                for i in bm.iter_ones() {
                    v[bm_base + t.0 * self.vocab.sample_size() + i] = 1.0;
                }
            }
        }
        v
    }
}

/// The flat 2-hidden-layer MLP with sigmoid head.
#[derive(Debug, Clone)]
pub struct FlatModel {
    l1: Linear,
    l2: Linear,
    l3: Linear,
}

impl FlatModel {
    /// Creates a model for flat vectors of width `dim`.
    pub fn new(dim: usize, hidden: usize, seed: u64) -> Self {
        Self {
            l1: Linear::new(dim, hidden, seed ^ 0x11),
            l2: Linear::new(hidden, hidden, seed ^ 0x22),
            l3: Linear::new(hidden, 1, seed ^ 0x33),
        }
    }

    /// Scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.l1.num_params() + self.l2.num_params() + self.l3.num_params()
    }

    fn train_step(
        &mut self,
        x: &Tensor,
        truths: &[u64],
        loss: &QErrorLoss,
        adam: &mut Adam,
        [g1, g2, g3]: &mut [LinearGrads; 3],
    ) -> f64 {
        let z1 = self.l1.forward(x);
        let a1 = relu(&z1);
        let z2 = self.l2.forward(&a1);
        let a2 = relu(&z2);
        let z3 = self.l3.forward(&a2);
        let y = sigmoid(&z3);
        let (l, grad_y) = loss.forward_backward(&y, truths);
        let g_z3 = sigmoid_backward(&y, &grad_y);
        let g_a2 = self.l3.backward(&a2, &g_z3, g3);
        let g_z2 = relu_backward(&z2, &g_a2);
        let g_a1 = self.l2.backward(&a1, &g_z2, g2);
        let g_z1 = relu_backward(&z1, &g_a1);
        self.l1.backward(x, &g_z1, g1);
        adam.step(0, &mut self.l1, g1, &Team::solo());
        adam.step(1, &mut self.l2, g2, &Team::solo());
        adam.step(2, &mut self.l3, g3, &Team::solo());
        l
    }

    /// Trains with mini-batch Adam on the q-error objective; mirrors the
    /// MSCN training loop so E11 compares models, not trainers.
    #[allow(clippy::too_many_arguments)]
    pub fn train(
        &mut self,
        featurizer: &FlatFeaturizer,
        samples: &[TableSample],
        queries: &[Query],
        labels: &[u64],
        normalizer: &LabelNormalizer,
        epochs: usize,
        batch_size: usize,
        seed: u64,
    ) -> f64 {
        assert_eq!(queries.len(), labels.len(), "query/label length mismatch");
        assert!(!queries.is_empty() && batch_size > 0);
        let x_all: Vec<Vec<f32>> = queries
            .iter()
            .map(|q| featurizer.featurize(q, samples))
            .collect();
        let loss = QErrorLoss::new(normalizer.clone());
        let mut adam = Adam::new(1e-3);
        let mut grads = [&self.l1, &self.l2, &self.l3].map(LinearGrads::zeros);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut idx: Vec<usize> = (0..queries.len()).collect();
        let mut last = f64::NAN;
        for _ in 0..epochs {
            idx.shuffle(&mut rng);
            let mut sum = 0.0;
            let mut n = 0;
            for chunk in idx.chunks(batch_size) {
                let mut data = Vec::with_capacity(chunk.len() * featurizer.dim());
                for &i in chunk {
                    data.extend_from_slice(&x_all[i]);
                }
                let x = Tensor::from_vec(chunk.len(), featurizer.dim(), data);
                let truths: Vec<u64> = chunk.iter().map(|&i| labels[i]).collect();
                sum += self.train_step(&x, &truths, &loss, &mut adam, &mut grads);
                n += 1;
            }
            last = sum / n as f64;
        }
        last
    }

    /// Estimates cardinalities for a workload.
    pub fn estimate_batch(
        &self,
        featurizer: &FlatFeaturizer,
        samples: &[TableSample],
        queries: &[Query],
        normalizer: &LabelNormalizer,
    ) -> Vec<f64> {
        if queries.is_empty() {
            return Vec::new();
        }
        let data = queries
            .iter()
            .flat_map(|q| featurizer.featurize(q, samples));
        let x = Tensor::from_vec(queries.len(), featurizer.dim(), data.collect());
        let a1 = relu(&self.l1.forward(&x));
        let a2 = relu(&self.l2.forward(&a1));
        let y = sigmoid(&self.l3.forward(&a2));
        y.data()
            .iter()
            .map(|&y| normalizer.denormalize(y).max(1.0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_core::metrics::qerror;
    use ds_est::oracle::TrueCardinalityOracle;
    use ds_query::workloads::imdb_predicate_columns;
    use ds_query::{GeneratorConfig, QueryGenerator};
    use ds_storage::gen::{imdb_database, ImdbConfig};
    use ds_storage::sample::sample_all;

    fn setup() -> (
        ds_storage::catalog::Database,
        Vec<TableSample>,
        FlatFeaturizer,
    ) {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let samples = sample_all(&db, 16, 2);
        let vocab = Featurizer::build(&db, &imdb_predicate_columns(&db), 16);
        (db, samples, FlatFeaturizer::new(vocab))
    }

    #[test]
    fn dim_formula_and_vector_shape() {
        let (db, samples, f) = setup();
        // 6 tables + 5 joins + 4·9 columns + 6·16 bitmap bits.
        assert_eq!(f.dim(), 6 + 5 + 36 + 96);
        let q = ds_query::parser::parse_query(
            &db,
            "SELECT COUNT(*) FROM title, movie_keyword \
             WHERE movie_keyword.movie_id = title.id AND title.production_year > 2000",
        )
        .unwrap();
        let v = f.featurize(&q, &samples);
        assert_eq!(v.len(), f.dim());
        // Two table bits and one join bit set.
        assert_eq!(v[..6].iter().sum::<f32>(), 2.0);
        assert_eq!(v[6..11].iter().sum::<f32>(), 1.0);
    }

    #[test]
    fn flat_encoding_is_plan_order_invariant() {
        let (db, samples, f) = setup();
        let qa = ds_query::parser::parse_query(
            &db,
            "SELECT COUNT(*) FROM title, movie_keyword, cast_info \
             WHERE movie_keyword.movie_id = title.id AND cast_info.movie_id = title.id",
        )
        .unwrap();
        let mut qb = qa.clone();
        qb.tables.reverse();
        qb.joins.reverse();
        assert_eq!(f.featurize(&qa, &samples), f.featurize(&qb, &samples));
    }

    #[test]
    fn flat_model_trains_to_useful_accuracy() {
        let db = imdb_database(&ImdbConfig::tiny(3));
        let samples = sample_all(&db, 16, 5);
        let cols = imdb_predicate_columns(&db);
        let vocab = Featurizer::build(&db, &cols, 16);
        let f = FlatFeaturizer::new(vocab);
        let mut gen = QueryGenerator::new(&db, GeneratorConfig::new(cols, 7));
        let queries = gen.generate_batch(300);
        let oracle = TrueCardinalityOracle::new(&db);
        let labels = oracle.label_batch(&queries, 1).unwrap();
        let normalizer = LabelNormalizer::fit(&labels);
        let mut model = FlatModel::new(f.dim(), 24, 9);
        let first = model.train(&f, &samples, &queries, &labels, &normalizer, 1, 64, 1);
        let last = model.train(&f, &samples, &queries, &labels, &normalizer, 10, 64, 2);
        assert!(last < first, "loss did not decrease: {first} → {last}");
        // Sanity: median q-error on the training queries is small-ish.
        let ests = model.estimate_batch(&f, &samples, &queries, &normalizer);
        let truths = crate::paper::truths(&db, &queries).expect("ground truth");
        let mut qs: Vec<f64> = ests
            .iter()
            .zip(&truths)
            .map(|(&e, &t)| qerror(e, t))
            .collect();
        qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = qs[qs.len() / 2];
        assert!(median < 15.0, "flat model median q-error {median}");
    }

    #[test]
    fn empty_batch_is_fine() {
        let (_db, samples, f) = setup();
        let model = FlatModel::new(f.dim(), 8, 1);
        let normalizer = LabelNormalizer::fit(&[1, 10]);
        assert!(model
            .estimate_batch(&f, &samples, &[], &normalizer)
            .is_empty());
    }
}
