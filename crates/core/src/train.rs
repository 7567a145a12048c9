//! Mini-batch training of the MSCN model (Figure 1a, step 4).
//!
//! A run opens one [`Team`] of [`TrainConfig::threads`] lanes around its
//! whole epoch loop: the helpers are spawned once, every forward,
//! backward, optimizer step and validation pass forks on them
//! ([`crate::mscn`] says where), and they are joined before the run
//! returns or unwinds. The lane count changes how long a run takes and
//! nothing else — losses, validation q-errors and weights are bit for bit
//! those of one lane — and at one lane no thread is spawned at all.
//!
//! A step runs each set module once per distinct element of its batch,
//! forward and backward ([`crate::featurize::PoolBatch`] lists them, and
//! [`crate::mscn`] says how queries pool through them): equal elements of
//! a workload share one pool id, so a table, join or predicate that
//! several queries of a batch hold costs one row, not one per query.
//!
//! There is one recipe, the paper's: mean q-error, Adam at
//! [`LEARNING_RATE`], and the whole epoch budget, shipping the last
//! epoch's weights.
//!
//! The run owns the model's gradients ([`MscnGrads`]) beside Adam's two
//! moments: they exist while it trains and go when it returns, so the
//! model it hands back is weights only.

use std::time::{Duration, Instant};

use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

use ds_nn::loss::{LabelNormalizer, QErrorLoss};
use ds_nn::optim::Adam;
use ds_nn::pool::Team;
use ds_nn::tensor::Tensor;
use ds_query::query::Query;
use ds_storage::sample::TableSample;

use crate::featurize::Featurizer;
use crate::metrics::{percentile, qerror};
use crate::mscn::{BackwardScratch, ForwardCache, MscnGrads, MscnModel};

/// Adam's learning rate, the one MSCN trains with.
pub const LEARNING_RATE: f32 = 1e-3;

/// Training hyper-parameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training data. The paper notes ~25 epochs
    /// usually reach a reasonable validation q-error.
    pub epochs: usize,
    /// Mini-batch size, of training steps and of validation passes alike.
    pub batch_size: usize,
    /// Shuffling seed.
    pub seed: u64,
    /// Fraction of queries held out for validation (0 disables).
    pub validation_frac: f64,
    /// Lanes of the run's [`Team`]: this thread plus `threads − 1`
    /// helpers that live for the run (0 is taken as 1). Training results
    /// are bit-identical at any count; this only affects speed. The
    /// default is 1 — [`crate::builder::SketchBuilder`] passes the host's
    /// available parallelism unless told otherwise.
    pub threads: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 25,
            batch_size: 128,
            seed: 0x7EA1_5EED,
            validation_frac: 0.1,
            threads: 1,
        }
    }
}

/// Per-epoch statistics.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch's batches.
    pub train_loss: f64,
    /// Mean q-error on the validation split, if one exists.
    pub val_mean_qerror: Option<f64>,
    /// Median q-error on the validation split, if one exists.
    pub val_median_qerror: Option<f64>,
    /// 95th-percentile q-error on the validation split, if one exists.
    pub val_p95_qerror: Option<f64>,
    /// Training examples processed per wall-clock second in this epoch.
    pub rows_per_sec: f64,
    /// Wall-clock duration of the epoch.
    pub duration: Duration,
}

/// The result of a training run.
#[derive(Debug, Clone)]
pub struct TrainingReport {
    /// One entry per epoch.
    pub epochs: Vec<EpochStats>,
    /// Total wall-clock training time.
    pub total_duration: Duration,
    /// Wall-clock time spent featurizing the workload up front.
    pub featurize_duration: Duration,
    /// Number of training examples used (after the validation split).
    pub train_examples: usize,
    /// Number of validation examples.
    pub val_examples: usize,
    /// Holdout q-errors of the last epoch, sorted ascending (empty
    /// without a validation split). This is the accuracy distribution the
    /// shipped weights actually achieved at training time — stored in the
    /// sketch as the baseline the online drift monitor compares against.
    pub holdout_qerrors: Vec<f64>,
}

impl TrainingReport {
    /// Final validation mean q-error, if validation was enabled.
    pub fn final_val_qerror(&self) -> Option<f64> {
        self.epochs.last().and_then(|e| e.val_mean_qerror)
    }

    /// Final training loss.
    pub fn final_train_loss(&self) -> f64 {
        self.epochs.last().map_or(f64::NAN, |e| e.train_loss)
    }
}

/// Trains `model` in place on `(queries, labels)`.
///
/// Featurization happens once up front; each epoch shuffles, batches, runs
/// forward/backward against the mean q-error, and applies Adam.
/// Deterministic in `cfg.seed`.
///
/// # Panics
/// Panics if `queries` and `labels` differ in length or are empty.
pub fn train(
    model: &mut MscnModel,
    featurizer: &Featurizer,
    samples: &[TableSample],
    queries: &[Query],
    labels: &[u64],
    normalizer: &LabelNormalizer,
    cfg: &TrainConfig,
) -> TrainingReport {
    train_with_callback(
        model,
        featurizer,
        samples,
        queries,
        labels,
        normalizer,
        cfg,
        &mut |_| {},
    )
}

/// [`train`] with a per-epoch progress callback — the hook behind the
/// demo's training-progress monitor (its TensorBoard pane).
#[allow(clippy::too_many_arguments)]
pub fn train_with_callback(
    model: &mut MscnModel,
    featurizer: &Featurizer,
    samples: &[TableSample],
    queries: &[Query],
    labels: &[u64],
    normalizer: &LabelNormalizer,
    cfg: &TrainConfig,
    on_epoch: &mut dyn FnMut(&EpochStats),
) -> TrainingReport {
    assert_eq!(queries.len(), labels.len(), "query/label length mismatch");
    assert!(!queries.is_empty(), "no training data");
    assert!(cfg.batch_size > 0, "batch size must be positive");
    assert!(
        (0.0..1.0).contains(&cfg.validation_frac),
        "validation_frac must be in [0, 1)"
    );

    let obs = ds_obs::global();
    let _train_span = obs.span("train");
    Team::run(cfg.threads, |team| {
        run_epochs(
            model, featurizer, samples, queries, labels, normalizer, cfg, team, on_epoch,
        )
    })
}

/// The body of [`train_with_callback`], on its team.
#[allow(clippy::too_many_arguments)]
fn run_epochs(
    model: &mut MscnModel,
    featurizer: &Featurizer,
    samples: &[TableSample],
    queries: &[Query],
    labels: &[u64],
    normalizer: &LabelNormalizer,
    cfg: &TrainConfig,
    team: &Team,
    on_epoch: &mut dyn FnMut(&EpochStats),
) -> TrainingReport {
    let obs = ds_obs::global();
    let start = Instant::now();
    let feats = {
        let _s = obs.span("featurize");
        featurizer.pool(queries, samples)
    };
    let featurize_duration = start.elapsed();

    // Deterministic validation split.
    let mut idx: Vec<usize> = (0..queries.len()).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    idx.shuffle(&mut rng);
    let val_len = ((queries.len() as f64) * cfg.validation_frac) as usize;
    let (val_idx, train_idx) = idx.split_at(val_len);
    let mut train_idx: Vec<usize> = train_idx.to_vec();
    assert!(!train_idx.is_empty(), "validation split consumed all data");

    let qloss = QErrorLoss::new(normalizer.clone());
    let mut adam = Adam::new(LEARNING_RATE);
    let mut grads = MscnGrads::new(model);
    let mut epochs = Vec::with_capacity(cfg.epochs);
    // Holdout q-errors of the latest validation pass, so the shipped
    // epoch's full distribution survives into the report.
    let mut last_qerrs: Vec<f64> = Vec::new();

    // Everything a step needs, shared across all batches of all epochs —
    // a steady-state step allocates nothing. Validation runs through the
    // same batch and cache, `batch_size` queries at a time, so neither
    // grows past a training step's size.
    let mut cache = ForwardCache::new();
    let mut scratch = BackwardScratch::new();
    let mut batch = feats.batch();
    let mut grad = Tensor::zeros(0, 0);
    let mut truths: Vec<u64> = Vec::new();

    for epoch in 0..cfg.epochs {
        let _epoch_span = obs.span("epoch");
        let epoch_start = Instant::now();
        train_idx.shuffle(&mut rng);
        let mut loss_sum = 0.0;
        let mut batches = 0usize;
        for chunk in train_idx.chunks(cfg.batch_size) {
            batch.fill(chunk);
            model.forward_into(&batch, team, &mut cache);
            truths.clear();
            truths.extend(chunk.iter().map(|&i| labels[i]));
            let loss = qloss.forward_backward_into(cache.output(), &truths, &mut grad);
            model.backward_with(&batch, &cache, &grad, &mut grads, team, &mut scratch);
            model.adam_step(&mut adam, &mut grads, team);
            loss_sum += loss;
            batches += 1;
        }

        let val_stats = (!val_idx.is_empty()).then(|| {
            let _s = obs.span("validate");
            let mut qerrs = Vec::with_capacity(val_idx.len());
            for chunk in val_idx.chunks(cfg.batch_size) {
                batch.fill(chunk);
                model.forward_into(&batch, team, &mut cache);
                qerrs.extend(
                    chunk
                        .iter()
                        .zip(cache.output().data())
                        .map(|(&i, &p)| qerror(normalizer.denormalize(p), labels[i] as f64)),
                );
            }
            let mean = qerrs.iter().sum::<f64>() / qerrs.len() as f64;
            qerrs.sort_by(f64::total_cmp);
            let (p50, p95) = (percentile(&qerrs, 0.5), percentile(&qerrs, 0.95));
            last_qerrs = qerrs;
            (mean, p50, p95)
        });

        let duration = epoch_start.elapsed();
        let stats = EpochStats {
            epoch,
            train_loss: loss_sum / batches.max(1) as f64,
            val_mean_qerror: val_stats.map(|(m, _, _)| m),
            val_median_qerror: val_stats.map(|(_, m, _)| m),
            val_p95_qerror: val_stats.map(|(_, _, p)| p),
            rows_per_sec: train_idx.len() as f64 / duration.as_secs_f64().max(1e-9),
            duration,
        };
        if obs.is_enabled() {
            obs.gauge("train/loss", stats.train_loss);
            obs.gauge("train/rows_per_sec", stats.rows_per_sec);
            if let Some((mean, median, p95)) = val_stats {
                obs.gauge("train/val_mean_qerror", mean);
                obs.gauge("train/val_median_qerror", median);
                obs.gauge("train/val_p95_qerror", p95);
            }
        }
        on_epoch(&stats);
        epochs.push(stats);
    }

    TrainingReport {
        epochs,
        total_duration: start.elapsed(),
        featurize_duration,
        train_examples: train_idx.len(),
        val_examples: val_idx.len(),
        holdout_qerrors: last_qerrs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mscn::MscnConfig;
    use ds_est::oracle::TrueCardinalityOracle;
    use ds_query::workloads::imdb_predicate_columns;
    use ds_query::{GeneratorConfig, QueryGenerator};
    use ds_storage::gen::{imdb_database, ImdbConfig};
    use ds_storage::sample::sample_all;

    fn training_setup(
        n_queries: usize,
    ) -> (
        ds_storage::catalog::Database,
        Vec<TableSample>,
        Featurizer,
        Vec<Query>,
        Vec<u64>,
    ) {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let samples = sample_all(&db, 24, 5);
        let cols = imdb_predicate_columns(&db);
        let featurizer = Featurizer::build(&db, &cols, 24);
        let mut gen = QueryGenerator::new(&db, GeneratorConfig::new(cols, 17));
        let queries = gen.generate_batch(n_queries);
        let oracle = TrueCardinalityOracle::new(&db);
        let labels = oracle.label_batch(&queries, 1).unwrap();
        (db, samples, featurizer, queries, labels)
    }

    #[test]
    fn training_reduces_validation_qerror() {
        let (_db, samples, featurizer, queries, labels) = training_setup(400);
        let normalizer = LabelNormalizer::fit(&labels);
        let mut model = MscnModel::new(
            featurizer.table_dim(),
            featurizer.join_dim(),
            featurizer.pred_dim(),
            MscnConfig {
                hidden: 32,
                seed: 2,
            },
        );
        let cfg = TrainConfig {
            epochs: 12,
            batch_size: 64,
            ..Default::default()
        };
        let report = train(
            &mut model,
            &featurizer,
            &samples,
            &queries,
            &labels,
            &normalizer,
            &cfg,
        );
        assert_eq!(report.epochs.len(), 12);
        let first = report.epochs[0].val_mean_qerror.unwrap();
        let last = report.final_val_qerror().unwrap();
        assert!(
            last < first * 0.8,
            "training did not help: first={first} last={last}"
        );
        assert!(last < 20.0, "val q-error too high: {last}");
    }

    #[test]
    fn holdout_qerrors_belong_to_the_last_epoch() {
        let (_db, samples, featurizer, queries, labels) = training_setup(300);
        let normalizer = LabelNormalizer::fit(&labels);
        let mut model = MscnModel::new(
            featurizer.table_dim(),
            featurizer.join_dim(),
            featurizer.pred_dim(),
            MscnConfig {
                hidden: 16,
                seed: 6,
            },
        );
        let report = train(
            &mut model,
            &featurizer,
            &samples,
            &queries,
            &labels,
            &normalizer,
            &TrainConfig {
                epochs: 6,
                batch_size: 64,
                ..Default::default()
            },
        );
        let last = report.epochs.last().unwrap();
        let q = &report.holdout_qerrors;
        assert_eq!(q.len(), report.val_examples);
        assert!(q.windows(2).all(|w| w[0] <= w[1]), "must be sorted");
        assert_eq!(Some(percentile(q, 0.5)), last.val_median_qerror);
        assert_eq!(Some(percentile(q, 0.95)), last.val_p95_qerror);
    }

    #[test]
    fn batched_validation_reports_the_qerrors_of_one_forward_over_the_split() {
        let (_db, samples, featurizer, queries, labels) = training_setup(300);
        let normalizer = LabelNormalizer::fit(&labels);
        let mut model = MscnModel::new(
            featurizer.table_dim(),
            featurizer.join_dim(),
            featurizer.pred_dim(),
            MscnConfig {
                hidden: 16,
                seed: 9,
            },
        );
        // 30 held-out queries: three batches of 8 and one of 6.
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 8,
            threads: 2,
            ..Default::default()
        };
        let report = train(
            &mut model,
            &featurizer,
            &samples,
            &queries,
            &labels,
            &normalizer,
            &cfg,
        );
        assert_eq!(report.val_examples, 30);

        // The split `run_epochs` draws, and the reference forward over all
        // of it at once with the shipped weights.
        let mut idx: Vec<usize> = (0..queries.len()).collect();
        idx.shuffle(&mut StdRng::seed_from_u64(cfg.seed));
        let held_out = &idx[..report.val_examples];
        let split: Vec<Query> = held_out.iter().map(|&i| queries[i].clone()).collect();
        let outputs = model.predict(&featurizer.batch_queries(&split, &samples));
        let mut expected: Vec<f64> = held_out
            .iter()
            .zip(outputs)
            .map(|(&i, p)| qerror(normalizer.denormalize(p), labels[i] as f64))
            .collect();
        expected.sort_by(f64::total_cmp);
        let bits = |q: &[f64]| q.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&report.holdout_qerrors), bits(&expected));
    }

    #[test]
    fn training_is_deterministic() {
        let (_db, samples, featurizer, queries, labels) = training_setup(100);
        let normalizer = LabelNormalizer::fit(&labels);
        // Identical runs must agree bit-for-bit — including across lane
        // counts, since a fork only moves where an element is computed.
        let mk = |threads: usize| {
            let cfg = TrainConfig {
                epochs: 3,
                batch_size: 32,
                threads,
                ..Default::default()
            };
            let mut m = MscnModel::new(
                featurizer.table_dim(),
                featurizer.join_dim(),
                featurizer.pred_dim(),
                MscnConfig {
                    hidden: 16,
                    seed: 4,
                },
            );
            let r = train(
                &mut m,
                &featurizer,
                &samples,
                &queries,
                &labels,
                &normalizer,
                &cfg,
            );
            let batch = featurizer.batch_queries(&queries, &samples);
            (
                r.final_train_loss(),
                r.final_val_qerror(),
                m.predict(&batch),
            )
        };
        let (l1, v1, p1) = mk(1);
        let (l2, v2, p2) = mk(1);
        assert_eq!(l1, l2);
        assert_eq!(v1, v2);
        assert_eq!(p1, p2);
        for lanes in [2, 3, 8] {
            let (l, v, p) = mk(lanes);
            assert_eq!(l1, l, "{lanes} lanes changed the training loss");
            assert_eq!(v1, v, "{lanes} lanes changed validation q-error");
            assert_eq!(p1, p, "{lanes} lanes changed the trained weights");
        }
    }

    #[test]
    fn zero_validation_frac_disables_validation() {
        let (_db, samples, featurizer, queries, labels) = training_setup(60);
        let normalizer = LabelNormalizer::fit(&labels);
        let mut model = MscnModel::new(
            featurizer.table_dim(),
            featurizer.join_dim(),
            featurizer.pred_dim(),
            MscnConfig { hidden: 8, seed: 8 },
        );
        let cfg = TrainConfig {
            epochs: 1,
            validation_frac: 0.0,
            ..Default::default()
        };
        let report = train(
            &mut model,
            &featurizer,
            &samples,
            &queries,
            &labels,
            &normalizer,
            &cfg,
        );
        assert_eq!(report.val_examples, 0);
        assert!(report.final_val_qerror().is_none());
        assert_eq!(report.train_examples, 60);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_labels_panic() {
        let (_db, samples, featurizer, queries, _labels) = training_setup(10);
        let normalizer = LabelNormalizer::fit(&[1]);
        let mut model = MscnModel::new(
            featurizer.table_dim(),
            featurizer.join_dim(),
            featurizer.pred_dim(),
            MscnConfig { hidden: 8, seed: 8 },
        );
        train(
            &mut model,
            &featurizer,
            &samples,
            &queries,
            &[1, 2],
            &normalizer,
            &TrainConfig::default(),
        );
    }
}
