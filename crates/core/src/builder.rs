//! The four-step sketch-creation pipeline of Figure 1a:
//!
//! 1. **Define** — choose tables (a database) and parameters: number of
//!    materialized samples, training queries, epochs.
//! 2. **Generate** training queries — uniformly choose tables, columns, and
//!    predicate types; draw literals from the database.
//! 3. **Execute** training queries — against the database for true
//!    cardinalities (in parallel, as with "multiple HyPer instances") and
//!    against the materialized samples for bitmaps.
//! 4. **Train** — featurize and train the MSCN for the requested epochs.

use std::time::{Duration, Instant};

use ds_nn::loss::LabelNormalizer;
use ds_query::query::Query;
use ds_query::{GeneratorConfig, QueryGenerator};
use ds_storage::catalog::{ColRef, Database};
use ds_storage::exec::{CountExecutor, ExecError};
use ds_storage::sample::sample_all;

use crate::featurize::Featurizer;
use crate::mscn::{MscnConfig, MscnModel};
use crate::sketch::DeepSketch;
use crate::train::{train_with_callback, EpochStats, TrainConfig, TrainingReport};

/// Progress events emitted during sketch construction — the demo lets
/// users "monitor the training progress, including the execution of
/// training queries and the training of the deep learning model".
#[derive(Debug, Clone)]
pub enum BuildProgress {
    /// Step 1+2 finished: samples drawn, queries generated.
    QueriesGenerated {
        /// Number of training queries.
        count: usize,
    },
    /// Step 3 progress: a chunk of training queries has been executed.
    LabelsExecuted {
        /// Queries labeled so far.
        done: usize,
        /// Total queries to label.
        total: usize,
    },
    /// Step 4 progress: one training epoch finished.
    EpochCompleted {
        /// The epoch's statistics.
        stats: EpochStats,
        /// Total epochs requested.
        total: usize,
    },
}

/// Errors during sketch construction.
#[derive(Debug)]
pub enum BuildError {
    /// A generated training query failed to execute (indicates schema
    /// metadata corruption — generated queries are valid by construction).
    Execution(ExecError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Execution(e) => write!(f, "training-query execution failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<ExecError> for BuildError {
    fn from(e: ExecError) -> Self {
        BuildError::Execution(e)
    }
}

/// Wall-clock cost breakdown of the four pipeline steps — the data behind
/// the training-cost discussion in §3.
#[derive(Debug, Clone)]
pub struct BuildReport {
    /// Step 1+2: sampling + query generation time.
    pub generation: Duration,
    /// Step 3: executing training queries for labels.
    pub execution: Duration,
    /// Step 4a: building the featurizer (vocabulary + encoders).
    pub featurization: Duration,
    /// Step 4b (featurize the workload + train).
    pub training: TrainingReport,
    /// Number of training queries used.
    pub num_queries: usize,
    /// Serialized sketch size in bytes.
    pub footprint_bytes: usize,
}

/// Builder for [`DeepSketch`]es, mirroring the demo's "define a sketch"
/// form.
#[derive(Debug, Clone)]
pub struct SketchBuilder<'a> {
    db: &'a Database,
    predicate_columns: Vec<ColRef>,
    tables: Option<Vec<ds_storage::catalog::TableId>>,
    training_queries: usize,
    epochs: usize,
    sample_size: usize,
    hidden_units: usize,
    batch_size: usize,
    max_tables: usize,
    max_predicates: usize,
    use_bitmaps: bool,
    /// `None` until [`SketchBuilder::threads`] is called.
    threads: Option<usize>,
    seed: u64,
    in_frac: f64,
    like_frac: f64,
    /// Per-predicate bitmap width under schema v2; `None` for schema v1.
    schema_v2: Option<usize>,
}

impl<'a> SketchBuilder<'a> {
    /// Starts a builder over a database with the given predicate-eligible
    /// columns. Defaults: 10 000 training queries (the demo's "sufficient
    /// for a small number of tables"), 25 epochs, 1000 samples per table.
    pub fn new(db: &'a Database, predicate_columns: Vec<ColRef>) -> Self {
        Self {
            db,
            predicate_columns,
            tables: None,
            training_queries: 10_000,
            epochs: 25,
            sample_size: 1000,
            hidden_units: 128,
            batch_size: 128,
            max_tables: 3,
            max_predicates: 3,
            use_bitmaps: true,
            threads: None,
            seed: 0xD5_5EED,
            in_frac: 0.0,
            like_frac: 0.0,
            schema_v2: None,
        }
    }

    /// Restricts the sketch to a subset of tables — step 1 of Figure 1a
    /// ("users need to select a subset of tables"). Training queries and
    /// predicate columns are confined to this subset; `max_tables` is
    /// clamped to its size.
    pub fn tables(mut self, tables: Vec<ds_storage::catalog::TableId>) -> Self {
        assert!(!tables.is_empty(), "table subset must not be empty");
        self.predicate_columns
            .retain(|cr| tables.contains(&cr.table));
        self.tables = Some(tables);
        self
    }

    /// Number of training queries (step 2).
    pub fn training_queries(mut self, n: usize) -> Self {
        self.training_queries = n;
        self
    }

    /// Number of training epochs (step 4).
    pub fn epochs(mut self, n: usize) -> Self {
        self.epochs = n;
        self
    }

    /// Materialized sample tuples per base table.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n;
        self
    }

    /// Hidden width of the MSCN MLPs.
    pub fn hidden_units(mut self, n: usize) -> Self {
        self.hidden_units = n;
        self
    }

    /// Mini-batch size.
    pub fn batch_size(mut self, n: usize) -> Self {
        self.batch_size = n;
        self
    }

    /// Maximum tables per generated training query.
    pub fn max_tables(mut self, n: usize) -> Self {
        self.max_tables = n;
        self
    }

    /// Maximum predicates per generated training query.
    pub fn max_predicates(mut self, n: usize) -> Self {
        self.max_predicates = n;
        self
    }

    /// Include sample bitmaps in table features (ablation knob).
    pub fn use_bitmaps(mut self, on: bool) -> Self {
        self.use_bitmaps = on;
        self
    }

    /// Threads for the whole pipeline: training-query execution, the
    /// training run's lanes ([`TrainConfig::threads`]), and the built
    /// sketch's batched serving all use `n`. Results are bit-identical at
    /// any thread count. A builder on which this is never called trains
    /// on [`std::thread::available_parallelism`] lanes and keeps label
    /// execution and the sketch's batches on one thread.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Master seed (drives sampling, generation, init, and shuffling).
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Mixes `IN (…)` and `LIKE` predicates into the training workload at
    /// the given per-predicate fractions. Off by default — the default
    /// query stream stays bit-identical to the comparison-only generator.
    pub fn extended_ops(mut self, in_frac: f64, like_frac: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&(in_frac + like_frac)),
            "in_frac + like_frac must lie in [0, 1]"
        );
        self.in_frac = in_frac;
        self.like_frac = like_frac;
        self
    }

    /// Switches the featurizer to the extended schema v2 (operator-kind
    /// one-hots + per-predicate sample-bitmap features of the given width).
    /// Bits are clamped to the sample size. Schema v1 sketches remain the
    /// default and stay byte-compatible on the wire.
    pub fn feature_schema_v2(mut self, pred_bitmap_bits: usize) -> Self {
        self.schema_v2 = Some(pred_bitmap_bits);
        self
    }

    /// Runs the pipeline and returns the sketch.
    pub fn build(self) -> Result<DeepSketch, BuildError> {
        self.build_with_report().map(|(s, _)| s)
    }

    /// Runs the pipeline, also returning the cost breakdown.
    pub fn build_with_report(self) -> Result<(DeepSketch, BuildReport), BuildError> {
        self.build_with_progress(&mut |_| {})
    }

    /// Runs the pipeline, reporting progress events along the way.
    pub fn build_with_progress(
        self,
        on_progress: &mut dyn FnMut(BuildProgress),
    ) -> Result<(DeepSketch, BuildReport), BuildError> {
        let obs = ds_obs::global();
        let _build_span = obs.span("build");
        // Training's helper lanes are gone when it returns; threads for
        // labelling or serving are only spent when asked for.
        let threads = self.threads.unwrap_or(1);
        let train_lanes = self
            .threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        // Steps 1-2: samples + training queries.
        let t0 = Instant::now();
        let gen_span = obs.span("generate");
        let samples = sample_all(self.db, self.sample_size, self.seed ^ 0x5A);
        let mut gen_cfg = GeneratorConfig::new(self.predicate_columns.clone(), self.seed ^ 0x9E);
        gen_cfg.max_tables = match &self.tables {
            Some(t) => self.max_tables.min(t.len()),
            None => self.max_tables,
        };
        gen_cfg.max_predicates = self.max_predicates;
        gen_cfg.allowed_tables = self.tables.clone();
        gen_cfg.in_frac = self.in_frac;
        gen_cfg.like_frac = self.like_frac;
        let mut generator = QueryGenerator::new(self.db, gen_cfg);
        let queries: Vec<Query> = generator.generate_batch(self.training_queries);
        let generation = t0.elapsed();
        drop(gen_span);
        if obs.is_enabled() {
            obs.count("build/queries_generated", queries.len() as u64);
        }
        on_progress(BuildProgress::QueriesGenerated {
            count: queries.len(),
        });

        // Step 3: execute for labels, in chunks so progress is observable.
        let t1 = Instant::now();
        let exec_span = obs.span("execute");
        let mut labels = Vec::with_capacity(queries.len());
        {
            // One executor for the whole build: its key dictionaries and
            // its predicate-free subtree messages are derived once, not per
            // chunk. It goes (a few MB) before training's buffers come.
            let executor = CountExecutor::new();
            let exec_queries: Vec<_> = queries.iter().map(Query::to_exec).collect();
            let chunk_size = (exec_queries.len() / 20).max(1);
            for chunk in exec_queries.chunks(chunk_size) {
                labels.extend(executor.count_batch(self.db, chunk, threads)?);
                on_progress(BuildProgress::LabelsExecuted {
                    done: labels.len(),
                    total: exec_queries.len(),
                });
            }
        }
        let execution = t1.elapsed();
        drop(exec_span);

        // Step 4a: build the featurizer (vocabulary + encoders).
        let t2 = Instant::now();
        let feat_span = obs.span("featurize");
        let mut featurizer = Featurizer::build_with_options(
            self.db,
            &self.predicate_columns,
            self.sample_size,
            self.use_bitmaps,
        );
        if let Some(bits) = self.schema_v2 {
            featurizer = featurizer.with_schema_v2(bits);
        }
        let featurization = t2.elapsed();
        drop(feat_span);
        let normalizer = LabelNormalizer::fit(&labels);
        let mut model = MscnModel::new(
            featurizer.table_dim(),
            featurizer.join_dim(),
            featurizer.pred_dim(),
            MscnConfig {
                hidden: self.hidden_units,
                seed: self.seed ^ 0xC0DE,
            },
        );
        let train_cfg = TrainConfig {
            epochs: self.epochs,
            batch_size: self.batch_size,
            seed: self.seed ^ 0x7EA1,
            validation_frac: 0.1,
            threads: train_lanes,
        };
        let total_epochs = self.epochs;
        let training = train_with_callback(
            &mut model,
            &featurizer,
            &samples,
            &queries,
            &labels,
            &normalizer,
            &train_cfg,
            &mut |stats| {
                on_progress(BuildProgress::EpochCompleted {
                    stats: stats.clone(),
                    total: total_epochs,
                })
            },
        );

        let mut sketch = DeepSketch::from_parts(
            model.freeze(),
            featurizer,
            samples,
            normalizer,
            self.db.name().to_string(),
        );
        sketch.set_threads(threads);
        // The last epoch's holdout q-error distribution ships inside
        // the sketch as the reference for online drift detection.
        if let Some(baseline) = crate::monitor::baseline_from_qerrors(&training.holdout_qerrors) {
            sketch.set_baseline(baseline);
        }
        let footprint_bytes = sketch.footprint_bytes();
        let report = BuildReport {
            generation,
            execution,
            featurization,
            training,
            num_queries: queries.len(),
            footprint_bytes,
        };
        Ok((sketch, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{qerror, QErrorSummary};
    use ds_est::oracle::TrueCardinalityOracle;
    use ds_est::CardinalityEstimator;
    use ds_query::workloads::imdb_predicate_columns;
    use ds_storage::gen::{imdb_database, ImdbConfig};

    #[test]
    fn pipeline_produces_working_sketch_with_report() {
        let db = imdb_database(&ImdbConfig::tiny(2));
        let (sketch, report) = SketchBuilder::new(&db, imdb_predicate_columns(&db))
            .training_queries(300)
            .epochs(6)
            .sample_size(24)
            .hidden_units(24)
            .seed(11)
            .build_with_report()
            .expect("pipeline");
        assert_eq!(report.num_queries, 300);
        assert_eq!(report.training.epochs.len(), 6);
        assert!(report.footprint_bytes > 0);
        // The sketch should clearly beat random guessing on held-out
        // generated queries: its validation q-error must be finite and sane.
        let val = report.training.final_val_qerror().unwrap();
        assert!(val < 50.0, "val q-error {val}");
        let _ = sketch.estimate_batch(&ds_query::workloads::job_light::job_light_workload(&db, 1));
    }

    #[test]
    fn sketch_beats_wild_guessing_on_workload() {
        let db = imdb_database(&ImdbConfig::tiny(3));
        let sketch = SketchBuilder::new(&db, imdb_predicate_columns(&db))
            .training_queries(500)
            .epochs(10)
            .sample_size(32)
            .hidden_units(32)
            .seed(5)
            .build()
            .expect("pipeline");
        let oracle = TrueCardinalityOracle::new(&db);
        let wl = ds_query::workloads::job_light::job_light_workload(&db, 9);
        let qs: Vec<f64> = wl
            .iter()
            .map(|q| qerror(sketch.estimate(q), oracle.cardinality(q).unwrap() as f64))
            .collect();
        let summary = QErrorSummary::from_qerrors(&qs);
        // Tiny data + tiny model: just require a sane median.
        assert!(summary.median < 25.0, "median q-error {}", summary.median);
    }

    #[test]
    fn progress_events_cover_all_steps_in_order() {
        use super::BuildProgress;
        let db = imdb_database(&ImdbConfig::tiny(9));
        let mut events = Vec::new();
        let (_, report) = SketchBuilder::new(&db, imdb_predicate_columns(&db))
            .training_queries(120)
            .epochs(3)
            .sample_size(8)
            .hidden_units(8)
            .seed(17)
            .build_with_progress(&mut |p| events.push(p))
            .expect("pipeline");
        // First event: queries generated.
        assert!(matches!(
            events.first(),
            Some(BuildProgress::QueriesGenerated { count: 120 })
        ));
        // Label progress is monotone and ends at the total.
        let label_done: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                BuildProgress::LabelsExecuted { done, .. } => Some(*done),
                _ => None,
            })
            .collect();
        assert!(!label_done.is_empty());
        assert!(label_done.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*label_done.last().unwrap(), 120);
        // One epoch event per epoch, in order.
        let epochs: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                BuildProgress::EpochCompleted { stats, total } => {
                    assert_eq!(*total, 3);
                    Some(stats.epoch)
                }
                _ => None,
            })
            .collect();
        assert_eq!(epochs, vec![0, 1, 2]);
        assert_eq!(report.training.epochs.len(), 3);
    }

    #[test]
    fn deterministic_given_seed() {
        let db = imdb_database(&ImdbConfig::tiny(4));
        let build = |seed| {
            SketchBuilder::new(&db, imdb_predicate_columns(&db))
                .training_queries(100)
                .epochs(2)
                .sample_size(8)
                .hidden_units(8)
                .seed(seed)
                .build()
                .expect("pipeline")
        };
        let a = build(1);
        let b = build(1);
        assert_eq!(a.to_bytes(), b.to_bytes());
        let c = build(2);
        assert_ne!(a.to_bytes(), c.to_bytes());
    }

    #[test]
    fn threads_do_not_change_results() {
        let db = imdb_database(&ImdbConfig::tiny(5));
        let build = |threads| {
            SketchBuilder::new(&db, imdb_predicate_columns(&db))
                .training_queries(80)
                .epochs(2)
                .sample_size(8)
                .hidden_units(8)
                .threads(threads)
                .seed(6)
                .build()
                .expect("pipeline")
        };
        assert_eq!(build(1).to_bytes(), build(4).to_bytes());
    }
}
