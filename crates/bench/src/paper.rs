//! One measurement path per gated paper claim.
//!
//! Each claim is one function that builds, reads the truth, grades and
//! returns a typed row whose `holds()` is the paper's statement.
//! The harnesses in `benches/` print these rows at the standard seed, and
//! `tests/paper_claims.rs` asserts them on the median over five build
//! seeds. A function built at [`STANDARD_BUILD_SEED`] uses the seeds its
//! harness always used; another build seed shifts all of them.

use ds_core::builder::{BuildError, SketchBuilder};
use ds_core::featurize::Featurizer;
use ds_core::metrics::QErrorSummary;
use ds_core::sketch::DeepSketch;
use ds_est::oracle::TrueCardinalityOracle;
use ds_est::postgres::PostgresEstimator;
use ds_est::sampling::SamplingEstimator;
use ds_est::CardinalityEstimator;
use ds_nn::loss::LabelNormalizer;
use ds_query::query::Query;
use ds_query::workloads::imdb_predicate_columns;
use ds_query::workloads::job_light::job_light_workload;
use ds_query::{GeneratorConfig, QueryGenerator};
use ds_storage::catalog::Database;
use ds_storage::exec::ExecError;

use crate::flat::{FlatFeaturizer, FlatModel};
use crate::{qerrors_against_truth, BENCH_SEED};

/// The standard sketch's build seed, and the first of the gate's.
pub const STANDARD_BUILD_SEED: u64 = BENCH_SEED ^ 2;

/// E4's stated margin: the validation q-error at epoch 25 may be at most
/// this many times the best epoch's.
pub const E4_MARGIN: f64 = 1.5;

/// The seed a measurement built at `build_seed` uses where its harness used
/// `at_standard`.
fn reseed(build_seed: u64, at_standard: u64) -> u64 {
    build_seed ^ STANDARD_BUILD_SEED ^ at_standard
}

/// The standard sketch configuration used by the accuracy experiments:
/// 10 000 training queries, 30 epochs, 100-tuple samples, 96 hidden units,
/// batches of 128, up to 5 tables (JOB-light needs up to 4 joins) and 4
/// predicates per training query, over the IMDb predicate columns.
pub fn standard_sketch_builder(db: &Database) -> SketchBuilder<'_> {
    SketchBuilder::new(db, imdb_predicate_columns(db))
        .training_queries(10_000)
        .epochs(30)
        .sample_size(100)
        .hidden_units(96)
        .batch_size(128)
        .max_tables(5)
        .max_predicates(4)
        .seed(STANDARD_BUILD_SEED)
}

/// The true cardinality of each query.
///
/// # Errors
/// The executor's error on the first query it cannot count.
pub fn truths(db: &Database, queries: &[Query]) -> Result<Vec<f64>, ExecError> {
    let oracle = TrueCardinalityOracle::new(db);
    queries
        .iter()
        .map(|q| oracle.cardinality(q).map(|c| c as f64))
        .collect()
}

/// The q-error summary of `estimator` on `queries`, whose true
/// cardinalities are `truths`.
pub fn grade(
    estimator: &dyn CardinalityEstimator,
    truths: &[f64],
    queries: &[Query],
) -> QErrorSummary {
    QErrorSummary::from_qerrors(&qerrors_against_truth(estimator, truths, queries))
}

/// The two traditional estimators the sketch is compared with.
pub struct Baselines {
    /// HyPer-style sampling on 100-tuple samples: the same relative
    /// coverage as the paper's 1000 tuples on the 100× larger real IMDb,
    /// and the budget the sketch's bitmaps use.
    pub hyper: SamplingEstimator,
    /// PostgreSQL-style statistics at the default statistics target.
    pub postgres: PostgresEstimator,
}

impl Baselines {
    /// Builds both baselines over `db`.
    pub fn build(db: &Database) -> Self {
        Self {
            hyper: SamplingEstimator::build(db, 100, BENCH_SEED ^ 3),
            postgres: PostgresEstimator::build(db),
        }
    }
}

/// The sketch and both baselines graded on one workload: E1's row.
#[derive(Debug, Clone)]
pub struct Graded {
    pub sketch: QErrorSummary,
    pub hyper: QErrorSummary,
    pub postgres: QErrorSummary,
}

impl Graded {
    /// `sketch` and `baselines` graded on `queries`.
    ///
    /// # Errors
    /// The executor's error on a query it cannot count.
    pub fn new(
        db: &Database,
        baselines: &Baselines,
        sketch: &DeepSketch,
        queries: &[Query],
    ) -> Result<Self, ExecError> {
        let truths = truths(db, queries)?;
        Ok(Self {
            sketch: grade(sketch, &truths, queries),
            hyper: grade(&baselines.hyper, &truths, queries),
            postgres: grade(&baselines.postgres, &truths, queries),
        })
    }

    /// The best baseline's median and p95.
    pub fn best_baseline(&self) -> (f64, f64) {
        (
            self.hyper.median.min(self.postgres.median),
            self.hyper.p95.min(self.postgres.p95),
        )
    }

    /// Table 1's claim: the sketch's median and p95 are at or below the
    /// best baseline's.
    pub fn holds(&self) -> bool {
        let (median, p95) = self.best_baseline();
        self.sketch.median <= median && self.sketch.p95 <= p95
    }

    /// Prints the Table 1 header and one row per estimator.
    pub fn print_table(&self) {
        println!("{}", QErrorSummary::table_header());
        println!("{}", self.sketch.table_row("Deep Sketch"));
        println!("{}", self.hyper.table_row("HyPer"));
        println!("{}", self.postgres.table_row("PostgreSQL"));
    }
}

/// **E1 — Table 1**: `sketch` and the baselines on the JOB-light instance
/// drawn with `instance_seed`.
///
/// # Errors
/// The executor's error on a query it cannot count.
pub fn e1_job_light(
    db: &Database,
    baselines: &Baselines,
    sketch: &DeepSketch,
    instance_seed: u64,
) -> Result<Graded, ExecError> {
    let workload = job_light_workload(db, instance_seed);
    Graded::new(db, baselines, sketch, &workload)
}

/// E4's row: the validation mean q-error and the training loss per epoch.
#[derive(Debug, Clone)]
pub struct E4Row {
    pub val_qerror: Vec<f64>,
    pub train_loss: Vec<f64>,
}

impl E4Row {
    /// The best epoch's validation q-error.
    pub fn floor(&self) -> f64 {
        self.val_qerror.iter().copied().fold(f64::MAX, f64::min)
    }

    /// The validation q-error at epoch 25.
    pub fn at25(&self) -> f64 {
        self.val_qerror[24.min(self.val_qerror.len() - 1)]
    }

    /// §3's claim: epoch 25 is within [`E4_MARGIN`] of the floor.
    pub fn holds(&self) -> bool {
        self.at25() <= self.floor() * E4_MARGIN
    }
}

/// **E4 — §3, "25 epochs are usually enough"**: the standard sketch on
/// 8 000 training queries for 50 epochs, validated after each.
///
/// # Errors
/// The builder's error.
pub fn e4_convergence(db: &Database, build_seed: u64) -> Result<E4Row, BuildError> {
    let (_, report) = standard_sketch_builder(db)
        .training_queries(8_000)
        .epochs(50)
        .seed(reseed(build_seed, BENCH_SEED ^ 0xE4))
        .build_with_report()?;
    let epochs = &report.training.epochs;
    Ok(E4Row {
        val_qerror: epochs
            .iter()
            .map(|e| e.val_mean_qerror.expect("validation enabled"))
            .collect(),
        train_loss: epochs.iter().map(|e| e.train_loss).collect(),
    })
}

/// E5's row: the sketch and the baselines on generated queries that are
/// 0-tuple situations on the sampling estimator's samples, and on the rest.
#[derive(Debug, Clone)]
pub struct E5Row {
    pub zero_tuple: Graded,
    pub other: Graded,
}

impl E5Row {
    /// How many times its median q-error on the rest each of sampling and
    /// the sketch has on 0-tuple situations.
    pub fn degradation(&self) -> (f64, f64) {
        (
            self.zero_tuple.hyper.median / self.other.hyper.median,
            self.zero_tuple.sketch.median / self.other.sketch.median,
        )
    }

    /// §2's claim: sampling degrades more on 0-tuple situations than the
    /// sketch. Each is measured against its own q-error on the rest, so
    /// this is no model check: a 1-epoch standard sketch passes it too.
    /// E1 is the accuracy referee.
    pub fn holds(&self) -> bool {
        let (sampling, sketch) = self.degradation();
        sampling > sketch
    }
}

/// **E5 — §2, 0-tuple situations**: 3 000 generated queries (selective
/// equality predicates on big domains make 0-tuple situations common),
/// split by whether the sampling baseline's samples qualify no tuple.
/// The row grades robustness, not accuracy: a 1-epoch standard sketch
/// passes [`E5Row::holds`] as well, and E1 is what catches it.
///
/// # Errors
/// The executor's error on a query it cannot count.
pub fn e5_zero_tuple(
    db: &Database,
    baselines: &Baselines,
    sketch: &DeepSketch,
) -> Result<E5Row, ExecError> {
    let mut cfg = GeneratorConfig::new(imdb_predicate_columns(db), BENCH_SEED ^ 0xE5);
    cfg.max_tables = 4;
    cfg.max_predicates = 3;
    let (zero, other): (Vec<_>, Vec<_>) = QueryGenerator::new(db, cfg)
        .generate_batch(3_000)
        .into_iter()
        .partition(|q| baselines.hyper.is_zero_tuple(q));
    Ok(E5Row {
        zero_tuple: Graded::new(db, baselines, sketch, &zero)?,
        other: Graded::new(db, baselines, sketch, &other)?,
    })
}

/// E11's row: the MSCN and the flat MLP on JOB-light, with their sizes.
#[derive(Debug, Clone)]
pub struct E11Row {
    pub mscn: QErrorSummary,
    pub flat: QErrorSummary,
    pub mscn_params: usize,
    pub flat_dims: usize,
    pub flat_params: usize,
}

impl E11Row {
    /// §2's claim: set semantics beat a flat vector on mean q-error.
    pub fn holds(&self) -> bool {
        self.mscn.mean <= self.flat.mean
    }
}

/// **E11 — §2, set semantics vs a flat vector**: the standard sketch and a
/// flat MLP of comparable parameter budget, trained on the same 8 000
/// queries with the same vocabulary, bitmaps and q-error objective for 24
/// epochs, graded on the JOB-light instance `BENCH_SEED ^ 4`.
///
/// # Errors
/// The executor's or the builder's error.
pub fn e11_set_vs_flat(db: &Database, build_seed: u64) -> Result<E11Row, BuildError> {
    let (sample_size, train_queries, epochs) = (100, 8_000, 24);
    let seed = reseed(build_seed, BENCH_SEED ^ 0xE11);
    let cols = imdb_predicate_columns(db);
    // The seeds `SketchBuilder::build` derives from `seed` for its samples
    // and its training queries.
    let samples = ds_storage::sample::sample_all(db, sample_size, seed ^ 0x5A);
    let mut gen_cfg = GeneratorConfig::new(cols.clone(), seed ^ 0x9E);
    gen_cfg.max_tables = 5;
    gen_cfg.max_predicates = 4;
    let queries = QueryGenerator::new(db, gen_cfg).generate_batch(train_queries);
    let labels = TrueCardinalityOracle::new(db).label_batch(&queries, 1)?;
    let normalizer = LabelNormalizer::fit(&labels);

    let mscn = standard_sketch_builder(db)
        .training_queries(train_queries)
        .epochs(epochs)
        .seed(seed)
        .build()?;

    // The flat input is much wider (bitmaps are not shared across tables),
    // so an equal-parameter budget gives it a comparable hidden width.
    let features = FlatFeaturizer::new(Featurizer::build(db, &cols, sample_size));
    let mut flat = FlatModel::new(features.dim(), 96, reseed(build_seed, BENCH_SEED ^ 0xF1A7));
    flat.train(
        &features,
        &samples,
        &queries,
        &labels,
        &normalizer,
        epochs,
        128,
        reseed(build_seed, BENCH_SEED ^ 0x7EA1),
    );

    let workload = job_light_workload(db, BENCH_SEED ^ 4);
    let truths = truths(db, &workload)?;
    let flat_estimates = flat.estimate_batch(&features, &samples, &workload, &normalizer);
    let flat_pairs: Vec<_> = flat_estimates
        .into_iter()
        .zip(truths.iter().copied())
        .collect();
    Ok(E11Row {
        mscn: grade(&mscn, &truths, &workload),
        flat: QErrorSummary::from_pairs(&flat_pairs),
        mscn_params: mscn.info().model_params,
        flat_dims: features.dim(),
        flat_params: flat.num_params(),
    })
}
