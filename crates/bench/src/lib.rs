//! # ds-bench
//!
//! Experiment harnesses for the Deep Sketches reproduction. Every table and
//! figure of the paper maps to one bench target (see `benches/` and
//! DESIGN.md §3); this library holds the shared setup — the benchmark-scale
//! databases and reporting helpers — so that all experiments run against
//! identical state.
//!
//! [`paper`] measures the gated claims (E1, E4, E5, E11) and grades every
//! harness against the truth; the benches print what it measures, and
//! `tests/paper_claims.rs` asserts it on the median over five build seeds.
//! E4's margin is [`paper::E4_MARGIN`]: epoch 25 at most 1.5× the floor.
//!
//! Run a single experiment with
//! `cargo bench -p ds-bench --bench <name>`; `cargo bench` regenerates
//! everything.

pub mod drift;
pub mod flat;
pub mod loadgen;
pub mod paper;

use ds_core::builder::SketchBuilder;
use ds_est::CardinalityEstimator;
use ds_query::query::Query;
use ds_storage::catalog::Database;
use ds_storage::gen::{imdb_database, tpch_database, ImdbConfig, TpchConfig};

/// Master seed for all experiments — change it to re-roll every dataset,
/// sample, and initialization at once.
pub const BENCH_SEED: u64 = 0xBE7C_2024;

/// The benchmark-scale synthetic IMDb (~150k rows across 6 tables).
/// Large enough for meaningful skew/correlation, small enough that every
/// experiment finishes in minutes on one CPU core.
pub fn bench_imdb() -> Database {
    imdb_database(&ImdbConfig {
        movies: 8_000,
        keywords: 4_000,
        companies: 1_500,
        persons: 20_000,
        seed: BENCH_SEED,
    })
}

/// The benchmark-scale synthetic TPC-H subset.
pub fn bench_tpch() -> Database {
    tpch_database(&TpchConfig {
        customers: 1_500,
        parts: 2_000,
        suppliers: 100,
        seed: BENCH_SEED ^ 1,
    })
}

/// The sketch the repository benchmark (`BENCHMARK.json`, `setup.rs` in
/// its directory) defines and trains: the spec its `sketch_bytes` and
/// `joblight_qerr_*` metrics are pinned to.
pub fn benchmark_sketch_builder(db: &Database) -> SketchBuilder<'_> {
    SketchBuilder::new(db, ds_query::workloads::imdb_predicate_columns(db))
        .training_queries(4000)
        .epochs(6)
        .sample_size(256)
        .hidden_units(256)
        .max_tables(5)
        .max_predicates(4)
        .seed(BENCH_SEED ^ 2)
}

/// The repository benchmark's query stream (`workload.rs` in its
/// directory): `n` generated comparison-only queries, distinct under
/// `EstimateKey` (so no two are clause orders of one query), each as the
/// server's parser reads its SQL.
pub fn benchmark_stream(db: &Database, seed: u64, n: usize) -> Vec<Query> {
    let mut cfg =
        ds_query::GeneratorConfig::new(ds_query::workloads::imdb_predicate_columns(db), seed);
    cfg.max_tables = 5;
    cfg.max_predicates = 4;
    let mut generator = ds_query::QueryGenerator::new(db, cfg);
    let mut seen = std::collections::HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let generated = generator.generate();
        if seen.insert(ds_serve::EstimateKey::new("imdb", 0, &generated)) {
            let sql = ds_query::sqlgen::to_sql(db, &generated);
            out.push(ds_query::parser::parse_query(db, &sql).expect("generated SQL parses"));
        }
    }
    out
}

/// A `rows × cols` tensor of cheap deterministic pseudo-random values in
/// `[-0.5, 0.5)` — dense data for kernel timings, where only the shape
/// matters.
pub fn random_tensor(rows: usize, cols: usize, seed: u64) -> ds_nn::tensor::Tensor {
    let mut s = seed | 1;
    let data = (0..rows * cols)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect();
    ds_nn::tensor::Tensor::from_vec(rows, cols, data)
}

/// Width of the table-set input layer at the benchmark's sketch spec:
/// six table one-hots and a 256-bit sample bitmap.
const TABLE_FEATURES: usize = 6 + 256;

/// The left operands of the three MSCN layer shapes the kernel timings
/// use, each as the data its layer sees, 384 rows apiece (a batch of 128
/// three-table queries), as `(name, in_dim, out_dim, dense)`:
///
/// * `input` — table-set elements shaped like the ones the benchmark's
///   training workload featurizes to: one table one-hot, then each of the
///   256 bitmap bits set with probability 168/256 — measured on the 4000
///   training queries, whose table rows average 169 non-zeros of 262
///   (predicates are rare, so most sample rows qualify);
/// * `hidden` and `head` — post-ReLU activations, half of them exact
///   zeros, into 256 hidden units and into the single output unit.
///
/// The dense tensor feeds the reference product; `IndexSet::of_dense`
/// turns it into the index lists the kernel consumes.
pub fn kernel_shapes() -> [(&'static str, usize, usize, ds_nn::tensor::Tensor); 3] {
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    let rows = 384;
    let mut rng = StdRng::seed_from_u64(0xA0);
    let mut tables = ds_nn::tensor::Tensor::zeros(rows, TABLE_FEATURES);
    for r in 0..rows {
        tables.set(r, rng.random_range(0..6), 1.0);
        for bit in 6..TABLE_FEATURES {
            if rng.random_bool(168.0 / 256.0) {
                tables.set(r, bit, 1.0);
            }
        }
    }
    let post_relu = random_tensor(rows, 256, 0xA1).map(|v| v.max(0.0));
    [
        ("input_384x262_x256", TABLE_FEATURES, 256, tables),
        ("hidden_384x256_x256", 256, 256, post_relu.clone()),
        ("head_384x256_x1", 256, 1, post_relu),
    ]
}

/// Builds the standard IMDb sketch ([`paper::standard_sketch_builder`]).
pub fn standard_imdb_sketch(db: &Database) -> ds_core::sketch::DeepSketch {
    println!("training standard sketch (10000 queries, 30 epochs) …");
    paper::standard_sketch_builder(db)
        .build()
        .expect("sketch construction")
}

/// Evaluates an estimator against ground truth over a workload, returning
/// the per-query q-errors. Goes through
/// [`CardinalityEstimator::estimate_batch`], so estimators whose
/// `estimate_into` batches (the Deep Sketch, fleets) answer the whole
/// workload at once.
pub fn qerrors_against_truth(
    estimator: &dyn CardinalityEstimator,
    truths: &[f64],
    workload: &[Query],
) -> Vec<f64> {
    estimator
        .estimate_batch(workload)
        .into_iter()
        .zip(truths)
        .map(|(est, &t)| ds_core::metrics::qerror(est, t))
        .collect()
}

/// Prints an experiment banner.
pub fn banner(id: &str, paper_artifact: &str, claim: &str) {
    println!("\n================================================================");
    println!("{id} — reproduces {paper_artifact}");
    println!("{claim}");
    println!("================================================================");
}

/// Table 1 of the paper, verbatim, for side-by-side printing.
pub const PAPER_TABLE1: &str = "\
             median     90th     95th     99th      max     mean
Deep Sketch    3.82     78.4      362      927     1110     57.9
HyPer          14.6      454     1208     2764     4228      224
PostgreSQL     7.93      164     1104     2912     3477      174";

#[cfg(test)]
mod tests {
    use super::*;
    use ds_est::oracle::TrueCardinalityOracle;

    #[test]
    fn bench_databases_have_expected_shape() {
        let imdb = bench_imdb();
        assert_eq!(imdb.num_tables(), 6);
        assert!(imdb.total_rows() > 50_000, "rows={}", imdb.total_rows());
        let tpch = bench_tpch();
        assert_eq!(tpch.num_tables(), 7);
        assert!(tpch.total_rows() > 30_000);
    }

    #[test]
    fn qerrors_helper_matches_manual_computation() {
        let db = ds_storage::gen::imdb_database(&ds_storage::gen::ImdbConfig::tiny(1));
        let oracle = TrueCardinalityOracle::new(&db);
        let wl = ds_query::workloads::job_light::job_light_workload(&db, 1);
        let truths = paper::truths(&db, &wl).expect("ground truth");
        let qs = qerrors_against_truth(&oracle, &truths, &wl);
        assert!(qs.iter().all(|&q| (q - 1.0).abs() < 1e-12));
    }
}
