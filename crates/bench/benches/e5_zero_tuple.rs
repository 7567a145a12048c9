//! **E5 — §2 0-tuple claim**: "One advantage of our approach over pure
//! sampling-based cardinality estimators is that it addresses 0-tuple
//! situations … sampling-based approaches usually fall back to an
//! 'educated' guess — causing large estimation errors. Our approach, in
//! contrast, handles such situations reasonably well."
//!
//! Generates evaluation queries, splits them into 0-tuple and non-0-tuple
//! subsets (w.r.t. the 100-tuple samples both the sketch and the sampling
//! estimator use), and compares q-errors per subset.
//!
//! Run: `cargo bench -p ds-bench --bench e5_zero_tuple`

use ds_bench::{banner, bench_imdb, qerrors_against_truth, standard_imdb_sketch, BENCH_SEED};
use ds_core::metrics::QErrorSummary;
use ds_est::oracle::TrueCardinalityOracle;
use ds_est::postgres::PostgresEstimator;
use ds_est::sampling::SamplingEstimator;
use ds_est::CardinalityEstimator;
use ds_query::workloads::imdb_predicate_columns;
use ds_query::{GeneratorConfig, QueryGenerator};

fn main() {
    banner(
        "E5",
        "§2 (0-tuple situations)",
        "sampling falls back to an educated guess; the sketch reads static features",
    );
    let db = bench_imdb();
    let sketch = standard_imdb_sketch(&db);
    let hyper = SamplingEstimator::build(&db, 100, BENCH_SEED ^ 3);
    let postgres = PostgresEstimator::build(&db);
    let oracle = TrueCardinalityOracle::new(&db);

    // Evaluation queries from the training distribution (selective
    // equality predicates on big domains make 0-tuple situations common).
    let mut cfg = GeneratorConfig::new(imdb_predicate_columns(&db), BENCH_SEED ^ 0xE5);
    cfg.max_tables = 4;
    cfg.max_predicates = 3;
    let mut generator = QueryGenerator::new(&db, cfg);
    let queries = generator.generate_batch(3_000);

    let (zero, nonzero): (Vec<_>, Vec<_>) =
        queries.into_iter().partition(|q| hyper.is_zero_tuple(q));
    println!(
        "\n{} 0-tuple queries, {} non-0-tuple queries (100-tuple samples)",
        zero.len(),
        nonzero.len()
    );

    for (name, subset) in [
        ("0-TUPLE situations", &zero),
        ("non-0-tuple queries", &nonzero),
    ] {
        let truths: Vec<f64> = subset
            .iter()
            .map(|q| oracle.cardinality(q).expect("ground truth") as f64)
            .collect();
        println!("\nq-errors on {name} ({} queries):", subset.len());
        println!("{}", QErrorSummary::table_header());
        for est in [&sketch as &dyn CardinalityEstimator, &hyper, &postgres] {
            let label = if est.name().starts_with("Deep") {
                "Deep Sketch"
            } else {
                est.name()
            };
            let qs = qerrors_against_truth(est, &truths, subset);
            println!("{}", QErrorSummary::from_qerrors(&qs).table_row(label));
        }
    }

    // Shape check: the sampling estimator's degradation from non-0-tuple
    // to 0-tuple should far exceed the sketch's.
    let q_of = |est: &dyn CardinalityEstimator, subset: &[ds_query::query::Query]| {
        let truths: Vec<f64> = subset
            .iter()
            .map(|q| oracle.cardinality(q).expect("ground truth") as f64)
            .collect();
        QErrorSummary::from_qerrors(&qerrors_against_truth(est, &truths, subset)).median
    };
    let hy_ratio = q_of(&hyper, &zero) / q_of(&hyper, &nonzero);
    let sk_ratio = q_of(&sketch, &zero) / q_of(&sketch, &nonzero);
    println!(
        "\nmedian degradation 0-tuple vs rest: sampling {hy_ratio:.1}×, sketch {sk_ratio:.1}× → {}",
        if hy_ratio > sk_ratio {
            "sketch is more robust in 0-tuple situations, as claimed"
        } else {
            "UNEXPECTED: sampling degraded less than the sketch"
        }
    );
}
