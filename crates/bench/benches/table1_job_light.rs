//! **E1 — Table 1**: estimation errors (q-errors) on the JOB-light workload
//! for the Deep Sketch vs the HyPer-style sampling estimator vs the
//! PostgreSQL-style estimator.
//!
//! Expected shape (the paper's numbers are on the real IMDb and real
//! systems; ours are on the synthetic IMDb): the Deep Sketch's percentiles
//! beat both baselines, with the gap widening toward the tail, because only
//! the learned model captures the injected cross-join correlations.
//!
//! Run: `cargo bench -p ds-bench --bench table1_job_light`

use ds_bench::{
    banner, bench_imdb, print_table1_style, qerrors_against_truth, standard_sketch_builder,
    BENCH_SEED, PAPER_TABLE1,
};
use ds_core::metrics::QErrorSummary;
use ds_est::oracle::TrueCardinalityOracle;
use ds_est::postgres::PostgresEstimator;
use ds_est::sampling::SamplingEstimator;
use ds_query::workloads::imdb_predicate_columns;
use ds_query::workloads::job_light::job_light_workload;

fn main() {
    banner(
        "E1",
        "Table 1 (q-errors on JOB-light)",
        "Deep Sketch vs HyPer-style sampling vs PostgreSQL-style statistics",
    );

    println!("\ngenerating benchmark IMDb …");
    let db = bench_imdb();
    for t in db.tables() {
        println!("  {:<16} {:>8} rows", t.name(), t.num_rows());
    }

    println!("\nbuilding Deep Sketch (10000 training queries, 30 epochs) …");
    let t0 = std::time::Instant::now();
    let (sketch, report) = standard_sketch_builder(&db, imdb_predicate_columns(&db))
        .build_with_report()
        .expect("sketch construction");
    // Cache for the other experiments (E3, E5, E6 reuse this sketch).
    ds_bench::cache_sketch(&ds_bench::standard_sketch_cache_path(&db), &sketch);
    println!(
        "  done in {:.1?} (labels {:.1?}, training {:.1?}); footprint {:.2} MiB; val mean q-error {:.2}",
        t0.elapsed(),
        report.execution,
        report.training.total_duration,
        report.footprint_bytes as f64 / (1024.0 * 1024.0),
        report.training.final_val_qerror().unwrap_or(f64::NAN),
    );

    // Baselines. The sampling estimator gets 100-tuple samples — the same
    // relative coverage class as the paper's 1000 tuples on the 100×-larger
    // real IMDb (and the same budget the sketch's bitmaps use); PostgreSQL
    // gets its default statistics target.
    let hyper = SamplingEstimator::build(&db, 100, BENCH_SEED ^ 3);
    let postgres = PostgresEstimator::build(&db);
    let oracle = TrueCardinalityOracle::new(&db);

    println!("\nevaluating the 70 JOB-light queries …");
    let workload = job_light_workload(&db, BENCH_SEED ^ 4);
    let truths: Vec<f64> = workload
        .iter()
        .map(|q| oracle.cardinality(q).expect("ground truth") as f64)
        .collect();

    let rows = vec![
        (
            "Deep Sketch",
            QErrorSummary::from_qerrors(&qerrors_against_truth(&sketch, &truths, &workload)),
        ),
        (
            "HyPer",
            QErrorSummary::from_qerrors(&qerrors_against_truth(&hyper, &truths, &workload)),
        ),
        (
            "PostgreSQL",
            QErrorSummary::from_qerrors(&qerrors_against_truth(&postgres, &truths, &workload)),
        ),
    ];

    println!("\nestimation errors on the JOB-light workload (70 queries):\n");
    print_table1_style(&rows, Some(PAPER_TABLE1));

    // Extension beyond the paper: CS2-style correlated join sampling —
    // fixes the cross-join fanout correlation but keeps the 0-tuple
    // weakness, isolating what the learned model adds.
    let cs2 = ds_est::joinsample::JoinSamplingEstimator::build(&db, 0.05);
    let cs2_summary = QErrorSummary::from_qerrors(&qerrors_against_truth(&cs2, &truths, &workload));
    let independence = ds_est::independence::IndependenceOracleEstimator::new(&db);
    let ind_summary =
        QErrorSummary::from_qerrors(&qerrors_against_truth(&independence, &truths, &workload));
    println!("\nextensions (not in the paper):");
    println!("  JoinSample  = CS2-style correlated join sampling (5% of hub keys)");
    println!("  Independence = EXACT per-table selectivities + the independence join");
    println!("                 formula — the residual is pure cross-join correlation error");
    println!("{}", cs2_summary.table_row("JoinSample"));
    println!("{}", ind_summary.table_row("Independence"));

    // Shape check: the learned sketch should lead at the median and at the
    // tail, as in the paper.
    let (sk, hy, pg) = (&rows[0].1, &rows[1].1, &rows[2].1);
    println!("\nshape check:");
    println!(
        "  sketch median {:.2} vs best baseline {:.2} → {}",
        sk.median,
        hy.median.min(pg.median),
        verdict(sk.median <= hy.median.min(pg.median))
    );
    println!(
        "  sketch p95 {:.1} vs best baseline {:.1} → {}",
        sk.p95,
        hy.p95.min(pg.p95),
        verdict(sk.p95 <= hy.p95.min(pg.p95))
    );
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "matches the paper"
    } else {
        "DOES NOT match the paper"
    }
}
