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

use ds_bench::paper::{self, Baselines};
use ds_bench::{banner, bench_imdb, BENCH_SEED, PAPER_TABLE1};
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
    let (sketch, report) = paper::standard_sketch_builder(&db)
        .build_with_report()
        .expect("sketch construction");
    println!(
        "  done in {:.1?} (labels {:.1?}, training {:.1?}); footprint {:.2} MiB; val mean q-error {:.2}",
        t0.elapsed(),
        report.execution,
        report.training.total_duration,
        report.footprint_bytes as f64 / (1024.0 * 1024.0),
        report.training.final_val_qerror().unwrap_or(f64::NAN),
    );

    println!("\nevaluating the 70 JOB-light queries …");
    let row = paper::e1_job_light(&db, &Baselines::build(&db), &sketch, BENCH_SEED ^ 4)
        .expect("ground truth");
    println!("\nestimation errors on the JOB-light workload (70 queries):\n");
    row.print_table();
    println!("\npaper reference (real IMDb, HyPer, PostgreSQL 10.3):");
    println!("{PAPER_TABLE1}");

    // Extension beyond the paper: CS2-style correlated join sampling —
    // fixes the cross-join fanout correlation but keeps the 0-tuple
    // weakness, isolating what the learned model adds.
    let workload = job_light_workload(&db, BENCH_SEED ^ 4);
    let truths = paper::truths(&db, &workload).expect("ground truth");
    let cs2 = ds_est::joinsample::JoinSamplingEstimator::build(&db, 0.05);
    let independence = ds_est::independence::IndependenceOracleEstimator::new(&db);
    println!("\nextensions (not in the paper):");
    println!("  JoinSample  = CS2-style correlated join sampling (5% of hub keys)");
    println!("  Independence = EXACT per-table selectivities + the independence join");
    println!("                 formula — the residual is pure cross-join correlation error");
    for (label, est) in [
        ("JoinSample", &cs2 as &dyn ds_est::CardinalityEstimator),
        ("Independence", &independence),
    ] {
        println!("{}", paper::grade(est, &truths, &workload).table_row(label));
    }

    // Shape check: the learned sketch should lead at the median and at the
    // tail, as in the paper.
    let (median, p95) = row.best_baseline();
    println!("\nshape check:");
    println!(
        "  sketch median {:.2} vs best baseline {median:.2} → {}",
        row.sketch.median,
        verdict(row.sketch.median <= median)
    );
    println!(
        "  sketch p95 {:.1} vs best baseline {p95:.1} → {}",
        row.sketch.p95,
        verdict(row.sketch.p95 <= p95)
    );
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "matches the paper"
    } else {
        "DOES NOT match the paper"
    }
}
