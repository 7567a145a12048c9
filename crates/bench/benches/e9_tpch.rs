//! **E9 — TPC-H support**: the demo "allows users to define Deep Sketches
//! on the TPC-H and IMDb datasets". TPC-H is uniform and independent, so —
//! in contrast to IMDb — the traditional estimators are already accurate
//! and the learned sketch merely has to match them.
//!
//! Run: `cargo bench -p ds-bench --bench e9_tpch`

use ds_bench::paper::{Baselines, Graded};
use ds_bench::{banner, bench_tpch, BENCH_SEED};
use ds_core::builder::SketchBuilder;
use ds_est::postgres::PostgresEstimator;
use ds_est::sampling::SamplingEstimator;
use ds_query::workloads::tpch::tpch_workload;
use ds_query::workloads::tpch_predicate_columns;

fn main() {
    banner(
        "E9",
        "demo scope: TPC-H sketches",
        "on uniform/independent data all estimators are good — the contrast dataset",
    );
    let db = bench_tpch();
    for t in db.tables() {
        println!("  {:<10} {:>8} rows", t.name(), t.num_rows());
    }

    println!("\nbuilding TPC-H Deep Sketch …");
    let (sketch, report) = SketchBuilder::new(&db, tpch_predicate_columns(&db))
        .training_queries(8_000)
        .epochs(25)
        .sample_size(100)
        .hidden_units(96)
        .max_tables(4)
        .max_predicates(4)
        .seed(BENCH_SEED ^ 0xE9)
        .build_with_report()
        .expect("pipeline");
    println!(
        "  trained in {:.1?}; val mean q-error {:.2}",
        report.training.total_duration,
        report.training.final_val_qerror().unwrap_or(f64::NAN)
    );

    let baselines = Baselines {
        hyper: SamplingEstimator::build(&db, 100, BENCH_SEED ^ 0xE9A),
        postgres: PostgresEstimator::build(&db),
    };
    let workload = tpch_workload(&db, BENCH_SEED ^ 0xE9B);
    println!(
        "\nq-errors on the TPC-H workload ({} queries):\n",
        workload.len()
    );
    Graded::new(&db, &baselines, &sketch, &workload)
        .expect("ground truth")
        .print_table();
    println!("\nexpected shape: all three medians close to 1-3 — the IMDb gap");
    println!("(E1) comes from correlations, which TPC-H does not have.");
}
