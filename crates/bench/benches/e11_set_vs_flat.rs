//! **E11 — §2 design-claim ablation**: set semantics vs a flat query
//! vector.
//!
//! §2: "another differentiating factor from other learning-based
//! approaches to cardinality estimation is the use of a model that employs
//! set semantics, inspired by recent work on Deep Sets". This experiment
//! trains the MSCN and a flat-vector MLP (same vocabulary, same bitmaps,
//! same q-error objective, same data, comparable parameter budget) and
//! evaluates both on JOB-light.
//!
//! Run: `cargo bench -p ds-bench --bench e11_set_vs_flat`

use ds_bench::paper;
use ds_bench::{banner, bench_imdb};
use ds_core::metrics::QErrorSummary;

fn main() {
    banner(
        "E11",
        "§2 design claim (set semantics via Deep Sets)",
        "MSCN vs a flat-vector MLP on identical data, features, and objective",
    );
    let db = bench_imdb();
    let row = paper::e11_set_vs_flat(&db, paper::STANDARD_BUILD_SEED).expect("pipeline");
    println!("\ntraining MSCN (set model) …");
    println!("  {} parameters", row.mscn_params);
    println!(
        "training flat MLP ({} input dims, {} parameters) …",
        row.flat_dims, row.flat_params
    );

    println!("\nq-errors on JOB-light:");
    println!("{}", QErrorSummary::table_header());
    println!("{}", row.mscn.table_row("MSCN (sets)"));
    println!("{}", row.flat.table_row("flat MLP"));
    println!(
        "\nshape check: MSCN mean {:.2} vs flat {:.2} → {}",
        row.mscn.mean,
        row.flat.mean,
        if row.holds() {
            "set semantics help, as §2 claims"
        } else {
            "flat model unexpectedly ahead on this run"
        }
    );
}
