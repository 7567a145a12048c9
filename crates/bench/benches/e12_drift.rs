//! **E12 — extension**: sketch staleness and maintenance.
//!
//! §4: "more research is needed to automate the training and utilization
//! of Deep Sketches in query optimizers." This experiment simulates the
//! operational lifecycle: a sketch is trained on one database state, the
//! database evolves (more titles, different era/popularity mix), and we
//! measure (a) how stale the sketch's estimates become, (b) whether the
//! KS-based drift detector fires, and (c) how much of the loss a cheap
//! sample refresh recovers vs a full retrain.
//!
//! Run: `cargo bench -p ds-bench --bench e12_drift`

use ds_bench::drift::{detect_drift, refresh_samples};
use ds_bench::paper::{grade, standard_sketch_builder, truths};
use ds_bench::{banner, bench_imdb, BENCH_SEED};
use ds_core::metrics::QErrorSummary;
use ds_query::workloads::job_light::job_light_workload;
use ds_storage::gen::{imdb_database, ImdbConfig};

fn main() {
    banner(
        "E12 (extension)",
        "§4: automating sketch maintenance",
        "stale sketch vs drift detection vs sample refresh vs retrain",
    );

    // The database at training time…
    let db_v1 = bench_imdb();
    // …and after evolution: 50% more titles with a different seed — new
    // keyword bands dominate, fanouts shift.
    let db_v2 = imdb_database(&ImdbConfig {
        movies: 12_000,
        keywords: 4_000,
        companies: 1_500,
        persons: 20_000,
        seed: BENCH_SEED ^ 0xD41F7,
    });

    println!("\ntraining sketch on v1 ({} rows) …", db_v1.total_rows());
    let sketch_v1 = standard_sketch_builder(&db_v1).build().expect("v1 sketch");

    // Drift check.
    let report = detect_drift(&sketch_v1, &db_v2, BENCH_SEED ^ 0xD);
    let (t, col, _) = report.worst().expect("drift columns");
    println!(
        "\ndrift detector against v2 ({} rows): max KS {:.3} (worst: {}.{} — a key\n\
         column, inflated by growth alone); predicate-column KS {:.3}",
        db_v2.total_rows(),
        report.max_drift,
        db_v2.table(t).name(),
        col,
        report.predicate_drift
    );
    println!(
        "  needs_retraining(0.15) on predicate columns → {}",
        report.needs_retraining(0.15)
    );

    // Evaluate three maintenance strategies on the v2 workload.
    let workload = job_light_workload(&db_v2, BENCH_SEED ^ 4);
    let truths = truths(&db_v2, &workload).expect("ground truth");

    let stale = grade(&sketch_v1, &truths, &workload);

    let refreshed_sketch = refresh_samples(&sketch_v1, &db_v2, BENCH_SEED ^ 0xD2);
    let refreshed = grade(&refreshed_sketch, &truths, &workload);

    println!("\nretraining on v2 …");
    let retrained_sketch = standard_sketch_builder(&db_v2)
        .seed(BENCH_SEED ^ 0xD3)
        .build()
        .expect("v2 sketch");
    let retrained = grade(&retrained_sketch, &truths, &workload);

    println!("\nJOB-light q-errors against the evolved database:");
    println!("{}", QErrorSummary::table_header());
    println!("{}", stale.table_row("stale (v1)"));
    println!("{}", refreshed.table_row("refreshed"));
    println!("{}", retrained.table_row("retrained"));

    println!(
        "\nreading the result: once the detector fires, only retraining restores\n\
         accuracy. Notably, refreshing samples WITHOUT retraining makes things\n\
         worse — the sample bitmaps are part of the learned input distribution,\n\
         so handing a v1-trained model v2 bitmaps shifts its inputs\n\
         off-distribution. Automation should therefore couple the drift signal\n\
         to retraining (cheap here: ~40 s), not to sample refresh alone."
    );
}
