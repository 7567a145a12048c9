//! Result-size previews on TPC-H — the paper's second deployment idea:
//! "Deep Sketches could be deployed in a web browser or within a cell phone
//! to preview query results", because they are MiB-sized and answer in
//! milliseconds.
//!
//! This example builds a sketch over the synthetic TPC-H subset, serializes
//! it (the artifact a client would download), reloads it *without any
//! database access*, and previews a workload, reporting footprint and
//! per-query latency.
//!
//! Run with: `cargo run --release --example tpch_preview`

use std::time::Instant;

use deep_sketches::prelude::*;
use deep_sketches::query::sqlgen::to_sql;
use deep_sketches::query::workloads::tpch::tpch_workload;

fn main() {
    let db = tpch_database(&TpchConfig::default());
    println!("synthetic TPC-H: {} rows total", db.total_rows());

    println!("building Deep Sketch over TPC-H …");
    let (sketch, report) = SketchBuilder::new(&db, tpch_predicate_columns(&db))
        .training_queries(3_000)
        .epochs(15)
        .sample_size(100)
        .hidden_units(64)
        .max_tables(4)
        .seed(3)
        .build_with_report()
        .expect("sketch construction");
    println!(
        "  trained in {:.2?} (labels: {:.2?}), validation mean q-error {:.2}",
        report.training.total_duration,
        report.execution,
        report.training.final_val_qerror().unwrap_or(f64::NAN)
    );

    // Ship the sketch to the "client": serialize, drop, reload.
    let blob = sketch.to_bytes();
    println!(
        "  sketch blob: {:.2} MiB — small enough for a phone",
        blob.len() as f64 / (1024.0 * 1024.0)
    );
    drop(sketch);
    let client_sketch = DeepSketch::from_bytes(&blob).expect("client-side load");

    // Preview the workload client-side; the oracle is only used here to
    // show how good the previews are.
    let oracle = TrueCardinalityOracle::new(&db);
    let workload = tpch_workload(&db, 5);

    println!(
        "\n{:<58} {:>10} {:>10} {:>7}",
        "query", "true", "preview", "q-err"
    );
    // Time the previews alone — this is what the client experiences.
    let t0 = Instant::now();
    let previews: Vec<f64> = workload.iter().map(|q| client_sketch.estimate(q)).collect();
    let preview_time = t0.elapsed();

    let mut qerrors = Vec::new();
    for (q, &preview) in workload.iter().zip(&previews) {
        let truth = oracle.cardinality(q).expect("ground truth") as f64;
        let qe = qerror(preview, truth);
        qerrors.push(qe);
        let sql = to_sql(&db, q);
        println!(
            "{:<58} {:>10.0} {:>10.0} {:>7.2}",
            ellipsize(&sql, 58),
            truth,
            preview,
            qe
        );
    }

    println!("\n{}", QErrorSummary::table_header());
    println!(
        "{}",
        QErrorSummary::from_qerrors(&qerrors).table_row("TPC-H sketch")
    );
    println!(
        "\npreview latency: {:.3} ms/query ({} queries in {:.2?})",
        preview_time.as_secs_f64() * 1000.0 / workload.len() as f64,
        workload.len(),
        preview_time
    );
}

fn ellipsize(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        let cut: String = s.chars().take(n - 1).collect();
        format!("{cut}…")
    }
}
