//! **E6 — §1/§4 deployment claims**: "Deep Sketches feature a small
//! footprint size (a few MiBs) and are fast to query (within
//! milliseconds)", enabling client-side result-size previews.
//!
//! Measures the serialized size of sketches across sample sizes and the
//! end-to-end estimation latency (featurize → forward → denormalize) for
//! single queries and batches.
//!
//! Run: `cargo bench -p ds-bench --bench e6_footprint_latency`

use std::time::Instant;

use ds_bench::{banner, bench_imdb, standard_imdb_sketch, BENCH_SEED};
use ds_core::builder::SketchBuilder;
use ds_query::workloads::imdb_predicate_columns;
use ds_query::workloads::job_light::job_light_workload;

fn main() {
    banner(
        "E6",
        "§1/§4 (footprint and latency)",
        "sketches are MiB-scale artifacts answering within milliseconds",
    );
    let db = bench_imdb();

    // --- footprint across sample sizes -----------------------------------
    println!("\n[1] serialized footprint vs sample size (hidden 96):");
    println!(
        "  {:>12} {:>14} {:>14} {:>12}",
        "sample size", "total bytes", "model params", "MiB"
    );
    for &n in &[50usize, 100, 500, 1000] {
        let sketch = SketchBuilder::new(&db, imdb_predicate_columns(&db))
            .training_queries(500) // footprint is training-independent
            .epochs(1)
            .sample_size(n)
            .hidden_units(96)
            .seed(BENCH_SEED ^ n as u64)
            .build()
            .expect("pipeline");
        let bytes = sketch.footprint_bytes();
        println!(
            "  {:>12} {:>14} {:>14} {:>12.3}",
            n,
            bytes,
            sketch.info().model_params,
            bytes as f64 / (1024.0 * 1024.0)
        );
    }
    println!("  (the paper's full-size sketches on the real IMDb are 'a few MiBs')");

    // --- estimation latency ----------------------------------------------
    println!("\n[2] estimation latency of the standard sketch:");
    let sketch = standard_imdb_sketch(&db);
    let workload = job_light_workload(&db, BENCH_SEED ^ 4);

    // Warm up, then measure single-query latency over many repetitions.
    for q in workload.iter().take(5) {
        let _ = sketch.estimate_one(q);
    }
    let reps = 20;
    let t0 = Instant::now();
    let mut sink = 0.0;
    for _ in 0..reps {
        for q in &workload {
            sink += sketch.estimate_one(q);
        }
    }
    let single = t0.elapsed().as_secs_f64() / (reps * workload.len()) as f64;

    let t1 = Instant::now();
    for _ in 0..reps {
        sink += sketch.estimate_batch(&workload).iter().sum::<f64>();
    }
    let batched = t1.elapsed().as_secs_f64() / (reps * workload.len()) as f64;

    println!("  single-query : {:>9.3} ms/query", single * 1e3);
    println!("  batched (70) : {:>9.3} ms/query", batched * 1e3);
    let ms = single * 1e3;
    println!(
        "  → {} (paper claim: within milliseconds)",
        if ms < 1.0 {
            "sub-millisecond"
        } else if ms < 10.0 {
            "within milliseconds"
        } else {
            "SLOWER than the paper's claim"
        }
    );
    std::hint::black_box(sink);
}
