//! **E8 — ablation of the design choices §2 calls out**: the integration of
//! runtime sampling ("we featurize information about qualifying base table
//! samples … bitmaps are then used as an additional input") and the sample
//! size itself.
//!
//! Trains otherwise-identical models (a) with and without bitmap features
//! and (b) across sample sizes, and evaluates all of them on JOB-light.
//!
//! Run: `cargo bench -p ds-bench --bench e8_ablation_bitmaps`

use ds_bench::paper::{grade, standard_sketch_builder, truths};
use ds_bench::{banner, bench_imdb, BENCH_SEED};
use ds_core::metrics::QErrorSummary;
use ds_query::workloads::job_light::job_light_workload;

fn main() {
    banner(
        "E8",
        "§2 design ablation (sample bitmaps; sample size)",
        "bitmaps are the sampling signal — removing them must hurt",
    );
    let db = bench_imdb();
    let workload = job_light_workload(&db, BENCH_SEED ^ 4);
    let truths = truths(&db, &workload).expect("ground truth");

    // Reduced-but-fair training budget per variant keeps the ablation fast.
    let graded = |use_bitmaps: bool, sample_size: usize| {
        let sketch = standard_sketch_builder(&db)
            .training_queries(6_000)
            .epochs(20)
            .sample_size(sample_size)
            .use_bitmaps(use_bitmaps)
            .seed(BENCH_SEED ^ 0xE8)
            .build()
            .expect("pipeline");
        grade(&sketch, &truths, &workload)
    };

    println!("\n[1] with vs without sample-bitmap features (sample size 100):");
    println!("{}", QErrorSummary::table_header());
    for (label, on) in [("with bitmaps", true), ("no bitmaps", false)] {
        println!("{}", graded(on, 100).table_row(label));
    }

    println!("\n[2] sample-size sweep (bitmaps on):");
    println!("{}", QErrorSummary::table_header());
    for &n in &[25usize, 50, 100, 200] {
        println!("{}", graded(true, n).table_row(&format!("{n} samples")));
    }
    println!("\nexpected shape: bitmaps help across the board; accuracy improves");
    println!("with sample size and saturates once rare predicates are covered.");
}
