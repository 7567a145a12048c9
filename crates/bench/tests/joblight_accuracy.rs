//! The benchmark's sketch grades on JOB-light no worse than recorded: the
//! sketch `benchmark_sketch_builder` trains, its 70 JOB-light q-errors
//! against the true cardinalities, and their median and 95th percentile
//! each within 5 % of the values below (the bound the repository
//! benchmark puts on both rows). A change that moves trained bits on
//! purpose passes here as long as accuracy holds.

use ds_bench::paper::{grade, truths};
use ds_bench::{bench_imdb, benchmark_sketch_builder, BENCH_SEED};
use ds_query::workloads::job_light::job_light_workload;

/// JOB-light median and p95 q-error of the benchmark's sketch, trained
/// with set modules that run each distinct element of a batch once,
/// forward and backward.
const RECORDED_MEDIAN: f64 = 3.225_386_637_898_14;
const RECORDED_P95: f64 = 34.035_957_566_124_41;

/// How far above its recorded value either reading may land.
const BOUND: f64 = 0.05;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "trains the benchmark's sketch: seconds optimized, minutes not; run with --release"
)]
fn the_benchmark_sketch_grades_on_job_light_as_recorded() {
    let db = bench_imdb();
    let sketch = benchmark_sketch_builder(&db).build().expect("sketch build");
    let queries = job_light_workload(&db, BENCH_SEED);
    let truths = truths(&db, &queries).expect("ground truth");
    let summary = grade(&sketch, &truths, &queries);
    println!(
        "JOB-light median {} (recorded {RECORDED_MEDIAN}), p95 {} (recorded {RECORDED_P95})",
        summary.median, summary.p95
    );
    for (name, measured, recorded) in [
        ("median", summary.median, RECORDED_MEDIAN),
        ("p95", summary.p95, RECORDED_P95),
    ] {
        assert!(
            measured <= recorded * (1.0 + BOUND),
            "JOB-light {name} q-error {measured} is more than {BOUND} above {recorded}"
        );
    }
}
