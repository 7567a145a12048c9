//! **NN kernel + pipeline throughput** — the numbers behind the compute
//! backbone: matmul kernel timings at the MSCN-critical shapes, end-to-end
//! training cost at the fig1a configuration (10k queries), batched vs
//! looped serving latency on a JOB-light-style workload, and what the
//! frozen artifact's element memo does to one estimate on the repository
//! benchmark's sketch and stream.
//!
//! Prints its timings and asserts that every kernel path and both serving
//! paths agree exactly; the committed, gated record of the same shapes is
//! `bench_harness` stage 1 (`BENCH_quick.json`).
//!
//! Run: `cargo bench -p ds-bench --bench nn_kernels`

use std::hint::black_box;
use std::time::Instant;

use ds_bench::{
    banner, bench_imdb, benchmark_sketch_builder, benchmark_stream, kernel_shapes, random_tensor,
    BENCH_SEED,
};
use ds_core::builder::SketchBuilder;
use ds_core::QuantMode;
use ds_nn::pool::Team;
use ds_nn::tensor::{reference, Tensor};
use ds_nn::{IndexSet, Linear};
use ds_query::workloads::imdb_predicate_columns;
use ds_query::workloads::job_light::job_light_workload;

/// Wall-clock seconds of one run of `f`.
fn secs<R>(f: impl FnOnce() -> R) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

/// Median wall-clock seconds of `iters` runs of `f`.
fn median_secs<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut times: Vec<f64> = (0..iters).map(|_| secs(&mut f)).collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

fn main() {
    banner(
        "NN",
        "kernel + pipeline throughput",
        "tiled kernel at MSCN shapes; fig1a training cost; batched serving",
    );

    // --- (1) the kernel at three MSCN layer shapes -----------------------
    // Each on the data its layer sees, as index lists: a layer's forward
    // against the naive reference product.
    // `team(L)` is the same call on a team of the host's L lanes: the rows
    // cut by entries, one range per lane (shapes below the kernel's fork
    // threshold run whole).
    let lanes = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("\n[1] kernel medians (seconds):");
    println!(
        "  {:<22} {:>12} {:>12} {:>12} {:>8}",
        "shape",
        "reference",
        "tiled",
        format!("team({lanes})"),
        "speedup"
    );
    let iters = 30;
    for (name, k, n, dense) in kernel_shapes() {
        let layer = Linear::from_params(random_tensor(k, n, 0xB0 ^ n as u64), vec![0.0; n]);
        let rows = IndexSet::of_dense(dense.data(), dense.cols());
        let mut out = Tensor::zeros(0, 0);
        let mut forward = |lanes| {
            Team::run(lanes, |team| {
                median_secs(iters, || {
                    layer.forward_rows(rows.rows(), false, team, &mut out)
                })
            })
        };
        let (t_tiled, t_thr) = (forward(1), forward(lanes));
        let t_ref = median_secs(iters, || reference::matmul(&dense, layer.weights()));
        // Sanity: all paths must agree exactly (the bias is zero).
        assert_eq!(
            reference::matmul(&dense, layer.weights()).data(),
            out.data(),
            "kernel paths diverged at {name}"
        );
        let speedup = t_ref / t_tiled;
        println!("  {name:<22} {t_ref:>12.6} {t_tiled:>12.6} {t_thr:>12.6} {speedup:>7.2}x");
    }

    // --- (2) fig1a training cost at 10k queries -------------------------
    // Once on one lane, once as the builder does it when nobody calls
    // `.threads()`: training on the host's lanes, everything else as before.
    println!("\n[2] fig1a pipeline at 10k queries / 30 epochs:");
    let db = bench_imdb();
    let cols = imdb_predicate_columns(&db);
    let fig1a = || {
        SketchBuilder::new(&db, cols.clone())
            .training_queries(10_000)
            .epochs(30)
            .sample_size(100)
            .hidden_units(96)
            .max_tables(5)
            .max_predicates(4)
            .seed(BENCH_SEED ^ 2)
    };
    let (one_lane, one_report) = fig1a().threads(1).build_with_report().expect("pipeline");
    let (sketch, report) = fig1a().build_with_report().expect("pipeline");
    assert_eq!(
        one_lane.to_bytes(),
        sketch.to_bytes(),
        "lanes changed a trained byte"
    );
    let train_secs = report.training.total_duration.as_secs_f64();
    let exec_secs = report.execution.as_secs_f64();
    println!("  execute (labels) : {exec_secs:>10.2}s");
    println!(
        "  featurize+train  : {:>10.2}s on one lane",
        one_report.training.total_duration.as_secs_f64()
    );
    println!("  featurize+train  : {train_secs:>10.2}s on {lanes} lanes (the default)");
    println!(
        "  final val q-error: {:>10.2}",
        report.training.final_val_qerror().unwrap_or(f64::NAN)
    );

    // --- (3) batched vs looped serving on 1k JOB-light queries ----------
    println!("\n[3] serving 1000 JOB-light queries:");
    let base = job_light_workload(&db, 4);
    let queries: Vec<_> = base.iter().cycle().take(1000).cloned().collect();
    let looped_secs = median_secs(3, || {
        queries
            .iter()
            .map(|q| sketch.estimate_one(q))
            .collect::<Vec<f64>>()
    });
    let batch_secs = median_secs(3, || sketch.estimate_batch(&queries));
    // Sanity: both paths must agree exactly.
    let a = queries
        .iter()
        .map(|q| sketch.estimate_one(q))
        .collect::<Vec<f64>>();
    let b = sketch.estimate_batch(&queries);
    assert_eq!(a, b, "batched serving must match looped serving exactly");
    let speedup = looped_secs / batch_secs;
    println!("  looped estimate_one: {looped_secs:>10.4}s");
    println!("  estimate_batch     : {batch_secs:>10.4}s  ({speedup:.2}x)");

    // --- (4) the element memo, on the benchmark's sketch and stream ------
    // What one estimate (featurization included) costs when no set element
    // is in the memo, when all are, and over the stream as the benchmark's
    // `sketch_build` workload runs it. A lookup happens before any insert
    // of the same call, so the first batch an artifact serves misses on
    // every element, repeats included, and streams the weights once — the
    // shape the parent commit's `core.estimate_batch64_us_per_query` has.
    println!("\n[4] element memo, benchmark sketch (hidden 256, sample 256), µs per estimate:");
    let mut sketch = benchmark_sketch_builder(&db).build().expect("pipeline");
    let stream = benchmark_stream(&db, 1, 16_384);
    let median_us = |mut times: Vec<f64>| {
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        times[times.len() / 2] * 1e6
    };
    let row = |name: &str, us: f64, memo: ds_core::MemoStats| {
        let share = 100.0 * memo.hits as f64 / (memo.hits + memo.misses) as f64;
        println!(
            "  {name:<42} {us:>7.2}   {:>6} hits {:>6} misses ({share:.1} %)",
            memo.hits, memo.misses
        );
    };
    let mut cold = Vec::new();
    let mut cold_memo = ds_core::MemoStats::default();
    for chunk in stream.chunks_exact(64).take(32) {
        sketch.freeze(QuantMode::F32);
        cold.push(secs(|| sketch.estimate_batch(chunk)) / 64.0);
        let memo = sketch.memo_stats();
        (cold_memo.hits, cold_memo.misses) =
            (cold_memo.hits + memo.hits, cold_memo.misses + memo.misses);
    }
    assert_eq!(cold_memo.hits, 0, "a fresh artifact has nothing to hit");
    row(
        "all-miss (a fresh artifact's first batch of 64)",
        median_us(cold),
        cold_memo,
    );

    // All-hit: the query just answered, asked again.
    sketch.freeze(QuantMode::F32);
    let mut warm = Vec::new();
    let mut warm_memo = ds_core::MemoStats::default();
    for q in &stream[..2048] {
        sketch.estimate_one(q);
        let primed = sketch.memo_stats();
        warm.push(secs(|| sketch.estimate_one(q)));
        let memo = sketch.memo_stats();
        (warm_memo.hits, warm_memo.misses) = (
            warm_memo.hits + memo.hits - primed.hits,
            warm_memo.misses + memo.misses - primed.misses,
        );
    }
    row(
        "all-hit  (the query just answered, again)",
        median_us(warm),
        warm_memo,
    );

    // The stream in order from an empty memo, one `estimate_one` each.
    sketch.freeze(QuantMode::F32);
    let times = stream
        .iter()
        .map(|q| secs(|| sketch.estimate_one(q)))
        .collect();
    let memo = sketch.memo_stats();
    row(
        "benchmark stream (16 384 distinct, singles)",
        median_us(times),
        memo,
    );
    println!(
        "  memo resident after the stream: {} B",
        memo.resident_bytes
    );
}
