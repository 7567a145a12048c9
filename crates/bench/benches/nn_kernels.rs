//! **NN kernel + pipeline throughput** — the numbers behind the compute
//! backbone: matmul kernel timings at the MSCN-critical shapes, end-to-end
//! training cost at the fig1a configuration (10k queries), and batched vs
//! looped serving latency on a JOB-light-style workload.
//!
//! Prints its timings and asserts that every kernel path and both serving
//! paths agree exactly; the committed, gated record of the same shapes is
//! `bench_harness` stage 1 (`BENCH_quick.json`).
//!
//! Run: `cargo bench -p ds-bench --bench nn_kernels`

use std::hint::black_box;
use std::time::Instant;

use ds_bench::{banner, bench_imdb, kernel_shapes, random_tensor, BENCH_SEED};
use ds_core::builder::SketchBuilder;
use ds_nn::pool::PoolConfig;
use ds_nn::tensor::{reference, Tensor};
use ds_nn::{IndexSet, Linear};
use ds_query::workloads::imdb_predicate_columns;
use ds_query::workloads::job_light::job_light_workload;

/// Median wall-clock seconds of `iters` runs of `f`.
fn median_secs<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut times = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        black_box(f());
        times.push(t.elapsed().as_secs_f64());
    }
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
    println!("\n[1] kernel medians (seconds):");
    println!(
        "  {:<22} {:>12} {:>12} {:>12} {:>8}",
        "shape", "reference", "tiled", "threaded(4)", "speedup"
    );
    let iters = 30;
    for (name, k, n, dense) in kernel_shapes() {
        let layer = Linear::from_params(random_tensor(k, n, 0xB0 ^ n as u64), vec![0.0; n]);
        let rows = IndexSet::of_dense(dense.data(), dense.cols());
        let mut out = Tensor::zeros(0, 0);
        let mut forward = |threads| {
            median_secs(iters, || {
                layer.forward_rows(rows.rows(), false, PoolConfig::new(threads), &mut out)
            })
        };
        let (t_tiled, t_thr) = (forward(1), forward(4));
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
    println!("\n[2] fig1a pipeline at 10k queries / 30 epochs:");
    let db = bench_imdb();
    let cols = imdb_predicate_columns(&db);
    let (sketch, report) = SketchBuilder::new(&db, cols.clone())
        .training_queries(10_000)
        .epochs(30)
        .sample_size(100)
        .hidden_units(96)
        .max_tables(5)
        .max_predicates(4)
        .seed(BENCH_SEED ^ 2)
        .build_with_report()
        .expect("pipeline");
    let train_secs = report.training.total_duration.as_secs_f64();
    let exec_secs = report.execution.as_secs_f64();
    println!("  execute (labels) : {exec_secs:>10.2}s");
    println!("  featurize+train  : {train_secs:>10.2}s");
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
}
