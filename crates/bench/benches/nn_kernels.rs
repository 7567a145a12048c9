//! **NN kernel + pipeline throughput** — the numbers behind the compute
//! backbone: matmul kernel timings at the MSCN-critical shapes, end-to-end
//! training cost at the fig1a configuration (10k queries), batched vs
//! looped serving latency on a JOB-light-style workload, what the frozen
//! artifact's element memo does to one estimate on the repository
//! benchmark's sketch and stream, and what two cores pay for reading one
//! block rather than a copy each.
//!
//! Prints its timings and asserts that every kernel path and both serving
//! paths agree exactly; it gates nothing, and `kernel_properties` holds
//! the kernels' bits.
//!
//! Run: `cargo bench -p ds-bench --bench nn_kernels`

use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

use ds_bench::{
    banner, bench_imdb, benchmark_sketch_builder, benchmark_stream, kernel_shapes, random_tensor,
    BENCH_SEED,
};
use ds_core::builder::SketchBuilder;
use ds_core::DeepSketch;
use ds_nn::frozen::pool_into;
use ds_nn::pool::Team;
use ds_nn::sparse::{Finish, Kernel};
use ds_nn::tensor::{reference, Tensor};
use ds_nn::{FrozenScratch, IndexSet, Linear};
use ds_query::workloads::imdb_predicate_columns;
use ds_query::workloads::job_light::job_light_workload;
use ds_query::Query;

/// Wall-clock seconds of one run of `f`.
fn secs<R>(f: impl FnOnce() -> R) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

/// Median wall-clock seconds of `iters` runs of `f`.
fn median_secs<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    median((0..iters).map(|_| secs(&mut f)).collect())
}

fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// The `len` values of `buf` that start on its first 64-byte boundary, as
/// the frozen artifact's weights do. `buf` needs 64 bytes of slack.
fn line_aligned<T>(buf: &mut [T], len: usize) -> &mut [T] {
    let at = buf.as_ptr().align_offset(64);
    &mut buf[at..at + len]
}

/// ORs every word together: a pure read stream, which the compiler turns
/// into the widest vector loads the CPU has — over 512 KiB starting on a
/// 64-byte boundary (past L1, inside L2 on the reference host's 2 MiB per
/// core; off the boundary every 64-byte load reads two lines and the rate
/// halves), a probe of L2's read bandwidth.
fn or_all(words: &[u64]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        #[target_feature(enable = "avx512f")]
        fn wide(words: &[u64]) -> u64 {
            words.iter().fold(0, |acc, &w| acc | w)
        }
        // SAFETY: AVX-512F support was just verified at runtime.
        return unsafe { wide(words) };
    }
    words.iter().fold(0, |acc, &w| acc | w)
}

/// Median µs per `estimate_one` over the stream, one thread per entry of
/// `sketches` at once, each asking its sketch — a sketch listed twice is
/// shared. Every thread walks `stream` from its own offset, once untimed
/// (filling the memo it reads) and then `rounds` times timed, all threads
/// released together.
fn estimate_us(sketches: &[&DeepSketch], stream: &[Query], rounds: usize) -> f64 {
    let barrier = Barrier::new(sketches.len());
    let per_thread: Vec<Vec<f64>> = std::thread::scope(|s| {
        let workers: Vec<_> = sketches
            .iter()
            .enumerate()
            .map(|(t, &sketch)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let at = t * stream.len() / sketches.len();
                    let walk = || {
                        let (head, tail) = stream.split_at(at);
                        for q in tail.iter().chain(head) {
                            black_box(sketch.estimate_one(q));
                        }
                    };
                    walk();
                    (0..rounds)
                        .map(|_| {
                            barrier.wait();
                            secs(walk) / stream.len() as f64
                        })
                        .collect()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("estimating thread"))
            .collect()
    });
    median(per_thread.concat()) * 1e6
}

/// Median GB/s one thread reads, one thread per entry of `blocks` at once,
/// each streaming its block `passes` times with [`or_all`] — a block
/// listed twice is read by both.
fn read_gbps(blocks: &[&[u64]], passes: usize) -> f64 {
    let barrier = Barrier::new(blocks.len());
    let times: Vec<f64> = std::thread::scope(|s| {
        let readers: Vec<_> = blocks
            .iter()
            .map(|&block| {
                let barrier = &barrier;
                s.spawn(move || {
                    black_box(or_all(block));
                    barrier.wait();
                    secs(|| (0..passes).map(|_| or_all(black_box(block))).sum::<u64>())
                })
            })
            .collect();
        readers
            .into_iter()
            .map(|r| r.join().expect("reading thread"))
            .collect()
    });
    let bytes = (blocks[0].len() * 8 * passes) as f64;
    bytes / median(times) / 1e9
}

fn main() {
    banner(
        "NN",
        "kernel + pipeline throughput",
        "tiled kernel at MSCN shapes; fig1a training cost; batched serving",
    );

    // --- (1) the kernel at three MSCN layer shapes -----------------------
    // Each on the data its layer sees, as index lists: every instruction-set
    // variant of the kernel this host has, on one lane, against the naive
    // reference product. `team(L)` is a layer's forward on a team of the
    // host's L lanes: the rows cut by entries, one range per lane (shapes
    // below the kernel's fork threshold run whole); `speedup` is the
    // reference over the kernel `sparse_rows` dispatches to.
    let lanes = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernels: Vec<Kernel> = Kernel::ALL
        .into_iter()
        .filter(|k| k.is_available())
        .collect();
    println!(
        "\n[1] kernel medians (seconds); `sparse_rows` dispatches to {:?} at width 256, {:?} at width 1:",
        Kernel::dispatched(256),
        Kernel::dispatched(1)
    );
    print!("  {:<22} {:>12}", "shape", "reference");
    for kernel in &kernels {
        print!(" {:>12}", format!("{kernel:?}"));
    }
    println!(" {:>12} {:>8}", format!("team({lanes})"), "speedup");
    let iters = 30;
    for (name, k, n, dense) in kernel_shapes() {
        let layer = Linear::from_params(random_tensor(k, n, 0xB0 ^ n as u64), vec![0.0; n]);
        let rows = IndexSet::of_dense(dense.data(), dense.cols());
        let want = reference::matmul(&dense, layer.weights());
        let t_ref = median_secs(iters, || reference::matmul(&dense, layer.weights()));
        print!("  {name:<22} {t_ref:>12.6}");
        let mut t_dispatched = f64::NAN;
        for &kernel in &kernels {
            let (w, finish) = (layer.weights().data(), Finish::Store);
            let mut y = vec![f32::NAN; want.data().len()];
            let t = median_secs(iters, || kernel.run(w, n, rows.rows(), finish, &mut y));
            // Sanity: every kernel must agree with the reference exactly.
            assert_eq!(want.data(), &y[..], "{kernel:?} diverged at {name}");
            if kernel == Kernel::dispatched(n) {
                t_dispatched = t;
            }
            print!(" {t:>12.6}");
        }
        let mut out = Tensor::zeros(0, 0);
        let t_team = Team::run(lanes, |team| {
            median_secs(iters, || {
                layer.forward_rows(rows.rows(), false, team, &mut out)
            })
        });
        // The bias is zero, so the layer's forward is the plain product.
        assert_eq!(want.data(), out.data(), "team diverged at {name}");
        println!(" {t_team:>12.6} {:>7.2}x", t_ref / t_dispatched);
    }

    // The output MLP's first layer on one query, the product a cold
    // `estimate_one` spends most on: the pooled input is 3·hidden wide and
    // ≈ 55 % non-zero (≈ 420 of 768 at hidden 256, the benchmark stream's
    // median), and each non-zero reads one weight row of `hidden` floats.
    // Repeated, those rows stay in L2 (hot, as between a stream's
    // estimates; at hidden 64 they fit in L1), so the rate to hold them
    // against is L2's read bandwidth — a sequential read's, measured
    // between the kernels' runs so that all of them share the host's mood.
    // (The arithmetic caps the kernel near the same rate: a separate
    // multiply and add for every 64 bytes, two vector operations a cycle.)
    // The weights start on a 64-byte boundary, as the frozen artifact's do.
    println!(
        "  batch of one, output layer (pooled rows ≈ 55 % non-zero), µs, GB/s of weight rows read, share of L2 read bandwidth:"
    );
    let mut words = vec![0u64; (1 << 16) + 8];
    let words = line_aligned(&mut words, 1 << 16);
    for hidden in [64usize, 128, 256] {
        let (k, nnz) = (3 * hidden, 420 * hidden / 256);
        let mut buf = vec![0.0f32; k * hidden + 16];
        let w = line_aligned(&mut buf, k * hidden);
        w.copy_from_slice(random_tensor(k, hidden, 0xC0 ^ hidden as u64).data());
        let mut pooled = IndexSet::default();
        let elem = pooled.begin_elem();
        for p in 0..k {
            // Every (k / nnz)-th input on average, spread by a fixed hash.
            if (p * 2654435761) % k < nnz {
                pooled.push(p as u32, 0.01 + (p % 7) as f32 * 0.1);
            }
        }
        pooled.finish_elem(elem);
        let bytes = (pooled.entries.len() * hidden * 4) as f64;
        print!(
            "    {:<18}",
            format!("{} of {k} → {hidden}", pooled.entries.len())
        );
        // Every kernel and the L2 probe once per round, rounds repeated.
        let finish = Finish::Store;
        let mut y = vec![0.0f32; hidden];
        let reps = 200;
        let mut times = vec![Vec::new(); kernels.len()];
        let mut l2_times = Vec::new();
        for _ in 0..iters {
            for (kernel, times) in kernels.iter().zip(&mut times) {
                times.push(
                    secs(|| {
                        for _ in 0..reps {
                            kernel.run(w, hidden, pooled.rows(), finish, black_box(&mut y));
                        }
                    }) / reps as f64,
                );
            }
            // One pass to bring the buffer back into L2 after the kernels,
            // then the timed ones.
            black_box(or_all(words));
            l2_times.push(secs(|| (0..4).map(|_| or_all(black_box(words))).sum::<u64>()) / 4.0);
        }
        let l2_gbps = (words.len() * 8) as f64 / median(l2_times) / 1e9;
        for (kernel, times) in kernels.iter().zip(times) {
            let t = median(times);
            let gbps = bytes / t / 1e9;
            print!(
                "  {kernel:?} {:>5.2} µs {gbps:>5.1} GB/s {:>3.0} %",
                t * 1e6,
                100.0 * gbps / l2_gbps
            );
        }
        println!("  (L2 {l2_gbps:.1} GB/s)");
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
    let median_us = |times: Vec<f64>| median(times) * 1e6;
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
        sketch.freeze();
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
    sketch.freeze();
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
    sketch.freeze();
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
    // What the stream asks of any memo: each distinct element misses once
    // however large the memo is (compulsory misses); every other miss is
    // an element the memo held and had to give up (capacity misses).
    let mut feats = ds_core::featurize::ServedFeatures::default();
    let mut tables = IndexSet::default();
    let mut distinct = HashSet::new();
    for q in &stream {
        feats.clear();
        tables.clear();
        sketch
            .featurizer()
            .append_indices(q, sketch.samples(), &mut feats);
        for r in 0..feats.tables.len() {
            feats.tables.expand_into(r, &mut tables);
        }
        for (module, set) in [&tables, &feats.joins, &feats.preds]
            .into_iter()
            .enumerate()
        {
            for &(start, len) in &set.elems {
                let entries = &set.entries[start as usize..(start + len) as usize];
                let key: Vec<(u32, u32)> = entries.iter().map(|&(i, v)| (i, v.to_bits())).collect();
                distinct.insert((module, key));
            }
        }
    }
    let distinct = distinct.len() as u64;
    println!(
        "  stream misses: {distinct} distinct elements (compulsory), {} capacity",
        memo.misses - distinct
    );
    println!(
        "  memo resident after the stream: {} B in {} elements, {:.0} B each",
        memo.resident_bytes,
        memo.entries,
        memo.resident_bytes as f64 / memo.entries.max(1) as f64
    );

    // The glue between the kernels, per estimate, on the rows the
    // stream's first queries give: the compress of the pooled row (width
    // 3·hidden) and of the output MLP's hidden row (width hidden), pooling
    // each element's row into its set's sum, and the memo's lookup pass
    // over the three sets with the memo holding them. A forward pass does
    // the first three on rows it has just written, so they are timed on
    // rows in cache: eight queries' rows at a time, once untimed and once
    // timed. Each codec this CPU has (AVX2 has no compress and runs the
    // portable loop), interleaved round by round. Last, what featurizes
    // those queries ahead of all of it (`append_indices`, every sample
    // bitmap on the AVX-512 compares or the portable oracle), in one run
    // over them, the samples staying in cache as they do when serving.
    let artifact = sketch.artifact();
    let h = artifact.hidden();
    let glue_queries = 2048;
    let mut scratch = FrozenScratch::new();
    let (mut served, mut pooled, mut hidden, mut elements) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for q in &stream[..glue_queries] {
        feats.clear();
        sketch
            .featurizer()
            .append_indices(q, sketch.samples(), &mut feats);
        let counts = [[
            feats.tables.len() as u32,
            feats.joins.elems.len() as u32,
            feats.preds.elems.len() as u32,
        ]];
        let mut y = [0.0f32];
        artifact.forward_batch(
            &feats.tables,
            &feats.joins,
            &feats.preds,
            &counts,
            &mut scratch,
            &mut y,
        );
        pooled.extend_from_slice(scratch.pooled());
        hidden.extend_from_slice(scratch.hidden_rows());
        elements.push(counts[0]);
        served.push(feats.clone());
    }
    let glue_kernels: Vec<Kernel> = [Kernel::Avx512, Kernel::Portable]
        .into_iter()
        .filter(|k| k.is_available())
        .collect();
    // Seconds of the second of two runs of `f` over each block of eight
    // queries, summed, as µs per query.
    let warm_us = |f: &mut dyn FnMut(std::ops::Range<usize>)| {
        let mut total = 0.0;
        for at in (0..glue_queries).step_by(8) {
            f(at..at + 8);
            total += secs(|| f(at..at + 8));
        }
        total / glue_queries as f64 * 1e6
    };
    let glue = [
        "compress, width 768 (pooled)",
        "compress, width 256 (hidden)",
        "pooling",
        "lookup pass",
        "append_indices (featurize)",
    ];
    let mut times = vec![vec![Vec::new(); glue_kernels.len()]; glue.len()];
    let mut set = IndexSet::default();
    let mut sum = vec![0.0f32; h];
    let most = elements.iter().flatten().max().map_or(0, |&n| n as usize);
    let element_rows: Vec<f32> = hidden.iter().copied().cycle().take(most * h).collect();
    let mut found = 0;
    for _ in 0..15 {
        for (k, &kernel) in glue_kernels.iter().enumerate() {
            times[0][k].push(warm_us(&mut |qs| {
                for row in pooled[qs.start * 3 * h..qs.end * 3 * h].chunks_exact(3 * h) {
                    set.compress_rows_on(kernel, black_box(row), 3 * h);
                }
            }));
            times[1][k].push(warm_us(&mut |qs| {
                for row in hidden[qs.start * h..qs.end * h].chunks_exact(h) {
                    set.compress_rows_on(kernel, black_box(row), h);
                }
            }));
            // Each of a query's sets into its sum, the rows standing in for
            // its elements' embeddings the first ones of `element_rows`.
            times[2][k].push(warm_us(&mut |qs| {
                for counts in &elements[qs] {
                    for &n in counts {
                        sum.fill(0.0);
                        let rows = &element_rows[..n as usize * h];
                        pool_into(kernel, black_box(&mut sum), rows, 0.25);
                    }
                }
            }));
            // The memo's ring is not in cache between estimates: one run.
            times[3][k].push(
                secs(|| {
                    found = served
                        .iter()
                        .map(|f| {
                            artifact.look_up_on(kernel, &f.tables, &f.joins, &f.preds, &mut scratch)
                        })
                        .sum::<usize>();
                }) / glue_queries as f64
                    * 1e6,
            );
            let bitmaps = match kernel {
                Kernel::Avx512 => ds_storage::bitmap::Kernel::Avx512,
                _ => ds_storage::bitmap::Kernel::Portable,
            };
            let featurizer = sketch.featurizer();
            times[4][k].push(
                secs(|| {
                    for q in &stream[..glue_queries] {
                        feats.clear();
                        featurizer.append_indices_on(bitmaps, q, sketch.samples(), &mut feats);
                    }
                }) / glue_queries as f64
                    * 1e6,
            );
        }
    }
    let held = 100.0 * found as f64 / elements.iter().flatten().sum::<u32>() as f64;
    println!(
        "  glue, µs per estimate over {glue_queries} queries ({held:.1} % of the lookups held):"
    );
    for (name, times) in glue.iter().zip(times) {
        print!("    {name:<32}");
        for (kernel, times) in glue_kernels.iter().zip(times) {
            print!("  {kernel:?} {:>6.3}", median(times));
        }
        println!();
    }

    // --- (5) two cores, one block or a copy each -------------------------
    // The host property the artifact's per-core copies of its output layer
    // rest on (DESIGN.md, "The artifact's copies"): `estimate_one` over the
    // stream on one thread, on two threads sharing the sketch (and so its
    // weights, but for the output layer's per-core copies, and its memo),
    // and on two threads each with a clone of it (nothing shared); then a
    // raw read probe, two threads streaming one 64-byte-aligned block
    // against two copies of it, from inside L2 to past it. Threads are not
    // pinned: the OS places them, as it places a server's handlers.
    println!("\n[5] two cores, one block or a copy each ({lanes} lanes):");
    sketch.freeze();
    let copy = sketch.clone();
    let one = estimate_us(&[&sketch], &stream, 3);
    let held = sketch.memo_stats().contended;
    let shared = estimate_us(&[&sketch, &sketch], &stream, 3);
    let held = sketch.memo_stats().contended - held;
    let private = estimate_us(&[&sketch, &copy], &stream, 3);
    println!(
        "  estimate_one, µs per estimate per thread: one thread {one:.2}, two on one sketch {shared:.2}, two on two clones {private:.2}"
    );
    let estimates = 2 * 4 * stream.len();
    println!(
        "  two on one sketch: the memo's lock found held {held} times in {estimates} estimates, {:.4} per estimate",
        held as f64 / estimates as f64
    );
    println!("  read probe, GB/s per thread (two threads):");
    for kib in [256usize, 512, 1024, 2048] {
        let len = kib * 1024 / 8;
        let (mut a, mut b) = (vec![0u64; len + 8], vec![0u64; len + 8]);
        let (a, b) = (line_aligned(&mut a, len), line_aligned(&mut b, len));
        a.iter_mut().enumerate().for_each(|(i, w)| *w = i as u64);
        b.copy_from_slice(a);
        let (a, b) = (&*a, &*b);
        // 1 GiB read per thread per timing; shared and private alternate.
        let passes = (1 << 30) / (kib * 1024);
        let (mut one_block, mut two_copies) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            one_block.push(read_gbps(&[a, a], passes));
            two_copies.push(read_gbps(&[a, b], passes));
        }
        let (one_block, two_copies) = (median(one_block), median(two_copies));
        println!(
            "    {kib:>5} KiB  one block {one_block:>6.1}  two copies {two_copies:>6.1}  ({:+.0} %)",
            100.0 * (two_copies / one_block - 1.0)
        );
    }
}
