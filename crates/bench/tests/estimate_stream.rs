//! The repository benchmark's estimate stream answers to the last bit what
//! the memo-less artifact answers: the benchmark's sketch, its 16 384
//! queries of seed 1, one `estimate_one` each, hashed.

use ds_bench::{bench_imdb, benchmark_sketch_builder, benchmark_stream};
use ds_core::sketch::DeepSketch;
use ds_nn::frozen::MEMO_MAX_BYTES;
use ds_query::query::Query;

/// FNV-1a-64 over the little-endian bits of the 16 384 estimates of the
/// memo-less artifact (its memo emptied before each estimate, so every
/// element runs through its module's two layers on every call), with the
/// weights of a training run whose set modules run each distinct element
/// of a batch once, forward and backward.
const STREAM_SEED_1_ESTIMATES: u64 = 0xfcac_cfe9_077c_b2ab;
const SKETCH_BYTES: usize = 1_923_351;

/// FNV-1a-64 of the estimates' bits, `before` each estimate called first.
fn stream_hash(sketch: &mut DeepSketch, stream: &[Query], before: fn(&mut DeepSketch)) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for q in stream {
        before(sketch);
        for b in sketch.estimate_one(q).to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "trains the benchmark's sketch: seconds optimized, minutes not; run with --release"
)]
fn the_benchmark_stream_answers_what_the_memo_less_artifact_answered() {
    let db = bench_imdb();
    let mut sketch = benchmark_sketch_builder(&db).build().expect("sketch build");
    let bytes = sketch.to_bytes().len();
    assert_eq!(bytes, SKETCH_BYTES, "measured {bytes} B");
    let stream = benchmark_stream(&db, 1, 16_384);
    let memo_less = stream_hash(&mut sketch.clone(), &stream, DeepSketch::freeze);
    let memoized = stream_hash(&mut sketch, &stream, |_| {});
    assert_eq!(
        (memo_less, memoized),
        (STREAM_SEED_1_ESTIMATES, STREAM_SEED_1_ESTIMATES),
        "an estimate's bits moved: measured {memo_less:#018x} memo-less, \
         {memoized:#018x} memoized, over {bytes} B of sketch"
    );
    // The stream is the benchmark's: 131 190 set elements, 9 133 of them
    // distinct, of which the memo has to have answered at least 92 %
    // (92.3 % in a ring of entries filling its bound; 88.7 % in 4 096
    // four-way slots, 77.3 % in 1 024 dense ones, 73.6 % direct-mapped).
    // The ring fills its 4 MiB bound on purpose, so that bound is the one
    // held here.
    let memo = sketch.memo_stats();
    assert_eq!(memo.hits + memo.misses, 131_190);
    assert!(
        memo.hits * 100 >= (memo.hits + memo.misses) * 92,
        "{memo:?}"
    );
    assert!(memo.resident_bytes <= MEMO_MAX_BYTES as u64, "{memo:?}");
    println!("{memo:?}");
}
