//! The repository benchmark's estimate stream answers to the last bit what
//! it answered before the frozen artifact memoized set-element embeddings:
//! the benchmark's sketch, its 16 384 queries of seed 1, one `estimate_one`
//! each, hashed.

use ds_bench::{bench_imdb, benchmark_sketch_builder, benchmark_stream};
use ds_nn::frozen::MEMO_MAX_BYTES;

/// FNV-1a-64 over the little-endian bits of the 16 384 estimates, computed
/// with the commit before the memo existed (every element through its
/// module's two layers on every call).
const STREAM_SEED_1_ESTIMATES: u64 = 0xc1b4_b9d2_8767_6629;
const SKETCH_BYTES: usize = 1_923_351;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "trains the benchmark's sketch: seconds optimized, minutes not; run with --release"
)]
fn the_benchmark_stream_answers_what_the_memo_less_artifact_answered() {
    let db = bench_imdb();
    let sketch = benchmark_sketch_builder(&db).build().expect("sketch build");
    assert_eq!(sketch.to_bytes().len(), SKETCH_BYTES);
    let stream = benchmark_stream(&db, 1, 16_384);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for q in &stream {
        for b in sketch.estimate_one(q).to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(h, STREAM_SEED_1_ESTIMATES, "an estimate's bits moved");
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
