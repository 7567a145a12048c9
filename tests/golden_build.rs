//! Training is bit-identical across kernel rewrites and lane counts: one
//! small seeded build's serialized bytes are pinned to a golden hash.

use deep_sketches::prelude::*;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a-64 of `to_bytes()` for the spec below, recorded when the set
/// modules began to run each distinct element of a batch once, forward and
/// backward: a distinct element's gradient is the sum, from zero and in
/// batch order, of what each of its occurrences pools back, and each layer
/// takes one outer product per distinct element. The kernels are the
/// register-tiled zero-skipping ones of every lane count. Hidden width 40
/// walks a 32-column and an 8-column AVX2 tile, or one AVX-512 tile of
/// three vectors, the last masked to 8 lanes; from two lanes up the set
/// modules run side by side, and with three each has a lane of its own.
const GOLDEN_BYTES: usize = 60_543;
const GOLDEN_FNV1A64: u64 = 0xd6fa_038a_f83a_ea0b;

#[test]
fn seeded_build_serializes_to_the_golden_bytes_at_one_and_four_threads() {
    let db = imdb_database(&ImdbConfig::tiny(5));
    // `None`: `.threads()` never called — training on the host's lanes.
    for threads in [Some(1), Some(2), Some(3), Some(4), None] {
        let mut builder = SketchBuilder::new(&db, imdb_predicate_columns(&db))
            .training_queries(240)
            .epochs(3)
            .sample_size(40)
            .hidden_units(40)
            .batch_size(32)
            .max_tables(4)
            .max_predicates(3)
            .seed(0x601D);
        if let Some(threads) = threads {
            builder = builder.threads(threads);
        }
        let bytes = builder.build().expect("pipeline").to_bytes();
        let (len, hash) = (bytes.len(), fnv1a64(&bytes));
        assert_eq!(
            (len, hash),
            (GOLDEN_BYTES, GOLDEN_FNV1A64),
            "threads={threads:?}: a trained byte changed; measured {len} B hashing to {hash:#018x}"
        );
    }
}
