//! Property tests for the `DSNP` snapshot format (ISSUE satellite e):
//! for an arbitrary truncation or bit-flip at an arbitrary offset, the
//! decoder either succeeds on bit-identical bytes or returns a typed
//! [`SnapshotError`] — it never panics, and it never accepts corrupted
//! bytes as valid.
//!
//! The expensive part (training one tiny sketch) happens once behind a
//! `OnceLock`; each property case only decodes bytes.
//!
//! [`SnapshotError`]: ds_core::snapshot::SnapshotError

use std::sync::OnceLock;

use proptest::prelude::*;

use ds_core::builder::SketchBuilder;
use ds_core::lifecycle::HarvestSet;
use ds_core::monitor::{MonitorRegistry, MonitorState};
use ds_core::snapshot::{checksum, decode_snapshot, encode_snapshot};
use ds_query::workloads::imdb_predicate_columns;
use ds_storage::gen::{imdb_database, ImdbConfig};

/// One canonical encoded snapshot (with monitor state, so the optional
/// tail of the format is exercised too).
fn canonical() -> &'static Vec<u8> {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let db = imdb_database(&ImdbConfig::tiny(42));
        let sketch = SketchBuilder::new(&db, imdb_predicate_columns(&db))
            .training_queries(120)
            .epochs(2)
            .sample_size(8)
            .hidden_units(8)
            .seed(11)
            .build()
            .expect("tiny sketch");
        let monitors = MonitorRegistry::new();
        for i in 0..16u32 {
            monitors
                .monitor("imdb")
                .record("t0", (i + 1) as f64, (i % 3 + 1) as f64);
        }
        let state = monitors.get("imdb").expect("registered").export_state();
        encode_snapshot("imdb", 42, &sketch, Some(&state))
    })
}

/// Re-encoding a decoded snapshot reproduces the input bit for bit — the
/// format has a single canonical serialization.
#[test]
fn intact_bytes_decode_and_reencode_bit_identically() {
    let bytes = canonical();
    let snap = decode_snapshot(bytes).expect("canonical bytes must decode");
    assert_eq!(snap.name, "imdb");
    assert_eq!(snap.generation, 42);
    let monitor: &MonitorState = snap.monitor.as_ref().expect("monitor state present");
    assert!(!monitor.overall.is_empty());
    let reencoded = encode_snapshot(
        &snap.name,
        snap.generation,
        &snap.sketch,
        snap.monitor.as_ref(),
    );
    assert_eq!(&reencoded, bytes, "re-encode must be bit-identical");
}

/// The formats are pinned, not just self-consistent: the canonical `DSNP`
/// snapshot and a fixed `DSHV` harvest set hash to what the commit before
/// both moved onto the shared `Encoder`/`seal` codec wrote for them. The
/// snapshot carries trained weights, so its checksum was re-recorded once
/// with the codec unchanged, when training's set modules began to run each
/// distinct element of a batch once, forward and backward.
#[test]
fn encodings_match_the_bytes_the_hand_rolled_codecs_wrote() {
    let dsnp = canonical();
    let (len, sum) = (dsnp.len(), checksum(dsnp));
    assert_eq!(
        (len, sum),
        (10245, 0x302a_fc92_401c_5fcb),
        "measured {len} B, checksum {sum:#018x}"
    );

    let mut set = HarvestSet::new(64);
    set.observe("k1", "SELECT COUNT(*) FROM title", 42);
    set.observe(
        "k2",
        "SELECT COUNT(*) FROM title WHERE title.kind_id = 1",
        7,
    );
    set.observe("k1", "SELECT COUNT(*) FROM title", 43);
    let dshv = set.encode();
    assert_eq!((dshv.len(), checksum(&dshv)), (168, 0xb4fe_0aa4_e0a2_d4b1));
    let decoded = HarvestSet::decode(&dshv, 64).expect("fixed harvest set must decode");
    assert_eq!(decoded.encode(), dshv, "re-encode must be bit-identical");
}

/// Corruption behind a valid checksum — every byte of the body flipped in
/// turn and the trailer recomputed — reaches the structural validation and
/// the sketch decoder, which must return a value, never panic. (A flipped
/// high byte of the model's hidden width used to overflow `3 * hidden` in
/// debug builds.) What the decoder accepts it must also write back byte for
/// byte: a flipped weight or bound is another valid snapshot, a flag word
/// of `0x80` is not. (`use_bitmaps` used to read any non-zero word as true.)
#[test]
fn flips_behind_a_recomputed_checksum_never_panic() {
    let bytes = canonical();
    let body_len = bytes.len() - 8;
    for offset in 8..body_len {
        let mut mutated = bytes.clone();
        mutated[offset] ^= 0x81;
        let sum = checksum(&mutated[..body_len]);
        mutated[body_len..].copy_from_slice(&sum.to_le_bytes());
        if let Ok(snap) = decode_snapshot(&mutated) {
            let reencoded = encode_snapshot(
                &snap.name,
                snap.generation,
                &snap.sketch,
                snap.monitor.as_ref(),
            );
            assert!(
                reencoded == mutated,
                "the flip at byte {offset} was accepted and re-encodes differently"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any strict prefix decodes to a typed error — truncation can never
    /// yield a snapshot that silently passes validation, and the decoder
    /// never panics on it.
    #[test]
    fn truncation_never_validates(frac in 0.0f64..1.0) {
        let bytes = canonical();
        let keep = ((bytes.len() as f64) * frac) as usize;
        prop_assert!(
            decode_snapshot(&bytes[..keep]).is_err(),
            "a {keep}-byte prefix of {} decoded", bytes.len()
        );
    }

    /// Flipping any single byte anywhere — header, body, or checksum
    /// trailer — is detected. FNV-1a's per-byte steps are bijective, so a
    /// one-byte change always changes the checksum; the only question is
    /// which typed error surfaces first.
    #[test]
    fn single_byte_flips_are_always_detected(
        offset_seed in 0u64..u64::MAX,
        mask in 1u8..=255,
    ) {
        let bytes = canonical();
        let offset = (offset_seed % bytes.len() as u64) as usize;
        let mut corrupt = bytes.clone();
        corrupt[offset] ^= mask;
        prop_assert!(
            decode_snapshot(&corrupt).is_err(),
            "flip of byte {offset} (mask {mask:#04x}) went undetected"
        );
    }

    /// Compound corruption (truncate, then flip inside what remains) still
    /// only ever produces typed errors or a canonical accept — the decoder
    /// is total on arbitrary input.
    #[test]
    fn compound_corruption_never_panics(
        frac in 0.0f64..1.0,
        offset_seed in 0u64..u64::MAX,
        mask in 0u8..=255,
    ) {
        let bytes = canonical();
        let keep = (((bytes.len() + 1) as f64) * frac) as usize;
        let mut mutated = bytes[..keep.min(bytes.len())].to_vec();
        if !mutated.is_empty() {
            let offset = (offset_seed % mutated.len() as u64) as usize;
            mutated[offset] ^= mask;
        }
        // Decoding must return — any panic fails the harness — and
        // anything it accepts must re-encode to the exact accepted bytes.
        if let Ok(snap) = decode_snapshot(&mutated) {
            let re = encode_snapshot(
                &snap.name,
                snap.generation,
                &snap.sketch,
                snap.monitor.as_ref(),
            );
            prop_assert_eq!(&re, &mutated, "accepted bytes must be canonical");
        }
    }

    /// Arbitrary garbage (not derived from a valid snapshot) is rejected
    /// with a typed error, never a panic.
    #[test]
    fn arbitrary_bytes_never_panic(data in prop::collection::vec(0u8..=255, 0..512)) {
        prop_assert!(decode_snapshot(&data).is_err(), "random bytes decoded");
    }
}
