//! Kill-loop recovery drill (EXPERIMENTS.md E15): snapshots left behind by
//! faults at systematically varied offsets — and, on Unix, by a real child
//! process `kill -9`ed mid-write — must always recover to the last durable
//! generation. Never a torn "latest" that silently decodes, never a failed
//! startup. A fault is written as the bytes it would have left: truncated
//! or flipped bytes through the real writer, or a `.tmp` file that was
//! never renamed.
//!
//! `KILL_LOOP_ITERS` scales both loops (CI pins it to 50).

use std::sync::{Arc, OnceLock};

use std::path::Path;

use ds_core::builder::SketchBuilder;
use ds_core::monitor::MonitorRegistry;
use ds_core::sketch::DeepSketch;
use ds_core::snapshot::{decode_snapshot, encode_snapshot, write_snapshot_bytes};
use ds_core::store::{RecoveryReport, SketchStore};
use ds_query::parser::parse_query;
use ds_query::query::Query;
use ds_query::workloads::imdb_predicate_columns;
use ds_storage::catalog::Database;
use ds_storage::gen::{imdb_database, ImdbConfig};

const SQL: &str = "SELECT COUNT(*) FROM title WHERE title.kind_id = 1";

fn iterations() -> usize {
    std::env::var("KILL_LOOP_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50)
}

/// One sketch + its encoded snapshot bytes, built once and shared by every
/// iteration (training dominates the cost; the drill is about the write
/// path).
fn fixture() -> &'static (Arc<Database>, DeepSketch, Vec<u8>, Query) {
    static FIXTURE: OnceLock<(Arc<Database>, DeepSketch, Vec<u8>, Query)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let db = Arc::new(imdb_database(&ImdbConfig::tiny(42)));
        let sketch = SketchBuilder::new(&db, imdb_predicate_columns(&db))
            .training_queries(120)
            .epochs(2)
            .sample_size(8)
            .hidden_units(8)
            .seed(7)
            .build()
            .expect("tiny sketch");
        let bytes = encode_snapshot("imdb", 2, &sketch, None);
        let query = parse_query(&db, SQL).expect("fixture query");
        (db, sketch, bytes, query)
    })
}

/// Deterministic xorshift64* — the same generator the serve-side fault
/// injector uses, reimplemented here so the drill stays self-contained.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// What a failed write left behind.
#[derive(Debug, Default)]
struct Fault {
    /// The process died after writing only this many bytes.
    truncate_at: Option<usize>,
    /// The device XORed this mask into the byte at this offset (ignored
    /// when out of range).
    bit_flip: Option<(usize, u8)>,
    /// The temp file was written in full but the publish rename never
    /// happened.
    crash_before_rename: bool,
}

/// The fault plan for one iteration: early iterations sweep the structural
/// boundaries of the format (header, length fields, checksum trailer),
/// later ones draw random offsets. Roughly a quarter of the plans are
/// benign (no fault, flip past EOF) so the drill also proves recovery
/// prefers the *new* generation when the write actually survived.
fn fault_for(iter: usize, len: usize, rng: &mut Rng) -> Fault {
    let boundary = [0, 1, 3, 4, 7, 8, 11, 12, len / 2, len - 9, len - 1];
    match iter % 8 {
        0 => Fault {
            truncate_at: Some(boundary[iter / 8 % boundary.len()]),
            ..Fault::default()
        },
        1 => Fault {
            truncate_at: Some(rng.below(len)),
            ..Fault::default()
        },
        2 => Fault {
            bit_flip: Some((boundary[iter / 8 % boundary.len()], 1 << rng.below(8))),
            ..Fault::default()
        },
        3 => Fault {
            bit_flip: Some((rng.below(len), 1 << rng.below(8))),
            ..Fault::default()
        },
        4 => Fault {
            crash_before_rename: true,
            ..Fault::default()
        },
        5 => Fault {
            truncate_at: Some(rng.below(len)),
            bit_flip: Some((rng.below(len / 2), 1 << rng.below(8))),
            ..Fault::default()
        },
        // Benign plans: the write is durable despite the "fault".
        6 => Fault::default(),
        _ => Fault {
            bit_flip: Some((len + rng.below(64), 1 << rng.below(8))),
            truncate_at: Some(len),
            ..Fault::default()
        },
    }
}

/// The bytes `fault` leaves of `bytes`.
fn apply_fault(bytes: &[u8], fault: &Fault) -> Vec<u8> {
    let mut payload = bytes.to_vec();
    if let Some(keep) = fault.truncate_at {
        payload.truncate(keep.min(payload.len()));
    }
    if let Some((offset, mask)) = fault.bit_flip {
        if offset < payload.len() && mask != 0 {
            payload[offset] ^= mask;
        }
    }
    payload
}

/// Writes what `fault` left of `bytes` as generation 2 of `imdb`: through
/// the real writer, or as a temp file that was never renamed.
fn write_faulted(dir: &Path, bytes: &[u8], fault: &Fault) -> std::io::Result<()> {
    let on_disk = apply_fault(bytes, fault);
    if fault.crash_before_rename {
        return std::fs::write(dir.join("imdb.00000000000000000002.tmp"), on_disk);
    }
    write_snapshot_bytes(dir, "imdb", 2, &on_disk)
        .map(drop)
        .map_err(std::io::Error::other)
}

/// Recovers `dir` into a fresh store.
fn recover(dir: &Path) -> (SketchStore, RecoveryReport) {
    let store = SketchStore::new();
    let report = store.recover(dir, &MonitorRegistry::new());
    (
        store,
        report.unwrap_or_else(|e| panic!("recovery failed: {e}")),
    )
}

/// The drill proper: generation 1 is durable; generation 2 is what a fault
/// left behind. Recovery must come up with generation 2 exactly when the
/// faulted bytes still validate, and generation 1 (quarantining the
/// debris) in every other case.
#[test]
fn fault_offset_kill_loop_always_recovers_last_durable_generation() {
    let (_db, sketch, bytes, query) = fixture();
    let expected = sketch.estimate_one(query);
    let root = std::env::temp_dir().join(format!("ds_kill_loop_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let mut rng = Rng(0x5eed_cafe);

    let iters = iterations();
    let (mut survived, mut corrupted) = (0usize, 0usize);
    for iter in 0..iters {
        let dir = root.join(format!("iter{iter:03}"));
        let gen1 = encode_snapshot("imdb", 1, sketch, None);
        write_snapshot_bytes(&dir, "imdb", 1, &gen1)
            .unwrap_or_else(|e| panic!("iter {iter}: durable gen 1 write failed: {e}"));

        let fault = fault_for(iter, bytes.len(), &mut rng);
        write_faulted(&dir, bytes, &fault)
            .unwrap_or_else(|e| panic!("iter {iter}: faulted write errored: {e}"));
        let on_disk = apply_fault(bytes, &fault);
        let gen2_valid = !fault.crash_before_rename
            && matches!(decode_snapshot(&on_disk), Ok(s) if s.name == "imdb" && s.generation == 2);
        let expected_generation = if gen2_valid { 2 } else { 1 };

        let (store, report) = recover(&dir);
        assert_eq!(
            report.loaded,
            vec![("imdb".to_string(), expected_generation)],
            "iter {iter}: fault {fault:?} must recover generation {expected_generation}"
        );
        // The recovered model answers bit-identically to the original —
        // recovery never serves torn weights.
        assert_eq!(
            store.get("imdb").unwrap().estimate_one(query).to_bits(),
            expected.to_bits(),
            "iter {iter}: recovered estimate must be bit-identical"
        );
        if gen2_valid {
            survived += 1;
            assert!(report.quarantined.is_empty(), "iter {iter}: {report:?}");
        } else {
            corrupted += 1;
            if fault.crash_before_rename {
                assert_eq!(report.removed_temps.len(), 1, "iter {iter}: {report:?}");
            } else {
                assert_eq!(report.quarantined.len(), 1, "iter {iter}: {report:?}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    // The plan must exercise both sides of the oracle or the drill proves
    // nothing (a full cycle through the 8 plan shapes guarantees both).
    if iters >= 8 {
        assert!(corrupted > 0, "no iteration corrupted the write");
        assert!(survived > 0, "no iteration survived the write");
    }
    std::fs::remove_dir_all(&root).ok();
}

/// Recovery from an empty directory, or from one that does not exist, is
/// a clean cold start.
#[test]
fn recover_on_a_fresh_or_missing_directory_recovers_nothing() {
    let dir = std::env::temp_dir().join(format!("ds_kill_fresh_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for _exists in [true, false] {
        let (store, report) = recover(&dir);
        assert!(report.loaded.is_empty());
        assert!(report.quarantined.is_empty());
        assert!(store.list().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Child half of the real-kill drill: loops durable snapshot writes of
/// pre-encoded bytes (passed via env) at increasing generations until the
/// parent `kill -9`s it. Ignored so plain `cargo test` never runs it; the
/// parent invokes it by exact name. Exits immediately when the env
/// contract is absent (e.g. someone runs `cargo test -- --ignored`).
#[test]
#[ignore = "spawned as a crash child by real_kill_nine_loop_recovers"]
fn kill_loop_child_writer() {
    let (Ok(dir), Ok(bytes_path)) = (std::env::var("DS_KILL_DIR"), std::env::var("DS_KILL_BYTES"))
    else {
        return;
    };
    let sketch_bytes = std::fs::read(bytes_path).expect("child: snapshot sketch payload");
    let snap = decode_snapshot(&sketch_bytes).expect("child: payload must decode");
    let dir = std::path::PathBuf::from(dir);
    // Re-encode at each generation so every write is a full, checksummed
    // snapshot; the parent's SIGKILL lands at an arbitrary point inside.
    for generation in 2..u64::MAX {
        let bytes = encode_snapshot(&snap.name, generation, &snap.sketch, snap.monitor.as_ref());
        let _ = write_snapshot_bytes(&dir, &snap.name, generation, &bytes);
    }
}

/// Real-kill drill: spawn this test binary's child writer, `kill -9` it at
/// a varied point mid-loop, and recover. Whatever generation the kill
/// interrupted, recovery must come up serving a bit-identical model at
/// the newest durable generation.
#[cfg(unix)]
#[test]
fn real_kill_nine_loop_recovers() {
    let (_db, sketch, bytes, query) = fixture();
    let expected = sketch.estimate_one(query);
    let root = std::env::temp_dir().join(format!("ds_kill9_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).unwrap();
    let bytes_path = root.join("payload.dsnp");
    std::fs::write(&bytes_path, bytes).unwrap();
    let exe = std::env::current_exe().expect("test binary path");

    // Each spawn costs a process launch; a handful of kills at staggered
    // delays is plenty locally, CI scales it up via KILL_LOOP_ITERS.
    let iters = iterations().clamp(1, 50);
    let mut recovered_any_midwrite = false;
    for iter in 0..iters {
        let dir = root.join(format!("iter{iter:03}"));
        // Seed a durable generation 1 so recovery always has a floor.
        let gen1 = encode_snapshot("imdb", 1, sketch, None);
        write_snapshot_bytes(&dir, "imdb", 1, &gen1).unwrap();

        let mut child = std::process::Command::new(&exe)
            .args([
                "kill_loop_child_writer",
                "--ignored",
                "--exact",
                "--nocapture",
            ])
            .env("DS_KILL_DIR", &dir)
            .env("DS_KILL_BYTES", &bytes_path)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn child writer");
        // Stagger the kill point across iterations: the child spends its
        // life inside encode/write/fsync/rename, so any delay lands the
        // SIGKILL somewhere inside the protocol.
        std::thread::sleep(std::time::Duration::from_millis(
            40 + (iter as u64 * 7) % 60,
        ));
        child.kill().expect("kill -9 child");
        let _ = child.wait();

        let (store, report) = recover(&dir);
        assert_eq!(report.loaded.len(), 1, "iter {iter}: {report:?}");
        let (name, generation) = &report.loaded[0];
        assert_eq!(name, "imdb");
        assert!(*generation >= 1, "iter {iter}");
        assert!(
            report.quarantined.is_empty(),
            "iter {iter}: a SIGKILL mid-write must never publish a torn file, \
             only leave removable temps: {report:?}"
        );
        assert_eq!(
            store.get("imdb").unwrap().estimate_one(query).to_bits(),
            expected.to_bits(),
            "iter {iter}: generation {generation} must answer bit-identically"
        );
        recovered_any_midwrite |= !report.removed_temps.is_empty() || *generation > 1;
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(
        recovered_any_midwrite,
        "no iteration ever advanced past the seed generation — the child \
         writer is not actually writing"
    );
    std::fs::remove_dir_all(&root).ok();
}
