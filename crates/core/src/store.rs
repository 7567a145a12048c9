//! The sketch registry behind the demo's `SHOW SKETCHES` pane.
//!
//! §3 of the paper: "we offer pre-built (high quality) models that can be
//! queried right away" and "we allow users to train new models while
//! querying existing ones". The [`SketchStore`] is the first half: a named
//! collection of ready sketches that any number of threads query at once,
//! plus crash-safe snapshot persistence. The second half happens outside
//! it: a caller builds a sketch on any thread and publishes it with
//! [`SketchStore::insert`] or [`SketchStore::swap`], as the retrain
//! lifecycle does, so a lookup only ever takes the read lock.
//!
//! A snapshot enters a store one way, [`SketchStore::adopt`], whether it
//! was read back from disk by [`SketchStore::recover`] or shipped over the
//! wire by a fleet peer's `SYNC`.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::monitor::{MonitorRegistry, QErrorMonitor};
use crate::sketch::DeepSketch;
use crate::snapshot::{self, SnapshotError};

/// Errors raised by store operations.
#[derive(Debug)]
pub enum StoreError {
    /// No sketch registered under this name.
    UnknownSketch(String),
    /// A sketch with this name already exists.
    Duplicate(String),
    /// Disk I/O failed.
    Io(std::io::Error),
    /// A crash-safe snapshot failed to write or read.
    Snapshot(SnapshotError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::UnknownSketch(n) => write!(f, "unknown sketch '{n}'"),
            StoreError::Duplicate(n) => write!(f, "sketch '{n}' already exists"),
            StoreError::Io(e) => write!(f, "sketch store I/O error: {e}"),
            StoreError::Snapshot(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<SnapshotError> for StoreError {
    fn from(e: SnapshotError) -> Self {
        StoreError::Snapshot(e)
    }
}

/// A named, concurrently queryable collection of ready Deep Sketches.
/// `Sync`: share one store across threads.
pub struct SketchStore {
    /// Each name's model and the store-wide generation it became ready
    /// under. Every insert and swap hands out a fresh generation, and an
    /// adopted snapshot keeps its own, newer than the one it replaces, so
    /// "same name" never implies "same model": consumers that must not mix
    /// models across a swap (the serving layer's estimate cache) key on
    /// the generation.
    sketches: RwLock<HashMap<String, (Arc<DeepSketch>, u64)>>,
    /// Last generation handed out or adopted.
    generations: AtomicU64,
}

impl Default for SketchStore {
    fn default() -> Self {
        Self::new()
    }
}

/// Why [`SketchStore::adopt`] refused a snapshot: recovery then moves the
/// file to `<dir>/quarantine/`, and a `SYNC` keeps the payload there. The
/// reason is typed so operators can tell a damaged snapshot from a lying
/// one without re-reading the bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The bytes failed to decode: truncated, bit-flipped, or a checksum
    /// mismatch.
    Corrupt(String),
    /// The checksummed body is valid but disagrees with the name or
    /// generation it was offered under (a filename or a `SYNC` header):
    /// the claim is untrusted and lost.
    NameMismatch,
    /// The embedded rolling-monitor state failed to restore.
    MonitorState,
}

impl std::fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuarantineReason::Corrupt(e) => write!(f, "corrupt snapshot: {e}"),
            QuarantineReason::NameMismatch => {
                write!(
                    f,
                    "snapshot body disagrees with its offered name or generation"
                )
            }
            QuarantineReason::MonitorState => write!(f, "monitor state failed to restore"),
        }
    }
}

/// What [`SketchStore::recover`] found on disk: the sketches it
/// recovered, the corrupt files it moved aside, and the debris it cleaned
/// up. Recovery never fails startup because of a bad file — it degrades to
/// an older generation (or skips the sketch) and reports what happened.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Recovered sketches: `(name, generation)` actually serving.
    pub loaded: Vec<(String, u64)>,
    /// Refused snapshot files, each with the typed reason, at the path
    /// they were moved to under `<dir>/quarantine/` (or where they lie
    /// still, when that move failed: they are never deleted uncopied).
    pub quarantined: Vec<(PathBuf, QuarantineReason)>,
    /// Snapshots older than the one adopted (or than what already served),
    /// left in place unread: they are the fallback if the newest is later
    /// lost, and [`SketchStore::save_snapshot`] prunes them.
    pub stale: Vec<PathBuf>,
    /// In-flight `.tmp` files from an interrupted write, deleted (they
    /// were never durable, so removing them loses nothing).
    pub removed_temps: Vec<PathBuf>,
}

/// What [`SketchStore::swap`] displaced: the previous model (kept alive by
/// its `Arc`, so in-flight estimates and a later rollback both keep
/// working) and the generations on either side of the swap.
#[derive(Debug, Clone)]
pub struct SwapOutcome {
    /// The model that was serving until this swap.
    pub previous: Arc<DeepSketch>,
    /// The generation the previous model served under.
    pub previous_generation: u64,
    /// The fresh generation the replacement now serves under.
    pub generation: u64,
}

/// What [`SketchStore::adopt`] decided about a snapshot that checked out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdoptOutcome {
    /// The snapshot's generation won and now serves under its name.
    Adopted {
        /// The generation now serving.
        generation: u64,
    },
    /// A generation at least as new already serves; the offer was ignored.
    Stale {
        /// The generation already serving.
        current: u64,
        /// The generation that was offered.
        offered: u64,
    },
}

impl SketchStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self {
            sketches: RwLock::new(HashMap::new()),
            generations: AtomicU64::new(0),
        }
    }

    fn next_generation(&self) -> u64 {
        self.generations.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The sketches, read; a poisoned lock is recovered.
    fn sketches(&self) -> RwLockReadGuard<'_, HashMap<String, (Arc<DeepSketch>, u64)>> {
        self.sketches.read().unwrap_or_else(|e| e.into_inner())
    }

    /// The sketches, written; a poisoned lock is recovered.
    fn sketches_mut(&self) -> RwLockWriteGuard<'_, HashMap<String, (Arc<DeepSketch>, u64)>> {
        self.sketches.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers a trained sketch under `name` ("pre-built models that can
    /// be queried right away"). A sketch trained while the store serves is
    /// built on the caller's thread and registered here when it is done.
    pub fn insert(&self, name: impl Into<String>, sketch: DeepSketch) -> Result<(), StoreError> {
        let name = name.into();
        let mut sketches = self.sketches_mut();
        if sketches.contains_key(&name) {
            return Err(StoreError::Duplicate(name));
        }
        sketches.insert(name, (Arc::new(sketch), self.next_generation()));
        ds_obs::global().count("store/inserts", 1);
        Ok(())
    }

    /// Every sketch with its name, sorted by name (the `SHOW SKETCHES`
    /// listing).
    pub fn list(&self) -> Vec<(String, Arc<DeepSketch>)> {
        let mut out: Vec<(String, Arc<DeepSketch>)> = self
            .sketches()
            .iter()
            .map(|(name, (sketch, _))| (name.clone(), Arc::clone(sketch)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Atomically replaces the model under `name` with `sketch`, assigning
    /// a fresh generation — the hot-swap primitive behind the retrain
    /// lifecycle. Requests already holding the old `Arc` finish against
    /// the old model; every later lookup sees the new one, and the
    /// generation bump invalidates generation-keyed consumers (the
    /// estimate cache).
    /// Rolling back is just another `swap` with [`SwapOutcome::previous`]:
    /// the restored model serves under a *newer* generation, never a
    /// recycled one.
    pub fn swap(&self, name: &str, sketch: Arc<DeepSketch>) -> Result<SwapOutcome, StoreError> {
        let mut sketches = self.sketches_mut();
        let Some((serving, generation)) = sketches.get_mut(name) else {
            return Err(StoreError::UnknownSketch(name.to_string()));
        };
        let next = self.next_generation();
        let previous = std::mem::replace(serving, sketch);
        let previous_generation = std::mem::replace(generation, next);
        ds_obs::global().count("store/hot_swaps", 1);
        Ok(SwapOutcome {
            previous,
            previous_generation,
            generation: next,
        })
    }

    /// Fetches a sketch for querying.
    pub fn get(&self, name: &str) -> Result<Arc<DeepSketch>, StoreError> {
        self.get_with_generation(name).map(|(sketch, _)| sketch)
    }

    /// Fetches a sketch together with its store generation, under the read
    /// lock only. The generation uniquely identifies *this* model: after a
    /// swap or a remove and insert under the same name it changes, so
    /// holders can detect (and refuse to mix state across) model swaps.
    pub fn get_with_generation(&self, name: &str) -> Result<(Arc<DeepSketch>, u64), StoreError> {
        match self.sketches().get(name) {
            Some((sketch, generation)) => Ok((Arc::clone(sketch), *generation)),
            None => Err(StoreError::UnknownSketch(name.to_string())),
        }
    }

    /// The generation of a sketch, or `None` when no sketch has that name.
    pub fn generation(&self, name: &str) -> Option<u64> {
        self.sketches().get(name).map(|&(_, generation)| generation)
    }

    /// Removes a sketch. Returns true if it existed.
    pub fn remove(&self, name: &str) -> bool {
        let existed = self.sketches_mut().remove(name).is_some();
        if existed {
            ds_obs::global().count("store/removes", 1);
        }
        existed
    }

    /// Atomically snapshots one sketch to `dir` at its current
    /// generation, carrying its rolling q-error monitor state when
    /// `monitors` has one for it (the sketch's training-time baseline
    /// always travels inside the sketch bytes). Older durable generations
    /// of the same name are pruned down to the previous one, so a crash
    /// mid-write can never leave the sketch without a valid snapshot.
    pub fn save_snapshot(
        &self,
        dir: &Path,
        name: &str,
        monitors: Option<&MonitorRegistry>,
    ) -> Result<PathBuf, StoreError> {
        let (bytes, generation) = self.export_snapshot(name, monitors)?;
        let path = snapshot::write_snapshot_bytes(dir, name, generation, &bytes)?;
        ds_obs::global().count("store/snapshots_written", 1);
        Self::prune_snapshots(dir, name, generation);
        Ok(path)
    }

    /// Encodes one sketch into the checksummed `DSNP` byte layout
    /// without touching disk — the payload the fleet tier ships over the
    /// wire (`SNAPSHOT`), and the bytes [`SketchStore::save_snapshot`]
    /// persists, so a receiver adopts a shipped blob exactly like a
    /// recovered file. Returns the bytes together with the generation they
    /// capture.
    pub fn export_snapshot(
        &self,
        name: &str,
        monitors: Option<&MonitorRegistry>,
    ) -> Result<(Vec<u8>, u64), StoreError> {
        let (sketch, generation) = self.get_with_generation(name)?;
        if !snapshot::valid_snapshot_name(name) {
            return Err(StoreError::Snapshot(SnapshotError::InvalidName(
                name.to_string(),
            )));
        }
        let state = monitors.and_then(|m| m.get(name)).map(|m| m.export_state());
        let bytes = snapshot::encode_snapshot(name, generation, &sketch, state.as_ref());
        Ok((bytes, generation))
    }

    /// The one way a snapshot enters a store. `bytes` were offered as
    /// `name` at `generation` — by a filename or a `SYNC` header, both
    /// untrusted — so they must decode, their checksummed body must make
    /// the same claim, and their monitor state, if any, must restore; the
    /// check touches no disk and takes no lock. Then, under the write lock,
    /// the newest generation wins: the offer is [`AdoptOutcome::Stale`]
    /// when a generation at least as new already serves, and otherwise
    /// serves under `name` with its monitor restored into `monitors`. The
    /// store's generation counter is raised to at least the adopted one,
    /// so later inserts and swaps sort after it.
    pub fn adopt(
        &self,
        bytes: &[u8],
        name: &str,
        generation: u64,
        monitors: &MonitorRegistry,
    ) -> Result<AdoptOutcome, QuarantineReason> {
        let snap = snapshot::decode_snapshot(bytes)
            .map_err(|e| QuarantineReason::Corrupt(e.to_string()))?;
        if snap.name != name || snap.generation != generation {
            return Err(QuarantineReason::NameMismatch);
        }
        let monitor = snap
            .monitor
            .map(|state| QErrorMonitor::from_state(&state).ok_or(QuarantineReason::MonitorState))
            .transpose()?;
        let mut sketches = self.sketches_mut();
        if let Some(&(_, current)) = sketches.get(name) {
            if current >= generation {
                return Ok(AdoptOutcome::Stale {
                    current,
                    offered: generation,
                });
            }
        }
        sketches.insert(snap.name, (Arc::new(snap.sketch), generation));
        self.generations.fetch_max(generation, Ordering::Relaxed);
        if let Some(monitor) = monitor {
            monitors.restore(name, monitor);
        }
        ds_obs::global().count("store/snapshots_adopted", 1);
        Ok(AdoptOutcome::Adopted { generation })
    }

    /// Best-effort cleanup of durable generations older than the previous
    /// one. Keeping `newest` *and* its predecessor means the crash window
    /// of the next snapshot write still has a fallback on disk; everything
    /// older is noise. Failures are ignored — pruning is an optimization,
    /// never a correctness requirement.
    fn prune_snapshots(dir: &Path, name: &str, newest: u64) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        let mut generations: Vec<(u64, PathBuf)> = entries
            .flatten()
            .filter_map(|e| {
                let path = e.path();
                let (n, generation) =
                    snapshot::parse_snapshot_filename(path.file_name()?.to_str()?)?;
                (n == name && generation < newest).then_some((generation, path))
            })
            .collect();
        generations.sort_by_key(|(g, _)| std::cmp::Reverse(*g));
        for (_, path) in generations.into_iter().skip(1) {
            std::fs::remove_file(path).ok();
        }
    }

    /// Warm-restart recovery into this store and `monitors`: offers each
    /// name's snapshot files in `dir` to [`SketchStore::adopt`], newest
    /// generation first, until one is adopted or found stale against what
    /// already serves; the older files are left in place. A file `adopt`
    /// refuses is moved to `<dir>/quarantine/` (see
    /// [`snapshot::quarantine`]) with its reason, and recovery falls back
    /// to the next older generation instead of failing startup. Leftover
    /// `.tmp` files from an interrupted write are deleted (they were never
    /// durable). A directory that does not exist recovers nothing; only
    /// other I/O errors on the directory itself are errors.
    pub fn recover(
        &self,
        dir: &Path,
        monitors: &MonitorRegistry,
    ) -> Result<RecoveryReport, StoreError> {
        let mut report = RecoveryReport::default();
        let entries = match std::fs::read_dir(dir) {
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(report),
            entries => entries?,
        };
        let mut offers: Vec<(String, u64, PathBuf)> = Vec::new();
        for entry in entries {
            let path = entry?.path();
            let file_name = path
                .file_name()
                .and_then(|f| f.to_str())
                .unwrap_or_default();
            if !path.is_file() {
                continue;
            }
            if let Some((name, generation)) = snapshot::parse_snapshot_filename(file_name) {
                offers.push((name, generation, path));
            } else if file_name.ends_with(&format!(".{}", snapshot::SNAPSHOT_TMP_EXT)) {
                std::fs::remove_file(&path).ok();
                report.removed_temps.push(path);
            }
        }
        // By name, newest generation first.
        offers.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut settled: Option<&str> = None;
        for (name, generation, path) in &offers {
            if settled == Some(name) {
                report.stale.push(path.clone());
                continue;
            }
            // A file a concurrent prune removed has nothing to offer.
            let Ok(bytes) = std::fs::read(path) else {
                continue;
            };
            match self.adopt(&bytes, name, *generation, monitors) {
                Ok(AdoptOutcome::Adopted { generation }) => {
                    report.loaded.push((name.clone(), generation));
                    settled = Some(name);
                }
                Ok(AdoptOutcome::Stale { .. }) => {
                    report.stale.push(path.clone());
                    settled = Some(name);
                }
                Err(reason) => {
                    let file_name = path.file_name().unwrap_or_default().to_string_lossy();
                    let kept = snapshot::quarantine(dir, &file_name, &bytes);
                    if kept.is_ok() {
                        std::fs::remove_file(path).ok();
                    }
                    ds_obs::global().count("store/snapshots_quarantined", 1);
                    report
                        .quarantined
                        .push((kept.unwrap_or_else(|_| path.clone()), reason));
                }
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SketchBuilder;
    use ds_query::parser::parse_query;
    use ds_query::workloads::imdb_predicate_columns;
    use ds_storage::catalog::Database;
    use ds_storage::gen::{imdb_database, ImdbConfig};

    fn tiny_sketch(db: &Database, seed: u64) -> DeepSketch {
        SketchBuilder::new(db, imdb_predicate_columns(db))
            .training_queries(120)
            .epochs(2)
            .sample_size(8)
            .hidden_units(8)
            .seed(seed)
            .build()
            .expect("tiny sketch")
    }

    /// A holder that panics poisons the lock; every later caller recovers
    /// it and finds the map as the last completed write left it.
    #[test]
    fn poisoned_lock_recovers() {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let store = SketchStore::new();
        store.insert("imdb", tiny_sketch(&db, 1)).unwrap();
        let held = std::thread::scope(|s| {
            s.spawn(|| {
                let _sketches = store.sketches_mut();
                panic!("a holder of the write lock panics");
            })
            .join()
        });
        assert!(held.is_err() && store.sketches.is_poisoned());
        let sketch = store.get("imdb").unwrap();
        store.insert("other", tiny_sketch(&db, 2)).unwrap();
        let swapped = store.swap("imdb", Arc::clone(&sketch)).unwrap();
        assert!(Arc::ptr_eq(&swapped.previous, &sketch));
        let names: Vec<String> = store.list().into_iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["imdb", "other"]);
    }

    #[test]
    fn insert_get_estimate() {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let store = SketchStore::new();
        store.insert("imdb", tiny_sketch(&db, 1)).unwrap();
        let q = parse_query(&db, "SELECT COUNT(*) FROM title WHERE title.kind_id = 1").unwrap();
        let sketch = store.get("imdb").unwrap();
        assert!(sketch.estimate_one(&q) >= 1.0);
        // The listing hands out the very model a lookup does.
        let listing = store.list();
        assert!(matches!(&listing[..], [(name, listed)]
            if name == "imdb" && Arc::ptr_eq(listed, &sketch)));
        assert!(matches!(
            store.get("nope"),
            Err(StoreError::UnknownSketch(_))
        ));
    }

    #[test]
    fn swap_replaces_the_ready_model_under_a_fresh_generation() {
        let db = imdb_database(&ImdbConfig::tiny(31));
        let store = SketchStore::new();
        store.insert("imdb", tiny_sketch(&db, 11)).unwrap();
        let (old, old_gen) = store.get_with_generation("imdb").unwrap();
        let q = parse_query(&db, "SELECT COUNT(*) FROM title WHERE title.kind_id = 1").unwrap();
        let old_estimate = old.estimate_one(&q);

        let replacement = Arc::new(tiny_sketch(&db, 12));
        let new_estimate = replacement.estimate_one(&q);
        let outcome = store.swap("imdb", Arc::clone(&replacement)).unwrap();
        assert_eq!(outcome.previous_generation, old_gen);
        assert!(
            outcome.generation > old_gen,
            "swap must advance the generation"
        );
        assert!(
            Arc::ptr_eq(&outcome.previous, &old),
            "swap must hand back the displaced model"
        );
        assert_eq!(store.generation("imdb"), Some(outcome.generation));
        assert_eq!(
            store.get("imdb").unwrap().estimate_one(&q).to_bits(),
            new_estimate.to_bits()
        );
        // The displaced Arc still answers — in-flight requests finish
        // against the old model.
        assert_eq!(
            outcome.previous.estimate_one(&q).to_bits(),
            old_estimate.to_bits()
        );

        // Rollback is just another swap; it gets a *newer* generation.
        let rolled = store.swap("imdb", outcome.previous).unwrap();
        assert!(rolled.generation > outcome.generation);
        assert_eq!(
            store.get("imdb").unwrap().estimate_one(&q).to_bits(),
            old_estimate.to_bits()
        );

        assert!(matches!(
            store.swap("nope", replacement),
            Err(StoreError::UnknownSketch(_))
        ));
    }

    #[test]
    fn duplicate_names_rejected() {
        let db = imdb_database(&ImdbConfig::tiny(2));
        let store = SketchStore::new();
        store.insert("a", tiny_sketch(&db, 1)).unwrap();
        assert!(matches!(
            store.insert("a", tiny_sketch(&db, 2)),
            Err(StoreError::Duplicate(_))
        ));
    }

    #[test]
    fn generations_are_unique_across_swaps() {
        let db = imdb_database(&ImdbConfig::tiny(8));
        let store = SketchStore::new();
        store.insert("a", tiny_sketch(&db, 1)).unwrap();
        store.insert("b", tiny_sketch(&db, 2)).unwrap();
        let (sketch_a, gen_a) = store.get_with_generation("a").unwrap();
        let gen_b = store.generation("b").unwrap();
        assert_ne!(gen_a, gen_b, "every ready slot gets its own generation");
        // Remove + re-insert under the same name must change the generation
        // even though the name is identical — that is what lets consumers
        // detect a model swap.
        assert!(store.remove("a"));
        store.insert("a", tiny_sketch(&db, 3)).unwrap();
        let (sketch_a2, gen_a2) = store.get_with_generation("a").unwrap();
        assert_ne!(gen_a, gen_a2);
        assert!(!Arc::ptr_eq(&sketch_a, &sketch_a2));
        assert_eq!(store.generation("missing"), None);
    }

    #[test]
    fn snapshot_save_and_recover_roundtrip() {
        let db = imdb_database(&ImdbConfig::tiny(9));
        let store = SketchStore::new();
        store.insert("one", tiny_sketch(&db, 1)).unwrap();
        store.insert("two", tiny_sketch(&db, 2)).unwrap();
        let monitors = MonitorRegistry::new();
        for i in 0..10u32 {
            monitors.monitor("one").record("t0", (i + 1) as f64, 1.0);
        }
        let dir = std::env::temp_dir().join(format!("ds_snap_rt_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        for name in ["one", "two"] {
            store.save_snapshot(&dir, name, Some(&monitors)).unwrap();
        }

        let (restored, restored_monitors) = (SketchStore::new(), MonitorRegistry::new());
        let report = restored.recover(&dir, &restored_monitors).unwrap();
        assert_eq!(report.loaded.len(), 2);
        assert!(report.quarantined.is_empty());
        // Models answer bit-identically and keep their generations.
        let q = parse_query(&db, "SELECT COUNT(*) FROM title WHERE title.kind_id = 1").unwrap();
        for name in ["one", "two"] {
            assert_eq!(
                restored.get(name).unwrap().estimate_one(&q),
                store.get(name).unwrap().estimate_one(&q),
                "{name}"
            );
            assert_eq!(restored.generation(name), store.generation(name), "{name}");
        }
        // Monitor windows survived the restart.
        let m = restored_monitors.get("one").expect("monitor recovered");
        assert_eq!(m.samples(), 10);
        assert_eq!(
            m.export_state(),
            monitors.get("one").unwrap().export_state()
        );
        assert!(restored_monitors.get("two").is_none());
        // New work on the recovered store sorts after everything restored.
        let max_recovered = report.loaded.iter().map(|(_, g)| *g).max().unwrap();
        restored.insert("three", tiny_sketch(&db, 3)).unwrap();
        assert!(restored.generation("three").unwrap() > max_recovered);
        // Recovering again finds nothing newer than what serves.
        let again = restored.recover(&dir, &restored_monitors).unwrap();
        assert!(
            again.loaded.is_empty() && again.stale.len() == 2,
            "{again:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
        // A directory that does not exist recovers nothing.
        let report = SketchStore::new().recover(&dir, &monitors).unwrap();
        assert!(report.loaded.is_empty() && report.quarantined.is_empty());
    }

    #[test]
    fn snapshot_pruning_keeps_newest_two_generations() {
        let db = imdb_database(&ImdbConfig::tiny(11));
        let store = SketchStore::new();
        store.insert("p", tiny_sketch(&db, 1)).unwrap();
        let dir = std::env::temp_dir().join(format!("ds_snap_p_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        // Three swap cycles: remove + insert bumps the generation each time.
        for seed in [2u64, 3, 4] {
            store.save_snapshot(&dir, "p", None).unwrap();
            store.remove("p");
            store.insert("p", tiny_sketch(&db, seed)).unwrap();
        }
        store.save_snapshot(&dir, "p", None).unwrap();
        let snaps: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|f| f.ends_with(".snap"))
            .collect();
        assert_eq!(snaps.len(), 2, "newest + previous only: {snaps:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn removed_names_are_unknown() {
        let db = imdb_database(&ImdbConfig::tiny(5));
        let store = SketchStore::new();
        store.insert("gone", tiny_sketch(&db, 1)).unwrap();
        assert!(store.remove("gone"));
        assert!(!store.remove("gone"));
        assert!(matches!(
            store.get("gone"),
            Err(StoreError::UnknownSketch(_))
        ));
    }
}
