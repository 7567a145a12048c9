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

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::monitor::{MonitorRegistry, QErrorMonitor};
use crate::sketch::DeepSketch;
use crate::snapshot::{self, SketchSnapshot, SnapshotError};

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
    /// under. Every insert, swap, recovery and adoption hands out a fresh
    /// generation, so "same name" never implies "same model": consumers
    /// that must not mix models across a swap (the serving layer's
    /// estimate cache) key on the generation.
    sketches: RwLock<HashMap<String, (Arc<DeepSketch>, u64)>>,
    /// Last generation handed out.
    generations: AtomicU64,
}

impl Default for SketchStore {
    fn default() -> Self {
        Self::new()
    }
}

/// Why [`SketchStore::open_dir`] refused a snapshot file and moved it to
/// `<dir>/quarantine/`. The reason is typed so operators (and the serving
/// layer's startup log) can tell a damaged file from a lying one without
/// re-reading the bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The bytes failed to decode: truncated, bit-flipped, or a checksum
    /// mismatch.
    Corrupt(String),
    /// The checksummed body is valid but disagrees with the filename about
    /// the sketch name or generation — the filename is untrusted and lost.
    NameMismatch,
    /// The embedded rolling-monitor state failed to restore.
    MonitorState,
}

impl std::fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuarantineReason::Corrupt(e) => write!(f, "corrupt snapshot: {e}"),
            QuarantineReason::NameMismatch => {
                write!(f, "snapshot body disagrees with its filename")
            }
            QuarantineReason::MonitorState => write!(f, "monitor state failed to restore"),
        }
    }
}

/// What [`SketchStore::open_dir`] found on disk: the sketches it
/// recovered, the corrupt files it moved aside, and the debris it cleaned
/// up. Recovery never fails startup because of a bad file — it degrades to
/// an older generation (or skips the sketch) and reports what happened.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Recovered sketches: `(name, generation)` actually serving.
    pub loaded: Vec<(String, u64)>,
    /// Corrupt or mismatched snapshot files moved to `<dir>/quarantine/`,
    /// each with the typed reason it was refused.
    pub quarantined: Vec<(PathBuf, QuarantineReason)>,
    /// Valid snapshots superseded by a newer valid generation, left in
    /// place (they are the rollback target if the newest is later lost).
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

/// What [`SketchStore::adopt_snapshot`] decided about an offered snapshot.
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
        let generation = self.next_generation();
        self.insert_with_generation(name, sketch, generation)
    }

    fn insert_with_generation(
        &self,
        name: impl Into<String>,
        sketch: DeepSketch,
        generation: u64,
    ) -> Result<(), StoreError> {
        let name = name.into();
        let mut sketches = self.sketches_mut();
        if sketches.contains_key(&name) {
            return Err(StoreError::Duplicate(name));
        }
        sketches.insert(name, (Arc::new(sketch), generation));
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
        let (sketch, generation) = self.get_with_generation(name)?;
        let state = monitors.and_then(|m| m.get(name)).map(|m| m.export_state());
        let path = snapshot::write_snapshot(dir, name, generation, &sketch, state.as_ref())?;
        ds_obs::global().count("store/snapshots_written", 1);
        Self::prune_snapshots(dir, name, generation);
        Ok(path)
    }

    /// Encodes one sketch into the checksummed `DSNP` byte layout
    /// without touching disk — the payload the fleet tier ships over the
    /// wire (`SNAPSHOT`). Byte-identical to what [`SketchStore::save_snapshot`]
    /// would persist for the same generation and monitor state, so a
    /// receiver can validate a shipped blob exactly like a recovered file.
    /// Returns the bytes together with the generation they capture.
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

    /// Adopts a decoded snapshot shipped from a fleet peer, newest-wins:
    /// the offer is ignored when a sketch of the same name already serves
    /// at an equal or newer generation, and otherwise serves under the
    /// name in place of whatever served there. The store's
    /// generation counter is raised to at least the adopted generation, so
    /// later local inserts keep sorting after every adopted model, and the
    /// sketch's rolling monitor state travels with it when `monitors` is
    /// given.
    pub fn adopt_snapshot(
        &self,
        snap: SketchSnapshot,
        monitors: Option<&MonitorRegistry>,
    ) -> Result<AdoptOutcome, StoreError> {
        if !snapshot::valid_snapshot_name(&snap.name) {
            return Err(StoreError::Snapshot(SnapshotError::InvalidName(snap.name)));
        }
        let monitor = match &snap.monitor {
            None => None,
            Some(state) => match QErrorMonitor::from_state(state) {
                Some(m) => Some(m),
                None => {
                    return Err(StoreError::Snapshot(SnapshotError::Corrupt(
                        "snapshot monitor state failed to restore".to_string(),
                    )))
                }
            },
        };
        let mut sketches = self.sketches_mut();
        if let Some(&(_, current)) = sketches.get(&snap.name) {
            if current >= snap.generation {
                return Ok(AdoptOutcome::Stale {
                    current,
                    offered: snap.generation,
                });
            }
        }
        sketches.insert(snap.name.clone(), (Arc::new(snap.sketch), snap.generation));
        self.generations
            .fetch_max(snap.generation, Ordering::Relaxed);
        if let (Some(registry), Some(m)) = (monitors, monitor) {
            registry.restore(&snap.name, m);
        }
        ds_obs::global().count("store/snapshots_adopted", 1);
        Ok(AdoptOutcome::Adopted {
            generation: snap.generation,
        })
    }

    /// Snapshots every sketch (see [`SketchStore::save_snapshot`]).
    /// Returns how many were written.
    pub fn save_snapshots(
        &self,
        dir: &Path,
        monitors: Option<&MonitorRegistry>,
    ) -> Result<usize, StoreError> {
        let names: Vec<String> = self.sketches().keys().cloned().collect();
        let mut saved = 0;
        for name in names {
            match self.save_snapshot(dir, &name, monitors) {
                Ok(_) => saved += 1,
                // The sketch was removed between the listing and the save;
                // nothing to persist.
                Err(StoreError::UnknownSketch(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(saved)
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

    /// Warm-restart recovery: rebuilds a store (and the monitor registry
    /// that goes with it) from the snapshots in `dir`.
    ///
    /// For every sketch name the newest snapshot that fully validates wins;
    /// corrupt files — truncated, bit-flipped, or lying about their name or
    /// generation — are moved to `<dir>/quarantine/` and recovery falls
    /// back to the next older generation instead of failing startup.
    /// Leftover `.tmp` files from an interrupted write are deleted (they
    /// were never durable). Only I/O errors on the directory itself abort.
    pub fn open_dir(dir: &Path) -> Result<(Self, MonitorRegistry, RecoveryReport), StoreError> {
        let store = Self::new();
        let monitors = MonitorRegistry::new();
        let mut report = RecoveryReport::default();

        // Group durable snapshot files by sketch name, newest first.
        let mut by_name: HashMap<String, Vec<(u64, PathBuf)>> = HashMap::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if !path.is_file() {
                continue;
            }
            let Some(file_name) = path.file_name().and_then(|f| f.to_str()) else {
                continue;
            };
            match snapshot::parse_snapshot_filename(file_name) {
                Some((name, generation)) => {
                    by_name.entry(name).or_default().push((generation, path));
                }
                None if file_name.ends_with(&format!(".{}", snapshot::SNAPSHOT_TMP_EXT)) => {
                    std::fs::remove_file(&path).ok();
                    report.removed_temps.push(path);
                }
                None => {}
            }
        }

        let mut max_generation = 0u64;
        let mut names: Vec<String> = by_name.keys().cloned().collect();
        names.sort();
        for name in names {
            let mut candidates = by_name.remove(&name).expect("listed above");
            candidates.sort_by_key(|(g, _)| std::cmp::Reverse(*g));
            let mut recovered = false;
            for (generation, path) in candidates {
                if recovered {
                    report.stale.push(path);
                    continue;
                }
                match snapshot::read_snapshot(&path) {
                    // The filename is untrusted; the checksummed body is
                    // authoritative and must agree with it.
                    Ok(snap) if snap.name == name && snap.generation == generation => {
                        if let Some(state) = &snap.monitor {
                            match QErrorMonitor::from_state(state) {
                                Some(m) => monitors.restore(&name, m),
                                None => {
                                    Self::quarantine(
                                        dir,
                                        &path,
                                        &mut report,
                                        QuarantineReason::MonitorState,
                                    );
                                    continue;
                                }
                            }
                        }
                        store.insert_with_generation(&name, snap.sketch, generation)?;
                        max_generation = max_generation.max(generation);
                        report.loaded.push((name.clone(), generation));
                        recovered = true;
                    }
                    Ok(_) | Err(SnapshotError::Io(_)) if !path.exists() => {
                        // Raced with a concurrent prune; nothing to recover.
                    }
                    Ok(_) => {
                        Self::quarantine(dir, &path, &mut report, QuarantineReason::NameMismatch)
                    }
                    Err(e) => Self::quarantine(
                        dir,
                        &path,
                        &mut report,
                        QuarantineReason::Corrupt(e.to_string()),
                    ),
                }
            }
        }
        // Future generations must sort after everything recovered.
        store.generations.store(max_generation, Ordering::Relaxed);
        Ok((store, monitors, report))
    }

    /// Moves a corrupt snapshot into `<dir>/quarantine/` (falling back to
    /// deletion if the move fails) so the next recovery does not re-read
    /// it, and the bytes stay available for a post-mortem.
    fn quarantine(dir: &Path, path: &Path, report: &mut RecoveryReport, reason: QuarantineReason) {
        let qdir = dir.join("quarantine");
        let target = qdir.join(path.file_name().unwrap_or_else(|| "corrupt.snap".as_ref()));
        let moved =
            std::fs::create_dir_all(&qdir).is_ok() && std::fs::rename(path, &target).is_ok();
        if !moved {
            std::fs::remove_file(path).ok();
        }
        ds_obs::global().count("store/snapshots_quarantined", 1);
        report.quarantined.push((target, reason));
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
    fn snapshot_save_and_open_dir_roundtrip() {
        let db = imdb_database(&ImdbConfig::tiny(9));
        let store = SketchStore::new();
        store.insert("one", tiny_sketch(&db, 1)).unwrap();
        store.insert("two", tiny_sketch(&db, 2)).unwrap();
        let monitors = crate::monitor::MonitorRegistry::new();
        for i in 0..10u32 {
            monitors.monitor("one").record("t0", (i + 1) as f64, 1.0);
        }
        let dir = std::env::temp_dir().join(format!("ds_snap_rt_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(store.save_snapshots(&dir, Some(&monitors)).unwrap(), 2);

        let (restored, restored_monitors, report) = SketchStore::open_dir(&dir).unwrap();
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
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_dir_quarantines_corruption_and_recovers_previous_generation() {
        let db = imdb_database(&ImdbConfig::tiny(10));
        let store = SketchStore::new();
        store.insert("s", tiny_sketch(&db, 1)).unwrap();
        let dir = std::env::temp_dir().join(format!("ds_snap_q_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let good = store.save_snapshot(&dir, "s", None).unwrap();

        // A newer generation arrives torn: bit-flipped mid-file.
        let gen = store.generation("s").unwrap();
        let bytes = crate::snapshot::encode_snapshot("s", gen + 1, &store.get("s").unwrap(), None);
        let fault = crate::snapshot::WriteFault {
            bit_flip: Some((bytes.len() / 2, 0x10)),
            ..Default::default()
        };
        crate::snapshot::write_snapshot_bytes(&dir, "s", gen + 1, &bytes, &fault).unwrap();
        // Plus an interrupted write that never renamed.
        let crash = crate::snapshot::WriteFault {
            crash_before_rename: true,
            ..Default::default()
        };
        crate::snapshot::write_snapshot_bytes(&dir, "s", gen + 2, &bytes, &crash).unwrap();

        let (restored, _, report) = SketchStore::open_dir(&dir).unwrap();
        // The torn newest generation is quarantined, the previous durable
        // one serves, the tmp debris is gone.
        assert_eq!(report.loaded, vec![("s".to_string(), gen)]);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.removed_temps.len(), 1);
        assert!(good.exists(), "durable previous generation left in place");
        assert!(dir.join("quarantine").read_dir().unwrap().count() == 1);
        let q = parse_query(&db, "SELECT COUNT(*) FROM title").unwrap();
        assert_eq!(
            restored.get("s").unwrap().estimate_one(&q),
            store.get("s").unwrap().estimate_one(&q)
        );
        // A filename/content mismatch is also quarantined, not trusted.
        let lying = crate::snapshot::encode_snapshot("other", 99, &store.get("s").unwrap(), None);
        crate::snapshot::write_snapshot_bytes(&dir, "s", gen + 3, &lying, &Default::default())
            .unwrap();
        let (_, _, report2) = SketchStore::open_dir(&dir).unwrap();
        assert_eq!(report2.loaded, vec![("s".to_string(), gen)]);
        assert_eq!(report2.quarantined.len(), 1);
        // So is a sealed snapshot whose sketch sets the frozen-section flag,
        // as older writers did when they stored the artifact too.
        let mut blob = store.get("s").unwrap().to_bytes();
        let flag = blob.len() - 8;
        blob[flag..].copy_from_slice(&1u64.to_le_bytes());
        use crate::snapshot::{seal, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
        let old = seal(&SNAPSHOT_MAGIC, SNAPSHOT_VERSION, |e| {
            e.string("s");
            e.u64(gen + 4);
            e.bytes(&blob);
            e.u64(0);
        });
        crate::snapshot::write_snapshot_bytes(&dir, "s", gen + 4, &old, &Default::default())
            .unwrap();
        let (_, _, report3) = SketchStore::open_dir(&dir).unwrap();
        assert_eq!(report3.loaded, vec![("s".to_string(), gen)]);
        assert!(
            matches!(&report3.quarantined[..], [(_, QuarantineReason::Corrupt(e))]
                if e.contains("stored frozen artifact")),
            "{:?}",
            report3.quarantined
        );
        std::fs::remove_dir_all(&dir).ok();
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
    fn export_matches_save_snapshot_and_adopt_is_newest_wins() {
        let db = imdb_database(&ImdbConfig::tiny(12));
        let store = SketchStore::new();
        store.insert("ship", tiny_sketch(&db, 1)).unwrap();
        let monitors = MonitorRegistry::new();
        for i in 0..5u32 {
            monitors.monitor("ship").record("t", (i + 2) as f64, 1.0);
        }
        // The wire export is byte-identical to the durable snapshot file.
        let (bytes, generation) = store.export_snapshot("ship", Some(&monitors)).unwrap();
        let dir = std::env::temp_dir().join(format!("ds_export_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = store.save_snapshot(&dir, "ship", Some(&monitors)).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        assert_eq!(generation, store.generation("ship").unwrap());
        std::fs::remove_dir_all(&dir).ok();

        // A replica adopts the shipped blob and serves bit-identically.
        let replica = SketchStore::new();
        let replica_monitors = MonitorRegistry::new();
        let snap = crate::snapshot::decode_snapshot(&bytes).unwrap();
        assert_eq!(
            replica
                .adopt_snapshot(snap, Some(&replica_monitors))
                .unwrap(),
            AdoptOutcome::Adopted { generation }
        );
        let q = parse_query(&db, "SELECT COUNT(*) FROM title").unwrap();
        assert_eq!(
            replica.get("ship").unwrap().estimate_one(&q),
            store.get("ship").unwrap().estimate_one(&q)
        );
        assert_eq!(replica.generation("ship"), Some(generation));
        assert_eq!(replica_monitors.get("ship").unwrap().samples(), 5);

        // Re-offering the same generation is stale, not a duplicate error.
        let snap_again = crate::snapshot::decode_snapshot(&bytes).unwrap();
        assert_eq!(
            replica.adopt_snapshot(snap_again, None).unwrap(),
            AdoptOutcome::Stale {
                current: generation,
                offered: generation
            }
        );
        // Local inserts after adoption sort strictly newer.
        replica.insert("local", tiny_sketch(&db, 2)).unwrap();
        assert!(replica.generation("local").unwrap() > generation);
        // A newer shipped generation replaces the served model.
        let newer = crate::snapshot::SketchSnapshot {
            name: "ship".to_string(),
            generation: generation + 100,
            sketch: tiny_sketch(&db, 3),
            monitor: None,
        };
        assert_eq!(
            replica.adopt_snapshot(newer, None).unwrap(),
            AdoptOutcome::Adopted {
                generation: generation + 100
            }
        );
        assert_eq!(replica.generation("ship"), Some(generation + 100));
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
