//! The sketch registry behind the demo's `SHOW SKETCHES` pane.
//!
//! §3 of the paper: "we offer pre-built (high quality) models that can be
//! queried right away" and "we allow users to train new models while
//! querying existing ones". The [`SketchStore`] provides exactly that: a
//! named collection of sketches that can be queried concurrently while new
//! sketches train on background threads, plus crash-safe snapshot
//! persistence for the pre-built models.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use parking_lot::RwLock;

use ds_storage::catalog::Database;

use crate::builder::{BuildError, BuildReport, SketchBuilder};
use crate::monitor::{MonitorRegistry, QErrorMonitor};
use crate::sketch::DeepSketch;
use crate::snapshot::{self, SketchSnapshot, SnapshotError};

/// Status of a named sketch in the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SketchStatus {
    /// Training is running on a background thread.
    Training,
    /// Trained and queryable.
    Ready,
    /// Background training failed.
    Failed(String),
}

/// Errors raised by store operations.
#[derive(Debug)]
pub enum StoreError {
    /// No sketch registered under this name.
    UnknownSketch(String),
    /// The sketch exists but is still training (or failed).
    NotReady(String, SketchStatus),
    /// A sketch with this name already exists.
    Duplicate(String),
    /// Disk I/O failed.
    Io(std::io::Error),
    /// Training failed.
    Build(BuildError),
    /// A crash-safe snapshot failed to write or read.
    Snapshot(SnapshotError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::UnknownSketch(n) => write!(f, "unknown sketch '{n}'"),
            StoreError::NotReady(n, s) => write!(f, "sketch '{n}' is not ready: {s:?}"),
            StoreError::Duplicate(n) => write!(f, "sketch '{n}' already exists"),
            StoreError::Io(e) => write!(f, "sketch store I/O error: {e}"),
            StoreError::Build(e) => write!(f, "sketch training failed: {e}"),
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

enum Slot {
    Training {
        // Mutex only to make the containing map `Sync`; the receiver is
        // ever touched under the slots write lock.
        rx: Mutex<Receiver<Result<(DeepSketch, BuildReport), String>>>,
        handle: Option<JoinHandle<()>>,
    },
    Ready {
        sketch: Arc<DeepSketch>,
        report: Option<BuildReport>,
        /// Store-wide monotonic generation assigned when this model became
        /// ready. Every insert, recovery, and background-training swap gets
        /// a fresh generation, so "same name" never implies "same model":
        /// consumers that must not mix models across a swap (the serving
        /// layer's estimate cache) key on the generation.
        generation: u64,
    },
    Failed(String),
}

/// A named, concurrently queryable collection of Deep Sketches with
/// background training. `Sync`: share one store across threads.
pub struct SketchStore {
    slots: RwLock<HashMap<String, Slot>>,
    /// Last generation handed out; see [`Slot::Ready::generation`].
    generations: AtomicU64,
}

impl Default for SketchStore {
    fn default() -> Self {
        Self::new()
    }
}

/// Why [`SketchStore::open_dir`] refused a snapshot file and moved it to
/// `<dir>/quarantine/`. The reason is typed so operators (and the serving
/// layer's startup log) can tell data corruption apart from a
/// configuration problem without re-reading the bytes.
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
    /// The sketch decodes cleanly but its feature schema does not match
    /// the vocabulary this server was configured to serve — loading it
    /// would answer queries with features the model was never trained on.
    SchemaMismatch {
        /// The schema the server expects.
        expected: crate::featurize::FeatureSchema,
        /// The schema the snapshot actually carries.
        found: crate::featurize::FeatureSchema,
    },
}

impl std::fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuarantineReason::Corrupt(e) => write!(f, "corrupt snapshot: {e}"),
            QuarantineReason::NameMismatch => {
                write!(f, "snapshot body disagrees with its filename")
            }
            QuarantineReason::MonitorState => write!(f, "monitor state failed to restore"),
            QuarantineReason::SchemaMismatch { expected, found } => write!(
                f,
                "feature schema mismatch: server vocabulary expects {expected:?}, snapshot carries {found:?}"
            ),
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
            slots: RwLock::new(HashMap::new()),
            generations: AtomicU64::new(0),
        }
    }

    fn next_generation(&self) -> u64 {
        self.generations.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Registers an already-trained sketch under `name` ("pre-built
    /// models that can be queried right away").
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
        let mut slots = self.slots.write();
        if slots.contains_key(&name) {
            return Err(StoreError::Duplicate(name));
        }
        slots.insert(
            name,
            Slot::Ready {
                sketch: Arc::new(sketch),
                report: None,
                generation,
            },
        );
        ds_obs::global().count("store/inserts", 1);
        Ok(())
    }

    /// Starts training a sketch on a background thread; the store stays
    /// fully queryable meanwhile. The builder must borrow a `'static`
    /// database (use an [`Arc<Database>`]).
    pub fn train_in_background(
        &self,
        name: impl Into<String>,
        db: Arc<Database>,
        configure: impl FnOnce(SketchBuilder<'_>) -> SketchBuilder<'_> + Send + 'static,
        predicate_columns: Vec<ds_storage::catalog::ColRef>,
    ) -> Result<(), StoreError> {
        let name = name.into();
        {
            let slots = self.slots.read();
            if slots.contains_key(&name) {
                return Err(StoreError::Duplicate(name));
            }
        }
        let (tx, rx): (Sender<_>, Receiver<_>) = channel();
        let handle = std::thread::spawn(move || {
            let builder = configure(SketchBuilder::new(&db, predicate_columns));
            let result = builder.build_with_report().map_err(|e| e.to_string());
            let _ = tx.send(result);
        });
        let mut slots = self.slots.write();
        if slots.contains_key(&name) {
            // Raced with a concurrent insert; let the thread finish and drop.
            return Err(StoreError::Duplicate(name));
        }
        slots.insert(
            name,
            Slot::Training {
                rx: Mutex::new(rx),
                handle: Some(handle),
            },
        );
        Ok(())
    }

    /// Polls training threads for completion, then reports every sketch's
    /// status, sorted by name (the `SHOW SKETCHES` listing).
    pub fn list(&self) -> Vec<(String, SketchStatus)> {
        self.poll();
        let slots = self.slots.read();
        let mut out: Vec<(String, SketchStatus)> = slots
            .iter()
            .map(|(n, s)| {
                let status = match s {
                    Slot::Training { .. } => SketchStatus::Training,
                    Slot::Ready { .. } => SketchStatus::Ready,
                    Slot::Failed(e) => SketchStatus::Failed(e.clone()),
                };
                (n.clone(), status)
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Atomically replaces the ready model under `name` with `sketch`,
    /// assigning a fresh generation — the hot-swap primitive behind the
    /// retrain lifecycle. Requests already holding the old `Arc` finish
    /// against the old model; every later lookup sees the new one. The
    /// generation bump invalidates generation-keyed consumers (the estimate
    /// cache) exactly like a background-training swap.
    /// Rolling back is just another `swap` with [`SwapOutcome::previous`]:
    /// the restored model serves under a *newer* generation, never a
    /// recycled one.
    pub fn swap(&self, name: &str, sketch: Arc<DeepSketch>) -> Result<SwapOutcome, StoreError> {
        let mut slots = self.slots.write();
        match slots.get_mut(name) {
            None => Err(StoreError::UnknownSketch(name.to_string())),
            Some(Slot::Ready {
                sketch: slot_sketch,
                report,
                generation,
            }) => {
                let next = self.next_generation();
                let previous = std::mem::replace(slot_sketch, sketch);
                let previous_generation = *generation;
                *generation = next;
                // The displaced model's build report no longer describes
                // what serves.
                *report = None;
                ds_obs::global().count("store/hot_swaps", 1);
                Ok(SwapOutcome {
                    previous,
                    previous_generation,
                    generation: next,
                })
            }
            Some(Slot::Training { .. }) => Err(StoreError::NotReady(
                name.to_string(),
                SketchStatus::Training,
            )),
            Some(Slot::Failed(e)) => Err(StoreError::NotReady(
                name.to_string(),
                SketchStatus::Failed(e.clone()),
            )),
        }
    }

    /// Status of one sketch.
    pub fn status(&self, name: &str) -> Result<SketchStatus, StoreError> {
        self.poll();
        let slots = self.slots.read();
        match slots.get(name) {
            None => Err(StoreError::UnknownSketch(name.to_string())),
            Some(Slot::Training { .. }) => Ok(SketchStatus::Training),
            Some(Slot::Ready { .. }) => Ok(SketchStatus::Ready),
            Some(Slot::Failed(e)) => Ok(SketchStatus::Failed(e.clone())),
        }
    }

    /// Fetches a ready sketch for querying.
    pub fn get(&self, name: &str) -> Result<Arc<DeepSketch>, StoreError> {
        self.get_with_generation(name).map(|(sketch, _)| sketch)
    }

    /// Fetches a ready sketch together with its store generation. The
    /// generation uniquely identifies *this* model: after a remove/insert
    /// or background-training swap under the same name, the generation
    /// changes, so holders can detect (and refuse to mix state across)
    /// model swaps.
    pub fn get_with_generation(&self, name: &str) -> Result<(Arc<DeepSketch>, u64), StoreError> {
        self.poll();
        let slots = self.slots.read();
        match slots.get(name) {
            None => Err(StoreError::UnknownSketch(name.to_string())),
            Some(Slot::Ready {
                sketch, generation, ..
            }) => Ok((Arc::clone(sketch), *generation)),
            Some(Slot::Training { .. }) => Err(StoreError::NotReady(
                name.to_string(),
                SketchStatus::Training,
            )),
            Some(Slot::Failed(e)) => Err(StoreError::NotReady(
                name.to_string(),
                SketchStatus::Failed(e.clone()),
            )),
        }
    }

    /// The generation of a ready sketch, or `None` while it is missing,
    /// training, or failed.
    pub fn generation(&self, name: &str) -> Option<u64> {
        self.get_with_generation(name).ok().map(|(_, g)| g)
    }

    /// The build report of a background-trained sketch, if available.
    pub fn report(&self, name: &str) -> Option<BuildReport> {
        self.poll();
        let slots = self.slots.read();
        match slots.get(name) {
            Some(Slot::Ready { report, .. }) => report.clone(),
            _ => None,
        }
    }

    /// Blocks until `name` finishes training (ready or failed).
    pub fn wait(&self, name: &str) -> Result<Arc<DeepSketch>, StoreError> {
        // Take the join handle out so we can block without holding the lock.
        let handle = {
            let mut slots = self.slots.write();
            match slots.get_mut(name) {
                None => return Err(StoreError::UnknownSketch(name.to_string())),
                Some(Slot::Training { handle, .. }) => handle.take(),
                Some(_) => None,
            }
        };
        if let Some(h) = handle {
            let _ = h.join();
        }
        self.poll();
        self.get(name)
    }

    /// Removes a sketch (any state). Returns true if it existed.
    pub fn remove(&self, name: &str) -> bool {
        let existed = self.slots.write().remove(name).is_some();
        if existed {
            ds_obs::global().count("store/removes", 1);
        }
        existed
    }

    /// Atomically snapshots one ready sketch to `dir` at its current
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

    /// Encodes one ready sketch into the checksummed `DSNP` byte layout
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
    /// the offer is ignored when a ready sketch of the same name already
    /// serves at an equal or newer generation, and otherwise replaces
    /// whatever slot holds the name (including training or failed slots —
    /// a validated remote model beats a broken local one). The store's
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
        let mut slots = self.slots.write();
        if let Some(Slot::Ready { generation, .. }) = slots.get(&snap.name) {
            if *generation >= snap.generation {
                return Ok(AdoptOutcome::Stale {
                    current: *generation,
                    offered: snap.generation,
                });
            }
        }
        slots.insert(
            snap.name.clone(),
            Slot::Ready {
                sketch: Arc::new(snap.sketch),
                report: None,
                generation: snap.generation,
            },
        );
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

    /// Snapshots every ready sketch (see [`SketchStore::save_snapshot`]).
    /// Returns how many were written.
    pub fn save_snapshots(
        &self,
        dir: &Path,
        monitors: Option<&MonitorRegistry>,
    ) -> Result<usize, StoreError> {
        self.poll();
        let names: Vec<String> = {
            let slots = self.slots.read();
            slots
                .iter()
                .filter(|(_, s)| matches!(s, Slot::Ready { .. }))
                .map(|(n, _)| n.clone())
                .collect()
        };
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
        Self::open_dir_with_vocabulary(dir, None)
    }

    /// As [`SketchStore::open_dir`], but additionally enforces the server's
    /// configured feature-schema vocabulary: a snapshot that decodes
    /// cleanly but carries a different [`crate::featurize::FeatureSchema`]
    /// is quarantined with [`QuarantineReason::SchemaMismatch`] instead of
    /// silently serving features its model was never trained on. Recovery
    /// falls back to the next older generation of the same name, exactly as
    /// for corruption.
    pub fn open_dir_with_vocabulary(
        dir: &Path,
        expected_schema: Option<crate::featurize::FeatureSchema>,
    ) -> Result<(Self, MonitorRegistry, RecoveryReport), StoreError> {
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
                        let found = snap.sketch.featurizer().schema();
                        if let Some(expected) = expected_schema {
                            if found != expected {
                                Self::quarantine(
                                    dir,
                                    &path,
                                    &mut report,
                                    QuarantineReason::SchemaMismatch { expected, found },
                                );
                                continue;
                            }
                        }
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

    /// Harvests finished background trainings into ready/failed slots.
    fn poll(&self) {
        let mut slots = self.slots.write();
        let names: Vec<String> = slots
            .iter()
            .filter(|(_, s)| matches!(s, Slot::Training { .. }))
            .map(|(n, _)| n.clone())
            .collect();
        for name in names {
            let done = {
                let Slot::Training { rx, .. } = slots.get_mut(&name).expect("just listed") else {
                    continue;
                };
                let rx = rx.get_mut().expect("training receiver mutex");
                match rx.try_recv() {
                    Ok(result) => Some(result),
                    Err(TryRecvError::Empty) => None,
                    Err(TryRecvError::Disconnected) => {
                        Some(Err("training thread vanished".to_string()))
                    }
                }
            };
            if let Some(result) = done {
                let obs = ds_obs::global();
                let slot = match result {
                    Ok((sketch, report)) => {
                        // A Training slot becoming Ready is the atomic swap
                        // serving traffic observes.
                        obs.count("store/swaps_ready", 1);
                        Slot::Ready {
                            sketch: Arc::new(sketch),
                            report: Some(report),
                            generation: self.next_generation(),
                        }
                    }
                    Err(e) => {
                        obs.count("store/swaps_failed", 1);
                        Slot::Failed(e)
                    }
                };
                slots.insert(name, slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_query::parser::parse_query;
    use ds_query::workloads::imdb_predicate_columns;
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

    #[test]
    fn insert_get_estimate() {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let store = SketchStore::new();
        store.insert("imdb", tiny_sketch(&db, 1)).unwrap();
        assert_eq!(store.status("imdb").unwrap(), SketchStatus::Ready);
        let q = parse_query(&db, "SELECT COUNT(*) FROM title WHERE title.kind_id = 1").unwrap();
        assert!(store.get("imdb").unwrap().estimate_one(&q) >= 1.0);
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
    fn background_training_while_querying() {
        let db = Arc::new(imdb_database(&ImdbConfig::tiny(3)));
        let store = SketchStore::new();
        store.insert("prebuilt", tiny_sketch(&db, 5)).unwrap();

        let cols = imdb_predicate_columns(&db);
        store
            .train_in_background(
                "fresh",
                Arc::clone(&db),
                |b| {
                    b.training_queries(150)
                        .epochs(2)
                        .sample_size(8)
                        .hidden_units(8)
                        .seed(9)
                },
                cols,
            )
            .unwrap();

        // The pre-built model keeps answering while 'fresh' trains.
        let q = parse_query(&db, "SELECT COUNT(*) FROM title WHERE title.kind_id = 1").unwrap();
        assert!(store.get("prebuilt").unwrap().estimate_one(&q) >= 1.0);

        // Eventually the new sketch becomes ready.
        let fresh = store.wait("fresh").unwrap();
        assert!(fresh.estimate_one(&q) >= 1.0);
        assert_eq!(store.status("fresh").unwrap(), SketchStatus::Ready);
        assert!(store.report("fresh").is_some());
        let listing = store.list();
        assert_eq!(listing.len(), 2);
        assert!(listing.iter().all(|(_, s)| *s == SketchStatus::Ready));
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
    fn open_dir_with_vocabulary_quarantines_schema_mismatch() {
        use crate::featurize::FeatureSchema;
        let db = imdb_database(&ImdbConfig::tiny(13));
        let v2 = SketchBuilder::new(&db, imdb_predicate_columns(&db))
            .training_queries(120)
            .epochs(2)
            .sample_size(8)
            .hidden_units(8)
            .feature_schema_v2(4)
            .seed(1)
            .build()
            .expect("v2 sketch");
        let store = SketchStore::new();
        store.insert("mixed", v2).unwrap();
        let dir = std::env::temp_dir().join(format!("ds_snap_vocab_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        store.save_snapshot(&dir, "mixed", None).unwrap();

        // A v1-vocabulary server refuses the v2 snapshot with a typed
        // reason instead of serving features the model never saw.
        let (restored, _, report) =
            SketchStore::open_dir_with_vocabulary(&dir, Some(FeatureSchema::V1)).unwrap();
        assert!(report.loaded.is_empty());
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(
            report.quarantined[0].1,
            QuarantineReason::SchemaMismatch {
                expected: FeatureSchema::V1,
                found: FeatureSchema::V2,
            }
        );
        assert!(matches!(
            restored.get("mixed"),
            Err(StoreError::UnknownSketch(_))
        ));
        let rendered = report.quarantined[0].1.to_string();
        assert!(rendered.contains("server vocabulary"), "{rendered}");

        // A matching vocabulary (or no vocabulary at all) loads it fine.
        std::fs::remove_dir_all(&dir).ok();
        store.save_snapshot(&dir, "mixed", None).unwrap();
        let (ok_store, _, ok_report) =
            SketchStore::open_dir_with_vocabulary(&dir, Some(FeatureSchema::V2)).unwrap();
        assert_eq!(ok_report.loaded.len(), 1);
        assert!(ok_report.quarantined.is_empty());
        assert!(ok_store.get("mixed").is_ok());
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
    fn remove_and_unknown_statuses() {
        let db = imdb_database(&ImdbConfig::tiny(5));
        let store = SketchStore::new();
        store.insert("gone", tiny_sketch(&db, 1)).unwrap();
        assert!(store.remove("gone"));
        assert!(!store.remove("gone"));
        assert!(matches!(
            store.status("gone"),
            Err(StoreError::UnknownSketch(_))
        ));
    }
}
