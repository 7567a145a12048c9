//! The automated retrain-and-hot-swap lifecycle: the closed loop that
//! turns a servable sketch into a *self-maintaining* one.
//!
//! "Are We Ready For Learned Cardinality Estimation?" identifies
//! staleness under data drift as the production blocker for learned
//! estimators; the drift advisor ([`crate::advisor::recommend_retraining`])
//! detects the drift but leaves the fix to a human. This module closes
//! the loop as a per-sketch state machine driven by a periodic `tick`
//! (DESIGN.md §13 draws it):
//!
//! * **Harvesting** — FEEDBACK-graded queries (SQL + true cardinality)
//!   accumulate in a bounded, deduplicated [`HarvestSet`], keyed on the
//!   serving tier's canonical template key plus the predicate literals.
//! * **Training** — when the drift advisor fires and enough labeled
//!   queries are harvested, a candidate trains on a dedicated background
//!   thread; the live sketch keeps serving untouched.
//! * **Shadow** — the candidate is scored against the live sketch on
//!   mirrored graded queries, each in a forward pass of its own; the
//!   candidate never serves a client response.
//! * **Swap / Watching** — if the candidate passes the gate, the old
//!   generation is snapshotted (crash-safe `DSNP`) and the candidate is
//!   hot-swapped in via [`SketchStore::swap`]. The first post-swap window
//!   mirrors the other way: the replaced model is scored on the queries
//!   the candidate answers, and if the candidate is worse by more than the
//!   guard ratio, the replaced model is swapped straight back in.
//!
//! Both decisions read one statistic of one window of pairs: the median,
//! over queries both models answered, of the candidate's q-error over the
//! other model's. The gate swaps iff it is at most `shadow_gate_ratio`;
//! the guard rolls back iff it exceeds `guard_ratio`.
//!
//! Each sketch's stage owns what its phase needs (trainer, mirror model,
//! window of pairs); transitions are plain functions of it, and
//! [`LifecycleManager::tick`] is the driver that performs what they ask.
//!
//! Candidates and in-flight training are deliberately *not* durable: a
//! crash mid-retrain loses nothing but CPU time — the harvest set is
//! persisted separately (`DSHV` files, same checksum discipline as
//! `DSNP`) and a warm restart resumes harvesting from where it left off.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use ds_nn::loss::LabelNormalizer;
use ds_obs::{Counter, PromText};
use ds_query::parser::parse_query;
use ds_query::query::Query;
use ds_storage::catalog::Database;

use crate::advisor::recommend_retraining;
use crate::maintain::{DEFAULT_DRIFT_RATIO, DEFAULT_MIN_SAMPLES};
use crate::monitor::{baseline_from_qerrors, MonitorRegistry};
use crate::mscn::{MscnConfig, MscnModel};
use crate::sketch::DeepSketch;
use crate::snapshot::{
    body_error, bounded_len, bounded_string, open, publish, seal, valid_snapshot_name,
    SnapshotError,
};
use crate::store::{SketchStore, StoreError, SwapOutcome};
use crate::train::{train, TrainConfig};

/// Magic bytes of a durable harvest-set file.
pub const HARVEST_MAGIC: [u8; 4] = *b"DSHV";

/// Current harvest-set format version.
pub const HARVEST_VERSION: u32 = 1;

/// File extension of durable harvest sets (`<sketch>.harvest`).
pub const HARVEST_EXT: &str = "harvest";

/// Decode cap on the entry count — far above any real harvest set.
pub const MAX_HARVEST_ENTRIES: u64 = 1 << 20;

/// Decode cap on one dedup key.
pub const MAX_HARVEST_KEY_LEN: u64 = 1 << 10;

/// Decode cap on one harvested SQL string.
pub const MAX_HARVEST_SQL_LEN: u64 = 1 << 16;

/// Hard cap on a window's scored pairs, so a stuck gate can never grow
/// memory without bound.
const MAX_SCORE_SAMPLES: usize = 4096;

// ---------------------------------------------------------------------------
// Harvest set
// ---------------------------------------------------------------------------

/// One harvested training example: a FEEDBACK-graded query with its true
/// cardinality, deduplicated by canonical key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarvestEntry {
    /// Canonical dedup key (template key + predicate literals).
    pub key: String,
    /// The query's SQL, re-parsed at retrain time.
    pub sql: String,
    /// True cardinality reported over FEEDBACK — the training label.
    pub actual: u64,
    /// Monotonic observation sequence; newest wins on dedup, oldest is
    /// evicted on overflow.
    pub seq: u64,
}

/// A bounded, deduplicated incremental training set harvested from
/// FEEDBACK traffic. Duplicate keys keep only the newest observation
/// (drifted data re-labels a repeated query); overflow evicts the
/// least-recently-observed entry.
#[derive(Debug, Clone)]
pub struct HarvestSet {
    capacity: usize,
    next_seq: u64,
    entries: HashMap<String, HarvestEntry>,
}

impl HarvestSet {
    /// An empty set holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            next_seq: 0,
            entries: HashMap::new(),
        }
    }

    /// Number of distinct harvested queries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been harvested.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every entry (after a candidate consumed the set).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Records one graded query. Returns `true` when the key is new.
    /// Oversized keys or SQL (beyond the decode caps) are refused rather
    /// than harvested — they could never round-trip through the durable
    /// format.
    pub fn observe(&mut self, key: &str, sql: &str, actual: u64) -> bool {
        if key.is_empty()
            || key.len() as u64 > MAX_HARVEST_KEY_LEN
            || sql.len() as u64 > MAX_HARVEST_SQL_LEN
        {
            return false;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(entry) = self.entries.get_mut(key) {
            entry.sql = sql.to_string();
            entry.actual = actual;
            entry.seq = seq;
            return false;
        }
        if self.entries.len() >= self.capacity {
            self.evict_oldest();
        }
        self.entries.insert(
            key.to_string(),
            HarvestEntry {
                key: key.to_string(),
                sql: sql.to_string(),
                actual,
                seq,
            },
        );
        true
    }

    /// The harvested entries in observation order (oldest first) — the
    /// deterministic order the durable format stores.
    pub fn entries(&self) -> Vec<HarvestEntry> {
        let mut out: Vec<HarvestEntry> = self.entries.values().cloned().collect();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Encodes the set into the checksummed `DSHV` byte layout:
    ///
    /// ```text
    /// "DSHV" | version u32 | count u64
    ///   | per entry: key str | sql str | actual u64 | seq u64
    /// | FNV-1a-64 checksum over everything above
    /// ```
    ///
    /// Entries are stored sorted by `seq`, so encoding is canonical: any
    /// accepted byte string re-encodes to itself.
    pub fn encode(&self) -> Vec<u8> {
        let entries = self.entries();
        seal(&HARVEST_MAGIC, HARVEST_VERSION, |e| {
            e.u64(entries.len() as u64);
            for entry in &entries {
                e.string(&entry.key);
                e.string(&entry.sql);
                e.u64(entry.actual);
                e.u64(entry.seq);
            }
        })
    }

    /// Decodes and fully validates a `DSHV` byte string. Every length
    /// field is bounds-checked before allocation, duplicate keys and
    /// non-ascending sequence numbers are rejected as corrupt, and the
    /// checksum trailer must match — this function never panics on
    /// arbitrary input. When the file holds more than `capacity` entries
    /// the newest `capacity` survive.
    pub fn decode(bytes: &[u8], capacity: usize) -> Result<Self, SnapshotError> {
        // The entry count is part of every harvest file, so one too short
        // to hold it is truncated whatever else it says.
        if bytes.len() < 4 + 4 + 8 + 8 {
            return Err(SnapshotError::Truncated);
        }
        let mut d = open(bytes, &HARVEST_MAGIC, HARVEST_VERSION)?;
        let count = bounded_len(&mut d, MAX_HARVEST_ENTRIES, "harvest entry count")?;
        let mut set = Self::new(capacity.max(1));
        let mut last_seq: Option<u64> = None;
        for _ in 0..count {
            let key = bounded_string(&mut d, MAX_HARVEST_KEY_LEN, "harvest key")?;
            let sql = bounded_string(&mut d, MAX_HARVEST_SQL_LEN, "harvest sql")?;
            let actual = d.u64().map_err(body_error)?;
            let seq = d.u64().map_err(body_error)?;
            if key.is_empty() {
                return Err(SnapshotError::Corrupt("empty harvest key".to_string()));
            }
            if last_seq.is_some_and(|prev| seq <= prev) {
                return Err(SnapshotError::Corrupt(
                    "harvest sequence numbers not ascending".to_string(),
                ));
            }
            last_seq = Some(seq);
            let entry = HarvestEntry {
                key: key.clone(),
                sql,
                actual,
                seq,
            };
            if set.entries.insert(key, entry).is_some() {
                return Err(SnapshotError::Corrupt("duplicate harvest key".to_string()));
            }
        }
        if !d.is_done() {
            return Err(SnapshotError::Corrupt(
                "trailing bytes after harvest entries".to_string(),
            ));
        }
        set.next_seq = last_seq.map_or(0, |s| s + 1);
        // Enforce the bound on oversized files: evict oldest-first.
        for _ in set.capacity..set.entries.len() {
            set.evict_oldest();
        }
        Ok(set)
    }

    /// Drops the least-recently-observed entry, if any.
    fn evict_oldest(&mut self) {
        if let Some(oldest) = self
            .entries
            .values()
            .min_by_key(|e| e.seq)
            .map(|e| e.key.clone())
        {
            self.entries.remove(&oldest);
        }
    }

    /// Durably writes the set as `<dir>/<name>.harvest`, through the same
    /// atomic write protocol as the snapshots beside it.
    pub fn save(&self, dir: &Path, name: &str) -> Result<PathBuf, SnapshotError> {
        let path = harvest_path(dir, name)?;
        let tmp = path.with_extension(format!("{HARVEST_EXT}.tmp"));
        publish(dir, tmp, path, &self.encode())
    }

    /// Loads `<dir>/<name>.harvest` if present. `Ok(None)` when the file
    /// does not exist; decode failures surface as typed errors so a
    /// corrupt file is never silently adopted.
    pub fn load(dir: &Path, name: &str, capacity: usize) -> Result<Option<Self>, SnapshotError> {
        match std::fs::read(harvest_path(dir, name)?) {
            Ok(bytes) => Self::decode(&bytes, capacity).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(SnapshotError::Io(e)),
        }
    }
}

/// `<dir>/<name>.harvest`, for a valid snapshot name.
fn harvest_path(dir: &Path, name: &str) -> Result<PathBuf, SnapshotError> {
    (valid_snapshot_name(name).then(|| dir.join(format!("{name}.{HARVEST_EXT}"))))
        .ok_or_else(|| SnapshotError::InvalidName(name.to_string()))
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Tuning for the retrain-and-hot-swap lifecycle.
#[derive(Debug, Clone)]
pub struct LifecycleConfig {
    /// Bound on the per-sketch harvest set.
    pub harvest_capacity: usize,
    /// Minimum harvested queries before a retrain may start.
    pub min_harvest: usize,
    /// Drift severity (rolling/baseline q-error ratio) that arms a
    /// retrain, fed to [`recommend_retraining`].
    pub drift_ratio: f64,
    /// Minimum rolling-window samples before drift is trusted.
    pub drift_min_samples: u64,
    /// Scored pairs required before the shadow gate decides.
    pub shadow_min_samples: usize,
    /// The candidate is swapped in iff the shadow window's median of its
    /// q-error over the live model's is at most this.
    pub shadow_gate_ratio: f64,
    /// Scored pairs required after the swap before the guard decides.
    pub guard_min_samples: usize,
    /// Auto-rollback fires when the median, over the guard window's pairs,
    /// of the candidate's q-error over the replaced model's exceeds this.
    /// The gap to `shadow_gate_ratio` is hysteresis: a candidate the gate
    /// just passed is not rolled back on the same evidence.
    pub guard_ratio: f64,
    /// Epochs for the incremental retrain (small: it refines, not
    /// rebuilds).
    pub train_epochs: usize,
    /// Lanes for the background training (off the serving path). The
    /// default stays 1: a retrain shares the host with the server it
    /// retrains for, and at one lane it spawns nothing.
    pub train_threads: usize,
    /// Seed for candidate weight init and shuffling.
    pub seed: u64,
    /// Cadence of the daemon's state-machine tick.
    pub tick_interval: Duration,
}

impl Default for LifecycleConfig {
    fn default() -> Self {
        Self {
            harvest_capacity: 1024,
            min_harvest: 64,
            drift_ratio: DEFAULT_DRIFT_RATIO,
            drift_min_samples: DEFAULT_MIN_SAMPLES,
            shadow_min_samples: 32,
            shadow_gate_ratio: 1.1,
            guard_min_samples: 32,
            guard_ratio: 2.0,
            train_epochs: 8,
            train_threads: 1,
            seed: 0x11FE_C0DE,
            tick_interval: Duration::from_millis(200),
        }
    }
}

impl LifecycleConfig {
    /// Checks every invariant; the serving config surfaces violations as
    /// its own typed error.
    pub fn validate(&self) -> Result<(), String> {
        let positive = |x: f64| !x.is_nan() && x > 0.0;
        let violated = [
            (self.harvest_capacity == 0, "harvest_capacity must be > 0"),
            (
                self.min_harvest == 0 || self.min_harvest > self.harvest_capacity,
                "min_harvest must be in 1..=harvest_capacity",
            ),
            (!positive(self.drift_ratio), "drift_ratio must be > 0"),
            (
                self.shadow_min_samples == 0,
                "shadow_min_samples must be > 0",
            ),
            (
                !positive(self.shadow_gate_ratio),
                "shadow_gate_ratio must be > 0",
            ),
            (self.guard_min_samples == 0, "guard_min_samples must be > 0"),
            (
                self.guard_ratio.is_nan() || self.guard_ratio < 1.0,
                "guard_ratio must be >= 1",
            ),
            (self.train_epochs == 0, "train_epochs must be > 0"),
            (self.train_threads == 0, "train_threads must be > 0"),
            (self.tick_interval.is_zero(), "tick_interval must be > 0"),
        ];
        match violated.into_iter().find(|(bad, _)| *bad) {
            Some((_, rule)) => Err(format!("lifecycle {rule}")),
            None => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// Phases, status, events
// ---------------------------------------------------------------------------

/// Where one sketch stands in the lifecycle state machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LifecyclePhase {
    /// Nothing harvested, nothing in flight.
    #[default]
    Idle = 0,
    /// Graded queries are accumulating; no retrain armed yet.
    Harvesting = 1,
    /// A candidate is training on a background thread.
    Training = 2,
    /// A trained candidate is being shadow-scored on mirrored traffic.
    Shadow = 3,
    /// A candidate was swapped in; the guard window is still open.
    Watching = 4,
}

impl LifecyclePhase {
    /// Stable wire/metrics name.
    pub fn as_str(&self) -> &'static str {
        match self {
            LifecyclePhase::Idle => "idle",
            LifecyclePhase::Harvesting => "harvesting",
            LifecyclePhase::Training => "training",
            LifecyclePhase::Shadow => "shadow",
            LifecyclePhase::Watching => "watching",
        }
    }

    /// Stable numeric code for Prometheus gauges.
    pub fn code(&self) -> u8 {
        *self as u8
    }
}

/// A point-in-time view of one sketch's lifecycle, for the `LIFECYCLE`
/// wire verb and the STATS gauges.
#[derive(Debug, Clone)]
pub struct LifecycleStatus {
    /// Sketch name.
    pub sketch: String,
    /// Current phase.
    pub phase: LifecyclePhase,
    /// Distinct queries currently harvested.
    pub harvested: usize,
    /// Pairs scored so far in the open window (Shadow or Watching).
    pub shadow_pairs: usize,
    /// The window's median of the candidate's q-error over the other
    /// model's (0 until pairs exist).
    pub shadow_ratio: f64,
}

/// Monotonic counters across every sketch the manager drives.
#[derive(Debug, Default)]
pub struct LifecycleCounters {
    /// Distinct queries ever harvested.
    pub harvested: Counter,
    /// Background retrains started.
    pub retrains_started: Counter,
    /// Background retrains that failed (candidate abandoned).
    pub retrains_failed: Counter,
    /// Candidates rejected by the shadow gate.
    pub gate_rejects: Counter,
    /// Hot-swaps performed (promotions *and* rollback re-swaps).
    pub swaps: Counter,
    /// Guard-triggered rollbacks.
    pub rollbacks: Counter,
    /// Candidates that survived the guard window.
    pub promotions: Counter,
}

/// What one [`LifecycleManager::tick`] decided.
#[derive(Debug, Clone)]
pub enum LifecycleEvent {
    /// Drift fired with enough harvest; a candidate started training.
    RetrainStarted {
        /// Sketch being retrained.
        sketch: String,
        /// Harvested examples handed to the trainer.
        harvested: usize,
    },
    /// Background training failed; the candidate was abandoned.
    TrainingFailed {
        /// Sketch whose retrain failed.
        sketch: String,
        /// The trainer's error.
        error: String,
    },
    /// A trained candidate entered shadow scoring.
    ShadowStarted {
        /// Sketch being shadowed.
        sketch: String,
    },
    /// The shadow gate rejected the candidate.
    GateRejected {
        /// Sketch whose candidate was rejected.
        sketch: String,
        /// The shadow window's median of the candidate's q-error over the
        /// live model's.
        ratio: f64,
    },
    /// The candidate was hot-swapped in (old generation snapshotted
    /// first when a snapshot directory is configured).
    Swapped {
        /// Sketch that was swapped.
        sketch: String,
        /// Generation that was serving before the swap.
        previous_generation: u64,
        /// Generation now serving.
        generation: u64,
        /// Durable snapshot of the old generation, when written.
        snapshot: Option<PathBuf>,
    },
    /// The guard tripped; the previous model was swapped back in.
    RolledBack {
        /// Sketch that was rolled back.
        sketch: String,
        /// Fresh generation the restored model serves under.
        generation: u64,
    },
    /// The guard window closed clean; the candidate is now the model.
    Promoted {
        /// Sketch whose candidate survived.
        sketch: String,
        /// Generation it serves under.
        generation: u64,
    },
}

// ---------------------------------------------------------------------------
// Stages and transitions
// ---------------------------------------------------------------------------

/// A model that serves no client, scored beside the serving one on the
/// same graded queries, and the window of pairs it has scored.
struct Mirror {
    model: Arc<DeepSketch>,
    /// Per pair: the candidate's q-error over the other model's.
    ratios: Vec<f64>,
}

impl Mirror {
    fn new(model: Arc<DeepSketch>) -> Self {
        Self {
            model,
            ratios: Vec::new(),
        }
    }

    /// Scores one query both models answered.
    fn score(&mut self, candidate_q: f64, other_q: f64) {
        if self.ratios.len() < MAX_SCORE_SAMPLES {
            self.ratios.push(candidate_q / other_q);
        }
    }

    /// The window's median ratio, once it holds `min` pairs. The log form
    /// picks the same pair, so it decides the same.
    fn ratio(&self, min: usize) -> Option<f64> {
        if self.ratios.len() < min {
            return None;
        }
        let mut sorted = self.ratios.clone();
        sorted.sort_by(f64::total_cmp);
        sorted.get(sorted.len() / 2).copied()
    }
}

/// Where one sketch stands; each variant carries exactly what its phase needs.
enum Stage {
    /// No retrain in flight; graded queries accumulate in the harvest. The
    /// phase reads `Idle` while the harvest is empty, `Harvesting` after.
    Harvesting,
    /// A trainer thread, which sends one result.
    Training(Receiver<Result<DeepSketch, String>>, JoinHandle<()>),
    /// The candidate, scored on queries the live model answered.
    Shadow(Mirror),
    /// The candidate serves under this generation; the model it replaced,
    /// the rollback target, is scored on what that generation answered.
    Watching(Mirror, u64),
}

/// One sketch's lifecycle: its stage and its harvest.
struct SketchState {
    stage: Stage,
    harvest: HarvestSet,
    /// The harvest changed since it was last persisted.
    harvest_dirty: bool,
}

impl SketchState {
    fn new(harvest_capacity: usize) -> Self {
        Self {
            stage: Stage::Harvesting,
            harvest: HarvestSet::new(harvest_capacity),
            harvest_dirty: false,
        }
    }

    /// Harvests one graded query. True when it is new to the harvest.
    fn observe(&mut self, key: &str, sql: &str, actual: u64) -> bool {
        self.harvest_dirty = true;
        self.harvest.observe(key, sql, actual)
    }

    /// Pairs one mirrored graded query as [`LifecycleManager::observe_shadow`]
    /// does: in Shadow the candidate is the mirror, in Watching it serves.
    fn pair(&mut self, generation: u64, served_q: f64, mirrored_q: f64) {
        match &mut self.stage {
            Stage::Shadow(shadow) => shadow.score(mirrored_q, served_q),
            Stage::Watching(watch, candidate) if *candidate == generation => {
                watch.score(served_q, mirrored_q)
            }
            _ => {}
        }
    }

    /// The public view of the stage.
    fn phase(&self) -> LifecyclePhase {
        match self.stage {
            Stage::Harvesting if self.harvest.is_empty() => LifecyclePhase::Idle,
            Stage::Harvesting => LifecyclePhase::Harvesting,
            Stage::Training(..) => LifecyclePhase::Training,
            Stage::Shadow(_) => LifecyclePhase::Shadow,
            Stage::Watching(..) => LifecyclePhase::Watching,
        }
    }

    /// The model mirrored graded queries are scored on, if any.
    fn mirror(&self) -> Option<&Mirror> {
        match &self.stage {
            Stage::Shadow(mirror) | Stage::Watching(mirror, _) => Some(mirror),
            _ => None,
        }
    }
}

// Each transition below is a function of its stage, the harvest, the config
// and one input (the advisor's verdict, a training result or a swap
// outcome). None touches a store, monitor, database, file, thread, channel
// or clock: the driver, `LifecycleManager::tick`, performs what they ask.

/// The stage a transition settles on and the event it reports. Settling on
/// `Harvesting` spends the harvest: the candidate it trained is settled or
/// failed, and the same set would only train the same candidate again.
type Next = (Stage, Option<LifecycleEvent>);

/// What a transition on a tick decided: a stage to enter, or an action to
/// perform first, whose outcome is the named transition's input.
enum Step {
    Enter(Next),
    /// Spawn a trainer on these entries, then [`spawned`].
    Train(Vec<HarvestEntry>),
    /// Snapshot the serving generation, swap the candidate in, then
    /// [`swapped`].
    Swap(Arc<DeepSketch>),
    /// Swap the previous model back in, then [`rolled_back`].
    Rollback(Arc<DeepSketch>),
}

/// Harvesting, on the advisor's verdict: advised drift with `min_harvest`
/// queries harvested asks for a trainer.
fn advise(harvest: &HarvestSet, cfg: &LifecycleConfig, advised: bool) -> Option<Step> {
    (advised && harvest.len() >= cfg.min_harvest).then(|| Step::Train(harvest.entries()))
}

/// Harvesting, on the trainer's spawn: a thread the OS refused is a failed
/// training.
fn spawned(name: &str, harvest: &HarvestSet, job: Result<Stage, String>) -> Next {
    let started = LifecycleEvent::RetrainStarted {
        sketch: name.to_string(),
        harvested: harvest.len(),
    };
    match job {
        Ok(training) => (training, Some(started)),
        Err(error) => trained(name, Err(error)),
    }
}

/// Training, on the trainer's result: a candidate enters shadow scoring.
fn trained(name: &str, result: Result<DeepSketch, String>) -> Next {
    let sketch = name.to_string();
    match result {
        Ok(candidate) => (
            Stage::Shadow(Mirror::new(Arc::new(candidate))),
            Some(LifecycleEvent::ShadowStarted { sketch }),
        ),
        Err(error) => (
            Stage::Harvesting,
            Some(LifecycleEvent::TrainingFailed { sketch, error }),
        ),
    }
}

/// Shadow, on a tick: with `shadow_min_samples` pairs scored, a candidate
/// whose median ratio is at most `shadow_gate_ratio` asks for a swap; a
/// worse one is rejected.
fn gate(name: &str, shadow: &Mirror, cfg: &LifecycleConfig) -> Option<Step> {
    let ratio = shadow.ratio(cfg.shadow_min_samples)?;
    Some(if ratio <= cfg.shadow_gate_ratio {
        Step::Swap(Arc::clone(&shadow.model))
    } else {
        let rejected = LifecycleEvent::GateRejected {
            sketch: name.to_string(),
            ratio,
        };
        Step::Enter((Stage::Harvesting, Some(rejected)))
    })
}

/// Shadow, on the swap's outcome and the snapshot written before it: the
/// guard window opens on the replaced model. A refused swap means the
/// sketch vanished (removed or failed) mid-shadow, and the candidate is
/// abandoned.
fn swapped(
    name: &str,
    outcome: Result<SwapOutcome, StoreError>,
    snapshot: Option<PathBuf>,
) -> Next {
    let Ok(outcome) = outcome else {
        return (Stage::Harvesting, None);
    };
    let event = LifecycleEvent::Swapped {
        sketch: name.to_string(),
        previous_generation: outcome.previous_generation,
        generation: outcome.generation,
        snapshot,
    };
    let watch = Mirror::new(outcome.previous);
    (Stage::Watching(watch, outcome.generation), Some(event))
}

/// Watching, on a tick: with `guard_min_samples` pairs scored, a median
/// ratio past `guard_ratio` asks for a rollback, and anything better
/// promotes the candidate serving under `generation`.
fn guard(name: &str, watch: &Mirror, generation: u64, cfg: &LifecycleConfig) -> Option<Step> {
    if watch.ratio(cfg.guard_min_samples)? > cfg.guard_ratio {
        return Some(Step::Rollback(Arc::clone(&watch.model)));
    }
    let promoted = LifecycleEvent::Promoted {
        sketch: name.to_string(),
        generation,
    };
    Some(Step::Enter((Stage::Harvesting, Some(promoted))))
}

/// Watching, on the rollback swap's outcome. A refused swap (the sketch is
/// gone) leaves the durable snapshot as the recovery path.
fn rolled_back(name: &str, outcome: Result<SwapOutcome, StoreError>) -> Next {
    let rolled_back = outcome.ok().map(|outcome| LifecycleEvent::RolledBack {
        sketch: name.to_string(),
        generation: outcome.generation,
    });
    (Stage::Harvesting, rolled_back)
}

impl LifecycleCounters {
    /// Counts what one event reports.
    fn count(&self, event: &LifecycleEvent) {
        match event {
            LifecycleEvent::RetrainStarted { .. } => self.retrains_started.inc(),
            LifecycleEvent::TrainingFailed { .. } => self.retrains_failed.inc(),
            LifecycleEvent::ShadowStarted { .. } => {}
            LifecycleEvent::GateRejected { .. } => self.gate_rejects.inc(),
            LifecycleEvent::Swapped { .. } => self.swaps.inc(),
            LifecycleEvent::RolledBack { .. } => {
                self.rollbacks.inc();
                self.swaps.inc();
            }
            LifecycleEvent::Promoted { .. } => self.promotions.inc(),
        }
    }
}

// ---------------------------------------------------------------------------
// Manager: the driver
// ---------------------------------------------------------------------------

/// Drives the retrain-and-hot-swap state machine for every sketch that
/// receives feedback. `Sync`: the serving tier shares one manager between
/// its request handlers (harvest recording) and the daemon (ticks and
/// mirror scoring).
pub struct LifecycleManager {
    cfg: LifecycleConfig,
    states: Mutex<BTreeMap<String, SketchState>>,
    /// Sketches currently in Shadow or Watching — lets the serving path
    /// skip the state lock entirely when nothing is being mirrored.
    shadow_active: AtomicU64,
    counters: LifecycleCounters,
}

impl LifecycleManager {
    /// A manager with validated configuration.
    pub fn new(cfg: LifecycleConfig) -> Result<Self, String> {
        cfg.validate()?;
        Ok(Self {
            cfg,
            states: Mutex::new(BTreeMap::new()),
            shadow_active: AtomicU64::new(0),
            counters: LifecycleCounters::default(),
        })
    }

    /// Every sketch's lifecycle state, locked. A lock a panicking holder
    /// poisoned is recovered, and the states are consistent: every `Stage`
    /// value carries exactly the data its phase needs, and a stage changes
    /// in one assignment ([`Self::enter`]), so none is half-changed.
    fn states(&self) -> MutexGuard<'_, BTreeMap<String, SketchState>> {
        self.states.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `sketch`'s state, created empty on first use.
    fn state<'a>(
        &self,
        states: &'a mut BTreeMap<String, SketchState>,
        sketch: &str,
    ) -> &'a mut SketchState {
        states
            .entry(sketch.to_string())
            .or_insert_with(|| SketchState::new(self.cfg.harvest_capacity))
    }

    /// Puts `state` in the stage a transition settled on: the one place a
    /// stage changes, so the one place `shadow_active` moves. Spends the
    /// harvest on a return to `Harvesting`, counts the event, and hands
    /// back the stage left with the event.
    fn enter(&self, state: &mut SketchState, (stage, event): Next) -> Next {
        let mirrors = |stage: &Stage| matches!(stage, Stage::Shadow(_) | Stage::Watching(..));
        match (mirrors(&state.stage), mirrors(&stage)) {
            (false, true) => self.shadow_active.fetch_add(1, Ordering::Relaxed),
            (true, false) => self.shadow_active.fetch_sub(1, Ordering::Relaxed),
            _ => 0,
        };
        if matches!(stage, Stage::Harvesting) {
            state.harvest.clear();
            state.harvest_dirty = true;
        }
        if let Some(event) = &event {
            self.counters.count(event);
        }
        (std::mem::replace(&mut state.stage, stage), event)
    }

    /// The configuration this manager runs with.
    pub fn config(&self) -> &LifecycleConfig {
        &self.cfg
    }

    /// Harvests one FEEDBACK-graded query, whichever model answered it: its
    /// true cardinality labels it all the same.
    pub fn observe_feedback(&self, sketch: &str, key: &str, sql: &str, actual: u64) {
        let mut states = self.states();
        if self.state(&mut states, sketch).observe(key, sql, actual) {
            self.counters.harvested.inc();
        }
    }

    /// The model to score `sketch`'s graded queries on: the candidate in
    /// Shadow, the rollback target in Watching, `None` otherwise. The fast
    /// path is one relaxed atomic load when nothing is mirrored anywhere.
    pub fn shadow_model(&self, sketch: &str) -> Option<Arc<DeepSketch>> {
        if self.shadow_active.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let states = self.states();
        Some(Arc::clone(&states.get(sketch)?.mirror()?.model))
    }

    /// The artifacts held beside the store's: each sketch's candidate in
    /// Shadow and rollback target in Watching. Each owns an estimate cache
    /// and a memo, resident while it is held, and a rollback serves the
    /// target with its cache warm.
    pub fn held_models(&self) -> Vec<Arc<DeepSketch>> {
        if self.shadow_active.load(Ordering::Relaxed) == 0 {
            return Vec::new();
        }
        let states = self.states();
        let mirrors = states.values().filter_map(SketchState::mirror);
        mirrors.map(|mirror| Arc::clone(&mirror.model)).collect()
    }

    /// Whether `sketch`'s graded queries are mirrored (the serving path's
    /// cheap pre-check before cloning a query for the daemon).
    pub fn shadowing(&self, sketch: &str) -> bool {
        self.shadow_model(sketch).is_some()
    }

    /// Pairs one mirrored graded query: `served_q` is the q-error of what
    /// the model serving under `generation` answered, `mirrored_q` the
    /// [`Self::shadow_model`]'s. In Watching only the candidate's
    /// generation pairs.
    pub fn observe_shadow(&self, sketch: &str, generation: u64, served_q: f64, mirrored_q: f64) {
        if let Some(state) = self.states().get_mut(sketch) {
            state.pair(generation, served_q, mirrored_q);
        }
    }

    /// Test/bench hook: places an already-trained candidate directly into
    /// the shadow phase (skipping Harvesting/Training), through the same
    /// transition a finished background retrain takes. A trainer still
    /// running is abandoned: its result has no stage left to land in.
    pub fn install_candidate(&self, sketch: &str, candidate: DeepSketch) {
        let mut states = self.states();
        let state = self.state(&mut states, sketch);
        let _left = self.enter(state, trained(sketch, Ok(candidate)));
    }

    /// A point-in-time view of one sketch (even if it has no lifecycle
    /// state yet — that reads as `Idle`).
    pub fn status(&self, sketch: &str) -> LifecycleStatus {
        Self::status_of(
            sketch,
            self.states().get(sketch).unwrap_or(&SketchState::new(1)),
        )
    }

    fn status_of(name: &str, state: &SketchState) -> LifecycleStatus {
        let mirror = state.mirror();
        LifecycleStatus {
            sketch: name.to_string(),
            phase: state.phase(),
            harvested: state.harvest.len(),
            shadow_pairs: mirror.map_or(0, |m| m.ratios.len()),
            shadow_ratio: mirror.and_then(|m| m.ratio(1)).unwrap_or(0.0),
        }
    }

    /// The manager-wide counters.
    pub fn counters(&self) -> &LifecycleCounters {
        &self.counters
    }

    /// Renders the manager-wide counters and, per sketch with lifecycle
    /// state, its phase, harvest size and its open window's median ratio
    /// (0 before pairs exist).
    pub fn render(&self, p: &mut PromText) {
        let c = &self.counters;
        p.counter("serve/lifecycle/harvested", c.harvested.get())
            .counter("serve/lifecycle/retrains_started", c.retrains_started.get())
            .counter("serve/lifecycle/retrains_failed", c.retrains_failed.get())
            .counter("serve/lifecycle/gate_rejects", c.gate_rejects.get())
            .counter("serve/lifecycle/swaps", c.swaps.get())
            .counter("serve/lifecycle/rollbacks", c.rollbacks.get())
            .counter("serve/lifecycle/promotions", c.promotions.get());
        for (name, state) in self.states().iter() {
            let status = Self::status_of(name, state);
            let family = format!("serve/lifecycle/{name}");
            p.gauge(&format!("{family}/phase"), f64::from(status.phase.code()))
                .gauge(&format!("{family}/harvested"), status.harvested as f64)
                .gauge(&format!("{family}/shadow_delta"), status.shadow_ratio);
        }
    }

    /// Durably writes every harvest set that changed since the last
    /// persist (`<dir>/<sketch>.harvest`). Returns how many were written.
    pub fn persist_harvests(&self, dir: &Path) -> usize {
        let mut states = self.states();
        let mut written = 0;
        for (name, state) in states.iter_mut().filter(|(_, s)| s.harvest_dirty) {
            if state.harvest.save(dir, name).is_ok() {
                state.harvest_dirty = false;
                written += 1;
            }
        }
        written
    }

    /// Reloads every `<sketch>.harvest` file in `dir` — the warm-restart
    /// path. Corrupt files are skipped (the set re-harvests from live
    /// traffic); returns how many sets were restored.
    pub fn load_harvests(&self, dir: &Path) -> usize {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        let mut loaded = 0;
        let mut states = self.states();
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(HARVEST_EXT) {
                continue;
            }
            let Some(name) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            let Ok(Some(set)) = HarvestSet::load(dir, name, self.cfg.harvest_capacity) else {
                continue;
            };
            self.counters.harvested.add(set.len() as u64);
            let state = self.state(&mut states, name);
            state.harvest = set;
            state.harvest_dirty = false;
            loaded += 1;
        }
        loaded
    }

    /// One step for every sketch, the driver of the transitions: computes
    /// the advisor's verdicts, polls trainers, and performs what a
    /// transition asks (spawn, snapshot-then-swap, rollback swap), feeding
    /// the outcome on; a promotion snapshots the generation it promoted.
    /// Returns what happened.
    pub fn tick(
        &self,
        store: &SketchStore,
        monitors: &MonitorRegistry,
        db: &Arc<Database>,
        snapshot_dir: Option<&Path>,
    ) -> Vec<LifecycleEvent> {
        let cfg = &self.cfg;
        let advised: HashSet<String> =
            recommend_retraining(store, monitors, cfg.drift_ratio, cfg.drift_min_samples)
                .into_iter()
                .map(|a| a.sketch)
                .collect();

        // A swap resets the sketch's drift monitor: its rolling window graded
        // the model the swap replaced.
        let swap = |name: &str, sketch| {
            let outcome = store.swap(name, sketch);
            if let (Ok(_), Some(monitor)) = (&outcome, monitors.get(name)) {
                monitor.reset();
            }
            outcome
        };
        let mut events = Vec::new();
        let mut states = self.states();
        for (name, state) in states.iter_mut() {
            let step = match &state.stage {
                Stage::Harvesting => advise(&state.harvest, cfg, advised.contains(name)),
                Stage::Training(result, _) => match result.try_recv() {
                    Err(TryRecvError::Empty) => None,
                    // A trainer that panicked sent nothing: a failed training.
                    result => Some(Step::Enter(trained(
                        name,
                        result.unwrap_or_else(|_| Err("candidate training panicked".to_string())),
                    ))),
                },
                Stage::Shadow(shadow) => gate(name, shadow, cfg),
                Stage::Watching(watch, generation) => guard(name, watch, *generation, cfg),
            };
            let next = match step {
                None => continue,
                Some(Step::Enter(next)) => next,
                Some(Step::Train(entries)) => {
                    let Ok(live) = store.get(name) else {
                        continue;
                    };
                    let job = spawn_retrain(name, live, Arc::clone(db), entries, cfg.clone());
                    spawned(name, &state.harvest, job)
                }
                Some(Step::Swap(candidate)) => {
                    // Snapshot the serving generation before touching it —
                    // the durable rollback target even across a crash.
                    let snapshot = snapshot_dir
                        .and_then(|dir| store.save_snapshot(dir, name, Some(monitors)).ok());
                    swapped(name, swap(name, candidate), snapshot)
                }
                Some(Step::Rollback(previous)) => rolled_back(name, swap(name, previous)),
            };
            let (left, event) = self.enter(state, next);
            // Training is left once the trainer has sent its result: join
            // its thread rather than leave it to exit on its own.
            if let Stage::Training(_, thread) = left {
                let _ = thread.join();
            }
            // A promoted candidate is what a warm restart must serve.
            if let (Some(LifecycleEvent::Promoted { .. }), Some(dir)) = (&event, snapshot_dir) {
                let _ = store.save_snapshot(dir, name, Some(monitors));
            }
            events.extend(event);
        }
        events
    }
}

/// The Training stage of a thread training a candidate on `entries`. A
/// thread the OS refuses is an error for [`spawned`], never a panic.
fn spawn_retrain(
    name: &str,
    live: Arc<DeepSketch>,
    db: Arc<Database>,
    entries: Vec<HarvestEntry>,
    cfg: LifecycleConfig,
) -> Result<Stage, String> {
    let (tx, result) = sync_channel(1);
    let thread = std::thread::Builder::new()
        .name(format!("ds-lifecycle-train-{name}"))
        .spawn(move || {
            let _ = tx.send(train_candidate(&live, &db, &entries, &cfg));
        })
        .map_err(|e| format!("the trainer thread did not start: {e}"))?;
    Ok(Stage::Training(result, thread))
}

/// Trains a candidate from the harvested set, reusing the live sketch's
/// featurizer, materialized samples, and hidden width — the incremental
/// refinement path, not a full rebuild. Every failure is a `String`.
fn train_candidate(
    live: &DeepSketch,
    db: &Arc<Database>,
    entries: &[HarvestEntry],
    cfg: &LifecycleConfig,
) -> Result<DeepSketch, String> {
    // Harvested SQL crossed the wire and a process restart; re-parse
    // defensively and skip what no longer parses.
    let (queries, labels): (Vec<Query>, Vec<u64>) = entries
        .iter()
        .filter_map(|e| Some((parse_query(db, &e.sql).ok()?, e.actual)))
        .unzip();
    if queries.is_empty() {
        return Err("no harvested query re-parsed against the catalog".to_string());
    }
    let featurizer = live.featurizer().clone();
    let samples = live.samples().to_vec();
    let normalizer = LabelNormalizer::fit(&labels);
    let mut model = MscnModel::new(
        featurizer.table_dim(),
        featurizer.join_dim(),
        featurizer.pred_dim(),
        MscnConfig {
            hidden: live.artifact().hidden(),
            seed: cfg.seed ^ 0xC0DE,
        },
    );
    let train_cfg = TrainConfig {
        epochs: cfg.train_epochs,
        batch_size: 32.min(queries.len().max(1)),
        seed: cfg.seed ^ 0x7EA1,
        validation_frac: 0.15,
        threads: cfg.train_threads,
    };
    let report = train(
        &mut model,
        &featurizer,
        &samples,
        &queries,
        &labels,
        &normalizer,
        &train_cfg,
    );
    let mut candidate = DeepSketch::from_parts(
        model.freeze(),
        featurizer,
        samples,
        normalizer,
        live.database_name().to_string(),
    );
    candidate.set_threads(cfg.train_threads);
    if let Some(baseline) = baseline_from_qerrors(&report.holdout_qerrors) {
        candidate.set_baseline(baseline);
    }
    Ok(candidate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SketchBuilder;
    use crate::snapshot::checksum;
    use ds_query::sqlgen::to_sql;
    use ds_query::workloads::imdb_predicate_columns;
    use ds_query::{GeneratorConfig, QueryGenerator};
    use ds_storage::gen::{imdb_database, ImdbConfig};
    use std::time::Instant;

    fn tiny_sketch(db: &Database, seed: u64) -> DeepSketch {
        SketchBuilder::new(db, imdb_predicate_columns(db))
            .training_queries(120)
            .epochs(2)
            .sample_size(8)
            .hidden_units(8)
            .threads(1)
            .seed(seed)
            .build()
            .expect("tiny sketch")
    }

    fn fast_cfg() -> LifecycleConfig {
        LifecycleConfig {
            harvest_capacity: 256,
            min_harvest: 12,
            drift_ratio: 0.01, // any feedback at all reads as drift
            drift_min_samples: 4,
            shadow_min_samples: 8,
            shadow_gate_ratio: 1.1,
            guard_min_samples: 8,
            guard_ratio: 2.0,
            train_epochs: 2,
            train_threads: 1,
            seed: 7,
            tick_interval: Duration::from_millis(25),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ds_lifecycle_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn harvest_dedupes_keeps_newest_and_evicts_oldest() {
        let mut set = HarvestSet::new(3);
        assert!(set.observe("a", "SELECT 1", 10));
        assert!(!set.observe("a", "SELECT 1", 99), "same key is an update");
        assert_eq!(set.len(), 1);
        assert_eq!(set.entries()[0].actual, 99, "newest observation wins");

        assert!(set.observe("b", "q", 2));
        assert!(set.observe("c", "q", 3));
        assert!(set.observe("d", "q", 4), "overflow evicts, not refuses");
        assert_eq!(set.len(), 3);
        let keys: Vec<String> = set.entries().into_iter().map(|e| e.key).collect();
        assert_eq!(
            keys,
            vec!["b", "c", "d"],
            "oldest (a) evicted, seq order kept"
        );

        // Oversized fields are refused outright.
        let long_key = "k".repeat(MAX_HARVEST_KEY_LEN as usize + 1);
        assert!(!set.observe(&long_key, "q", 1));
        assert!(!set.observe("", "q", 1));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn harvest_roundtrips_and_rejects_corruption() {
        let mut set = HarvestSet::new(64);
        set.observe("k1", "SELECT COUNT(*) FROM title", 42);
        set.observe(
            "k2",
            "SELECT COUNT(*) FROM title WHERE title.kind_id = 1",
            7,
        );
        set.observe("k1", "SELECT COUNT(*) FROM title", 43);
        let bytes = set.encode();

        let decoded = HarvestSet::decode(&bytes, 64).unwrap();
        assert_eq!(decoded.entries(), set.entries());
        assert_eq!(decoded.encode(), bytes, "canonical re-encode");

        // Another observation continues the sequence without collisions.
        let mut resumed = decoded.clone();
        assert!(resumed.observe("k3", "q", 1));
        assert!(resumed.entries()[2].seq > resumed.entries()[1].seq);

        // Bit flip in the body → checksum mismatch.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(matches!(
            HarvestSet::decode(&flipped, 64),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));

        // Truncation → typed error, never a panic.
        for cut in [0, 3, 9, bytes.len() - 1] {
            assert!(HarvestSet::decode(&bytes[..cut], 64).is_err());
        }

        // A huge count field (with a fixed-up checksum) → Corrupt, before
        // any allocation.
        let mut huge = bytes.clone();
        huge[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let body_len = huge.len() - 8;
        let sum = checksum(&huge[..body_len]);
        huge[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            HarvestSet::decode(&huge, 64),
            Err(SnapshotError::Corrupt(_))
        ));

        // Wrong magic.
        let mut magic = bytes.clone();
        magic[0] = b'X';
        assert!(matches!(
            HarvestSet::decode(&magic, 64),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn harvest_saves_and_loads_durably() {
        let dir = temp_dir("harvest_io");
        let mut set = HarvestSet::new(16);
        set.observe("k", "SELECT COUNT(*) FROM title", 5);
        let path = set.save(&dir, "imdb").unwrap();
        assert!(path.ends_with("imdb.harvest"));
        let loaded = HarvestSet::load(&dir, "imdb", 16).unwrap().unwrap();
        assert_eq!(loaded.entries(), set.entries());
        assert!(HarvestSet::load(&dir, "other", 16).unwrap().is_none());
        assert!(set.save(&dir, "../evil").is_err(), "names are validated");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_validation_catches_each_bad_knob() {
        assert!(LifecycleConfig::default().validate().is_ok());
        type Break = fn(&mut LifecycleConfig);
        let breaks: [(&str, Break); 10] = [
            ("harvest_capacity", |c| c.harvest_capacity = 0),
            ("min_harvest", |c| c.min_harvest = c.harvest_capacity + 1),
            ("drift_ratio", |c| c.drift_ratio = f64::NAN),
            ("shadow_min_samples", |c| c.shadow_min_samples = 0),
            ("shadow_gate_ratio", |c| c.shadow_gate_ratio = 0.0),
            ("guard_min_samples", |c| c.guard_min_samples = 0),
            ("guard_ratio", |c| c.guard_ratio = 0.5),
            ("train_epochs", |c| c.train_epochs = 0),
            ("train_threads", |c| c.train_threads = 0),
            ("tick_interval", |c| c.tick_interval = Duration::ZERO),
        ];
        for (knob, break_it) in breaks {
            let mut cfg = LifecycleConfig::default();
            break_it(&mut cfg);
            let error = LifecycleManager::new(cfg).err().unwrap_or_default();
            assert!(error.starts_with(&format!("lifecycle {knob} ")), "{error}");
        }
    }

    /// An event's variant name.
    fn name(event: &LifecycleEvent) -> String {
        let debug = format!("{event:?}");
        debug.split(' ').next().unwrap_or("").to_string()
    }

    /// The driver with a real trainer thread: drift fires, a candidate
    /// trains off the harvested set, shadow-gates in, the old generation is
    /// snapshotted, the swap bumps the generation, and the clean guard
    /// window promotes.
    #[test]
    fn drift_retrain_shadow_swap_promote_end_to_end() {
        let db = Arc::new(imdb_database(&ImdbConfig::tiny(21)));
        let store = SketchStore::new();
        store.insert("imdb", tiny_sketch(&db, 5)).unwrap();
        let first_generation = store.generation("imdb").unwrap();
        let monitors = MonitorRegistry::new();
        let manager = LifecycleManager::new(fast_cfg()).unwrap();
        let snap_dir = temp_dir("cycle");

        // Graded traffic: estimates from the live model, true labels from
        // the database. The deliberately-low drift threshold arms the
        // retrain as soon as the windows fill.
        let monitor = monitors.monitor("imdb");
        let columns = GeneratorConfig::new(imdb_predicate_columns(&db), 99);
        for query in QueryGenerator::new(&db, columns).generate_batch(24) {
            let (sql, exec) = (to_sql(&db, &query), query.to_exec());
            let actual = ds_storage::exec::CountExecutor::new()
                .count(&db, &exec)
                .unwrap();
            let estimate = store.get("imdb").unwrap().estimate_one(&query);
            monitor.record("t", estimate, actual.max(1) as f64);
            manager.observe_feedback("imdb", &sql, &sql, actual);
        }
        let (mut events, mut phases) = (Vec::new(), vec![manager.status("imdb").phase]);
        let deadline = Instant::now() + Duration::from_secs(120);
        while events.len() < 4 {
            assert!(Instant::now() < deadline, "stuck after {events:?}");
            let generation = store.generation("imdb").unwrap();
            match manager.status("imdb").phase {
                // Both models read alike: the gate passes and the guard holds.
                LifecyclePhase::Shadow | LifecyclePhase::Watching => {
                    manager.observe_shadow("imdb", generation, 3.0, 3.0)
                }
                _ => std::thread::sleep(Duration::from_millis(20)),
            }
            events.extend(manager.tick(&store, &monitors, &db, Some(&snap_dir)));
            let phase = manager.status("imdb").phase;
            if phases.last() != Some(&phase) {
                phases.push(phase);
            }
        }
        use LifecyclePhase::*;
        assert_eq!(phases, [Harvesting, Training, Shadow, Watching, Idle]);
        let names: Vec<String> = events.iter().map(name).collect();
        assert_eq!(
            names,
            ["RetrainStarted", "ShadowStarted", "Swapped", "Promoted"]
        );
        let LifecycleEvent::Swapped {
            previous_generation,
            generation,
            snapshot: Some(snapshot),
            ..
        } = &events[2]
        else {
            panic!("the old generation is snapshotted before the swap: {events:?}");
        };
        assert_eq!(*previous_generation, first_generation);
        assert_eq!(store.generation("imdb"), Some(*generation));
        assert!(snapshot.exists(), "durable rollback target written");
        let c = manager.counters();
        let counted = [c.retrains_started.get(), c.swaps.get(), c.promotions.get()];
        assert_eq!((counted, c.rollbacks.get()), ([1, 1, 1], 0));
        // The promoted generation is durable: a warm restart serves it.
        let restarted = SketchStore::new();
        let report = restarted
            .recover(&snap_dir, &MonitorRegistry::new())
            .unwrap();
        assert_eq!(report.loaded, [("imdb".to_string(), *generation)]);
        assert_eq!(report.stale.len(), 1, "the rollback target is kept");
        let q = parse_query(&db, "SELECT COUNT(*) FROM title WHERE title.kind_id = 1").unwrap();
        assert_eq!(
            restarted.get("imdb").unwrap().estimate_one(&q).to_bits(),
            store.get("imdb").unwrap().estimate_one(&q).to_bits()
        );
        let _ = std::fs::remove_dir_all(&snap_dir);
    }

    /// The driver without its side effects: the transition `input` calls
    /// for on `state`, each action answered with a made-up outcome.
    fn drive(
        state: &SketchState,
        input: &str,
        db: &Arc<Database>,
        live: &Arc<DeepSketch>,
    ) -> (&'static str, Option<Next>) {
        let cfg = fast_cfg();
        let step = match (input, &state.stage) {
            ("quiet" | "advised", _) => advise(&state.harvest, &cfg, input == "advised"),
            ("refused", _) => {
                let refused = Err("the trainer thread did not start".to_string());
                return ("train: ", Some(spawned("imdb", &state.harvest, refused)));
            }
            ("trained", _) => return ("", Some(trained("imdb", Ok((**live).clone())))),
            ("unparseable", _) => {
                let mut harvest = HarvestSet::new(1);
                harvest.observe("k", "NOT SQL", 5);
                let failed = train_candidate(live, db, &harvest.entries(), &cfg);
                return ("", Some(trained("imdb", failed)));
            }
            (_, Stage::Shadow(shadow)) => gate("imdb", shadow, &cfg),
            (_, Stage::Watching(watch, generation)) => guard("imdb", watch, *generation, &cfg),
            _ => None,
        };
        let outcome = |generation| match input {
            "tick" => Ok(SwapOutcome {
                previous: Arc::clone(live),
                previous_generation: generation - 1,
                generation,
            }),
            _ => Err(StoreError::UnknownSketch("imdb".to_string())),
        };
        match step {
            None => ("", None),
            Some(Step::Enter(next)) => ("", Some(next)),
            Some(Step::Train(entries)) => {
                assert_eq!(entries, state.harvest.entries(), "the harvest trains");
                ("train: ", None)
            }
            Some(Step::Swap(_)) => ("swap: ", Some(swapped("imdb", outcome(2), None))),
            Some(Step::Rollback(previous)) => {
                assert!(Arc::ptr_eq(&previous, live), "back to the replaced model");
                ("rollback: ", Some(rolled_back("imdb", outcome(3))))
            }
        }
    }

    /// Every edge of the diagram, stepped through the transition functions
    /// alone (no thread, sleep, store or disk). Each row starts a stage with
    /// a harvest, feeds it a window of mirrored answers (the generation that
    /// served, its q-error and the mirror model's) through the pairing, then
    /// one input, and reads `action: phase event, harvest left, counters
    /// moved`. `trained` reads nothing of Training but the result, and a
    /// Training stage is a thread, so its rows start from Harvesting (the
    /// end-to-end test enters Training for real).
    #[test]
    fn every_transition_asks_its_action_and_enters_its_stage() {
        let cfg = fast_cfg();
        // `fast_cfg`'s min_harvest, shadow_min_samples and guard_min_samples.
        let (h, s, g) = (12, 8, 8);
        let db = Arc::new(imdb_database(&ImdbConfig::tiny(23)));
        let live = Arc::new(tiny_sketch(&db, 9));
        let shadow = || Stage::Shadow(Mirror::new(Arc::clone(&live)));
        // The candidate serves under generation 2; 1 is the replaced model's.
        let watching = || Stage::Watching(Mirror::new(Arc::clone(&live)), 2);
        let same = |n: usize, generation: u64, served_q: f64, mirrored_q: f64| {
            vec![(generation, served_q, mirrored_q); n]
        };
        // A candidate 25–121× off once the data moves back, beside a target
        // 3× off: held to its shadow median (40) × the guard ratio, it passed.
        let candidate_q = [25.0, 31.0, 40.0, 52.0, 67.0, 83.0, 100.0, 121.0];
        let moved_back: Vec<_> = candidate_q.map(|q| (2, q, 3.0)).to_vec();
        let (far, farther) = (f64::from(1 << 14), f64::from(1 << 20));
        #[rustfmt::skip]
        let edges = [
            (Stage::Harvesting, 0, vec![], "quiet", "idle -, 0"),
            (Stage::Harvesting, 1, vec![], "quiet", "harvesting -, 1"),
            (Stage::Harvesting, h, vec![], "quiet", "harvesting -, 12"),
            (Stage::Harvesting, h - 1, vec![], "advised", "harvesting -, 11"),
            (Stage::Harvesting, h, vec![], "advised", "train: harvesting -, 12"),
            (Stage::Harvesting, h, vec![], "refused", "train: idle TrainingFailed, 0, failed"),
            (Stage::Harvesting, h, vec![], "trained", "shadow ShadowStarted, 12"),
            (Stage::Harvesting, h, vec![], "unparseable", "idle TrainingFailed, 0, failed"),
            (shadow(), h, same(s - 1, 1, 8.0, 1.5), "tick", "shadow -, 12"),
            (shadow(), h, same(s, 1, 8.0, 1.5), "tick", "swap: watching Swapped, 12, swaps"),
            (shadow(), h, same(s, 1, 1.2, 50.0), "tick", "idle GateRejected, 0, rejects"),
            (shadow(), h, same(s, 1, 8.0, 1.5), "gone", "swap: idle -, 0"),
            (watching(), h, same(g - 1, 2, 1.0e8, 1.0), "tick", "watching -, 12"),
            (watching(), h, same(g, 2, 1.5, 8.0), "tick", "idle Promoted, 0, promotions"),
            (watching(), h, same(g, 2, 1.0e8, 1.0), "tick", "rollback: idle RolledBack, 0, swaps rollbacks"),
            (watching(), h, same(g, 2, 1.0e8, 1.0), "gone", "rollback: idle -, 0"),
            (watching(), h, moved_back, "tick", "rollback: idle RolledBack, 0, swaps rollbacks"),
            // The candidate reads as the target does: ratio 1 on every pair.
            (watching(), h, same(g, 2, 40.0, 40.0), "tick", "idle Promoted, 0, promotions"),
            // Rolling back to a model worse than the candidate is wrong.
            (watching(), h, same(g, 2, far, farther), "tick", "idle Promoted, 0, promotions"),
            // What the replaced model answered pairs nothing.
            (watching(), h, same(g, 1, 1.0e8, 1.0), "tick", "watching -, 12"),
        ];
        for (from, harvested, window, input, want) in edges {
            let manager = LifecycleManager::new(cfg.clone()).unwrap();
            let mut state = SketchState::new(cfg.harvest_capacity);
            let _ = manager.enter(&mut state, (from, None));
            // The first query is Idle → Harvesting.
            for i in 0..harvested {
                state.observe(&format!("k{i}"), "SELECT COUNT(*) FROM title", 1);
            }
            for &(generation, served_q, mirrored_q) in &window {
                state.pair(generation, served_q, mirrored_q);
            }
            if let Stage::Watching(watch, candidate) = &state.stage {
                let answered = window.iter().filter(|(g, ..)| g == candidate).count();
                assert_eq!(watch.ratios.len(), answered, "{want}: pairs");
            }
            let (action, next) = drive(&state, input, &db, &live);
            let event = next.and_then(|next| manager.enter(&mut state, next).1);
            let event = event.as_ref().map_or("-".to_string(), name);
            let c = manager.counters();
            let moved: String = [
                (c.retrains_started.get(), ", started"),
                (c.retrains_failed.get(), ", failed"),
                (c.gate_rejects.get(), ", rejects"),
                (c.swaps.get(), ", swaps"),
                (c.rollbacks.get(), " rollbacks"),
                (c.promotions.get(), ", promotions"),
            ]
            .iter()
            .filter(|(n, _)| *n == 1)
            .map(|(_, counter)| *counter)
            .collect();
            let phase = state.phase().as_str();
            let got = format!("{action}{phase} {event}, {}{moved}", state.harvest.len());
            assert_eq!(got, want);
            let active = manager.shadow_active.load(Ordering::Relaxed);
            assert_eq!(active, u64::from(state.mirror().is_some()), "{want}");
        }
    }

    /// Harvest sets survive a restart through persist/load.
    #[test]
    fn harvests_persist_across_a_manager_restart() {
        let dir = temp_dir("persist");
        let manager = LifecycleManager::new(fast_cfg()).unwrap();
        manager.observe_feedback("imdb", "k1", "SELECT COUNT(*) FROM title", 12);
        manager.observe_feedback("imdb", "k2", "SELECT COUNT(*) FROM title", 13);
        assert_eq!(manager.persist_harvests(&dir), 1);
        assert_eq!(manager.persist_harvests(&dir), 0, "clean sets are skipped");

        let restarted = LifecycleManager::new(fast_cfg()).unwrap();
        assert_eq!(restarted.load_harvests(&dir), 1);
        let status = restarted.status("imdb");
        assert_eq!(status.harvested, 2);
        assert_eq!(status.phase, LifecyclePhase::Harvesting);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
