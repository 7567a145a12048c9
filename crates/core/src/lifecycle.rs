//! The automated retrain-and-hot-swap lifecycle: the closed loop that
//! turns a servable sketch into a *self-maintaining* one.
//!
//! "Are We Ready For Learned Cardinality Estimation?" identifies
//! staleness under data drift as the production blocker for learned
//! estimators; PR 4's advisor ([`crate::advisor::recommend_retraining`])
//! detects the drift but leaves the fix to a human. This module closes
//! the loop as a per-sketch state machine driven by a periodic `tick`:
//!
//! ```text
//!          FEEDBACK            advisor fires &            training
//!          harvested           enough harvested           finishes
//!  Idle ─────────────▶ Harvesting ────────────▶ Training ─────────▶ Shadow
//!                          ▲                                          │
//!                          │          gate rejected                   │ gate passed:
//!                          │◀─────────────────────────────────────────┤ snapshot old,
//!                          │                                          ▼ atomic swap
//!                          │      promoted (guard held) ┌──────── Watching
//!                          │◀────────────────────────────┘            │
//!                          │      rolled back (guard tripped:         │
//!                          │◀─────────────────────────────────────────┘
//!                          │       swap the old model back in)
//! ```
//!
//! * **Harvesting** — FEEDBACK-graded queries (SQL + true cardinality)
//!   accumulate in a bounded, deduplicated [`HarvestSet`], keyed on the
//!   serving tier's canonical template key plus the predicate literals.
//! * **Training** — when the drift advisor fires and enough labeled
//!   queries are harvested, a candidate trains on a dedicated background
//!   thread; the live sketch keeps serving untouched.
//! * **Shadow** — the candidate is scored against the live sketch on
//!   mirrored traffic, each mirrored query in a forward pass of its own;
//!   the candidate never serves a client response.
//! * **Swap / Watching** — if the candidate's shadow q-error median beats
//!   the gate, the old generation is snapshotted (crash-safe `DSNP`) and
//!   the candidate is hot-swapped in via [`SketchStore::swap`]. The first
//!   post-swap window is watched: if the fresh model's q-error regresses
//!   past the guard ratio, the old model is swapped straight back in.
//!
//! Candidates and in-flight training are deliberately *not* durable: a
//! crash mid-retrain loses nothing but CPU time — the harvest set is
//! persisted separately (`DSHV` files, same checksum discipline as
//! `DSNP`) and a warm restart resumes harvesting from where it left off.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use ds_nn::loss::LabelNormalizer;
use ds_obs::{Counter, PromText};
use ds_query::parser::parse_query;
use ds_query::query::Query;
use ds_storage::catalog::Database;

use crate::advisor::recommend_retraining;
use crate::maintain::{DEFAULT_DRIFT_RATIO, DEFAULT_MIN_SAMPLES};
use crate::metrics::qerror;
use crate::monitor::{baseline_from_qerrors, MonitorRegistry};
use crate::mscn::{MscnConfig, MscnModel};
use crate::sketch::DeepSketch;
use crate::snapshot::{
    body_error, bounded_len, bounded_string, open, publish, seal, valid_snapshot_name,
    SnapshotError, WriteFault,
};
use crate::store::SketchStore;
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

/// Hard cap on buffered shadow/guard score vectors, so a stuck gate can
/// never grow memory without bound.
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

    /// The bound this set enforces.
    pub fn capacity(&self) -> usize {
        self.capacity
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
            if let Some(oldest) = self
                .entries
                .values()
                .min_by_key(|e| e.seq)
                .map(|e| e.key.clone())
            {
                self.entries.remove(&oldest);
            }
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
        while set.entries.len() > set.capacity {
            let oldest = set
                .entries
                .values()
                .min_by_key(|e| e.seq)
                .map(|e| e.key.clone())
                .expect("a set over its capacity holds an oldest entry");
            set.entries.remove(&oldest);
        }
        Ok(set)
    }

    /// Durably writes the set as `<dir>/<name>.harvest`, through the same
    /// atomic write protocol as the snapshots beside it.
    pub fn save(&self, dir: &Path, name: &str) -> Result<PathBuf, SnapshotError> {
        if !valid_snapshot_name(name) {
            return Err(SnapshotError::InvalidName(name.to_string()));
        }
        let path = dir.join(format!("{name}.{HARVEST_EXT}"));
        let tmp = dir.join(format!("{name}.{HARVEST_EXT}.tmp"));
        Ok(publish(dir, tmp, path, &self.encode(), &WriteFault::none())?.durable())
    }

    /// Loads `<dir>/<name>.harvest` if present. `Ok(None)` when the file
    /// does not exist; decode failures surface as typed errors so a
    /// corrupt file is never silently adopted.
    pub fn load(dir: &Path, name: &str, capacity: usize) -> Result<Option<Self>, SnapshotError> {
        if !valid_snapshot_name(name) {
            return Err(SnapshotError::InvalidName(name.to_string()));
        }
        let path = dir.join(format!("{name}.{HARVEST_EXT}"));
        match std::fs::read(&path) {
            Ok(bytes) => Self::decode(&bytes, capacity).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(SnapshotError::Io(e)),
        }
    }
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
    /// Mirrored feedback pairs required before the shadow gate decides.
    pub shadow_min_samples: usize,
    /// The candidate's shadow q-error median must be at most
    /// `live_median * shadow_gate_ratio` to be promoted.
    pub shadow_gate_ratio: f64,
    /// Post-swap graded queries required before the guard decides.
    pub guard_min_samples: usize,
    /// Auto-rollback fires when the post-swap q-error median exceeds
    /// `guard_baseline * guard_ratio` (the baseline is the candidate's
    /// own shadow median — "worse than it shadowed" means regression).
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
    /// Test hook: corrupt every promoted candidate *after* the shadow
    /// gate passes, so rollback drills exercise the guard
    /// deterministically (models an undetectably-bad candidate).
    pub poison_candidates: bool,
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
            poison_candidates: false,
        }
    }
}

impl LifecycleConfig {
    /// Checks every invariant; the serving config surfaces violations as
    /// its own typed error.
    pub fn validate(&self) -> Result<(), String> {
        if self.harvest_capacity == 0 {
            return Err("lifecycle harvest_capacity must be > 0".to_string());
        }
        if self.min_harvest == 0 || self.min_harvest > self.harvest_capacity {
            return Err("lifecycle min_harvest must be in 1..=harvest_capacity".to_string());
        }
        if self.drift_ratio.is_nan() || self.drift_ratio <= 0.0 {
            return Err("lifecycle drift_ratio must be > 0".to_string());
        }
        if self.shadow_min_samples == 0 {
            return Err("lifecycle shadow_min_samples must be > 0".to_string());
        }
        if self.shadow_gate_ratio.is_nan() || self.shadow_gate_ratio <= 0.0 {
            return Err("lifecycle shadow_gate_ratio must be > 0".to_string());
        }
        if self.guard_min_samples == 0 {
            return Err("lifecycle guard_min_samples must be > 0".to_string());
        }
        if self.guard_ratio.is_nan() || self.guard_ratio < 1.0 {
            return Err("lifecycle guard_ratio must be >= 1".to_string());
        }
        if self.train_epochs == 0 {
            return Err("lifecycle train_epochs must be > 0".to_string());
        }
        if self.train_threads == 0 {
            return Err("lifecycle train_threads must be > 0".to_string());
        }
        if self.tick_interval.is_zero() {
            return Err("lifecycle tick_interval must be > 0".to_string());
        }
        Ok(())
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
    Idle,
    /// Graded queries are accumulating; no retrain armed yet.
    Harvesting,
    /// A candidate is training on a background thread.
    Training,
    /// A trained candidate is being shadow-scored on mirrored traffic.
    Shadow,
    /// A candidate was swapped in; the guard window is still open.
    Watching,
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
        match self {
            LifecyclePhase::Idle => 0,
            LifecyclePhase::Harvesting => 1,
            LifecyclePhase::Training => 2,
            LifecyclePhase::Shadow => 3,
            LifecyclePhase::Watching => 4,
        }
    }
}

impl std::fmt::Display for LifecyclePhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
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
    /// Mirrored feedback pairs scored so far in the shadow phase.
    pub shadow_samples: usize,
    /// Live model's median shadow q-error (0 until samples exist).
    pub shadow_live_p50: f64,
    /// Candidate's median shadow q-error (0 until samples exist).
    pub shadow_candidate_p50: f64,
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
        /// Live model's shadow q-error median.
        live_p50: f64,
        /// Candidate's shadow q-error median.
        candidate_p50: f64,
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
// Manager
// ---------------------------------------------------------------------------

struct TrainingJob {
    rx: Receiver<Result<DeepSketch, String>>,
    handle: Option<JoinHandle<()>>,
}

struct ShadowCandidate {
    sketch: Arc<DeepSketch>,
    live_q: Vec<f64>,
    candidate_q: Vec<f64>,
}

struct WatchState {
    previous: Arc<DeepSketch>,
    generation: u64,
    guard_p50: f64,
    qerrors: Vec<f64>,
}

#[derive(Default)]
struct SketchState {
    phase: LifecyclePhase,
    harvest: Option<HarvestSet>,
    harvest_dirty: bool,
    training: Option<TrainingJob>,
    candidate: Option<ShadowCandidate>,
    watch: Option<WatchState>,
}

/// Drives the retrain-and-hot-swap state machine for every sketch that
/// receives feedback. `Sync`: the serving tier shares one manager between
/// its request handlers (harvest/guard recording) and the maintain daemon
/// (ticks and shadow scoring).
pub struct LifecycleManager {
    cfg: LifecycleConfig,
    states: Mutex<BTreeMap<String, SketchState>>,
    /// Sketches currently in the shadow phase — lets the serving hot path
    /// skip the state lock entirely when nothing is being shadowed.
    shadow_active: AtomicU64,
    poison: AtomicBool,
    counters: LifecycleCounters,
}

impl LifecycleManager {
    /// A manager with validated configuration.
    pub fn new(cfg: LifecycleConfig) -> Result<Self, String> {
        cfg.validate()?;
        let poison = AtomicBool::new(cfg.poison_candidates);
        Ok(Self {
            cfg,
            states: Mutex::new(BTreeMap::new()),
            shadow_active: AtomicU64::new(0),
            poison,
            counters: LifecycleCounters::default(),
        })
    }

    /// Every sketch's lifecycle state, locked. A poisoned lock means a
    /// thread panicked while it held the lock, part way through changing a
    /// state; the states can no longer be trusted, so the caller panics
    /// as well rather than act on them.
    fn states(&self) -> MutexGuard<'_, BTreeMap<String, SketchState>> {
        self.states
            .lock()
            .expect("lifecycle states poisoned: a holder panicked mid-update")
    }

    /// The configuration this manager runs with.
    pub fn config(&self) -> &LifecycleConfig {
        &self.cfg
    }

    /// Arms or disarms candidate poisoning (see
    /// [`LifecycleConfig::poison_candidates`]); rollback drills toggle
    /// this at runtime.
    pub fn set_poison(&self, armed: bool) {
        self.poison.store(armed, Ordering::SeqCst);
    }

    /// Whether candidate poisoning is currently armed.
    pub fn poison_armed(&self) -> bool {
        self.poison.load(Ordering::SeqCst)
    }

    /// Records one FEEDBACK-graded query: harvests it for incremental
    /// retraining and, while the post-swap guard window is open, grades
    /// the freshly swapped model against it.
    pub fn observe_feedback(&self, sketch: &str, key: &str, sql: &str, estimate: f64, actual: u64) {
        let mut states = self.states();
        let state = states.entry(sketch.to_string()).or_default();
        if let Some(watch) = state.watch.as_mut() {
            if watch.qerrors.len() < MAX_SCORE_SAMPLES {
                watch.qerrors.push(qerror(estimate, actual.max(1) as f64));
            }
        }
        let harvest = state
            .harvest
            .get_or_insert_with(|| HarvestSet::new(self.cfg.harvest_capacity));
        if harvest.observe(key, sql, actual) {
            self.counters.harvested.inc();
        }
        state.harvest_dirty = true;
        if state.phase == LifecyclePhase::Idle && !harvest.is_empty() {
            state.phase = LifecyclePhase::Harvesting;
        }
    }

    /// The candidate to mirror traffic onto — `None` unless `sketch` is in
    /// the shadow phase. The fast path is one relaxed atomic load when
    /// nothing is shadowing anywhere.
    pub fn shadow_candidate(&self, sketch: &str) -> Option<Arc<DeepSketch>> {
        if self.shadow_active.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let states = self.states();
        let state = states.get(sketch)?;
        let candidate = state.candidate.as_ref()?;
        (state.phase == LifecyclePhase::Shadow).then(|| Arc::clone(&candidate.sketch))
    }

    /// Whether `sketch` is currently being shadow-scored (the hot path's
    /// cheap pre-check before cloning a query for mirroring).
    pub fn shadowing(&self, sketch: &str) -> bool {
        self.shadow_candidate(sketch).is_some()
    }

    /// Records one mirrored scoring pair: the live model's and the
    /// candidate's q-error on the same graded query.
    pub fn observe_shadow(&self, sketch: &str, live_q: f64, candidate_q: f64) {
        let mut states = self.states();
        let Some(state) = states.get_mut(sketch) else {
            return;
        };
        let Some(candidate) = state.candidate.as_mut() else {
            return;
        };
        if candidate.live_q.len() < MAX_SCORE_SAMPLES {
            candidate.live_q.push(live_q);
            candidate.candidate_q.push(candidate_q);
        }
    }

    /// Test/bench hook: places an already-trained candidate directly into
    /// the shadow phase (skipping Harvesting/Training), exactly as if a
    /// background retrain had just finished. Drills use this to exercise
    /// the gate, swap, and rollback paths deterministically.
    pub fn install_candidate(&self, sketch: &str, candidate: DeepSketch) {
        let mut states = self.states();
        let state = states.entry(sketch.to_string()).or_default();
        if state.phase == LifecyclePhase::Shadow {
            self.shadow_active.fetch_sub(1, Ordering::Relaxed);
        }
        state.training = None;
        state.candidate = Some(ShadowCandidate {
            sketch: Arc::new(candidate),
            live_q: Vec::new(),
            candidate_q: Vec::new(),
        });
        state.phase = LifecyclePhase::Shadow;
        self.shadow_active.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time view of one sketch (even if it has no lifecycle
    /// state yet — that reads as `Idle`).
    pub fn status(&self, sketch: &str) -> LifecycleStatus {
        let states = self.states();
        match states.get(sketch) {
            Some(state) => Self::status_of(sketch, state),
            None => LifecycleStatus {
                sketch: sketch.to_string(),
                phase: LifecyclePhase::Idle,
                harvested: 0,
                shadow_samples: 0,
                shadow_live_p50: 0.0,
                shadow_candidate_p50: 0.0,
            },
        }
    }

    fn status_of(name: &str, state: &SketchState) -> LifecycleStatus {
        let (n, live, cand) = match &state.candidate {
            Some(c) if !c.live_q.is_empty() => {
                (c.live_q.len(), median(&c.live_q), median(&c.candidate_q))
            }
            _ => (0, 0.0, 0.0),
        };
        LifecycleStatus {
            sketch: name.to_string(),
            phase: state.phase,
            harvested: state.harvest.as_ref().map_or(0, HarvestSet::len),
            shadow_samples: n,
            shadow_live_p50: live,
            shadow_candidate_p50: cand,
        }
    }

    /// The manager-wide counters.
    pub fn counters(&self) -> &LifecycleCounters {
        &self.counters
    }

    /// Renders the manager-wide counters and, per sketch with lifecycle
    /// state, its phase, harvest size and shadow q-error ratio (candidate
    /// over live median; 0 before shadow samples exist).
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
            let delta = if status.shadow_live_p50 > 0.0 {
                status.shadow_candidate_p50 / status.shadow_live_p50
            } else {
                0.0
            };
            p.gauge(
                &format!("serve/lifecycle/{name}/phase"),
                f64::from(status.phase.code()),
            )
            .gauge(
                &format!("serve/lifecycle/{name}/harvested"),
                status.harvested as f64,
            )
            .gauge(&format!("serve/lifecycle/{name}/shadow_delta"), delta);
        }
    }

    /// Durably writes every harvest set that changed since the last
    /// persist (`<dir>/<sketch>.harvest`). Returns how many were written.
    pub fn persist_harvests(&self, dir: &Path) -> usize {
        let mut states = self.states();
        let mut written = 0;
        for (name, state) in states.iter_mut() {
            if !state.harvest_dirty {
                continue;
            }
            let Some(harvest) = state.harvest.as_ref() else {
                continue;
            };
            if harvest.save(dir, name).is_ok() {
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
            let state = states.entry(name.to_string()).or_default();
            if state.phase == LifecyclePhase::Idle && !set.is_empty() {
                state.phase = LifecyclePhase::Harvesting;
            }
            state.harvest = Some(set);
            state.harvest_dirty = false;
            loaded += 1;
        }
        loaded
    }

    /// One state-machine step for every sketch: polls background
    /// training, arms retrains off the drift advisor, decides shadow
    /// gates, performs snapshot-then-swap, and closes guard windows
    /// (promotion or rollback). Returns what happened.
    pub fn tick(
        &self,
        store: &SketchStore,
        monitors: &MonitorRegistry,
        db: &Arc<Database>,
        snapshot_dir: Option<&Path>,
    ) -> Vec<LifecycleEvent> {
        let advised: HashSet<String> = recommend_retraining(
            store,
            monitors,
            self.cfg.drift_ratio,
            self.cfg.drift_min_samples,
        )
        .into_iter()
        .map(|a| a.sketch)
        .collect();

        let mut events = Vec::new();
        let mut states = self.states();
        for (name, state) in states.iter_mut() {
            match state.phase {
                LifecyclePhase::Idle | LifecyclePhase::Harvesting => {
                    let harvested = state.harvest.as_ref().map_or(0, HarvestSet::len);
                    if advised.contains(name) && harvested >= self.cfg.min_harvest {
                        let Ok(live) = store.get(name) else {
                            continue;
                        };
                        let entries = state
                            .harvest
                            .as_ref()
                            .expect("min_harvest ≥ 1 entries were harvested")
                            .entries();
                        state.training = Some(spawn_retrain(
                            name.clone(),
                            live,
                            Arc::clone(db),
                            entries,
                            self.cfg.clone(),
                        ));
                        state.phase = LifecyclePhase::Training;
                        self.counters.retrains_started.inc();
                        events.push(LifecycleEvent::RetrainStarted {
                            sketch: name.clone(),
                            harvested,
                        });
                    }
                }
                LifecyclePhase::Training => {
                    let Some(job) = state.training.as_mut() else {
                        state.phase = LifecyclePhase::Idle;
                        continue;
                    };
                    let outcome = match job.rx.try_recv() {
                        Ok(result) => result,
                        Err(TryRecvError::Empty) => continue,
                        Err(TryRecvError::Disconnected) => {
                            Err("training thread died without a result".to_string())
                        }
                    };
                    if let Some(handle) = job.handle.take() {
                        let _ = handle.join();
                    }
                    state.training = None;
                    match outcome {
                        Ok(candidate) => {
                            state.candidate = Some(ShadowCandidate {
                                sketch: Arc::new(candidate),
                                live_q: Vec::new(),
                                candidate_q: Vec::new(),
                            });
                            state.phase = LifecyclePhase::Shadow;
                            self.shadow_active.fetch_add(1, Ordering::Relaxed);
                            events.push(LifecycleEvent::ShadowStarted {
                                sketch: name.clone(),
                            });
                        }
                        Err(error) => {
                            self.counters.retrains_failed.inc();
                            // Drop the harvest that produced the failure:
                            // retrying the same set would fail the same way.
                            if let Some(h) = state.harvest.as_mut() {
                                h.clear();
                            }
                            state.harvest_dirty = true;
                            state.phase = LifecyclePhase::Idle;
                            events.push(LifecycleEvent::TrainingFailed {
                                sketch: name.clone(),
                                error,
                            });
                        }
                    }
                }
                LifecyclePhase::Shadow => {
                    let Some(candidate) = state.candidate.as_ref() else {
                        state.phase = LifecyclePhase::Idle;
                        continue;
                    };
                    if candidate.live_q.len() < self.cfg.shadow_min_samples {
                        continue;
                    }
                    let live_p50 = median(&candidate.live_q);
                    let candidate_p50 = median(&candidate.candidate_q);
                    let candidate = state
                        .candidate
                        .take()
                        .expect("the shadow phase's candidate was read above");
                    self.shadow_active.fetch_sub(1, Ordering::Relaxed);
                    if candidate_p50 <= live_p50 * self.cfg.shadow_gate_ratio {
                        // Snapshot the serving generation before touching
                        // it — the durable rollback target even across a
                        // crash.
                        let snapshot = snapshot_dir
                            .and_then(|dir| store.save_snapshot(dir, name, Some(monitors)).ok());
                        let promoted = if self.poison.load(Ordering::SeqCst) {
                            Arc::new(poisoned_clone(&candidate.sketch))
                        } else {
                            candidate.sketch
                        };
                        match store.swap(name, promoted) {
                            Ok(outcome) => {
                                // The rolling window graded the *old*
                                // model; reset so drift detection restarts
                                // cleanly against the new one.
                                if let Some(m) = monitors.get(name) {
                                    m.reset();
                                }
                                state.watch = Some(WatchState {
                                    previous: outcome.previous,
                                    generation: outcome.generation,
                                    guard_p50: candidate_p50.max(1.0),
                                    qerrors: Vec::new(),
                                });
                                state.phase = LifecyclePhase::Watching;
                                self.counters.swaps.inc();
                                events.push(LifecycleEvent::Swapped {
                                    sketch: name.clone(),
                                    previous_generation: outcome.previous_generation,
                                    generation: outcome.generation,
                                    snapshot,
                                });
                            }
                            Err(_) => {
                                // The sketch vanished (removed or failed)
                                // mid-shadow; abandon the candidate.
                                state.phase = LifecyclePhase::Idle;
                            }
                        }
                    } else {
                        self.counters.gate_rejects.inc();
                        if let Some(h) = state.harvest.as_mut() {
                            h.clear();
                        }
                        state.harvest_dirty = true;
                        state.phase = LifecyclePhase::Idle;
                        events.push(LifecycleEvent::GateRejected {
                            sketch: name.clone(),
                            live_p50,
                            candidate_p50,
                        });
                    }
                }
                LifecyclePhase::Watching => {
                    let Some(watch) = state.watch.as_ref() else {
                        state.phase = LifecyclePhase::Idle;
                        continue;
                    };
                    if watch.qerrors.len() < self.cfg.guard_min_samples {
                        continue;
                    }
                    let post_p50 = median(&watch.qerrors);
                    let watch = state
                        .watch
                        .take()
                        .expect("the watch phase's guard window was read above");
                    if post_p50 > watch.guard_p50 * self.cfg.guard_ratio {
                        match store.swap(name, watch.previous) {
                            Ok(outcome) => {
                                if let Some(m) = monitors.get(name) {
                                    m.reset();
                                }
                                self.counters.rollbacks.inc();
                                self.counters.swaps.inc();
                                events.push(LifecycleEvent::RolledBack {
                                    sketch: name.clone(),
                                    generation: outcome.generation,
                                });
                            }
                            Err(_) => {
                                // Nothing ready to roll back over; the
                                // durable snapshot remains the recovery
                                // path.
                            }
                        }
                    } else {
                        self.counters.promotions.inc();
                        events.push(LifecycleEvent::Promoted {
                            sketch: name.clone(),
                            generation: watch.generation,
                        });
                    }
                    if let Some(h) = state.harvest.as_mut() {
                        h.clear();
                    }
                    state.harvest_dirty = true;
                    state.phase = LifecyclePhase::Idle;
                }
            }
        }
        events
    }
}

/// Median of a non-empty slice (0 when empty — callers gate on sample
/// counts first).
fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

fn spawn_retrain(
    name: String,
    live: Arc<DeepSketch>,
    db: Arc<Database>,
    entries: Vec<HarvestEntry>,
    cfg: LifecycleConfig,
) -> TrainingJob {
    let (tx, rx) = sync_channel(1);
    let handle = std::thread::Builder::new()
        .name(format!("ds-lifecycle-train-{name}"))
        .spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                train_candidate(&live, &db, &entries, &cfg)
            }))
            .unwrap_or_else(|_| Err("candidate training panicked".to_string()));
            let _ = tx.send(result);
        })
        .expect("the OS spawns the lifecycle trainer thread");
    TrainingJob {
        rx,
        handle: Some(handle),
    }
}

/// Trains a candidate from the harvested set, reusing the live sketch's
/// featurizer, materialized samples, and hidden width — the incremental
/// refinement path, not a full rebuild. Runs on a background thread;
/// every failure is a `String` the state machine turns into
/// [`LifecycleEvent::TrainingFailed`].
fn train_candidate(
    live: &DeepSketch,
    db: &Arc<Database>,
    entries: &[HarvestEntry],
    cfg: &LifecycleConfig,
) -> Result<DeepSketch, String> {
    let mut queries: Vec<Query> = Vec::with_capacity(entries.len());
    let mut labels: Vec<u64> = Vec::with_capacity(entries.len());
    for entry in entries {
        // Harvested SQL crossed the wire and a process restart; re-parse
        // defensively and skip what no longer parses.
        if let Ok(q) = parse_query(db, &entry.sql) {
            queries.push(q);
            labels.push(entry.actual);
        }
    }
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

/// The rollback drill's "undetectably bad candidate": same weights, but a
/// label normalizer fit to an absurd range, so every denormalized
/// estimate is off by orders of magnitude. The shadow gate scored the
/// healthy candidate; this corruption appears only *after* promotion,
/// which is exactly the failure the post-swap guard exists to catch.
fn poisoned_clone(candidate: &DeepSketch) -> DeepSketch {
    let bad = LabelNormalizer::fit(&[1, 1 << 44]);
    let mut poisoned = DeepSketch::from_parts(
        candidate.artifact().clone(),
        candidate.featurizer().clone(),
        candidate.samples().to_vec(),
        bad,
        candidate.database_name().to_string(),
    );
    if let Some(baseline) = candidate.baseline() {
        poisoned.set_baseline(baseline.clone());
    }
    poisoned
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
            .seed(seed)
            .build()
            .expect("tiny sketch")
    }

    fn graded_workload(db: &Database, n: usize, seed: u64) -> Vec<(String, Query, u64)> {
        let mut generator =
            QueryGenerator::new(db, GeneratorConfig::new(imdb_predicate_columns(db), seed));
        let queries = generator.generate_batch(n);
        let execs: Vec<_> = queries.iter().map(Query::to_exec).collect();
        let labels = ds_storage::exec::CountExecutor::new()
            .count_batch(db, &execs, 1)
            .expect("labels");
        queries
            .into_iter()
            .zip(labels)
            .map(|(q, label)| (to_sql(db, &q), q, label))
            .collect()
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
            poison_candidates: false,
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
        let defaults = LifecycleConfig::default();
        let c = LifecycleConfig {
            min_harvest: defaults.harvest_capacity + 1,
            ..defaults.clone()
        };
        assert!(c.validate().is_err());
        let c = LifecycleConfig {
            guard_ratio: 0.5,
            ..defaults.clone()
        };
        assert!(c.validate().is_err());
        let c = LifecycleConfig {
            tick_interval: Duration::ZERO,
            ..defaults.clone()
        };
        assert!(c.validate().is_err());
        let c = LifecycleConfig {
            train_epochs: 0,
            ..defaults
        };
        assert!(LifecycleManager::new(c).is_err());
    }

    /// The full happy path with a *real* background retrain: drift fires,
    /// a candidate trains off the harvested set, shadow-gates in, the old
    /// generation is snapshotted, the swap bumps the generation, and the
    /// clean guard window promotes.
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
        for (sql, query, actual) in graded_workload(&db, 24, 99) {
            let estimate = store.get("imdb").unwrap().estimate_one(&query);
            monitor.record("t", estimate, actual.max(1) as f64);
            manager.observe_feedback("imdb", &sql, &sql, estimate, actual);
        }
        assert_eq!(manager.status("imdb").phase, LifecyclePhase::Harvesting);

        let events = manager.tick(&store, &monitors, &db, Some(&snap_dir));
        assert!(
            events
                .iter()
                .any(|e| matches!(e, LifecycleEvent::RetrainStarted { .. })),
            "drift + harvest must arm a retrain, got {events:?}"
        );
        assert_eq!(manager.status("imdb").phase, LifecyclePhase::Training);

        // Poll until the background trainer hands over a candidate.
        let deadline = Instant::now() + Duration::from_secs(120);
        while manager.status("imdb").phase == LifecyclePhase::Training {
            assert!(Instant::now() < deadline, "training never finished");
            manager.tick(&store, &monitors, &db, Some(&snap_dir));
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(manager.status("imdb").phase, LifecyclePhase::Shadow);
        assert!(manager.shadowing("imdb"));

        // Mirrored scoring says the candidate is clearly better.
        for _ in 0..8 {
            manager.observe_shadow("imdb", 8.0, 1.5);
        }
        let events = manager.tick(&store, &monitors, &db, Some(&snap_dir));
        let Some(LifecycleEvent::Swapped {
            previous_generation,
            generation,
            snapshot,
            ..
        }) = events
            .iter()
            .find(|e| matches!(e, LifecycleEvent::Swapped { .. }))
        else {
            panic!("shadow gate must pass and swap, got {events:?}");
        };
        assert_eq!(*previous_generation, first_generation);
        assert!(*generation > first_generation);
        assert_eq!(store.generation("imdb"), Some(*generation));
        let snapshot = snapshot.as_ref().expect("old generation snapshotted");
        assert!(snapshot.exists(), "durable rollback target written");
        assert!(!manager.shadowing("imdb"));

        // A healthy guard window: graded estimates match reality.
        for _ in 0..8 {
            manager.observe_feedback("imdb", "w", "SELECT COUNT(*) FROM title", 100.0, 100);
        }
        let events = manager.tick(&store, &monitors, &db, Some(&snap_dir));
        assert!(
            events
                .iter()
                .any(|e| matches!(e, LifecycleEvent::Promoted { .. })),
            "clean guard window must promote, got {events:?}"
        );
        let counters = manager.counters();
        assert_eq!(counters.swaps.get(), 1);
        assert_eq!(counters.promotions.get(), 1);
        assert_eq!(counters.rollbacks.get(), 0);
        assert_eq!(counters.retrains_started.get(), 1);
        assert_eq!(manager.status("imdb").phase, LifecyclePhase::Idle);
        let _ = std::fs::remove_dir_all(&snap_dir);
    }

    /// A poisoned candidate passes the shadow gate (it is corrupted only
    /// after the gate), regresses in the guard window, and is rolled back
    /// to the exact previous model.
    #[test]
    fn poisoned_candidate_is_rolled_back() {
        let db = Arc::new(imdb_database(&ImdbConfig::tiny(22)));
        let store = SketchStore::new();
        store.insert("imdb", tiny_sketch(&db, 6)).unwrap();
        let q = parse_query(&db, "SELECT COUNT(*) FROM title WHERE title.kind_id = 1").unwrap();
        let before = store.get("imdb").unwrap().estimate_one(&q);
        let monitors = MonitorRegistry::new();
        let manager = LifecycleManager::new(fast_cfg()).unwrap();
        manager.set_poison(true);
        assert!(manager.poison_armed());

        manager.install_candidate("imdb", tiny_sketch(&db, 7));
        for _ in 0..8 {
            manager.observe_shadow("imdb", 8.0, 1.5);
        }
        let events = manager.tick(&store, &monitors, &db, None);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, LifecycleEvent::Swapped { .. })),
            "gate scores the healthy candidate, so the swap proceeds"
        );
        let poisoned_estimate = store.get("imdb").unwrap().estimate_one(&q);
        assert!(
            (poisoned_estimate / before).max(before / poisoned_estimate) > 10.0,
            "poisoned model must be wildly off ({before} → {poisoned_estimate})"
        );

        // Graded post-swap traffic exposes the regression.
        for _ in 0..8 {
            manager.observe_feedback("imdb", "w", "SELECT COUNT(*) FROM title", 1.0e9, 10);
        }
        let events = manager.tick(&store, &monitors, &db, None);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, LifecycleEvent::RolledBack { .. })),
            "guard must trip and roll back, got {events:?}"
        );
        let restored = store.get("imdb").unwrap().estimate_one(&q);
        assert_eq!(
            restored.to_bits(),
            before.to_bits(),
            "rollback restores the previous model bit-exactly"
        );
        let counters = manager.counters();
        assert_eq!(counters.rollbacks.get(), 1);
        assert_eq!(counters.swaps.get(), 2, "the rollback itself is a swap");
        assert_eq!(counters.promotions.get(), 0);
    }

    /// A candidate that shadows worse than the live model never swaps.
    #[test]
    fn shadow_gate_rejects_a_worse_candidate() {
        let db = Arc::new(imdb_database(&ImdbConfig::tiny(23)));
        let store = SketchStore::new();
        store.insert("imdb", tiny_sketch(&db, 8)).unwrap();
        let generation = store.generation("imdb").unwrap();
        let monitors = MonitorRegistry::new();
        let manager = LifecycleManager::new(fast_cfg()).unwrap();

        manager.install_candidate("imdb", tiny_sketch(&db, 9));
        for _ in 0..8 {
            manager.observe_shadow("imdb", 1.2, 50.0);
        }
        let events = manager.tick(&store, &monitors, &db, None);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, LifecycleEvent::GateRejected { .. })),
            "worse candidate must be rejected, got {events:?}"
        );
        assert_eq!(
            store.generation("imdb"),
            Some(generation),
            "no swap on rejection"
        );
        assert_eq!(manager.counters().gate_rejects.get(), 1);
        assert_eq!(manager.counters().swaps.get(), 0);
        assert_eq!(manager.status("imdb").phase, LifecyclePhase::Idle);
    }

    /// A harvest set whose SQL no longer parses fails training cleanly:
    /// the candidate is abandoned, the harvest dropped, and the machine
    /// returns to Idle (never wedged in Training).
    #[test]
    fn unparseable_harvest_fails_training_and_recovers() {
        let db = Arc::new(imdb_database(&ImdbConfig::tiny(24)));
        let store = SketchStore::new();
        store.insert("imdb", tiny_sketch(&db, 10)).unwrap();
        let monitors = MonitorRegistry::new();
        let manager = LifecycleManager::new(fast_cfg()).unwrap();

        let monitor = monitors.monitor("imdb");
        for i in 0..16 {
            monitor.record("t", 100.0, 5.0);
            manager.observe_feedback("imdb", &format!("k{i}"), "THIS IS NOT SQL", 100.0, 5);
        }
        let events = manager.tick(&store, &monitors, &db, None);
        assert!(events
            .iter()
            .any(|e| matches!(e, LifecycleEvent::RetrainStarted { .. })));
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let events = manager.tick(&store, &monitors, &db, None);
            if events
                .iter()
                .any(|e| matches!(e, LifecycleEvent::TrainingFailed { .. }))
            {
                break;
            }
            assert!(Instant::now() < deadline, "trainer never reported failure");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(manager.counters().retrains_failed.get(), 1);
        assert_eq!(manager.status("imdb").phase, LifecyclePhase::Idle);
        assert_eq!(
            manager.status("imdb").harvested,
            0,
            "the failing harvest is dropped, not retried forever"
        );
    }

    /// Harvest sets survive a restart through persist/load.
    #[test]
    fn harvests_persist_across_a_manager_restart() {
        let dir = temp_dir("persist");
        let manager = LifecycleManager::new(fast_cfg()).unwrap();
        manager.observe_feedback("imdb", "k1", "SELECT COUNT(*) FROM title", 10.0, 12);
        manager.observe_feedback("imdb", "k2", "SELECT COUNT(*) FROM title", 11.0, 13);
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
