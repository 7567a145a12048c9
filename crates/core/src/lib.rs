//! # ds-core
//!
//! The paper's primary contribution: **Deep Sketches** — compact learned
//! models of databases that estimate `SELECT COUNT(*)` result sizes — and
//! the multi-set convolutional network (MSCN) powering them.
//!
//! The crate provides:
//!
//! * [`featurize`] — the query featurization of §2: one-hot tables, joins,
//!   columns, operators; min-max-normalized literals; qualifying-sample
//!   bitmaps.
//! * [`mscn`] — the MSCN model: three shared-weight set MLPs with mean
//!   pooling, concatenation, and an output MLP with sigmoid.
//! * [`train`] — mini-batch training minimizing mean q-error.
//! * [`builder`] — the 4-step pipeline of Figure 1a.
//! * [`sketch`] — the [`sketch::DeepSketch`] wrapper: model + samples,
//!   serializable, milliseconds to query.
//! * [`template`] — query templates with placeholders (Figure 2).
//! * [`metrics`] — q-error percentile summaries (Table 1).
//! * [`monitor`] — online q-error monitoring from production feedback,
//!   feeding the accuracy-drift detector in [`maintain`].
//! * [`lifecycle`] — the closed loop on top of the advisor: harvest
//!   graded queries, retrain off the hot path, shadow-score, hot-swap
//!   with snapshot-first rollback.

// No panic macro outside tests; an `assert!` left checks a caller's contract.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::panic, clippy::unreachable)
)]

pub mod advisor;
pub mod builder;
pub mod featurize;
pub mod lifecycle;
pub mod maintain;
pub mod metrics;
pub mod monitor;
pub mod mscn;
pub mod router;
mod seam;
pub mod sketch;
pub mod snapshot;
pub mod store;
pub mod template;
pub mod train;

pub use advisor::{
    recommend, recommend_retraining, Advice, AdvisorConfig, RetrainAdvice, SketchRecommendation,
};
pub use builder::{BuildProgress, BuildReport, SketchBuilder};
pub use featurize::{
    FeatureBatch, FeaturePool, Featurizer, PoolBatch, QueryFeatures, ServedFeatures,
};
pub use lifecycle::{
    HarvestEntry, HarvestSet, LifecycleConfig, LifecycleCounters, LifecycleEvent, LifecycleManager,
    LifecyclePhase, LifecycleStatus,
};
pub use maintain::{
    accuracy_drift, detect_drift, refresh_samples, AccuracyDrift, DriftReport, DEFAULT_DRIFT_RATIO,
    DEFAULT_MIN_SAMPLES,
};
pub use metrics::{qerror, QErrorSummary};
pub use monitor::{MonitorRegistry, MonitorState, QErrorMonitor};
pub use mscn::{MscnConfig, MscnModel};
pub use router::{Route, SketchRouter};
pub use sketch::{DeepSketch, SketchInfo};

pub use ds_nn::frozen::MemoStats;
pub use snapshot::{SketchSnapshot, SnapshotError};
pub use store::{QuarantineReason, RecoveryReport, SketchStore, StoreError, SwapOutcome};
pub use template::{QueryTemplate, TemplateInstance, ValueFn};
pub use train::{TrainConfig, TrainingReport};
