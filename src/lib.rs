//! # Deep Sketches
//!
//! A from-scratch Rust reproduction of *"Estimating Cardinalities with Deep
//! Sketches"* (Kipf et al., SIGMOD 2019): compact learned models of
//! databases that estimate `SELECT COUNT(*)` result sizes, powered by a
//! multi-set convolutional network (MSCN) over featurized queries and
//! materialized base-table samples.
//!
//! This crate is a facade re-exporting the workspace crates:
//!
//! * [`storage`] — in-memory columnar engine, exact COUNT executor,
//!   synthetic IMDb/TPC-H generators.
//! * [`query`] — query model, SQL-subset parser, uniform training-query
//!   generator, JOB-light workload.
//! * [`nn`] — minimal CPU neural-network library with manual backprop.
//! * [`est`] — traditional estimators (PostgreSQL-style, sampling-based).
//! * [`core`] — the paper's contribution: featurization, the MSCN model,
//!   training, the [`core::sketch::DeepSketch`] wrapper, and crash-safe
//!   snapshot persistence ([`core::snapshot`], [`core::store::SketchStore::recover`]).
//! * [`serve`] — concurrent TCP serving front end, a thread per
//!   connection, with per-request stage timelines, online q-error
//!   feedback monitoring over the [`core::store::SketchStore`], and
//!   per-sketch circuit breakers degrading to baseline estimators.
//!
//! ## Quickstart
//!
//! ```no_run
//! use deep_sketches::prelude::*;
//!
//! // 1. A database (stand-in for HyPer + IMDb).
//! let db = imdb_database(&ImdbConfig::default());
//!
//! // 2. Build a sketch: generate + execute training queries, train MSCN.
//! let sketch = SketchBuilder::new(&db, imdb_predicate_columns(&db))
//!     .training_queries(5_000)
//!     .epochs(20)
//!     .sample_size(200)
//!     .seed(42)
//!     .build()
//!     .expect("sketch construction");
//!
//! // 3. Estimate an ad-hoc query.
//! let q = parse_query(&db, "SELECT COUNT(*) FROM title t, movie_keyword mk \
//!                           WHERE mk.movie_id = t.id AND t.production_year > 2000")
//!     .expect("parse");
//! let estimate = sketch.estimate(&q);
//! println!("estimated cardinality: {estimate:.0}");
//! ```

pub use ds_core as core;
pub use ds_est as est;
pub use ds_nn as nn;
pub use ds_obs as obs;
pub use ds_plan as plan;
pub use ds_query as query;
pub use ds_serve as serve;
pub use ds_storage as storage;

/// Convenient, flat imports for applications.
pub mod prelude {
    pub use ds_core::advisor::{
        recommend, recommend_retraining, Advice, AdvisorConfig, RetrainAdvice,
    };
    pub use ds_core::builder::{BuildProgress, SketchBuilder};
    pub use ds_core::maintain::{
        accuracy_drift, AccuracyDrift, DEFAULT_DRIFT_RATIO, DEFAULT_MIN_SAMPLES,
    };
    pub use ds_core::metrics::{qerror, QErrorSummary};
    pub use ds_core::monitor::{MonitorRegistry, QErrorMonitor};
    pub use ds_core::router::{Route, SketchRouter};
    pub use ds_core::sketch::DeepSketch;
    pub use ds_core::snapshot::{decode_snapshot, encode_snapshot, SnapshotError};
    pub use ds_core::store::{RecoveryReport, SketchStore};
    pub use ds_core::template::{QueryTemplate, ValueFn};
    pub use ds_est::{
        oracle::TrueCardinalityOracle, postgres::PostgresEstimator, sampling::SamplingEstimator,
        CardinalityEstimator, EstimateError,
    };
    pub use ds_plan::{plan_regret, workload_regret, Optimizer};
    pub use ds_query::parser::parse_query;
    pub use ds_query::query::Query;
    pub use ds_query::workloads::job_light::job_light_workload;
    pub use ds_query::workloads::{imdb_predicate_columns, tpch_predicate_columns};
    pub use ds_serve::{
        BreakerConfig, Client, FaultInjector, InfoCard, MetricsSnapshot, RequestTimeline,
        ServeConfig, Server,
    };
    pub use ds_storage::gen::{imdb_database, tpch_database, ImdbConfig, TpchConfig};
    pub use ds_storage::Database;
}
