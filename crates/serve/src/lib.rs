//! `ds-serve`: a concurrent sketch-serving front end.
//!
//! A multi-threaded TCP server that exposes a [`SketchStore`] over a small
//! line-based text protocol (`ESTIMATE`, `INFO`, `LIST`, `STATS`, `QUIT`,
//! …; [`Client`] speaks it from the other end), built on the unified
//! [`CardinalityEstimator`] API:
//!
//! * **A thread per connection, the pass in place** — a handler parses
//!   its request, probes the cache and runs the forward pass itself, one
//!   `try_estimate` call under the [`server`]'s deadline, span and pass
//!   counter; nothing is queued or handed to another thread, so every
//!   answer is `estimate_one`'s, bit for bit.
//! * **Caching** — a bounded, template-keyed estimate cache ([`cache`])
//!   short-circuits repeat healthy `ESTIMATE`s with bit-identical answers;
//!   every key carries the sketch's store generation, so a swap's entries
//!   never hit again and age out under eviction — the cache's one
//!   invalidation rule.
//! * **Robustness** — per-request deadlines, a connection cap that sheds
//!   with `BUSY` (the admission control: a connection has one request in
//!   flight), bounded request lines ([`line_reader`]), and graceful
//!   shutdown that answers every request already read ([`server`]).
//! * **Observability** — lock-free counters and log₂ latency histograms
//!   ([`metrics`]) in the Prometheus-style exposition behind `STATS`, to
//!   which each component (metrics, cache, breakers, memo, monitors,
//!   lifecycle, SLOs) renders its own families, a family emitted twice
//!   being an error; per-request stage timelines (parse → forward →
//!   write) with slow-request exemplars behind `TRACE`.
//! * **Model-quality feedback** — the `FEEDBACK` command replays observed
//!   true cardinalities into per-sketch rolling q-error monitors
//!   ([`ds_core::monitor`]); [`Server::monitors`] exposes them so
//!   maintenance can compare against each sketch's training-time baseline
//!   and recommend retraining
//!   ([`ds_core::advisor::recommend_retraining`]).
//! * **Graceful degradation** — per-sketch circuit breakers ([`breaker`])
//!   trip on consecutive health failures and route `ESTIMATE` traffic to a
//!   configured fallback estimator, flagged `degraded` on the wire; a
//!   deterministic fault-injection layer ([`faults`], inert in release
//!   builds) lets the degradation tests drive decode errors, stalled
//!   forward passes, and poisoned models through the real serving path.
//! * **Fleet** — a sharded, replicated tier ([`fleet`]): consistent-hash
//!   placement of sketches across shard servers with R-way replication,
//!   replicas bootstrapped by shipping `DSNP` snapshots over the wire
//!   (`SNAPSHOT`/`SYNC`), gossip-fed routing in [`FleetClient`], and
//!   automatic failover with re-replication when a replica dies. The wire
//!   protocol has one version, which `HELLO` checks, so a peer from
//!   another build fails at connect.
//! * **Fleet observability** — cross-process trace propagation: a
//!   [`FleetClient`] mints one 128-bit trace per routed request and
//!   attaches it as a `trace=` token; every shard records its spans
//!   into `TRACE` exemplars, and the `ds_fleetmon` aggregator scrapes
//!   all shards, merges their `STATS` expositions exactly (counters sum,
//!   histograms merge bucket-wise), and stitches cross-shard exemplars
//!   into one causal tree per trace. Declarative SLOs
//!   ([`ServeConfigBuilder::slos`]) grade every request and export
//!   multi-window burn rates; a firing burn alert demotes the shard in
//!   gossip-fed routing exactly like a breaker trip.
//! * **Self-maintaining serving** — an optional lifecycle daemon
//!   ([`ds_core::lifecycle`], enabled via
//!   [`ServeConfigBuilder::lifecycle`]) harvests `FEEDBACK`-graded
//!   queries, retrains a candidate off the hot path when drift fires,
//!   shadow-scores it on mirrored `FEEDBACK`-graded queries, and
//!   hot-swaps it under a fresh store generation — snapshotting first and
//!   rolling back automatically if, on the same graded queries, it reads
//!   worse than the model it replaced. Status behind the
//!   `LIFECYCLE` verb and `STATS` gauges.
//!
//! ```no_run
//! use std::sync::Arc;
//! use ds_serve::{Client, ServeConfig, Server};
//!
//! # fn demo(db: Arc<ds_storage::catalog::Database>,
//! #         store: Arc<ds_core::store::SketchStore>) -> std::io::Result<()> {
//! let server = Server::start(db, store, ServeConfig::default())?;
//! let mut client = Client::connect(server.local_addr())?;
//! let card = client.estimate_value("imdb", "SELECT COUNT(*) FROM title")?;
//! println!("estimated cardinality: {card}");
//! client.quit()?;
//! server.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! [`SketchStore`]: ds_core::store::SketchStore
//! [`CardinalityEstimator`]: ds_est::CardinalityEstimator

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod breaker;
pub mod cache;
pub mod client;
pub mod config;
pub mod faults;
pub mod fleet;
pub mod line_reader;
pub mod metrics;
pub mod protocol;
#[doc(hidden)]
pub mod seam;
pub mod server;

pub use breaker::{Admit, BreakerConfig, BreakerRegistry, CircuitBreaker, Verdict};
pub use cache::{query_template, EstimateCache, EstimateKey, TemplateInterner};
pub use client::{Client, InfoCard, SyncAck};
pub use config::{
    ConfigError, ServeConfig, ServeConfigBuilder, ServeSlo, SharedEstimator, SloSignal,
};
pub use ds_core::lifecycle::{
    LifecycleConfig, LifecycleCounters, LifecycleManager, LifecyclePhase, LifecycleStatus,
};
pub use faults::FaultInjector;
pub use fleet::{
    Fleet, FleetClient, FleetConfig, FleetCounters, FleetTopology, HashRing, ShardHealth,
};
pub use line_reader::{LineReader, MAX_REQUEST_LINE};
pub use metrics::{Metrics, MetricsSnapshot, RequestTimeline};
pub use protocol::{
    format_response, hello_response, parse_request, ErrorCode, Request, Response, PROTOCOL_VERSION,
};
#[doc(hidden)]
pub use seam::*;
pub use server::Server;
