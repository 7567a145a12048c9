//! `ds-obs`: zero-dependency structured tracing and metrics for the Deep
//! Sketches workspace.
//!
//! The sketch lifecycle — build, train, swap, serve — is instrumented
//! against this crate:
//!
//! * **Spans** ([`Tracer::span`]) time hierarchical phases; completions
//!   aggregate thread-safely under `/`-joined paths
//!   (`build/train/epoch/forward/tables`), so a whole training run
//!   produces a compact breakdown instead of an event stream.
//! * **Typed scalars** — monotonic [`Counter`]s, last-value [`Gauge`]s,
//!   and lock-free log₂ [`LogHistogram`]s for latency/size distributions
//!   (the same histogram the serving `STATS` command reports).
//! * **Request-level building blocks** — mergeable histogram
//!   [`HistogramSnapshot`]s, rolling [`WindowedHistogram`]s for drift
//!   monitoring, a non-blocking [`ExemplarRing`] for slow-request
//!   exemplars, and [`prom`] text exposition for the `STATS` command, in
//!   which a family emitted twice is an error.
//! * **Fleet plane** — cross-process trace identity ([`trace`]:
//!   128-bit [`TraceContext`] ids minted by a seeded [`IdSource`]),
//!   exposition merging across shards ([`agg`]: counters sum,
//!   histograms merge exactly, gauges take the worst), and declarative
//!   SLOs with fast/slow-window burn-rate alerting ([`slo`]).
//! * **JSON** — the [`json`] module is the workspace's minimal JSON
//!   parser/emitter (the offline build has no serde), which the benchmark
//!   uses for its report.
//!
//! Instrumentation is **off by default** and costs one relaxed atomic
//! load per call site when disabled, so hot serving/training paths pay
//! effectively nothing until someone turns tracing on. Tracing only
//! measures — estimates and trained weights are bit-identical with
//! tracing on or off.
//!
//! ```
//! let tracer = ds_obs::global();
//! tracer.enable();
//! {
//!     let _build = tracer.span("build");
//!     let _train = tracer.span("train");
//!     tracer.gauge("train/loss", 0.12);
//! }
//! let train = tracer.span_stat("build/train").expect("recorded");
//! assert_eq!(train.count, 1);
//! tracer.disable();
//! # tracer.reset();
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod agg;
pub mod counter;
pub mod hist;
pub mod json;
pub mod prom;
pub mod ring;
pub mod slo;
pub mod span;
pub mod trace;
pub mod window;

pub use agg::merge_expositions;
pub use counter::{Counter, Gauge};
pub use hist::{HistogramSnapshot, LogHistogram};
pub use json::{JsonError, JsonValue};
pub use prom::{parse_families, FamilyKind, PromFamily, PromSample, PromText};
pub use ring::ExemplarRing;
pub use slo::{BurnRates, SloSpec, SloTracker};
pub use span::{Inherited, Span, SpanStat, Tracer};
pub use trace::{IdSource, TraceContext};
pub use window::WindowedHistogram;

use std::sync::OnceLock;

static GLOBAL: OnceLock<Tracer> = OnceLock::new();

/// The process-wide tracer every instrumented crate records into.
/// Disabled until [`Tracer::enable`] is called on it.
pub fn global() -> &'static Tracer {
    GLOBAL.get_or_init(Tracer::new)
}

#[cfg(test)]
mod tests {
    #[test]
    fn global_is_a_disabled_singleton() {
        let a = super::global();
        let b = super::global();
        assert!(std::ptr::eq(a, b));
        // Off by default: recording without enable() is a no-op. (Other
        // tests use their own Tracer instances, so the global stays
        // untouched here.)
        a.count("lib_test/noop", 1);
        assert_eq!(a.counter_value("lib_test/noop"), 0);
    }
}
