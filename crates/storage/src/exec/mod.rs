//! Exact `COUNT(*)` execution of select-project-join queries.
//!
//! This is the reproduction's stand-in for HyPer: it computes the true
//! cardinalities used as training labels (step 3 of Figure 1a) and as the
//! ground truth in every experiment.
//!
//! Two engines are provided:
//!
//! * [`CountExecutor`] — production path. Counts acyclic (tree-shaped)
//!   equi-join queries in one pass per table using Yannakakis-style
//!   message passing over dictionary-encoded join keys: each table sends
//!   its parent a dense per-key-code count vector, so no intermediate join
//!   result is ever materialized and no row is ever hashed.
//!   [`CountExecutor::count_batch`] labels many queries in parallel,
//!   mirroring the demo's use of "multiple HyPer instances" for
//!   training-label generation.
//! * [`NaiveExecutor`] — an intentionally simple hash-join engine that
//!   materializes intermediate results. It exists to differentially test
//!   the production path and for (small) cyclic queries.

mod naive;
mod query;
mod yannakakis;

pub use naive::NaiveExecutor;
pub use query::{ExecError, ExecQuery, JoinEdge};
pub use yannakakis::CountExecutor;
