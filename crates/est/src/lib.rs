//! # ds-est
//!
//! Traditional cardinality estimators — the baselines the paper compares
//! Deep Sketches against (Table 1):
//!
//! * [`postgres::PostgresEstimator`] — PostgreSQL-style statistics: MCV
//!   lists, equi-depth histograms, attribute-independence multiplication,
//!   and the distinct-count join formula.
//! * [`sampling::SamplingEstimator`] — HyPer-style estimation from
//!   materialized base-table samples, with an "educated guess" fallback in
//!   0-tuple situations, combined across joins under independence.
//! * [`oracle::TrueCardinalityOracle`] — exact results via the
//!   [`ds_storage::exec::CountExecutor`], with memoization; used both as
//!   ground truth and as the training-label source.
//!
//! All estimators implement [`CardinalityEstimator`] — the single interface
//! through which benches, examples, and the `ds-serve` front end consume
//! every estimator in the workspace (the five baselines here plus
//! `ds_core`'s `DeepSketch` and `SketchFleet`).

pub mod independence;
pub mod joinsample;
pub mod oracle;
pub mod postgres;
pub mod sampling;
pub mod stats;

use ds_query::query::Query;

/// Why an estimator could not produce a number for a query.
///
/// Estimation is best-effort by design ([`CardinalityEstimator::estimate`]
/// always answers), but a serving layer needs to distinguish "this query is
/// outside my vocabulary" from "here is a guess". Every variant corresponds
/// to a malformed or unroutable *request*, never to an internal invariant —
/// nothing on the serving route panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EstimateError {
    /// The query references a table id outside the estimator's vocabulary
    /// (e.g. a sketch deserialized from another database, or a fleet member
    /// asked about a table it was not trained on).
    UnknownTable {
        /// The offending table id.
        table: usize,
        /// Number of tables the estimator knows about.
        known_tables: usize,
    },
    /// A predicate or join references a column index outside the table's
    /// schema as the estimator knows it.
    UnknownColumn {
        /// Table id of the offending reference.
        table: usize,
        /// Column index of the offending reference.
        col: usize,
    },
    /// No route to an answer: a fleet has no member covering the query's
    /// table set.
    Unroutable {
        /// The query's table ids, for the error message.
        tables: Vec<usize>,
    },
    /// A serialized model or sketch failed to decode.
    Decode(String),
    /// A named estimator exists but cannot answer right now (still
    /// training, failed to train, or unknown to the registry).
    Unavailable(String),
    /// Query execution failed (oracle-style estimators that run the query).
    Execution(String),
}

impl std::fmt::Display for EstimateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EstimateError::UnknownTable {
                table,
                known_tables,
            } => write!(
                f,
                "unknown table id {table} (estimator knows {known_tables} tables)"
            ),
            EstimateError::UnknownColumn { table, col } => {
                write!(f, "unknown column {col} on table {table}")
            }
            EstimateError::Unroutable { tables } => {
                write!(f, "no estimator covers table set {tables:?}")
            }
            EstimateError::Decode(msg) => write!(f, "decode failure: {msg}"),
            EstimateError::Unavailable(msg) => write!(f, "estimator unavailable: {msg}"),
            EstimateError::Execution(msg) => write!(f, "execution failure: {msg}"),
        }
    }
}

impl std::error::Error for EstimateError {}

/// Common interface of everything that can guess a `COUNT(*)` result.
///
/// The trait has three entry points, layered so that implementors override
/// only what they can do better:
///
/// * [`estimate`](CardinalityEstimator::estimate) — the required,
///   infallible path: always returns a number (≥ 1), degrading gracefully
///   (e.g. a fleet answers 1.0 for uncovered queries).
/// * [`try_estimate`](CardinalityEstimator::try_estimate) — the fallible
///   path for serving: reports [`EstimateError`] instead of guessing when
///   the query is outside the estimator's vocabulary. Defaults to
///   `Ok(self.estimate(query))`.
/// * [`estimate_batch`](CardinalityEstimator::estimate_batch) /
///   [`try_estimate_batch`](CardinalityEstimator::try_estimate_batch) —
///   batched entry points. Default to a loop; estimators with a real batch
///   fast path (the Deep Sketch's chunked forward pass) override them, and
///   batching must never change results: `estimate_batch(qs)[i]` is
///   bit-identical to `estimate(&qs[i])`.
pub trait CardinalityEstimator {
    /// Short display name used in experiment tables (e.g. `"PostgreSQL"`).
    fn name(&self) -> &str;

    /// Estimated result cardinality of `query` (≥ 1; estimators clamp, as
    /// row-count estimates below one row are never useful to an optimizer).
    fn estimate(&self, query: &Query) -> f64;

    /// Fallible estimation for serving paths: returns a typed error instead
    /// of a degraded guess when the query cannot be answered.
    fn try_estimate(&self, query: &Query) -> Result<f64, EstimateError> {
        Ok(self.estimate(query))
    }

    /// Estimates a batch of queries. Must equal
    /// `queries.iter().map(|q| self.estimate(q)).collect()` bit-for-bit;
    /// overrides exist purely for speed.
    fn estimate_batch(&self, queries: &[Query]) -> Vec<f64> {
        queries.iter().map(|q| self.estimate(q)).collect()
    }

    /// Fallible batch estimation: per-query results, so one bad query in a
    /// batch cannot fail its neighbours.
    fn try_estimate_batch(&self, queries: &[Query]) -> Vec<Result<f64, EstimateError>> {
        queries.iter().map(|q| self.try_estimate(q)).collect()
    }
}

impl<T: CardinalityEstimator + ?Sized> CardinalityEstimator for &T {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn estimate(&self, query: &Query) -> f64 {
        (**self).estimate(query)
    }

    fn try_estimate(&self, query: &Query) -> Result<f64, EstimateError> {
        (**self).try_estimate(query)
    }

    fn estimate_batch(&self, queries: &[Query]) -> Vec<f64> {
        (**self).estimate_batch(queries)
    }

    fn try_estimate_batch(&self, queries: &[Query]) -> Vec<Result<f64, EstimateError>> {
        (**self).try_estimate_batch(queries)
    }
}

/// Bounds-check helper shared by the baseline estimators: the first table
/// id in `query` not below `known_tables`, as an [`EstimateError`].
pub(crate) fn check_tables(query: &Query, known_tables: usize) -> Result<(), EstimateError> {
    for &t in &query.tables {
        if t.0 >= known_tables {
            return Err(EstimateError::UnknownTable {
                table: t.0,
                known_tables,
            });
        }
    }
    for j in &query.joins {
        for side in [j.left, j.right] {
            if side.table.0 >= known_tables {
                return Err(EstimateError::UnknownTable {
                    table: side.table.0,
                    known_tables,
                });
            }
        }
    }
    for (t, _) in &query.predicates {
        if t.0 >= known_tables {
            return Err(EstimateError::UnknownTable {
                table: t.0,
                known_tables,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod trait_tests {
    use super::*;
    use ds_query::parser::parse_query;
    use ds_storage::gen::{imdb_database, ImdbConfig};

    struct Fixed(f64);

    impl CardinalityEstimator for Fixed {
        fn name(&self) -> &str {
            "Fixed"
        }
        fn estimate(&self, _q: &Query) -> f64 {
            self.0
        }
    }

    #[test]
    fn default_batch_loops_over_estimate() {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let q = parse_query(&db, "SELECT COUNT(*) FROM title").unwrap();
        let est = Fixed(7.0);
        assert_eq!(est.estimate_batch(&[q.clone(), q.clone()]), vec![7.0, 7.0]);
        assert_eq!(est.try_estimate(&q), Ok(7.0));
        assert_eq!(est.try_estimate_batch(&[q]), vec![Ok(7.0)]);
    }

    #[test]
    fn trait_objects_and_references_both_work() {
        let db = imdb_database(&ImdbConfig::tiny(2));
        let q = parse_query(&db, "SELECT COUNT(*) FROM title").unwrap();
        let est = Fixed(3.0);
        let by_ref: &dyn CardinalityEstimator = &est;
        assert_eq!(by_ref.estimate(&q), 3.0);
        // &T forwards through the blanket impl (generic call sites can take
        // either an owned estimator or a reference).
        fn generic<E: CardinalityEstimator>(e: E, q: &Query) -> f64 {
            e.estimate(q)
        }
        assert_eq!(generic(&est, &q), 3.0);
    }

    #[test]
    fn errors_display_their_cause() {
        let e = EstimateError::UnknownTable {
            table: 9,
            known_tables: 6,
        };
        assert!(e.to_string().contains("unknown table id 9"));
        let e = EstimateError::Unroutable { tables: vec![1, 2] };
        assert!(e.to_string().contains("[1, 2]"));
        assert!(EstimateError::Decode("bad magic".into())
            .to_string()
            .contains("bad magic"));
        assert!(EstimateError::Unavailable("still training".into())
            .to_string()
            .contains("still training"));
        assert!(EstimateError::Execution("cycle".into())
            .to_string()
            .contains("cycle"));
    }
}
