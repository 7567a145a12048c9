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
//! Two ablations sit beside them: [`independence::IndependenceOracleEstimator`]
//! (exact per-table counts, the independence join formula) and
//! [`joinsample::JoinSamplingEstimator`] (correlated join sampling).
//!
//! All estimators implement [`CardinalityEstimator`] — the single interface
//! through which benches, examples, and the `ds-serve` front end consume
//! every estimator in the workspace (the five baselines here plus
//! `ds_core`'s `DeepSketch` and `SketchRouter`). Each one writes a single
//! method, [`CardinalityEstimator::estimate_into`]; the single-query,
//! infallible and batch forms are provided over it.

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
    /// (e.g. a sketch deserialized from another database, or a router member
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
    /// No route to an answer: a router has no member covering the query's
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
/// An estimator implements one method besides [`name`](Self::name):
/// [`estimate_into`](Self::estimate_into), which answers a batch of queries
/// into one result slot each. Everything else is a provided helper over it,
/// so every entry point answers through the same body:
///
/// * [`try_estimate`](Self::try_estimate) — one query, as a batch of one
///   in a slot on the stack (it allocates nothing). The serving path.
/// * [`estimate`](Self::estimate) — `try_estimate` with an error degraded
///   to `1.0`: always returns a number.
/// * [`try_estimate_batch`](Self::try_estimate_batch) /
///   [`estimate_batch`](Self::estimate_batch) — the same over a slice,
///   into a fresh `Vec`.
///
/// Batching never changes a result: slot `i` of a batch is bit-identical
/// to `try_estimate(&queries[i])`. Estimators that answer one query at a
/// time fill the slots with [`each_query`].
pub trait CardinalityEstimator {
    /// Short display name used in experiment tables (e.g. `"PostgreSQL"`).
    fn name(&self) -> &str;

    /// Estimates `queries[i]` into `out[i]` (`out` has one slot per
    /// query): a cardinality, or a typed error when the query is outside
    /// the estimator's vocabulary. One bad query never fails its
    /// neighbours.
    fn estimate_into(&self, queries: &[Query], out: &mut [Result<f64, EstimateError>]);

    /// Fallible estimation of one query: a typed error instead of a guess
    /// when the query cannot be answered.
    fn try_estimate(&self, query: &Query) -> Result<f64, EstimateError> {
        let mut out = [Ok(0.0)];
        self.estimate_into(std::slice::from_ref(query), &mut out);
        let [result] = out;
        result
    }

    /// Estimated result cardinality of `query`: [`try_estimate`]'s answer,
    /// or `1.0` when it has none. Estimators clamp their answers to ≥ 1
    /// (row-count estimates below one row are never useful to an
    /// optimizer); the true-cardinality oracle answers its exact count.
    ///
    /// [`try_estimate`]: Self::try_estimate
    fn estimate(&self, query: &Query) -> f64 {
        self.try_estimate(query).unwrap_or(1.0)
    }

    /// Fallible batch estimation: one result per query.
    fn try_estimate_batch(&self, queries: &[Query]) -> Vec<Result<f64, EstimateError>> {
        let mut out = vec![Ok(0.0); queries.len()];
        self.estimate_into(queries, &mut out);
        out
    }

    /// Estimates a batch of queries: `queries.iter().map(|q|
    /// self.estimate(q))`, bit for bit.
    fn estimate_batch(&self, queries: &[Query]) -> Vec<f64> {
        self.try_estimate_batch(queries)
            .into_iter()
            .map(|r| r.unwrap_or(1.0))
            .collect()
    }
}

impl<T: CardinalityEstimator + ?Sized> CardinalityEstimator for &T {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn estimate_into(&self, queries: &[Query], out: &mut [Result<f64, EstimateError>]) {
        (**self).estimate_into(queries, out)
    }
}

/// The [`CardinalityEstimator::estimate_into`] of an estimator that answers
/// one query at a time: `out[i] = estimate(&queries[i])`.
pub fn each_query(
    queries: &[Query],
    out: &mut [Result<f64, EstimateError>],
    mut estimate: impl FnMut(&Query) -> Result<f64, EstimateError>,
) {
    debug_assert_eq!(queries.len(), out.len(), "one result slot per query");
    for (query, slot) in queries.iter().zip(out) {
        *slot = estimate(query);
    }
}

/// Bounds check shared by the estimators: the first table id in `query`
/// (its tables, then its joins' sides, then its predicates) not below
/// `known_tables`, as [`EstimateError::UnknownTable`].
pub fn check_tables(query: &Query, known_tables: usize) -> Result<(), EstimateError> {
    let joins = query.joins.iter().flat_map(|j| [j.left, j.right]);
    let sides = joins.map(|c| c.table);
    let preds = query.predicates.iter().map(|(t, _)| *t);
    let tables = query.tables.iter().copied().chain(sides).chain(preds);
    match tables.map(|t| t.0).find(|&t| t >= known_tables) {
        Some(table) => Err(EstimateError::UnknownTable {
            table,
            known_tables,
        }),
        None => Ok(()),
    }
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
        fn estimate_into(&self, queries: &[Query], out: &mut [Result<f64, EstimateError>]) {
            each_query(queries, out, |_| Ok(self.0))
        }
    }

    #[test]
    fn provided_helpers_answer_through_estimate_into() {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let q = parse_query(&db, "SELECT COUNT(*) FROM title").unwrap();
        let est = Fixed(7.0);
        assert_eq!(est.estimate_batch(&[q.clone(), q.clone()]), vec![7.0, 7.0]);
        assert_eq!(est.try_estimate(&q), Ok(7.0));
        assert_eq!(est.try_estimate_batch(&[q]), vec![Ok(7.0)]);
    }

    /// A table id outside the vocabulary is a typed error from the `try_`
    /// entry points and `1.0` from the others — never a panic.
    #[test]
    fn an_unknown_table_is_an_error_or_one_row_never_a_panic() {
        let db = imdb_database(&ImdbConfig::tiny(3));
        let good = parse_query(&db, "SELECT COUNT(*) FROM title WHERE title.kind_id = 1").unwrap();
        let mut alien = good.clone();
        alien.tables.push(ds_storage::catalog::TableId(99));
        let unknown = Err(EstimateError::UnknownTable {
            table: 99,
            known_tables: db.num_tables(),
        });
        let estimators: [&dyn CardinalityEstimator; 5] = [
            &postgres::PostgresEstimator::build(&db),
            &sampling::SamplingEstimator::build(&db, 16, 1),
            &independence::IndependenceOracleEstimator::new(&db),
            &oracle::TrueCardinalityOracle::new(&db),
            &joinsample::JoinSamplingEstimator::build(&db, 0.5),
        ];
        for est in estimators {
            let (name, want) = (est.name(), est.estimate(&good));
            assert_eq!(est.try_estimate(&alien), unknown, "{name}");
            assert_eq!(est.estimate(&alien), 1.0, "{name}");
            let batch = [good.clone(), alien.clone()];
            assert_eq!(est.estimate_batch(&batch), vec![want, 1.0], "{name}");
            let results = est.try_estimate_batch(&batch);
            assert_eq!(results, vec![Ok(want), unknown.clone()], "{name}");
        }
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
