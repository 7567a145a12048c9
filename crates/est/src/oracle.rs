//! The true-cardinality oracle: exact `COUNT(*)` via the storage engine's
//! executor, memoized. This plays HyPer's *execution* role — producing
//! training labels (Figure 1a step 3) and ground truth for every
//! experiment's overlay.

use std::collections::HashMap;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use ds_query::query::Query;
use ds_storage::catalog::Database;
use ds_storage::exec::{CountExecutor, ExecError};

use crate::{check_tables, each_query, CardinalityEstimator, EstimateError};

/// Exact cardinalities with memoization. `Sync`; share freely.
pub struct TrueCardinalityOracle<'a> {
    db: &'a Database,
    exec: CountExecutor,
    cache: RwLock<HashMap<Query, u64>>,
    name: String,
}

impl<'a> TrueCardinalityOracle<'a> {
    /// Creates an oracle over a database.
    pub fn new(db: &'a Database) -> Self {
        Self {
            db,
            exec: CountExecutor::new(),
            cache: RwLock::new(HashMap::new()),
            name: "True".to_string(),
        }
    }

    /// The memoized counts, read; a poisoned lock is recovered.
    fn cache(&self) -> RwLockReadGuard<'_, HashMap<Query, u64>> {
        self.cache.read().unwrap_or_else(|e| e.into_inner())
    }

    /// The memoized counts, written; a poisoned lock is recovered.
    fn cache_mut(&self) -> RwLockWriteGuard<'_, HashMap<Query, u64>> {
        self.cache.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Exact cardinality of `query`.
    ///
    /// # Errors
    /// Propagates executor errors (malformed or cyclic queries).
    pub fn cardinality(&self, query: &Query) -> Result<u64, ExecError> {
        if let Some(&c) = self.cache().get(query) {
            return Ok(c);
        }
        let c = self.exec.count(self.db, &query.to_exec())?;
        self.cache_mut().insert(query.clone(), c);
        Ok(c)
    }

    /// Labels a batch of queries, optionally in parallel (the demo executes
    /// training queries on "multiple HyPer instances").
    pub fn label_batch(&self, queries: &[Query], threads: usize) -> Result<Vec<u64>, ExecError> {
        let exec_queries: Vec<_> = queries.iter().map(Query::to_exec).collect();
        let labels = self.exec.count_batch(self.db, &exec_queries, threads)?;
        let mut cache = self.cache_mut();
        for (q, &c) in queries.iter().zip(&labels) {
            cache.insert(q.clone(), c);
        }
        Ok(labels)
    }

    /// Number of memoized results.
    pub fn cache_len(&self) -> usize {
        self.cache().len()
    }
}

impl CardinalityEstimator for TrueCardinalityOracle<'_> {
    fn name(&self) -> &str {
        &self.name
    }

    /// The exact cardinality, unclamped: an empty result answers `0.0`.
    /// Unknown tables and executor failures are typed errors, which the
    /// provided `estimate` answers as `1.0` — never a truth: ground truth
    /// reads [`TrueCardinalityOracle::cardinality`], which keeps the error.
    fn estimate_into(&self, queries: &[Query], out: &mut [Result<f64, EstimateError>]) {
        each_query(queries, out, |query| {
            check_tables(query, self.db.num_tables())?;
            self.cardinality(query)
                .map(|c| c as f64)
                .map_err(|e| EstimateError::Execution(e.to_string()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_query::parser::parse_query;
    use ds_storage::gen::{imdb_database, ImdbConfig};

    #[test]
    fn oracle_matches_executor_and_caches() {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let oracle = TrueCardinalityOracle::new(&db);
        let q = parse_query(
            &db,
            "SELECT COUNT(*) FROM title, movie_keyword \
             WHERE movie_keyword.movie_id = title.id AND title.production_year > 2000",
        )
        .unwrap();
        let direct = CountExecutor::new().count(&db, &q.to_exec()).unwrap();
        assert_eq!(oracle.cardinality(&q).unwrap(), direct);
        assert_eq!(oracle.cache_len(), 1);
        // Second call hits the cache.
        assert_eq!(oracle.cardinality(&q).unwrap(), direct);
        assert_eq!(oracle.cache_len(), 1);
    }

    #[test]
    fn label_batch_fills_cache() {
        let db = imdb_database(&ImdbConfig::tiny(2));
        let oracle = TrueCardinalityOracle::new(&db);
        let wl = ds_query::workloads::job_light::job_light_workload(&db, 1);
        let labels = oracle.label_batch(&wl[..10], 2).unwrap();
        assert_eq!(labels.len(), 10);
        assert!(oracle.cache_len() >= 9); // duplicates possible
        for (q, &l) in wl[..10].iter().zip(&labels) {
            assert_eq!(oracle.cardinality(q).unwrap(), l);
        }
    }

    #[test]
    fn estimate_is_truth() {
        let db = imdb_database(&ImdbConfig::tiny(3));
        let oracle = TrueCardinalityOracle::new(&db);
        let q = parse_query(&db, "SELECT COUNT(*) FROM title WHERE title.kind_id = 1").unwrap();
        assert_eq!(oracle.estimate(&q), oracle.cardinality(&q).unwrap() as f64);
        assert_eq!(oracle.name(), "True");
    }
}
