//! Correlated join sampling (CS2-style) — an *extension* baseline beyond
//! the paper's comparisons.
//!
//! Per-table independent samples cannot estimate joins: the probability
//! that sampled tuples from both sides share a join key is tiny.
//! Correlated sampling fixes this by sampling *keys*: pick a hash subset of
//! the hub table's primary keys and materialize the induced sub-database
//! (hub rows plus all referencing rows of the FK children). Joins on the
//! sub-database are then unbiased miniatures of the full join, so
//! `COUNT(sub) / rate` estimates the true count — capturing exactly the
//! cross-join fanout correlations that break the distinct-count formula.
//!
//! Its remaining weakness is the same 0-tuple problem as row sampling:
//! selective predicates that miss the key subset fall back to an educated
//! guess. This makes it a sharp ablation point between the traditional
//! estimators and the learned sketch.

use std::collections::HashSet;

use ds_query::query::Query;
use ds_storage::catalog::{Database, TableId};
use ds_storage::column::Column;
use ds_storage::exec::CountExecutor;

use crate::{check_tables, each_query, CardinalityEstimator, EstimateError};

/// Correlated join-sampling estimator over a star (hub + FK children)
/// schema region. Queries outside the star fall back to scaled guessing.
#[derive(Debug)]
pub struct JoinSamplingEstimator {
    /// The induced sub-database (same schema as the original).
    sub: Database,
    /// Effective sampling rate: |sampled hub keys| / |hub keys|.
    rate: f64,
    /// The hub table id.
    hub: TableId,
    /// Tables fully represented in the sub-database (hub + FK children).
    covered: HashSet<TableId>,
    exec: CountExecutor,
    name: String,
}

/// Splits a 64-bit key into a uniform `[0, 1)` fraction (Fibonacci hash).
fn key_fraction(key: i64) -> f64 {
    let h = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl JoinSamplingEstimator {
    /// Builds the estimator by sampling hub keys at approximately `rate`
    /// (0 < rate ≤ 1). The hub is detected as the table referenced by the
    /// most foreign keys.
    ///
    /// # Panics
    /// Panics if the database has no foreign keys or `rate` is out of
    /// range.
    pub fn build(db: &Database, rate: f64) -> Self {
        assert!(rate > 0.0 && rate <= 1.0, "rate must be in (0, 1]");
        assert!(!db.foreign_keys().is_empty(), "schema has no joins");

        // Hub = most-referenced table.
        let mut refs = vec![0usize; db.num_tables()];
        for fk in db.foreign_keys() {
            refs[fk.to.table.0] += 1;
        }
        let hub = TableId(
            refs.iter()
                .enumerate()
                .max_by_key(|(_, &c)| c)
                .expect("non-empty")
                .0,
        );
        let hub_key_col = db
            .foreign_keys()
            .iter()
            .find(|fk| fk.to.table == hub)
            .expect("hub has a referencing FK")
            .to
            .col;

        // Deterministic key subset via hashing.
        let hub_table = db.table(hub);
        let keys = hub_table.column(hub_key_col);
        let sampled: HashSet<i64> = (0..hub_table.num_rows())
            .filter_map(|r| keys.get(r))
            .filter(|&k| key_fraction(k) < rate)
            .collect();
        let total_keys = keys.n_distinct().max(1);
        let actual_rate = (sampled.len() as f64 / total_keys as f64).max(f64::MIN_POSITIVE);

        // Materialize the induced sub-database.
        let mut covered = HashSet::new();
        covered.insert(hub);
        let mut tables = Vec::with_capacity(db.num_tables());
        for (ti, table) in db.tables().iter().enumerate() {
            let tid = TableId(ti);
            let keep: Vec<u32> = if tid == hub {
                (0..table.num_rows() as u32)
                    .filter(|&r| keys.get(r as usize).is_some_and(|k| sampled.contains(&k)))
                    .collect()
            } else if let Some(fk) = db
                .foreign_keys()
                .iter()
                .find(|fk| fk.from.table == tid && fk.to.table == hub)
            {
                covered.insert(tid);
                let fk_col: &Column = table.column(fk.from.col);
                (0..table.num_rows() as u32)
                    .filter(|&r| fk_col.get(r as usize).is_some_and(|k| sampled.contains(&k)))
                    .collect()
            } else {
                // Outside the star: keep everything (queries touching these
                // tables are not covered anyway).
                (0..table.num_rows() as u32).collect()
            };
            tables.push(table.project_rows(&keep));
        }
        let sub = Database::new(
            format!("{}-cs2", db.name()),
            tables,
            db.foreign_keys().to_vec(),
        );
        Self {
            sub,
            rate: actual_rate,
            hub,
            covered,
            exec: CountExecutor::new(),
            name: "JoinSample".to_string(),
        }
    }

    /// Effective key sampling rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The hub table the key sample is anchored on.
    pub fn hub(&self) -> TableId {
        self.hub
    }

    /// True if the query lies entirely within the sampled star (estimates
    /// are unbiased up to sampling variance).
    pub fn covers(&self, query: &Query) -> bool {
        query.tables.iter().all(|t| self.covered.contains(t))
    }

    /// Rows of the sampled sub-database (footprint indicator).
    pub fn sub_rows(&self) -> usize {
        self.sub.total_rows()
    }
}

impl CardinalityEstimator for JoinSamplingEstimator {
    fn name(&self) -> &str {
        &self.name
    }

    /// `COUNT` on the key-sampled sub-database, scaled by `1 / rate`.
    /// A zero sub-count degrades to the half-tuple guess `0.5 / rate`.
    /// Unknown tables and executor failures are typed errors.
    fn estimate_into(&self, queries: &[Query], out: &mut [Result<f64, EstimateError>]) {
        each_query(queries, out, |query| {
            check_tables(query, self.sub.num_tables())?;
            let count = self
                .exec
                .count(&self.sub, &query.to_exec())
                .map_err(|e| EstimateError::Execution(e.to_string()))?;
            // 0-tuple situation: educated guess of half a tuple.
            let count = if count > 0 { count as f64 } else { 0.5 };
            Ok((count / self.rate).max(1.0))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_core_shim::*;

    // Minimal local helpers (this crate cannot depend on ds-core).
    mod ds_core_shim {
        pub fn qerror(e: f64, t: f64) -> f64 {
            let e = e.max(1.0);
            let t = t.max(1.0);
            (e / t).max(t / e)
        }
    }

    use ds_query::parser::parse_query;
    use ds_storage::exec::CountExecutor;
    use ds_storage::gen::{imdb_database, ImdbConfig};

    #[test]
    fn detects_title_as_hub_and_covers_star() {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let est = JoinSamplingEstimator::build(&db, 0.5);
        assert_eq!(est.hub(), db.table_id("title").unwrap());
        let q = parse_query(
            &db,
            "SELECT COUNT(*) FROM title, movie_keyword \
             WHERE movie_keyword.movie_id = title.id",
        )
        .unwrap();
        assert!(est.covers(&q));
        assert!((est.rate() - 0.5).abs() < 0.15, "rate {}", est.rate());
    }

    #[test]
    fn full_rate_reproduces_exact_counts() {
        let db = imdb_database(&ImdbConfig::tiny(2));
        let est = JoinSamplingEstimator::build(&db, 1.0);
        let exec = CountExecutor::new();
        let q = parse_query(
            &db,
            "SELECT COUNT(*) FROM title, movie_keyword \
             WHERE movie_keyword.movie_id = title.id AND title.production_year > 2000",
        )
        .unwrap();
        let truth = exec.count(&db, &q.to_exec()).unwrap() as f64;
        assert_eq!(est.estimate(&q), truth.max(1.0));
    }

    #[test]
    fn join_estimates_are_reasonable_at_half_rate() {
        let db = imdb_database(&ImdbConfig::tiny(3));
        let est = JoinSamplingEstimator::build(&db, 0.5);
        let exec = CountExecutor::new();
        // Predicate-free joins: correlated sampling is unbiased.
        for sql in [
            "SELECT COUNT(*) FROM title, movie_keyword \
             WHERE movie_keyword.movie_id = title.id",
            "SELECT COUNT(*) FROM title, cast_info, movie_keyword \
             WHERE cast_info.movie_id = title.id AND movie_keyword.movie_id = title.id",
        ] {
            let q = parse_query(&db, sql).unwrap();
            let truth = exec.count(&db, &q.to_exec()).unwrap() as f64;
            let e = est.estimate(&q);
            assert!(
                qerror(e, truth) < 2.5,
                "sql={sql} estimate={e} truth={truth}"
            );
        }
    }

    #[test]
    fn zero_subcount_falls_back_to_guess() {
        let db = imdb_database(&ImdbConfig::tiny(4));
        let est = JoinSamplingEstimator::build(&db, 0.25);
        let q = parse_query(
            &db,
            "SELECT COUNT(*) FROM title WHERE title.production_year > 99999",
        )
        .unwrap();
        let expected = (0.5 / est.rate()).max(1.0);
        assert!((est.estimate(&q) - expected).abs() < 1e-9);
    }

    #[test]
    fn deterministic_sub_database() {
        let db = imdb_database(&ImdbConfig::tiny(5));
        let a = JoinSamplingEstimator::build(&db, 0.3);
        let b = JoinSamplingEstimator::build(&db, 0.3);
        assert_eq!(a.sub_rows(), b.sub_rows());
        assert_eq!(a.rate(), b.rate());
    }

    #[test]
    #[should_panic(expected = "rate must be in")]
    fn invalid_rate_rejected() {
        let db = imdb_database(&ImdbConfig::tiny(6));
        JoinSamplingEstimator::build(&db, 0.0);
    }
}
