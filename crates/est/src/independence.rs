//! An ablation estimator that isolates the *independence* error from the
//! *statistics* error.
//!
//! The PostgreSQL-style estimator errs for two composable reasons: its
//! per-column statistics are lossy (MCV truncation, histogram
//! interpolation, per-table attribute independence) and its join formula
//! assumes independence between predicates and join fanout. This estimator
//! removes the first error entirely — per-table selectivities are computed
//! *exactly* by scanning the base table — while keeping the distinct-count
//! join formula. Whatever error remains is purely the cross-join
//! independence assumption: the error class the paper's learned model is
//! designed to capture.

use ds_query::query::Query;
use ds_storage::catalog::Database;

use crate::{check_tables, each_query, CardinalityEstimator, EstimateError};

/// Exact per-table selectivities + the independence join formula.
///
/// Not a practical estimator (it scans base tables per query); it exists
/// to decompose estimation error in experiments.
pub struct IndependenceOracleEstimator<'a> {
    db: &'a Database,
    /// Distinct counts of every column (join-formula input), precomputed.
    n_distinct: Vec<Vec<f64>>,
    name: String,
}

impl<'a> IndependenceOracleEstimator<'a> {
    /// Creates the estimator (precomputes distinct counts).
    pub fn new(db: &'a Database) -> Self {
        let n_distinct = db
            .tables()
            .iter()
            .map(|t| {
                t.columns()
                    .iter()
                    .map(|c| c.n_distinct().max(1) as f64)
                    .collect()
            })
            .collect();
        Self {
            db,
            n_distinct,
            name: "Independence".to_string(),
        }
    }
}

impl CardinalityEstimator for IndependenceOracleEstimator<'_> {
    fn name(&self) -> &str {
        &self.name
    }

    /// `∏ exact_count(Tᵢ, predsᵢ) × ∏_joins 1/max(nd(l), nd(r))`, ≥ 1.
    /// Queries referencing unknown tables are rejected.
    fn estimate_into(&self, queries: &[Query], out: &mut [Result<f64, EstimateError>]) {
        each_query(queries, out, |query| {
            check_tables(query, self.db.num_tables())?;
            let mut card = 1.0;
            for &t in &query.tables {
                let preds: Vec<_> = query.preds_of(t).cloned().collect();
                card *= self.db.table(t).filter_count(&preds) as f64;
            }
            for join in &query.joins {
                let nd_l = self.n_distinct[join.left.table.0][join.left.col];
                let nd_r = self.n_distinct[join.right.table.0][join.right.col];
                card /= nd_l.max(nd_r);
            }
            Ok(card.max(1.0))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::TrueCardinalityOracle;
    use crate::postgres::PostgresEstimator;
    use ds_query::parser::parse_query;
    use ds_query::workloads::job_light::job_light_workload;
    use ds_storage::gen::{imdb_database, ImdbConfig};

    fn qerr(e: f64, t: f64) -> f64 {
        let (e, t) = (e.max(1.0), t.max(1.0));
        (e / t).max(t / e)
    }

    #[test]
    fn exact_on_single_tables() {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let est = IndependenceOracleEstimator::new(&db);
        let q = parse_query(
            &db,
            "SELECT COUNT(*) FROM title WHERE title.production_year > 2000 AND title.kind_id = 1",
        )
        .unwrap();
        let title = db.table_id("title").unwrap();
        let preds: Vec<_> = q.preds_of(title).cloned().collect();
        let truth = db.table(title).filter_count(&preds);
        assert_eq!(est.estimate(&q), (truth as f64).max(1.0));
    }

    #[test]
    fn at_least_as_good_as_postgres_on_base_tables() {
        // With exact selectivities, the remaining error on single-table
        // queries is zero — strictly dominating PG there.
        let db = imdb_database(&ImdbConfig::tiny(2));
        let ind = IndependenceOracleEstimator::new(&db);
        let oracle = TrueCardinalityOracle::new(&db);
        let q = parse_query(
            &db,
            "SELECT COUNT(*) FROM movie_keyword WHERE movie_keyword.keyword_id = 3",
        )
        .unwrap();
        let truth = oracle.cardinality(&q).unwrap() as f64;
        assert_eq!(qerr(ind.estimate(&q), truth), 1.0);
    }

    #[test]
    fn join_error_remains_on_correlated_data() {
        // The point of the ablation: exact per-table stats do NOT fix the
        // cross-join correlation error.
        let db = imdb_database(&ImdbConfig::tiny(3));
        let ind = IndependenceOracleEstimator::new(&db);
        let pg = PostgresEstimator::build(&db);
        let oracle = TrueCardinalityOracle::new(&db);
        let wl = job_light_workload(&db, 5);
        let mut ind_worst = 1.0f64;
        let mut ind_beats_pg = 0usize;
        let mut total = 0usize;
        for q in &wl {
            let t = oracle.cardinality(q).unwrap() as f64;
            let qi = qerr(ind.estimate(q), t);
            let qp = qerr(pg.estimate(q), t);
            ind_worst = ind_worst.max(qi);
            if qi <= qp + 1e-9 {
                ind_beats_pg += 1;
            }
            total += 1;
        }
        assert!(
            ind_worst > 2.0,
            "independence error should persist: worst={ind_worst}"
        );
        // Exact stats should win against lossy stats on a majority of
        // queries (both share the same join formula).
        assert!(
            ind_beats_pg * 2 >= total,
            "exact stats beat PG on only {ind_beats_pg}/{total}"
        );
    }
}
