//! PostgreSQL-style cardinality estimation (the `PostgreSQL` row of
//! Table 1): per-column statistics combined under attribute independence,
//! joins estimated with the distinct-count formula
//! `|R ⋈ S| = |R|·|S| / max(nd(R.a), nd(S.b))`.
//!
//! The implementation mirrors the selectivity logic of PostgreSQL 10's
//! `eqsel`/`scalarltsel`/`eqjoinsel` at the fidelity level relevant to the
//! paper: exact MCV matches, histogram interpolation, and — crucially — the
//! independence assumptions that break down on correlated data.

use std::collections::HashMap;

use ds_query::query::Query;
use ds_storage::catalog::Database;

use crate::stats::{ColumnStats, DEFAULT_STATS_TARGET};
use crate::{check_tables, each_query, CardinalityEstimator, EstimateError};

/// PostgreSQL-style estimator. Build once per database; estimation is pure.
#[derive(Debug)]
pub struct PostgresEstimator {
    /// Per (table, column) statistics for every column.
    stats: HashMap<(usize, usize), ColumnStats>,
    /// Table row counts.
    table_rows: Vec<f64>,
    name: String,
}

impl PostgresEstimator {
    /// Analyzes all columns of the database with the default statistics
    /// target (100 MCVs / 100 histogram buckets, like PostgreSQL).
    pub fn build(db: &Database) -> Self {
        Self::build_with_target(db, DEFAULT_STATS_TARGET)
    }

    /// Analyzes with a custom statistics target.
    pub fn build_with_target(db: &Database, stats_target: usize) -> Self {
        let mut stats = HashMap::new();
        for (ti, table) in db.tables().iter().enumerate() {
            for (ci, col) in table.columns().iter().enumerate() {
                stats.insert((ti, ci), ColumnStats::build(col, stats_target));
            }
        }
        Self {
            stats,
            table_rows: db.tables().iter().map(|t| t.num_rows() as f64).collect(),
            name: "PostgreSQL".to_string(),
        }
    }

    fn col_stats(&self, table: usize, col: usize) -> &ColumnStats {
        self.stats
            .get(&(table, col))
            .expect("estimator built over this database")
    }

    /// Combined selectivity of all predicates on one table under attribute
    /// independence, clamped to `[0, 1]`.
    fn table_selectivity(&self, query: &Query, table: usize) -> f64 {
        let mut sel = 1.0;
        for (t, p) in &query.predicates {
            if t.0 == table {
                sel *= self.col_stats(table, p.col).pred_selectivity(&p.test);
            }
        }
        sel.clamp(0.0, 1.0)
    }
}

impl CardinalityEstimator for PostgresEstimator {
    fn name(&self) -> &str {
        &self.name
    }

    /// `∏ |Tᵢ|·selᵢ × ∏_joins 1 / max(nd(left), nd(right))`, clamped ≥ 1.
    /// Queries referencing tables or columns the statistics were not built
    /// over are rejected.
    fn estimate_into(&self, queries: &[Query], out: &mut [Result<f64, EstimateError>]) {
        each_query(queries, out, |query| {
            check_tables(query, self.table_rows.len())?;
            // A table id can be in range while the column is not (statistics
            // built over a schema with fewer columns); reject those too
            // rather than panicking in `col_stats`.
            let mut cols = query.predicates.iter().map(|(t, p)| (t.0, p.col));
            let mut join_cols = query
                .joins
                .iter()
                .flat_map(|j| [j.left, j.right])
                .map(|c| (c.table.0, c.col));
            if let Some((t, _)) = cols
                .find(|k| !self.stats.contains_key(k))
                .or_else(|| join_cols.find(|k| !self.stats.contains_key(k)))
            {
                return Err(EstimateError::UnknownTable {
                    table: t,
                    known_tables: self.table_rows.len(),
                });
            }
            let mut card = 1.0;
            for &t in &query.tables {
                card *= self.table_rows[t.0] * self.table_selectivity(query, t.0);
            }
            for join in &query.joins {
                let nd_l = self
                    .col_stats(join.left.table.0, join.left.col)
                    .n_distinct()
                    .max(1) as f64;
                let nd_r = self
                    .col_stats(join.right.table.0, join.right.col)
                    .n_distinct()
                    .max(1) as f64;
                card /= nd_l.max(nd_r);
            }
            Ok(card.max(1.0))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_query::parser::parse_query;
    use ds_storage::exec::CountExecutor;
    use ds_storage::gen::{imdb_database, tpch_database, ImdbConfig, TpchConfig};

    #[test]
    fn single_table_equality_is_accurate_on_uniform_data() {
        let db = tpch_database(&TpchConfig::tiny(1));
        let est = PostgresEstimator::build(&db);
        let q = parse_query(
            &db,
            "SELECT COUNT(*) FROM lineitem WHERE lineitem.l_quantity = 25",
        )
        .unwrap();
        let truth = CountExecutor::new().count(&db, &q.to_exec()).unwrap() as f64;
        let e = est.estimate(&q);
        // Uniform independent data: PG should be within ~3× here.
        let q_err = (e / truth.max(1.0)).max(truth.max(1.0) / e);
        assert!(q_err < 4.0, "estimate={e} truth={truth}");
    }

    #[test]
    fn range_predicate_on_uniform_data() {
        let db = tpch_database(&TpchConfig::tiny(2));
        let est = PostgresEstimator::build(&db);
        let q = parse_query(
            &db,
            "SELECT COUNT(*) FROM lineitem WHERE lineitem.l_quantity > 40",
        )
        .unwrap();
        let truth = CountExecutor::new().count(&db, &q.to_exec()).unwrap() as f64;
        let e = est.estimate(&q);
        let q_err = (e / truth.max(1.0)).max(truth.max(1.0) / e);
        assert!(q_err < 2.0, "estimate={e} truth={truth}");
    }

    #[test]
    fn pk_fk_join_without_predicates_is_exactish() {
        let db = tpch_database(&TpchConfig::tiny(3));
        let est = PostgresEstimator::build(&db);
        let q = parse_query(
            &db,
            "SELECT COUNT(*) FROM orders, lineitem WHERE lineitem.l_orderkey = orders.o_orderkey",
        )
        .unwrap();
        let truth = CountExecutor::new().count(&db, &q.to_exec()).unwrap() as f64;
        let e = est.estimate(&q);
        // |lineitem ⋈ orders| = |lineitem| for a clean FK; formula is exact.
        let q_err = (e / truth).max(truth / e);
        assert!(q_err < 1.3, "estimate={e} truth={truth}");
    }

    #[test]
    fn correlated_join_predicates_underestimate_on_imdb() {
        // The independence assumption should produce noticeable error on
        // the correlated synthetic IMDb for year+keyword queries.
        let db = imdb_database(&ImdbConfig::tiny(5));
        let est = PostgresEstimator::build(&db);
        let exec = CountExecutor::new();
        let qs = ds_query::workloads::job_light::job_light_workload(&db, 3);
        let mut worst: f64 = 1.0;
        for q in &qs {
            let truth = exec.count(&db, &q.to_exec()).unwrap().max(1) as f64;
            let e = est.estimate(q);
            worst = worst.max((e / truth).max(truth / e));
        }
        assert!(
            worst > 3.0,
            "PG should err on correlated data, worst={worst}"
        );
    }

    #[test]
    fn estimates_are_at_least_one() {
        let db = imdb_database(&ImdbConfig::tiny(6));
        let est = PostgresEstimator::build(&db);
        let q = parse_query(
            &db,
            "SELECT COUNT(*) FROM title WHERE title.production_year > 99999",
        )
        .unwrap();
        assert_eq!(est.estimate(&q), 1.0);
    }

    #[test]
    fn name_is_postgresql() {
        let db = imdb_database(&ImdbConfig::tiny(7));
        assert_eq!(PostgresEstimator::build(&db).name(), "PostgreSQL");
    }
}
