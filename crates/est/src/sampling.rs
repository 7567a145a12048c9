//! HyPer-style sampling-based estimation (the `HyPer` row of Table 1).
//!
//! HyPer evaluates base-table predicates against small materialized samples
//! and combines the observed selectivities across joins under independence.
//! Its weak spot — which the paper dwells on — is the *0-tuple situation*:
//! when no sampled tuple qualifies, the estimator "falls back to an
//! 'educated' guess — causing large estimation errors".

use ds_query::query::Query;
use ds_storage::catalog::{Database, TableId};
use ds_storage::sample::{sample_all, TableSample};

use crate::{check_tables, each_query, CardinalityEstimator, EstimateError};

/// What to assume when no sampled tuple qualifies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ZeroTupleFallback {
    /// Assume half a qualifying tuple: `sel = 0.5 / sample_size`. This is
    /// the classic "educated guess".
    HalfTuple,
    /// Assume a fixed selectivity.
    FixedSelectivity(f64),
}

impl ZeroTupleFallback {
    fn selectivity(self, sample_len: usize) -> f64 {
        match self {
            ZeroTupleFallback::HalfTuple => 0.5 / sample_len.max(1) as f64,
            ZeroTupleFallback::FixedSelectivity(s) => s,
        }
    }
}

/// Sampling-based estimator over per-table materialized samples.
#[derive(Debug)]
pub struct SamplingEstimator {
    samples: Vec<TableSample>,
    /// Exact distinct counts of join columns (sampling systems keep such
    /// counts in their catalogs).
    join_nd: Vec<Vec<f64>>,
    table_rows: Vec<f64>,
    fallback: ZeroTupleFallback,
    name: String,
}

impl SamplingEstimator {
    /// Builds the estimator with `sample_size` tuples per table
    /// (deterministic in `seed`) and the half-tuple fallback.
    pub fn build(db: &Database, sample_size: usize, seed: u64) -> Self {
        Self::build_with_fallback(db, sample_size, seed, ZeroTupleFallback::HalfTuple)
    }

    /// Builds with an explicit 0-tuple fallback policy.
    pub fn build_with_fallback(
        db: &Database,
        sample_size: usize,
        seed: u64,
        fallback: ZeroTupleFallback,
    ) -> Self {
        assert!(sample_size > 0, "sample size must be positive");
        let samples = sample_all(db, sample_size, seed);
        let join_nd = db
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
            samples,
            join_nd,
            table_rows: db.tables().iter().map(|t| t.num_rows() as f64).collect(),
            fallback,
            name: "HyPer".to_string(),
        }
    }

    /// The sample of table `t`.
    pub fn sample(&self, t: TableId) -> &TableSample {
        &self.samples[t.0]
    }

    /// Sampled selectivity of the predicates on `table`, with the 0-tuple
    /// fallback applied. Tables without predicates have selectivity 1.
    pub fn table_selectivity(&self, query: &Query, table: TableId) -> f64 {
        let mut preds = query.preds_of(table).peekable();
        if preds.peek().is_none() {
            return 1.0;
        }
        let sample = &self.samples[table.0];
        match sample.selectivity(preds) {
            Some(sel) if sel > 0.0 => sel,
            _ => self.fallback.selectivity(sample.len()),
        }
    }

    /// True if the query hits a 0-tuple situation on any of its tables.
    pub fn is_zero_tuple(&self, query: &Query) -> bool {
        query.tables.iter().any(|&t| {
            let mut preds = query.preds_of(t).peekable();
            preds.peek().is_some() && self.samples[t.0].selectivity(preds) == Some(0.0)
        })
    }
}

impl CardinalityEstimator for SamplingEstimator {
    fn name(&self) -> &str {
        &self.name
    }

    /// `∏ |Tᵢ|·sel_sampleᵢ × ∏_joins 1/max(nd(l), nd(r))`, clamped ≥ 1 —
    /// sampled base selectivities, independence across joins. Queries
    /// referencing tables outside the sampled database are rejected.
    fn estimate_into(&self, queries: &[Query], out: &mut [Result<f64, EstimateError>]) {
        each_query(queries, out, |query| {
            check_tables(query, self.table_rows.len())?;
            let mut card = 1.0;
            for &t in &query.tables {
                card *= self.table_rows[t.0] * self.table_selectivity(query, t);
            }
            for join in &query.joins {
                let nd_l = self.join_nd[join.left.table.0][join.left.col];
                let nd_r = self.join_nd[join.right.table.0][join.right.col];
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
    fn common_value_selectivity_close_to_truth() {
        let db = tpch_database(&TpchConfig::default());
        let est = SamplingEstimator::build(&db, 1000, 1);
        let q = parse_query(
            &db,
            "SELECT COUNT(*) FROM lineitem WHERE lineitem.l_quantity < 25",
        )
        .unwrap();
        let truth = CountExecutor::new().count(&db, &q.to_exec()).unwrap() as f64;
        let e = est.estimate(&q);
        let q_err = (e / truth).max(truth / e);
        assert!(q_err < 1.5, "estimate={e} truth={truth}");
    }

    #[test]
    fn zero_tuple_detection_and_fallback() {
        let db = imdb_database(&ImdbConfig::tiny(2));
        let est = SamplingEstimator::build(&db, 50, 3);
        // A predicate matching nothing at all: guaranteed 0-tuple.
        let q = parse_query(
            &db,
            "SELECT COUNT(*) FROM title WHERE title.production_year > 99999",
        )
        .unwrap();
        assert!(est.is_zero_tuple(&q));
        let e = est.estimate(&q);
        // Fallback: 0.5/50 of the title rows, clamped ≥ 1.
        let expected = (db.table(db.table_id("title").unwrap()).num_rows() as f64 * 0.01).max(1.0);
        assert!(
            (e - expected).abs() / expected < 0.01,
            "e={e} expected={expected}"
        );
    }

    #[test]
    fn fixed_fallback_is_respected() {
        let db = imdb_database(&ImdbConfig::tiny(2));
        let est = SamplingEstimator::build_with_fallback(
            &db,
            50,
            3,
            ZeroTupleFallback::FixedSelectivity(0.5),
        );
        let q = parse_query(
            &db,
            "SELECT COUNT(*) FROM title WHERE title.production_year > 99999",
        )
        .unwrap();
        let rows = db.table(db.table_id("title").unwrap()).num_rows() as f64;
        assert!((est.estimate(&q) - rows * 0.5).abs() < 1.0);
    }

    #[test]
    fn join_estimate_uses_distinct_counts() {
        let db = imdb_database(&ImdbConfig::tiny(4));
        let est = SamplingEstimator::build(&db, 100, 9);
        let q = parse_query(
            &db,
            "SELECT COUNT(*) FROM title, movie_keyword \
             WHERE movie_keyword.movie_id = title.id",
        )
        .unwrap();
        let truth = CountExecutor::new().count(&db, &q.to_exec()).unwrap() as f64;
        let e = est.estimate(&q);
        // Predicate-free PK/FK join: both systems' formula is near-exact
        // (up to keys that never appear in the FK column).
        let q_err = (e / truth).max(truth / e);
        assert!(q_err < 1.6, "estimate={e} truth={truth}");
    }

    #[test]
    fn no_predicates_means_full_selectivity() {
        let db = imdb_database(&ImdbConfig::tiny(5));
        let est = SamplingEstimator::build(&db, 10, 1);
        let q = parse_query(&db, "SELECT COUNT(*) FROM title").unwrap();
        let rows = db.table(db.table_id("title").unwrap()).num_rows() as f64;
        assert_eq!(est.estimate(&q), rows);
        assert!(!est.is_zero_tuple(&q));
    }

    #[test]
    fn name_is_hyper() {
        let db = imdb_database(&ImdbConfig::tiny(6));
        assert_eq!(SamplingEstimator::build(&db, 10, 1).name(), "HyPer");
    }
}
