//! Plan-quality measurement: how much does optimizing with *estimated*
//! cardinalities cost, compared to optimizing with the truth?
//!
//! For a query `q` and estimator `E`:
//!
//! 1. pick plan `P_E` by running the DP with `E`'s estimates;
//! 2. pick the reference plan `P*` with *true* cardinalities;
//! 3. regret(E, q) = `C_out_true(P_E) / C_out_true(P*) ≥ 1`.
//!
//! A regret of 1 means the estimator's plan is as good as the true-optimal
//! plan, even if its estimates were off; large regret means the estimation
//! errors changed the join order for the worse.

use ds_est::oracle::TrueCardinalityOracle;
use ds_est::CardinalityEstimator;
use ds_query::query::Query;

use crate::dp::Optimizer;

/// The regret of one estimator on one query.
pub fn plan_regret(
    query: &Query,
    estimator: &dyn CardinalityEstimator,
    oracle: &TrueCardinalityOracle<'_>,
) -> f64 {
    let est_opt = Optimizer::new(estimator);
    let true_opt = Optimizer::new(oracle);
    let chosen = est_opt.optimize(query).plan;
    let reference = true_opt.optimize(query);
    let chosen_true_cost = true_opt.cost_of(query, &chosen);
    (chosen_true_cost / reference.estimated_cost.max(1.0)).max(1.0)
}

/// Aggregate regret of an estimator over a workload.
#[derive(Debug, Clone)]
pub struct RegretReport {
    /// Per-query regrets (≥ 1), in workload order. Single-table and
    /// 1-join queries are skipped (their plan space is trivial).
    pub regrets: Vec<f64>,
    /// Fraction of multi-join queries where the estimator picked a plan
    /// with the true-optimal cost.
    pub optimal_fraction: f64,
    /// Mean regret.
    pub mean: f64,
    /// Maximum regret.
    pub max: f64,
}

/// Measures regret over all queries with ≥ 2 joins.
pub fn workload_regret(
    workload: &[Query],
    estimator: &dyn CardinalityEstimator,
    oracle: &TrueCardinalityOracle<'_>,
) -> RegretReport {
    let mut regrets = Vec::new();
    for q in workload.iter().filter(|q| q.num_joins() >= 2) {
        regrets.push(plan_regret(q, estimator, oracle));
    }
    assert!(!regrets.is_empty(), "workload has no multi-join queries");
    let optimal = regrets.iter().filter(|&&r| r < 1.0001).count();
    RegretReport {
        optimal_fraction: optimal as f64 / regrets.len() as f64,
        mean: regrets.iter().sum::<f64>() / regrets.len() as f64,
        max: regrets.iter().cloned().fold(1.0, f64::max),
        regrets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_est::{each_query, EstimateError};
    use ds_query::workloads::job_light::job_light_workload;
    use ds_storage::gen::{imdb_database, ImdbConfig};

    #[test]
    fn oracle_has_zero_regret() {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let oracle = TrueCardinalityOracle::new(&db);
        let wl = job_light_workload(&db, 2);
        let report = workload_regret(&wl, &oracle, &oracle);
        assert!(report.regrets.iter().all(|&r| (r - 1.0).abs() < 1e-9));
        assert_eq!(report.optimal_fraction, 1.0);
        assert_eq!(report.max, 1.0);
    }

    #[test]
    fn bad_estimates_cause_regret() {
        // An adversarial estimator that inverts cardinalities: big results
        // look small and vice versa. It must do no better than the oracle
        // and, on a correlated workload, strictly worse somewhere.
        struct Inverse<'a>(&'a TrueCardinalityOracle<'a>);
        impl CardinalityEstimator for Inverse<'_> {
            fn name(&self) -> &str {
                "inverse"
            }
            fn estimate_into(&self, queries: &[Query], out: &mut [Result<f64, EstimateError>]) {
                each_query(queries, out, |q| Ok(1e12 / self.0.estimate(q).max(1.0)))
            }
        }
        let db = imdb_database(&ImdbConfig::tiny(2));
        let oracle = TrueCardinalityOracle::new(&db);
        let inv = Inverse(&oracle);
        let wl = job_light_workload(&db, 3);
        let report = workload_regret(&wl, &inv, &oracle);
        assert!(report.mean >= 1.0);
        assert!(
            report.max > 1.01,
            "inverted estimates should pick at least one bad plan: {report:?}"
        );
    }

    #[test]
    fn regret_is_at_least_one_for_any_estimator() {
        struct Constant;
        impl CardinalityEstimator for Constant {
            fn name(&self) -> &str {
                "const"
            }
            fn estimate_into(&self, queries: &[Query], out: &mut [Result<f64, EstimateError>]) {
                each_query(queries, out, |_| Ok(42.0))
            }
        }
        let db = imdb_database(&ImdbConfig::tiny(3));
        let oracle = TrueCardinalityOracle::new(&db);
        let wl = job_light_workload(&db, 4);
        let report = workload_regret(&wl, &Constant, &oracle);
        assert!(report.regrets.iter().all(|&r| r >= 1.0));
        assert!(report.optimal_fraction <= 1.0);
    }
}
