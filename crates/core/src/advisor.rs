//! The sketch advisor — §4's open question, implemented.
//!
//! "One question — that we currently outsource to our users — is for which
//! schema parts we should build such sketches." Given a database and a
//! representative workload, the advisor recommends a small set of sketches
//! (connected table subsets) that covers the workload, trading coverage
//! against footprint: a sketch over tables `S` can answer a query iff the
//! query's tables are a subset of `S`.
//!
//! The algorithm is greedy weighted set cover over the connected subgraphs
//! of the schema's join graph: repeatedly pick the candidate with the best
//! newly-covered-queries per estimated footprint ratio.

use std::collections::HashSet;

use ds_query::query::Query;
use ds_query::JoinGraph;
use ds_storage::catalog::{Database, TableId};

/// Advisor tuning knobs.
#[derive(Debug, Clone)]
pub struct AdvisorConfig {
    /// Largest table subset a single sketch may span.
    pub max_tables_per_sketch: usize,
    /// Maximum number of sketches to recommend.
    pub max_sketches: usize,
    /// Sample size per table (drives the footprint estimate).
    pub sample_size: usize,
    /// Hidden width (drives the model-size part of the footprint estimate).
    pub hidden_units: usize,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        Self {
            max_tables_per_sketch: 5,
            max_sketches: 3,
            sample_size: 1000,
            hidden_units: 128,
        }
    }
}

/// One recommended sketch.
#[derive(Debug, Clone)]
pub struct SketchRecommendation {
    /// Tables the sketch should span (sorted).
    pub tables: Vec<TableId>,
    /// Indices into the workload of the queries this sketch answers that no
    /// earlier recommendation answers.
    pub newly_covered: Vec<usize>,
    /// Estimated serialized footprint in bytes.
    pub est_footprint_bytes: usize,
}

/// The advisor's full answer.
#[derive(Debug, Clone)]
pub struct Advice {
    /// Recommended sketches, in greedy order (most valuable first).
    pub recommendations: Vec<SketchRecommendation>,
    /// Fraction of workload queries covered by the recommendations.
    pub coverage: f64,
    /// Workload indices no recommendation covers (e.g. queries touching
    /// more tables than `max_tables_per_sketch`).
    pub uncovered: Vec<usize>,
}

/// Rough footprint model: per-table samples (values × 8 bytes) plus the
/// MSCN parameters (4 bytes each) for the table subset's feature widths.
pub fn estimate_footprint(
    db: &Database,
    tables: &[TableId],
    sample_size: usize,
    hidden: usize,
) -> usize {
    let sample_bytes: usize = tables
        .iter()
        .map(|&t| {
            let cols = db.table(t).columns().len();
            sample_size.min(db.table(t).num_rows()) * cols * 8
        })
        .sum();
    let table_dim = tables.len() + sample_size;
    let join_dim = db.foreign_keys().len().max(1);
    // Predicate columns ≈ non-key columns of the subset.
    let pred_cols: usize = tables
        .iter()
        .map(|&t| db.table(t).columns().len().saturating_sub(2))
        .sum();
    let pred_dim = pred_cols + 4;
    let params = (table_dim + 1) * hidden
        + (join_dim + 1) * hidden
        + (pred_dim + 1) * hidden
        + 2 * (hidden + 1) * hidden
        + (3 * hidden + 1) * hidden
        + hidden
        + 1;
    sample_bytes + params * 4
}

/// Enumerates all connected subsets of the join graph with `1..=max_size`
/// tables, sorted ascending. Single-table subsets are always connected.
pub fn connected_subsets(db: &Database, max_size: usize) -> Vec<Vec<TableId>> {
    let graph = JoinGraph::from_database(db);
    let n = db.num_tables();
    let mut out: HashSet<Vec<TableId>> = HashSet::new();
    // Grow subsets from every start table.
    let mut frontier: Vec<Vec<TableId>> = (0..n).map(|t| vec![TableId(t)]).collect();
    for subset in &frontier {
        out.insert(subset.clone());
    }
    for _ in 1..max_size {
        let mut next = Vec::new();
        for subset in &frontier {
            for &t in subset {
                for &(nb, _) in graph.neighbors(t) {
                    if !subset.contains(&nb) {
                        let mut grown = subset.clone();
                        grown.push(nb);
                        grown.sort_unstable();
                        if out.insert(grown.clone()) {
                            next.push(grown);
                        }
                    }
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    let mut sorted: Vec<Vec<TableId>> = out.into_iter().collect();
    sorted.sort();
    sorted
}

/// Recommends sketches for a workload via greedy coverage-per-byte.
pub fn recommend(db: &Database, workload: &[Query], cfg: &AdvisorConfig) -> Advice {
    assert!(cfg.max_tables_per_sketch >= 1);
    let candidates = connected_subsets(db, cfg.max_tables_per_sketch);

    // Which queries each candidate covers.
    let query_tables: Vec<Vec<TableId>> = workload
        .iter()
        .map(|q| {
            let mut t = q.tables.clone();
            t.sort_unstable();
            t
        })
        .collect();
    let covers = |cand: &[TableId], qi: usize| query_tables[qi].iter().all(|t| cand.contains(t));

    let mut uncovered_set: HashSet<usize> = (0..workload.len()).collect();
    let mut recommendations = Vec::new();

    while recommendations.len() < cfg.max_sketches && !uncovered_set.is_empty() {
        let mut best: Option<(f64, &Vec<TableId>, Vec<usize>)> = None;
        for cand in &candidates {
            let newly: Vec<usize> = uncovered_set
                .iter()
                .copied()
                .filter(|&qi| covers(cand, qi))
                .collect();
            if newly.is_empty() {
                continue;
            }
            let footprint = estimate_footprint(db, cand, cfg.sample_size, cfg.hidden_units) as f64;
            let score = newly.len() as f64 / footprint;
            let better = match &best {
                None => true,
                Some((s, b, n)) => {
                    score > *s || (score == *s && (newly.len(), cand.len()) > (n.len(), b.len()))
                }
            };
            if better {
                best = Some((score, cand, newly));
            }
        }
        let Some((_, cand, mut newly)) = best else {
            break;
        };
        newly.sort_unstable();
        for &qi in &newly {
            uncovered_set.remove(&qi);
        }
        recommendations.push(SketchRecommendation {
            tables: cand.clone(),
            est_footprint_bytes: estimate_footprint(db, cand, cfg.sample_size, cfg.hidden_units),
            newly_covered: newly,
        });
    }

    let mut uncovered: Vec<usize> = uncovered_set.into_iter().collect();
    uncovered.sort_unstable();
    let coverage = if workload.is_empty() {
        1.0
    } else {
        1.0 - uncovered.len() as f64 / workload.len() as f64
    };
    Advice {
        recommendations,
        coverage,
        uncovered,
    }
}

/// One sketch the online drift monitor flagged as stale — the advisor's
/// answer to "*when* should we rebuild", complementing [`recommend`]'s
/// "*what* should we build".
#[derive(Debug, Clone)]
pub struct RetrainAdvice {
    /// Store name of the stale sketch.
    pub sketch: String,
    /// The accuracy-drift evidence behind the recommendation.
    pub drift: crate::maintain::AccuracyDrift,
}

impl std::fmt::Display for RetrainAdvice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "retrain '{}': {}", self.sketch, self.drift)
    }
}

/// Scans every sketch in `store` against its feedback monitor and
/// returns the ones whose staleness signal fires, most severe first.
/// Sketches without a stored baseline or without feedback are skipped —
/// no evidence, no recommendation.
pub fn recommend_retraining(
    store: &crate::store::SketchStore,
    monitors: &crate::monitor::MonitorRegistry,
    ratio_threshold: f64,
    min_samples: u64,
) -> Vec<RetrainAdvice> {
    let mut out = Vec::new();
    for (name, sketch) in store.list() {
        let Some(baseline) = sketch.baseline() else {
            continue;
        };
        let Some(monitor) = monitors.get(&name) else {
            continue;
        };
        let Some(drift) = crate::maintain::accuracy_drift(baseline, &monitor.rolling()) else {
            continue;
        };
        if drift.is_stale(ratio_threshold, min_samples) {
            out.push(RetrainAdvice {
                sketch: name,
                drift,
            });
        }
    }
    out.sort_by(|a, b| {
        b.drift
            .severity()
            .total_cmp(&a.drift.severity())
            .then_with(|| a.sketch.cmp(&b.sketch))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_query::workloads::job_light::job_light_workload;
    use ds_storage::gen::{imdb_database, tpch_database, ImdbConfig, TpchConfig};

    #[test]
    fn connected_subsets_of_the_imdb_star() {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let subsets = connected_subsets(&db, 2);
        // 6 singletons + 5 star edges.
        assert_eq!(subsets.len(), 11);
        let all = connected_subsets(&db, 6);
        // Star with hub h and 5 leaves: connected subsets are singletons
        // (6) plus {h} ∪ (any non-empty leaf subset) (2^5 - 1 = 31).
        assert_eq!(all.len(), 37);
        for s in &all {
            assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted {s:?}");
        }
    }

    #[test]
    fn full_coverage_with_one_big_sketch() {
        let db = imdb_database(&ImdbConfig::tiny(2));
        let wl = job_light_workload(&db, 1);
        let cfg = AdvisorConfig {
            max_tables_per_sketch: 6,
            max_sketches: 5,
            ..Default::default()
        };
        let advice = recommend(&db, &wl, &cfg);
        assert_eq!(advice.coverage, 1.0);
        assert!(advice.uncovered.is_empty());
        // Every covered index appears exactly once across recommendations.
        let mut seen = HashSet::new();
        for r in &advice.recommendations {
            for &qi in &r.newly_covered {
                assert!(seen.insert(qi), "query {qi} double-counted");
            }
        }
        assert_eq!(seen.len(), wl.len());
    }

    #[test]
    fn small_sketches_leave_big_queries_uncovered() {
        let db = imdb_database(&ImdbConfig::tiny(3));
        let wl = job_light_workload(&db, 2);
        let cfg = AdvisorConfig {
            max_tables_per_sketch: 2,
            max_sketches: 10,
            ..Default::default()
        };
        let advice = recommend(&db, &wl, &cfg);
        // 3+-table queries cannot be covered by 2-table sketches.
        let big = wl.iter().filter(|q| q.tables.len() > 2).count();
        assert_eq!(advice.uncovered.len(), big);
        assert!(advice.coverage < 1.0);
        for r in &advice.recommendations {
            assert!(r.tables.len() <= 2);
            assert!(!r.newly_covered.is_empty());
        }
    }

    #[test]
    fn budget_caps_recommendation_count() {
        let db = imdb_database(&ImdbConfig::tiny(4));
        let wl = job_light_workload(&db, 3);
        let cfg = AdvisorConfig {
            max_tables_per_sketch: 3,
            max_sketches: 1,
            ..Default::default()
        };
        let advice = recommend(&db, &wl, &cfg);
        assert_eq!(advice.recommendations.len(), 1);
    }

    #[test]
    fn footprint_grows_with_tables_and_samples() {
        let db = imdb_database(&ImdbConfig::tiny(5));
        let one = vec![TableId(0)];
        let two = vec![TableId(0), TableId(5)];
        let f1 = estimate_footprint(&db, &one, 100, 64);
        let f2 = estimate_footprint(&db, &two, 100, 64);
        let f1_big = estimate_footprint(&db, &one, 400, 64);
        assert!(f2 > f1);
        assert!(f1_big > f1);
    }

    #[test]
    fn footprint_estimate_is_in_the_ballpark() {
        // Compare the advisor's estimate with a really-built sketch.
        use crate::builder::SketchBuilder;
        use ds_query::workloads::imdb_predicate_columns;
        let db = imdb_database(&ImdbConfig::tiny(6));
        let sketch = SketchBuilder::new(&db, imdb_predicate_columns(&db))
            .training_queries(100)
            .epochs(1)
            .sample_size(50)
            .hidden_units(32)
            .seed(1)
            .build()
            .expect("sketch");
        let all: Vec<TableId> = (0..db.num_tables()).map(TableId).collect();
        let est = estimate_footprint(&db, &all, 50, 32);
        let real = sketch.footprint_bytes();
        let ratio = est as f64 / real as f64;
        assert!(
            (0.3..3.0).contains(&ratio),
            "estimate {est} vs real {real} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn works_on_chain_schemas_too() {
        let db = tpch_database(&TpchConfig::tiny(1));
        let subsets = connected_subsets(&db, 3);
        // Must include the chain {customer, orders, lineitem}.
        let chain: Vec<TableId> = ["customer", "orders", "lineitem"]
            .iter()
            .map(|n| db.table_id(n).unwrap())
            .collect();
        let mut sorted = chain.clone();
        sorted.sort_unstable();
        assert!(subsets.contains(&sorted));
        // But not the disconnected {region, lineitem}.
        let mut bad = vec![
            db.table_id("region").unwrap(),
            db.table_id("lineitem").unwrap(),
        ];
        bad.sort_unstable();
        assert!(!subsets.contains(&bad));
    }

    #[test]
    fn empty_workload_is_fully_covered() {
        let db = imdb_database(&ImdbConfig::tiny(7));
        let advice = recommend(&db, &[], &AdvisorConfig::default());
        assert_eq!(advice.coverage, 1.0);
        assert!(advice.recommendations.is_empty());
    }

    #[test]
    fn retraining_is_recommended_only_for_drifted_sketches() {
        use crate::builder::SketchBuilder;
        use crate::monitor::{baseline_from_qerrors, MonitorRegistry};
        use crate::store::SketchStore;
        use ds_query::workloads::imdb_predicate_columns;

        let db = imdb_database(&ImdbConfig::tiny(8));
        let base = SketchBuilder::new(&db, imdb_predicate_columns(&db))
            .training_queries(60)
            .epochs(1)
            .sample_size(16)
            .hidden_units(16)
            .seed(2)
            .build()
            .expect("sketch");
        // Identical holdout baselines for all three, so only the feedback
        // stream decides which one is flagged.
        let baseline = baseline_from_qerrors(&[1.0, 1.1, 1.3, 1.8, 2.5]).unwrap();
        let mut healthy = base.clone();
        healthy.set_baseline(baseline.clone());
        let mut drifted = base.clone();
        drifted.set_baseline(baseline.clone());
        let mut quiet = base.clone();
        quiet.set_baseline(baseline);

        let store = SketchStore::new();
        store.insert("healthy", healthy).unwrap();
        store.insert("drifted", drifted).unwrap();
        store.insert("quiet", quiet).unwrap();

        let monitors = MonitorRegistry::new();
        for i in 0..60 {
            // Healthy feedback replays the baseline distribution...
            let q = [1.0, 1.1, 1.3, 1.8, 2.5][i % 5];
            monitors.monitor("healthy").record("t", q, 1.0);
            // ...while the drifted sketch is off by ~10x.
            monitors.monitor("drifted").record("t", 10.0 * q, 1.0);
        }
        // "quiet" never receives feedback at all.

        let advice = super::recommend_retraining(
            &store,
            &monitors,
            crate::maintain::DEFAULT_DRIFT_RATIO,
            crate::maintain::DEFAULT_MIN_SAMPLES,
        );
        assert_eq!(advice.len(), 1, "{advice:?}");
        assert_eq!(advice[0].sketch, "drifted");
        assert!(advice[0].drift.severity() > 2.0);
        assert!(advice[0].to_string().contains("drifted"));

        // Too little evidence → no recommendation even if severe.
        let sparse = MonitorRegistry::new();
        sparse.monitor("drifted").record("t", 100.0, 1.0);
        assert!(super::recommend_retraining(
            &store,
            &sparse,
            crate::maintain::DEFAULT_DRIFT_RATIO,
            crate::maintain::DEFAULT_MIN_SAMPLES,
        )
        .is_empty());
    }
}
