//! Sketch maintenance for the E12 harness (`benches/e12_drift.rs`): data
//! drift detection and sample refresh.
//!
//! A deployed sketch is a snapshot: as the database evolves, its
//! materialized samples and learned weights go stale. E12 measures two
//! primitives against that:
//!
//! * [`detect_drift`] — compares the sketch's stored samples against fresh
//!   samples from the live database with a two-sample Kolmogorov–Smirnov
//!   statistic per column, yielding a retrain signal;
//! * [`refresh_samples`] — redraws
//!   the materialized samples without retraining, which already repairs
//!   the bitmap features and template literal pools cheaply.
//!
//! A served sketch answers "is it stale?" through the model's observed
//! accuracy instead ([`ds_core::maintain::accuracy_drift`]).

use ds_core::sketch::DeepSketch;
use ds_storage::catalog::{Database, TableId};
use ds_storage::sample::{sample_all, TableSample};

/// Drift of one table's sample against the live data.
#[derive(Debug, Clone)]
pub struct TableDrift {
    /// The table.
    pub table: TableId,
    /// Live row count.
    pub rows_now: usize,
    /// Per-column `(name, KS statistic ∈ [0, 1])`, in column order.
    pub column_drifts: Vec<(String, f64)>,
}

impl TableDrift {
    /// Largest per-column drift of this table.
    pub fn max_drift(&self) -> f64 {
        self.column_drifts
            .iter()
            .map(|&(_, d)| d)
            .fold(0.0, f64::max)
    }
}

/// The result of a drift check.
#[derive(Debug, Clone)]
pub struct DriftReport {
    /// Per-table drift, in table-id order.
    pub per_table: Vec<TableDrift>,
    /// Largest KS statistic across all columns of all tables. Surrogate
    /// key columns inflate this on any growing table; prefer
    /// [`DriftReport::predicate_drift`] for retrain decisions.
    pub max_drift: f64,
    /// Largest KS statistic restricted to the featurizer's *predicate
    /// columns* — the only columns whose distribution the model actually
    /// consumes (via literal normalization and sample bitmaps).
    pub predicate_drift: f64,
}

impl DriftReport {
    /// True when any *predicate* column drifted beyond `threshold`
    /// (0.1–0.2 is a reasonable retrain trigger for 100+-tuple samples).
    pub fn needs_retraining(&self, threshold: f64) -> bool {
        self.predicate_drift > threshold
    }

    /// The most-drifted `(table, column, drift)` triple, if any.
    pub fn worst(&self) -> Option<(TableId, &str, f64)> {
        self.per_table
            .iter()
            .flat_map(|t| {
                t.column_drifts
                    .iter()
                    .map(move |(c, d)| (t.table, c.as_str(), *d))
            })
            .max_by(|a, b| a.2.total_cmp(&b.2))
    }
}

/// Two-sample Kolmogorov–Smirnov statistic of two integer samples:
/// `sup |F_a(x) − F_b(x)| ∈ [0, 1]`. Empty inputs give 1.0 when exactly
/// one side is empty, 0.0 when both are.
pub fn ks_statistic(a: &[i64], b: &[i64]) -> f64 {
    match (a.is_empty(), b.is_empty()) {
        (true, true) => return 0.0,
        (true, false) | (false, true) => return 1.0,
        _ => {}
    }
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort_unstable();
    sb.sort_unstable();
    let (mut i, mut j) = (0usize, 0usize);
    let (na, nb) = (sa.len() as f64, sb.len() as f64);
    let mut max_gap = 0.0f64;
    while i < sa.len() && j < sb.len() {
        let x = sa[i].min(sb[j]);
        while i < sa.len() && sa[i] <= x {
            i += 1;
        }
        while j < sb.len() && sb[j] <= x {
            j += 1;
        }
        let gap = (i as f64 / na - j as f64 / nb).abs();
        max_gap = max_gap.max(gap);
    }
    max_gap
}

/// Compares the sketch's stored samples with fresh samples drawn from
/// `db` (same nominal size, seeded by `seed`).
///
/// # Panics
/// Panics if `db` has a different table count than the sketch expects.
pub fn detect_drift(sketch: &DeepSketch, db: &Database, seed: u64) -> DriftReport {
    assert_eq!(
        db.num_tables(),
        sketch.samples().len(),
        "database shape changed — retrain rather than drift-check"
    );
    let fresh = sample_all(db, sketch.featurizer().sample_size(), seed);
    let vocab = sketch.featurizer().columns();
    let mut per_table = Vec::with_capacity(db.num_tables());
    let mut max_drift = 0.0f64;
    let mut predicate_drift = 0.0f64;
    for (old, new) in sketch.samples().iter().zip(&fresh) {
        let table = old.table_id();
        let mut column_drifts = Vec::new();
        for (ci, col) in old.rows().columns().iter().enumerate() {
            let a: Vec<i64> = (0..col.len()).filter_map(|r| col.get(r)).collect();
            let new_col = new.rows().column(ci);
            let b: Vec<i64> = (0..new_col.len()).filter_map(|r| new_col.get(r)).collect();
            let d = ks_statistic(&a, &b);
            max_drift = max_drift.max(d);
            if vocab.iter().any(|cr| cr.table == table && cr.col == ci) {
                predicate_drift = predicate_drift.max(d);
            }
            column_drifts.push((col.name().to_string(), d));
        }
        per_table.push(TableDrift {
            table,
            rows_now: db.table(table).num_rows(),
            column_drifts,
        });
    }
    DriftReport {
        per_table,
        max_drift,
        predicate_drift,
    }
}

/// Redraws the sketch's materialized samples from `db`, keeping the
/// learned weights. Returns the refreshed sketch.
///
/// **Caveat (measured in experiment E12):** the sample bitmaps are part of
/// the *learned input distribution* — a model trained against v1 samples
/// can get *worse* when handed bitmaps over substantially different data.
/// Use refresh for template literal pools and small drifts; once
/// [`detect_drift`] fires on predicate columns, retrain.
pub fn refresh_samples(sketch: &DeepSketch, db: &Database, seed: u64) -> DeepSketch {
    assert_eq!(
        db.num_tables(),
        sketch.samples().len(),
        "database shape changed — rebuild the sketch instead"
    );
    let fresh: Vec<TableSample> = sample_all(db, sketch.featurizer().sample_size(), seed);
    let mut refreshed = DeepSketch::from_parts(
        sketch.artifact().clone(),
        sketch.featurizer().clone(),
        fresh,
        sketch.normalizer().clone(),
        sketch.database_name().to_string(),
    );
    // The weights are unchanged, so the training-time accuracy baseline
    // still describes this sketch.
    if let Some(b) = sketch.baseline() {
        refreshed.set_baseline(b.clone());
    }
    refreshed
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_core::builder::SketchBuilder;
    use ds_query::workloads::imdb_predicate_columns;
    use ds_storage::gen::{imdb_database, ImdbConfig};

    fn tiny_sketch(db: &Database) -> DeepSketch {
        SketchBuilder::new(db, imdb_predicate_columns(db))
            .training_queries(150)
            .epochs(2)
            .sample_size(32)
            .hidden_units(8)
            .seed(4)
            .build()
            .expect("sketch")
    }

    #[test]
    fn ks_statistic_basics() {
        assert_eq!(ks_statistic(&[], &[]), 0.0);
        assert_eq!(ks_statistic(&[1, 2], &[]), 1.0);
        // Identical samples → 0.
        assert_eq!(ks_statistic(&[1, 2, 3], &[1, 2, 3]), 0.0);
        // Disjoint supports → 1.
        assert_eq!(ks_statistic(&[1, 2, 3], &[10, 11]), 1.0);
        // Shifted uniform: moderate drift.
        let a: Vec<i64> = (0..100).collect();
        let b: Vec<i64> = (50..150).collect();
        let d = ks_statistic(&a, &b);
        assert!((d - 0.5).abs() < 0.05, "d={d}");
        // Symmetry.
        assert_eq!(ks_statistic(&a, &b), ks_statistic(&b, &a));
    }

    #[test]
    fn no_drift_against_the_same_database() {
        let db = imdb_database(&ImdbConfig::tiny(31));
        let sketch = tiny_sketch(&db);
        let report = detect_drift(&sketch, &db, 99);
        // Different sample seeds give small sampling noise, not drift.
        assert!(report.max_drift < 0.35, "max drift {}", report.max_drift);
        assert!(report.predicate_drift <= report.max_drift);
        assert!(!report.needs_retraining(0.5));
        assert_eq!(report.per_table.len(), 6);
    }

    #[test]
    fn evolved_database_is_flagged() {
        let db = imdb_database(&ImdbConfig::tiny(31));
        let sketch = tiny_sketch(&db);
        // "Evolution": a database with a very different year/popularity mix
        // (different seed and scale) — the drift check must fire.
        let evolved = imdb_database(&ImdbConfig {
            movies: 900,
            keywords: 40,
            companies: 40,
            persons: 300,
            seed: 777,
        });
        let report = detect_drift(&sketch, &evolved, 99);
        assert!(
            report.needs_retraining(0.3),
            "drift not detected on predicate columns: {}",
            report.predicate_drift
        );
        let (t, col, d) = report.worst().expect("some drift");
        assert!(d >= report.per_table[t.0].max_drift() * 0.999);
        assert!(!col.is_empty());
    }

    #[test]
    fn refresh_samples_keeps_weights_but_tracks_new_data() {
        let db = imdb_database(&ImdbConfig::tiny(32));
        let sketch = tiny_sketch(&db);
        let refreshed = refresh_samples(&sketch, &db, 12345);
        // Weights identical.
        assert_eq!(sketch.artifact(), refreshed.artifact());
        // Samples differ (different seed) but are drawn from the same data.
        assert_ne!(
            sketch.samples()[0].row_ids(),
            refreshed.samples()[0].row_ids()
        );
        let report = detect_drift(&refreshed, &db, 7);
        assert!(report.max_drift < 0.35);
        // Still estimates sanely.
        let q = ds_query::parser::parse_query(
            &db,
            "SELECT COUNT(*) FROM title WHERE title.production_year > 2000",
        )
        .unwrap();
        use ds_est::CardinalityEstimator;
        assert!(refreshed.estimate(&q) >= 1.0);
    }

    #[test]
    fn refresh_preserves_the_accuracy_baseline() {
        let db = imdb_database(&ImdbConfig::tiny(34));
        let sketch = tiny_sketch(&db);
        assert!(sketch.baseline().is_some());
        let refreshed = refresh_samples(&sketch, &db, 5);
        assert_eq!(refreshed.baseline(), sketch.baseline());
    }

    #[test]
    #[should_panic(expected = "database shape changed")]
    fn shape_change_is_rejected() {
        let db = imdb_database(&ImdbConfig::tiny(33));
        let sketch = tiny_sketch(&db);
        let other = ds_storage::gen::tpch_database(&ds_storage::gen::TpchConfig::tiny(1));
        detect_drift(&sketch, &other, 1);
    }
}
