//! End-to-end integration: the full Figure-1a pipeline, cross-crate.

use deep_sketches::core::template::{QueryTemplate, ValueFn};
use deep_sketches::prelude::*;

fn small_imdb(seed: u64) -> Database {
    imdb_database(&ImdbConfig {
        movies: 1_500,
        keywords: 200,
        companies: 100,
        persons: 800,
        seed,
    })
}

#[test]
fn pipeline_sketch_estimates_job_light() {
    let db = small_imdb(1);
    let (sketch, report) = SketchBuilder::new(&db, imdb_predicate_columns(&db))
        .training_queries(1_500)
        .epochs(12)
        .sample_size(64)
        .hidden_units(48)
        .max_tables(5)
        .seed(9)
        .build_with_report()
        .expect("pipeline");

    let oracle = TrueCardinalityOracle::new(&db);
    let workload = job_light_workload(&db, 4);
    let estimates = sketch.estimate_batch(&workload);
    let qs: Vec<f64> = workload
        .iter()
        .zip(&estimates)
        .map(|(q, &e)| qerror(e, oracle.cardinality(q).unwrap() as f64))
        .collect();
    let summary = QErrorSummary::from_qerrors(&qs);
    assert!(
        summary.median < 15.0,
        "median q-error on JOB-light too high: {}",
        summary.median
    );
    // The *mean* validation q-error is outlier-dominated at this tiny
    // training scale; require it to be finite and sane rather than tight.
    let val = report.training.final_val_qerror().unwrap();
    assert!(val.is_finite() && val < 500.0, "val mean q-error {val}");
}

#[test]
fn sketch_survives_disk_roundtrip() {
    let db = small_imdb(2);
    let sketch = SketchBuilder::new(&db, imdb_predicate_columns(&db))
        .training_queries(300)
        .epochs(3)
        .sample_size(32)
        .hidden_units(16)
        .seed(5)
        .build()
        .expect("pipeline");

    let dir = std::env::temp_dir().join("deep_sketches_test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("imdb.sketch");
    std::fs::write(&path, sketch.to_bytes()).expect("write sketch");
    let bytes = std::fs::read(&path).expect("read sketch");
    let restored = DeepSketch::from_bytes(&bytes).expect("decode");

    let workload = job_light_workload(&db, 1);
    assert_eq!(
        sketch.estimate_batch(&workload),
        restored.estimate_batch(&workload)
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn all_estimators_fulfil_the_contract_on_job_light() {
    let db = small_imdb(3);
    let sketch = SketchBuilder::new(&db, imdb_predicate_columns(&db))
        .training_queries(300)
        .epochs(3)
        .sample_size(32)
        .hidden_units(16)
        .seed(8)
        .build()
        .expect("pipeline");
    let pg = PostgresEstimator::build(&db);
    let hy = SamplingEstimator::build(&db, 100, 2);
    let estimators: Vec<&dyn CardinalityEstimator> = vec![&sketch, &pg, &hy];

    for q in &job_light_workload(&db, 7) {
        for est in &estimators {
            let e = est.estimate(q);
            assert!(e.is_finite() && e >= 1.0, "{}: estimate {e}", est.name());
            // Determinism.
            assert_eq!(e, est.estimate(q), "{} unstable", est.name());
        }
    }
}

#[test]
fn template_pipeline_matches_demo_flow() {
    // Parse a template with a placeholder, instantiate it from the sketch's
    // sample, and overlay sketch vs truth — the complete Figure 2 flow.
    let db = small_imdb(4);
    let sketch = SketchBuilder::new(&db, imdb_predicate_columns(&db))
        .training_queries(400)
        .epochs(4)
        .sample_size(48)
        .hidden_units(16)
        .seed(13)
        .build()
        .expect("pipeline");

    let template = QueryTemplate::parse_sql(
        &db,
        "SELECT COUNT(*) FROM title t, movie_keyword mk \
         WHERE mk.movie_id = t.id AND mk.keyword_id = 1 AND t.production_year = ?",
    )
    .expect("template");

    let oracle = TrueCardinalityOracle::new(&db);
    let ours = template.evaluate(sketch.samples(), ValueFn::GroupBy(10), &sketch);
    let truth = template.evaluate(sketch.samples(), ValueFn::GroupBy(10), &oracle);
    assert_eq!(ours.len(), truth.len());
    assert!(!ours.is_empty());
    // Same X axis for the overlay.
    for (a, b) in ours.iter().zip(&truth) {
        assert_eq!(a.0, b.0);
    }
}

#[test]
fn tpch_pipeline_works_too() {
    let db = tpch_database(&TpchConfig {
        customers: 300,
        parts: 200,
        suppliers: 30,
        seed: 77,
    });
    let sketch = SketchBuilder::new(&db, tpch_predicate_columns(&db))
        .training_queries(500)
        .epochs(6)
        .sample_size(48)
        .hidden_units(24)
        .max_tables(4)
        .seed(21)
        .build()
        .expect("pipeline");
    let oracle = TrueCardinalityOracle::new(&db);
    let wl = deep_sketches::query::workloads::tpch::tpch_workload(&db, 2);
    let qs: Vec<f64> = wl
        .iter()
        .map(|q| qerror(sketch.estimate(q), oracle.cardinality(q).unwrap() as f64))
        .collect();
    let summary = QErrorSummary::from_qerrors(&qs);
    assert!(summary.median < 20.0, "median {}", summary.median);
}
