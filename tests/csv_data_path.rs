//! The real-data pathway end-to-end: export a database to CSV, re-import
//! it, and verify the whole pipeline (stats, sampling, sketch training)
//! behaves identically on the imported copy.

use deep_sketches::prelude::*;
use deep_sketches::storage::csv::{read_database_dir, write_database_dir};

#[test]
fn csv_roundtripped_database_is_pipeline_equivalent() {
    let db = imdb_database(&ImdbConfig::tiny(41));
    let dir = std::env::temp_dir().join(format!("ds_csv_pipeline_{}", std::process::id()));
    write_database_dir(&db, &dir).expect("export");
    let imported = read_database_dir("imdb", &dir).expect("import");
    std::fs::remove_dir_all(&dir).ok();

    // Same shape, same FK integrity.
    assert_eq!(imported.num_tables(), db.num_tables());
    assert_eq!(imported.total_rows(), db.total_rows());
    assert!(imported.validate_foreign_keys().is_empty());

    // Ground truth identical on the whole workload.
    let oracle_a = TrueCardinalityOracle::new(&db);
    let oracle_b = TrueCardinalityOracle::new(&imported);
    let wl = job_light_workload(&db, 9);
    for q in &wl {
        assert_eq!(
            oracle_a.cardinality(q).unwrap(),
            oracle_b.cardinality(q).unwrap()
        );
    }

    // Sketches trained on original vs imported data are bit-identical
    // (the pipeline only sees column values, which round-tripped exactly).
    let build = |d: &Database| {
        SketchBuilder::new(d, imdb_predicate_columns(d))
            .training_queries(120)
            .epochs(2)
            .sample_size(8)
            .hidden_units(8)
            .seed(3)
            .build()
            .expect("sketch")
    };
    assert_eq!(build(&db).to_bytes(), build(&imported).to_bytes());
}

#[test]
fn importing_malformed_directories_fails_cleanly() {
    let dir = std::env::temp_dir().join(format!("ds_csv_bad_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // No CSV files at all.
    assert!(read_database_dir("x", &dir).is_err());
    // A CSV with a bad FK manifest.
    std::fs::write(dir.join("t.csv"), "a\n1\n").unwrap();
    std::fs::write(dir.join("schema.fks"), "t.a -> missing.b\n").unwrap();
    assert!(read_database_dir("x", &dir).is_err());
    std::fs::remove_dir_all(&dir).ok();
}
