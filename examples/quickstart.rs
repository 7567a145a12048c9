//! Quickstart: build a Deep Sketch over the synthetic IMDb, run ad-hoc SQL
//! against it, and compare with the traditional estimators and the truth.
//!
//! Run with: `cargo run --release --example quickstart`

use deep_sketches::prelude::*;

fn main() {
    // 1. The database — stand-in for HyPer + IMDb (see DESIGN.md §1).
    println!("generating synthetic IMDb …");
    let db = imdb_database(&ImdbConfig {
        movies: 4_000,
        keywords: 600,
        companies: 250,
        persons: 2_500,
        seed: 42,
    });
    for t in db.tables() {
        println!("  {:<16} {:>8} rows", t.name(), t.num_rows());
    }

    // 2. Build the sketch: generate + execute training queries, train MSCN
    //    (Figure 1a of the paper).
    println!("\nbuilding Deep Sketch (this trains a neural network) …");
    let (sketch, report) = SketchBuilder::new(&db, imdb_predicate_columns(&db))
        .training_queries(3_000)
        .epochs(15)
        .sample_size(100)
        .hidden_units(64)
        .max_tables(4)
        .seed(7)
        .build_with_report()
        .expect("sketch construction");
    println!(
        "  generation {:>8.2?} | execution {:>8.2?} | training {:>8.2?}",
        report.generation, report.execution, report.training.total_duration
    );
    println!(
        "  footprint: {:.2} MiB | validation mean q-error: {:.2}",
        report.footprint_bytes as f64 / (1024.0 * 1024.0),
        report.training.final_val_qerror().unwrap_or(f64::NAN)
    );

    // 3. Ad-hoc estimation (Figure 1b): the sketch consumes SQL, returns a
    //    cardinality estimate — here next to the baselines and the truth.
    let postgres = PostgresEstimator::build(&db);
    let hyper = SamplingEstimator::build(&db, 1000, 1);
    let oracle = TrueCardinalityOracle::new(&db);

    let queries = [
        "SELECT COUNT(*) FROM title WHERE title.production_year > 2010",
        "SELECT COUNT(*) FROM title t, movie_keyword mk \
         WHERE mk.movie_id = t.id AND t.production_year > 2005",
        "SELECT COUNT(*) FROM title t, movie_companies mc, movie_info_idx mi_idx \
         WHERE mc.movie_id = t.id AND mi_idx.movie_id = t.id \
         AND mc.company_type_id = 2 AND t.production_year > 2000",
        "SELECT COUNT(*) FROM title t, cast_info ci, movie_keyword mk \
         WHERE ci.movie_id = t.id AND mk.movie_id = t.id AND ci.role_id = 1",
    ];

    println!(
        "\n{:<66} {:>10} {:>10} {:>10} {:>10}",
        "query", "true", "sketch", "postgres", "hyper"
    );
    for sql in queries {
        let q = parse_query(&db, sql).expect("valid SQL");
        let truth = oracle.cardinality(&q).expect("ground truth") as f64;
        println!(
            "{:<66} {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
            ellipsize(sql, 66),
            truth,
            sketch.estimate(&q),
            postgres.estimate(&q),
            hyper.estimate(&q),
        );
    }

    // 4. Sketches serialize to a compact blob and reload without the DB.
    let bytes = sketch.to_bytes();
    let restored = DeepSketch::from_bytes(&bytes).expect("roundtrip");
    let q = parse_query(&db, queries[1]).expect("valid SQL");
    assert_eq!(sketch.estimate(&q), restored.estimate(&q));
    println!(
        "\nsketch serialized to {} bytes and reloaded — estimates identical",
        bytes.len()
    );
}

fn ellipsize(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n - 1])
    }
}
