//! The 0-tuple situation (§2): "One advantage of our approach over pure
//! sampling-based cardinality estimators is that it addresses 0-tuple
//! situations, which is when no sampled tuples qualify. In such situations,
//! sampling-based approaches usually fall back to an 'educated' guess —
//! causing large estimation errors."
//!
//! This example finds queries whose sample bitmaps are all-empty and shows
//! how the sampling estimator collapses to its fallback guess while the
//! Deep Sketch still reads signal from the static query features.
//!
//! Run with: `cargo run --release --example zero_tuple`

use deep_sketches::prelude::*;
use deep_sketches::query::sqlgen::to_sql;
use deep_sketches::query::{GeneratorConfig, QueryGenerator};

fn main() {
    let db = imdb_database(&ImdbConfig {
        movies: 4_000,
        keywords: 600,
        companies: 250,
        persons: 2_500,
        seed: 5,
    });

    // A deliberately small sample makes 0-tuple situations common — rare
    // predicate values simply do not appear among 50 tuples.
    let sample_size = 50;
    println!("building Deep Sketch with {sample_size}-tuple samples …");
    let sketch = SketchBuilder::new(&db, imdb_predicate_columns(&db))
        .training_queries(3_000)
        .epochs(15)
        .sample_size(sample_size)
        .hidden_units(64)
        .seed(31)
        .build()
        .expect("sketch construction");
    let hyper = SamplingEstimator::build(&db, sample_size, 77);
    let oracle = TrueCardinalityOracle::new(&db);

    // Generate evaluation queries and keep those that hit a 0-tuple
    // situation on the *estimator's* sample.
    let mut generator =
        QueryGenerator::new(&db, GeneratorConfig::new(imdb_predicate_columns(&db), 999));
    let candidates = generator.generate_batch(2_000);
    let zero_tuple: Vec<_> = candidates
        .iter()
        .filter(|q| hyper.is_zero_tuple(q))
        .take(100)
        .cloned()
        .collect();
    println!(
        "found {} 0-tuple queries among 2000 generated\n",
        zero_tuple.len()
    );

    let mut sketch_q = Vec::new();
    let mut hyper_q = Vec::new();
    println!(
        "{:<64} {:>9} {:>9} {:>9}",
        "query (0-tuple for the sampler)", "true", "sketch", "hyper"
    );
    for (i, q) in zero_tuple.iter().enumerate() {
        let truth = oracle.cardinality(q).expect("ground truth") as f64;
        let s = sketch.estimate(q);
        let h = hyper.estimate(q);
        sketch_q.push(qerror(s, truth));
        hyper_q.push(qerror(h, truth));
        if i < 10 {
            println!(
                "{:<64} {:>9.0} {:>9.0} {:>9.0}",
                ellipsize(&to_sql(&db, q), 64),
                truth,
                s,
                h
            );
        }
    }

    println!("\nq-errors restricted to 0-tuple situations:");
    println!("{}", QErrorSummary::table_header());
    println!(
        "{}",
        QErrorSummary::from_qerrors(&sketch_q).table_row("Deep Sketch")
    );
    println!(
        "{}",
        QErrorSummary::from_qerrors(&hyper_q).table_row("HyPer")
    );
}

fn ellipsize(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        let cut: String = s.chars().take(n - 1).collect();
        format!("{cut}…")
    }
}
