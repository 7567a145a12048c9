//! The paper's §4 open question, answered end-to-end: *"for which schema
//! parts we should build such sketches?"*
//!
//! 1. The **advisor** analyzes a workload and recommends table subsets by
//!    greedy coverage-per-byte.
//! 2. Focused sketches are trained behind a **router**, one per
//!    recommendation (each confined to its subset — step 1 of Figure 1a).
//! 3. Queries are **routed** to the smallest covering sketch; accuracy and
//!    footprint are compared against one monolithic whole-schema sketch.
//!
//! Run with: `cargo run --release --example advisor_router`

use deep_sketches::core::advisor::{recommend, AdvisorConfig};
use deep_sketches::core::router::{Route, SketchRouter};
use deep_sketches::prelude::*;

fn main() {
    let db = imdb_database(&ImdbConfig {
        movies: 4_000,
        keywords: 600,
        companies: 250,
        persons: 2_500,
        seed: 3,
    });
    let workload = job_light_workload(&db, 11);

    // --- 1. advise -------------------------------------------------------
    let cfg = AdvisorConfig {
        max_tables_per_sketch: 4,
        max_sketches: 3,
        sample_size: 100,
        hidden_units: 64,
    };
    let advice = recommend(&db, &workload, &cfg);
    println!(
        "advisor: {} sketches cover {:.0}% of the 70-query workload",
        advice.recommendations.len(),
        advice.coverage * 100.0
    );
    for (i, r) in advice.recommendations.iter().enumerate() {
        let names: Vec<&str> = r.tables.iter().map(|&t| db.table(t).name()).collect();
        println!(
            "  sketch {}: {{{}}} — covers {} queries, est. {:.2} MiB",
            i + 1,
            names.join(", "),
            r.newly_covered.len(),
            r.est_footprint_bytes as f64 / (1024.0 * 1024.0)
        );
    }

    // --- 2. build the router ---------------------------------------------
    println!(
        "\ntraining the router ({} focused sketches) …",
        advice.recommendations.len()
    );
    let router = SketchRouter::build_from_advice(&db, &advice, imdb_predicate_columns(&db), |b| {
        b.training_queries(2_500)
            .epochs(12)
            .sample_size(100)
            .hidden_units(64)
    })
    .expect("router");

    println!("training the monolithic whole-schema sketch …");
    let monolith = SketchBuilder::new(&db, imdb_predicate_columns(&db))
        .training_queries(2_500)
        .epochs(12)
        .sample_size(100)
        .hidden_units(64)
        .max_tables(5)
        .seed(0xF1EE7 ^ 99)
        .build()
        .expect("monolith");

    // --- 3. route + compare -----------------------------------------------
    let oracle = TrueCardinalityOracle::new(&db);
    let mut router_q = Vec::new();
    let mut mono_q = Vec::new();
    let mut uncovered = 0;
    for q in &workload {
        let truth = oracle.cardinality(q).expect("ground truth") as f64;
        match router.route(q) {
            Route::Member(_) => {
                router_q.push(qerror(router.estimate(q), truth));
                mono_q.push(qerror(monolith.estimate(q), truth));
            }
            Route::Uncovered => uncovered += 1,
        }
    }
    println!(
        "\nrouted {} queries ({} uncovered fall back to the monolith in production)",
        router_q.len(),
        uncovered
    );
    println!("\nq-errors on the routed queries:");
    println!("{}", QErrorSummary::table_header());
    println!(
        "{}",
        QErrorSummary::from_qerrors(&router_q).table_row("router")
    );
    println!(
        "{}",
        QErrorSummary::from_qerrors(&mono_q).table_row("monolith")
    );
    println!(
        "\nfootprints: router {:.2} MiB across {} sketches vs monolith {:.2} MiB",
        router.footprint_bytes() as f64 / (1024.0 * 1024.0),
        router.len(),
        monolith.footprint_bytes() as f64 / (1024.0 * 1024.0)
    );
}
