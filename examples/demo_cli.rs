//! An interactive, terminal version of the paper's demo (Figure 2 without
//! the browser): build or load sketches, type SQL, and see the Deep Sketch
//! estimate next to the PostgreSQL- and HyPer-style estimates and the true
//! cardinality — the demo's EXECUTE button.
//!
//! Commands:
//!   tables                     — list tables and row counts
//!   sketches                   — list sketches in the store (SHOW SKETCHES)
//!   train <name>               — train a new sketch on its own thread
//!   advise                     — run the sketch advisor on JOB-light
//!   SELECT COUNT(*) FROM …     — estimate with everything + ground truth
//!   …  WHERE col = ?           — template query, grouped output
//!   quit
//!
//! Run with: `cargo run --release --example demo_cli` and pipe commands in,
//! e.g. `echo 'SELECT COUNT(*) FROM title' | cargo run --example demo_cli`.

use std::io::{BufRead, Write};
use std::sync::Arc;

use deep_sketches::core::advisor::{recommend, AdvisorConfig};
use deep_sketches::core::store::SketchStore;
use deep_sketches::core::template::{QueryTemplate, ValueFn};
use deep_sketches::prelude::*;

fn main() {
    let db = Arc::new(imdb_database(&ImdbConfig {
        movies: 3_000,
        keywords: 500,
        companies: 200,
        persons: 2_000,
        seed: 17,
    }));
    println!("synthetic IMDb loaded: {} rows", db.total_rows());

    println!("training the default sketch …");
    let store = Arc::new(SketchStore::new());
    let default_sketch = SketchBuilder::new(&db, imdb_predicate_columns(&db))
        .training_queries(2_000)
        .epochs(12)
        .sample_size(100)
        .hidden_units(64)
        .max_tables(5)
        .seed(29)
        .build()
        .expect("default sketch");
    store
        .insert("default", default_sketch)
        .expect("fresh store");

    let postgres = PostgresEstimator::build(&db);
    let hyper = SamplingEstimator::build(&db, 100, 31);
    let oracle = TrueCardinalityOracle::new(&db);

    let mut trainings = Vec::new();
    let stdin = std::io::stdin();
    print_prompt();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let input = line.trim();
        if input.is_empty() {
            print_prompt();
            continue;
        }
        match input {
            "quit" | "exit" => break,
            "tables" => {
                for t in db.tables() {
                    println!("  {:<16} {:>8} rows", t.name(), t.num_rows());
                }
            }
            "sketches" => {
                for (name, sketch) in store.list() {
                    let mib = sketch.footprint_bytes() as f64 / (1024.0 * 1024.0);
                    println!("  {name:<12} {mib:.2} MiB");
                }
            }
            "advise" => {
                let wl = job_light_workload(&db, 1);
                let advice = recommend(&db, &wl, &AdvisorConfig::default());
                println!(
                    "  advisor covers {:.0}% of JOB-light with {} sketch(es):",
                    advice.coverage * 100.0,
                    advice.recommendations.len()
                );
                for r in &advice.recommendations {
                    let names: Vec<&str> = r.tables.iter().map(|&t| db.table(t).name()).collect();
                    println!(
                        "    {{{}}} — {} queries, ≈{:.2} MiB",
                        names.join(", "),
                        r.newly_covered.len(),
                        r.est_footprint_bytes as f64 / (1024.0 * 1024.0)
                    );
                }
            }
            cmd if cmd.starts_with("train ") => {
                // The store only serves ready sketches: build on a thread of
                // our own, then register the result.
                let name = cmd["train ".len()..].trim().to_string();
                let (db, store) = (Arc::clone(&db), Arc::clone(&store));
                println!("  training '{name}' in the background; keep querying");
                trainings.push(std::thread::spawn(move || {
                    let built = SketchBuilder::new(&db, imdb_predicate_columns(&db))
                        .training_queries(1_500)
                        .epochs(10)
                        .sample_size(100)
                        .hidden_units(64)
                        .seed(97)
                        .build();
                    match built.map(|sketch| store.insert(name.clone(), sketch)) {
                        Ok(Ok(())) => println!("\n  '{name}' is ready"),
                        Ok(Err(e)) => println!("\n  '{name}': {e}"),
                        Err(e) => println!("\n  training '{name}' failed: {e}"),
                    }
                    print_prompt();
                }));
            }
            sql if sql.contains('?') => match QueryTemplate::parse_sql(&db, sql) {
                Ok(template) => match store.get("default") {
                    Ok(sketch) => {
                        let ours =
                            template.evaluate(sketch.samples(), ValueFn::GroupBy(10), &*sketch);
                        let truth =
                            template.evaluate(sketch.samples(), ValueFn::GroupBy(10), &oracle);
                        println!("  {:>10} {:>10} {:>10}", "group", "sketch", "true");
                        for (o, t) in ours.iter().zip(&truth) {
                            println!("  {:>10} {:>10.0} {:>10.0}", o.0 * 10, o.1, t.1);
                        }
                    }
                    Err(e) => println!("  error: {e}"),
                },
                Err(e) => println!("  {e}"),
            },
            sql => match parse_query(&db, sql) {
                Ok(q) => {
                    // A cyclic or disconnected query parses but has no count.
                    let truth = match oracle.cardinality(&q) {
                        Ok(count) => count as f64,
                        Err(e) => {
                            println!("  cannot count: {e}");
                            print_prompt();
                            continue;
                        }
                    };
                    // Every estimator goes through the one unified trait.
                    // The store reports, rather than panics, if the deep
                    // sketch is missing; the baselines answer for themselves.
                    let sketch = store.get("default");
                    let mut panel: Vec<(&str, &dyn CardinalityEstimator)> = Vec::new();
                    print!("  true {truth:>10.0}");
                    match &sketch {
                        Ok(sketch) => panel.push(("sketch", &**sketch)),
                        Err(e) => print!(" | sketch unavailable: {e}"),
                    }
                    panel.push(("pg", &postgres));
                    panel.push(("hyper", &hyper));
                    for (label, est) in panel {
                        match est.try_estimate(&q) {
                            Ok(v) => {
                                print!(" | {label} {v:>10.0} (q={:.2})", qerror(v, truth));
                            }
                            Err(e) => print!(" | {label} unavailable: {e}"),
                        }
                    }
                    println!();
                }
                Err(e) => println!("  {e}"),
            },
        }
        print_prompt();
    }
    for training in trainings {
        training.join().expect("a training thread panicked");
    }
    println!("bye");
}

fn print_prompt() {
    print!("deep-sketches> ");
    std::io::stdout().flush().ok();
}
