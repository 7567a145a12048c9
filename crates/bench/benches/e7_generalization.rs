//! **E7 — §2 generalization claim**: "Considering that MSCN was trained
//! with a uniform distribution between =, <, and > predicates, it performs
//! reasonably well [on the equality-heavy JOB-light]. This experiment shows
//! that MSCN can generalize to workloads with distributions different from
//! the training data."
//!
//! Two axes of distribution shift are measured:
//!
//! 1. *predicate-type shift* — evaluate on (a) a held-out workload drawn
//!    from the training distribution (uniform ops) and (b) JOB-light
//!    (equality-heavy, range only on production_year);
//! 2. *join-count shift* — train with ≤ 2 joins only (as MSCN did) and
//!    evaluate on JOB-light's 3- and 4-join queries.
//!
//! Run: `cargo bench -p ds-bench --bench e7_generalization`

use ds_bench::paper::{grade, standard_sketch_builder, truths};
use ds_bench::{banner, bench_imdb, standard_imdb_sketch, BENCH_SEED};
use ds_core::metrics::QErrorSummary;
use ds_est::CardinalityEstimator;
use ds_query::query::Query;
use ds_query::workloads::imdb_predicate_columns;
use ds_query::workloads::job_light::job_light_workload;
use ds_query::{GeneratorConfig, QueryGenerator};

fn main() {
    banner(
        "E7",
        "§2 (generalization across workload distributions)",
        "train on uniform {=,<,>}; evaluate in- and out-of-distribution",
    );
    let db = bench_imdb();
    let sketch = standard_imdb_sketch(&db);
    let graded = |est: &dyn CardinalityEstimator, queries: &[Query]| {
        grade(est, &truths(&db, queries).expect("ground truth"), queries)
    };

    // --- [1] predicate-type shift ----------------------------------------
    // Held-out queries from the training distribution (different seed).
    let mut cfg = GeneratorConfig::new(imdb_predicate_columns(&db), BENCH_SEED ^ 0x717);
    cfg.max_tables = 5;
    cfg.max_predicates = 4;
    let held_out = QueryGenerator::new(&db, cfg).generate_batch(500);
    let job_light = job_light_workload(&db, BENCH_SEED ^ 4);

    // Make the distribution shift visible (the §2 argument).
    use ds_query::workloads::stats::WorkloadProfile;
    let p_train = WorkloadProfile::of(&held_out);
    let p_jl = WorkloadProfile::of(&job_light);
    println!(
        "\ntraining-like distribution: eq fraction {:.0}%, mean joins {:.2}",
        p_train.op_fraction(ds_storage::predicate::CmpOp::Eq) * 100.0,
        p_train.mean_joins()
    );
    println!(
        "JOB-light distribution:     eq fraction {:.0}%, mean joins {:.2}",
        p_jl.op_fraction(ds_storage::predicate::CmpOp::Eq) * 100.0,
        p_jl.mean_joins()
    );

    println!("\n[1] same model, two evaluation distributions:");
    println!("{}", QErrorSummary::table_header());
    let s_ho = graded(&sketch, &held_out);
    println!("{}", s_ho.table_row("in-dist."));
    let s_jl = graded(&sketch, &job_light);
    println!("{}", s_jl.table_row("JOB-light"));
    println!(
        "  median shift {:.2}× → {}",
        s_jl.median / s_ho.median,
        if s_jl.median < s_ho.median * 4.0 {
            "generalizes across the predicate-type shift, as claimed"
        } else {
            "LARGE degradation under distribution shift"
        }
    );

    // --- [2] join-count shift: train ≤2 joins, evaluate 3-4 joins ---------
    println!("\n[2] join-count extrapolation (train ≤ 2 joins, like MSCN):");
    let narrow = standard_sketch_builder(&db)
        .max_tables(3)
        .seed(BENCH_SEED ^ 0x727)
        .build()
        .expect("pipeline");

    let (small, big): (Vec<_>, Vec<_>) = job_light.into_iter().partition(|q| q.num_joins() <= 2);

    println!("{}", QErrorSummary::table_header());
    for (label, subset) in [("≤2 joins (seen)", &small), ("3-4 joins (unseen)", &big)] {
        println!("{}", graded(&narrow, subset).table_row(label));
    }
    println!("  (the standard sketch trains with up to 4 joins and avoids this extrapolation)");
}
