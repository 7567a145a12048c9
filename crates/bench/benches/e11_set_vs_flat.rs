//! **E11 — §2 design-claim ablation**: set semantics vs a flat query
//! vector.
//!
//! §2: "another differentiating factor from other learning-based
//! approaches to cardinality estimation is the use of a model that employs
//! set semantics, inspired by recent work on Deep Sets". This experiment
//! trains the MSCN and a flat-vector MLP (same vocabulary, same bitmaps,
//! same q-error objective, same data, comparable parameter budget) and
//! evaluates both on JOB-light.
//!
//! Run: `cargo bench -p ds-bench --bench e11_set_vs_flat`

use ds_bench::flat::{FlatFeaturizer, FlatModel};
use ds_bench::{banner, bench_imdb, BENCH_SEED};
use ds_core::builder::SketchBuilder;
use ds_core::featurize::Featurizer;
use ds_core::metrics::{qerror, QErrorSummary};
use ds_est::oracle::TrueCardinalityOracle;
use ds_est::CardinalityEstimator;
use ds_nn::loss::LabelNormalizer;
use ds_query::workloads::imdb_predicate_columns;
use ds_query::workloads::job_light::job_light_workload;
use ds_query::{GeneratorConfig, QueryGenerator};
use ds_storage::sample::sample_all;

fn main() {
    banner(
        "E11",
        "§2 design claim (set semantics via Deep Sets)",
        "MSCN vs a flat-vector MLP on identical data, features, and objective",
    );
    let db = bench_imdb();
    let cols = imdb_predicate_columns(&db);
    let sample_size = 100;
    let train_queries = 8_000;
    let epochs = 24;

    // Shared training data.
    let samples = sample_all(&db, sample_size, (BENCH_SEED ^ 2) ^ 0x5A);
    let mut gen_cfg = GeneratorConfig::new(cols.clone(), BENCH_SEED ^ 0xE11);
    gen_cfg.max_tables = 5;
    gen_cfg.max_predicates = 4;
    let mut generator = QueryGenerator::new(&db, gen_cfg);
    let queries = generator.generate_batch(train_queries);
    let oracle = TrueCardinalityOracle::new(&db);
    let labels = oracle.label_batch(&queries, 1).expect("labels");
    let normalizer = LabelNormalizer::fit(&labels);

    // --- MSCN (set semantics) -------------------------------------------
    println!("\ntraining MSCN (set model) …");
    let mscn_sketch = SketchBuilder::new(&db, cols.clone())
        .training_queries(train_queries)
        .epochs(epochs)
        .sample_size(sample_size)
        .hidden_units(96)
        .max_tables(5)
        .max_predicates(4)
        .seed(BENCH_SEED ^ 0xE11)
        .build()
        .expect("mscn");
    println!("  {} parameters", mscn_sketch.info().model_params);

    // --- Flat MLP ----------------------------------------------------------
    // The flat input is much wider (bitmaps are not shared across tables),
    // so an equal-parameter budget gives it a comparable hidden width.
    let vocab = Featurizer::build(&db, &cols, sample_size);
    let flat_feat = FlatFeaturizer::new(vocab);
    let mut flat = FlatModel::new(flat_feat.dim(), 96, BENCH_SEED ^ 0xF1A7);
    println!(
        "training flat MLP ({} input dims, {} parameters) …",
        flat_feat.dim(),
        flat.num_params()
    );
    flat.train(
        &flat_feat,
        &samples,
        &queries,
        &labels,
        &normalizer,
        epochs,
        128,
        BENCH_SEED ^ 0x7EA1,
    );

    // --- Evaluate both on JOB-light ----------------------------------------
    let workload = job_light_workload(&db, BENCH_SEED ^ 4);
    let truths: Vec<f64> = workload
        .iter()
        .map(|q| oracle.cardinality(q).expect("ground truth") as f64)
        .collect();
    let mscn_q: Vec<f64> = workload
        .iter()
        .zip(&truths)
        .map(|(q, &t)| qerror(mscn_sketch.estimate(q), t))
        .collect();
    let flat_ests = flat.estimate_batch(&flat_feat, &samples, &workload, &normalizer);
    let flat_q: Vec<f64> = flat_ests
        .iter()
        .zip(&truths)
        .map(|(&e, &t)| qerror(e, t))
        .collect();

    println!("\nq-errors on JOB-light:");
    println!("{}", QErrorSummary::table_header());
    println!(
        "{}",
        QErrorSummary::from_qerrors(&mscn_q).table_row("MSCN (sets)")
    );
    println!(
        "{}",
        QErrorSummary::from_qerrors(&flat_q).table_row("flat MLP")
    );

    let m = QErrorSummary::from_qerrors(&mscn_q);
    let f = QErrorSummary::from_qerrors(&flat_q);
    println!(
        "\nshape check: MSCN mean {:.2} vs flat {:.2} → {}",
        m.mean,
        f.mean,
        if m.mean <= f.mean {
            "set semantics help, as §2 claims"
        } else {
            "flat model unexpectedly ahead on this run"
        }
    );
}
