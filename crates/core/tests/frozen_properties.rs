//! Property tests for the frozen inference artifact: across random model
//! shapes, weight seeds, and query batches, the fused
//! featurize-and-forward path must agree with the training-shape reference
//! forward **bit-exactly**, from every thread count we serve with. And
//! since that path is the only one a sketch serves through: every batch
//! size and thread count of [`DeepSketch::estimate_batch`] must equal the
//! looped single estimates bit for bit, and the column-tile kernel must
//! equal its portable oracle at every tile width. The artifact memoizes set-element embeddings, so all of it
//! also has to hold between a sketch that has served a stream and one that
//! has served nothing — from eight threads at once, which is what CI's
//! ThreadSanitizer job runs this suite for.

use std::sync::OnceLock;

use ds_core::builder::SketchBuilder;
use ds_core::featurize::{Featurizer, QueryIndexFeatures, ServedFeatures};
use ds_core::mscn::{MscnConfig, MscnModel};
use ds_core::sketch::DeepSketch;
use ds_est::CardinalityEstimator;
use ds_nn::frozen::{FrozenModel, FrozenScratch, IndexSet};
use ds_query::parser::parse_query;
use ds_query::query::Query;
use ds_query::workloads::imdb_predicate_columns;
use ds_query::{GeneratorConfig, QueryGenerator};
use ds_storage::catalog::Database;
use ds_storage::gen::{imdb_database, ImdbConfig};
use ds_storage::sample::{sample_all, TableSample};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn fixture() -> &'static (Database, Vec<TableSample>, Featurizer) {
    static FIXTURE: OnceLock<(Database, Vec<TableSample>, Featurizer)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let samples = sample_all(&db, 16, 7);
        let featurizer = Featurizer::build(&db, &imdb_predicate_columns(&db), 16);
        (db, samples, featurizer)
    })
}

/// Fused forward of every query on `threads` worker threads, each with its
/// own scratch (the serving setup). Returns per-thread output vectors.
fn fused_on_threads(frozen: &FrozenModel, queries: &[Query], threads: usize) -> Vec<Vec<f32>> {
    let (_, samples, featurizer) = fixture();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(move || {
                    let mut feats = QueryIndexFeatures::default();
                    let mut scratch = FrozenScratch::new();
                    queries
                        .iter()
                        .map(|q| {
                            featurizer.featurize_indices(q, samples, &mut feats);
                            frozen.forward_query(
                                &feats.tables,
                                &feats.joins,
                                &feats.preds,
                                &mut scratch,
                            )
                        })
                        .collect::<Vec<f32>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn frozen_f32_forward_is_bit_identical_to_reference(
        hidden in 4usize..24,
        model_seed in 0u64..1_000_000,
        query_seed in 0u64..1_000_000,
        batch in 1usize..6,
    ) {
        let (db, samples, featurizer) = fixture();
        let model = MscnModel::new(
            featurizer.table_dim(),
            featurizer.join_dim(),
            featurizer.pred_dim(),
            MscnConfig { hidden, seed: model_seed },
        );
        let queries = QueryGenerator::new(
            db,
            GeneratorConfig::new(imdb_predicate_columns(db), query_seed),
        )
        .generate_batch(batch);
        let reference = model.predict(&featurizer.batch_queries(&queries, samples));

        let frozen = model.freeze();
        for threads in THREAD_COUNTS {
            for outputs in fused_on_threads(&frozen, &queries, threads) {
                for (i, (fused, reference)) in outputs.iter().zip(&reference).enumerate() {
                    prop_assert_eq!(
                        fused.to_bits(),
                        reference.to_bits(),
                        "query {} diverged on {} threads: fused {} vs reference {}",
                        i, threads, fused, reference
                    );
                }
            }
        }
    }
}

/// Generated queries plus the shapes the generator rarely emits: a single
/// table (empty join set, empty predicate set), a join without predicates
/// (empty predicate set), a single table with a predicate (empty join set).
fn mixed_queries(n: usize) -> Vec<Query> {
    let (db, _, _) = fixture();
    let mut pool = QueryGenerator::new(db, GeneratorConfig::new(imdb_predicate_columns(db), 77))
        .generate_batch(13);
    for sql in [
        "SELECT COUNT(*) FROM title",
        "SELECT COUNT(*) FROM title, movie_keyword WHERE movie_keyword.movie_id = title.id",
        "SELECT COUNT(*) FROM title WHERE title.production_year > 1990",
    ] {
        pool.push(parse_query(db, sql).expect("parse"));
    }
    assert!(pool.iter().any(|q| q.joins.is_empty()));
    assert!(pool.iter().any(|q| q.predicates.is_empty()));
    pool.iter().cycle().take(n).cloned().collect()
}

#[test]
fn every_batch_size_and_thread_count_is_the_looped_single_estimate() {
    let mut sketch: DeepSketch = small_sketch().clone();
    let queries = mixed_queries(3 * 256 + 7);
    let looped: Vec<u64> = queries
        .iter()
        .map(|q| sketch.estimate_one(q).to_bits())
        .collect();
    let reference = sketch.reference_estimates(&queries);
    let reference: Vec<u64> = reference.iter().map(|v| v.to_bits()).collect();
    assert_eq!(reference, looped, "f32 artifact vs the trained model");
    for threads in THREAD_COUNTS {
        sketch.set_threads(threads);
        for batch in [1, 2, 63, 64, 65, 3 * 256 + 7] {
            let got: Vec<u64> = sketch
                .estimate_batch(&queries[..batch])
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(got, looped[..batch], "batch={batch} threads={threads}");
            let tried: Vec<u64> = sketch
                .try_estimate_batch(&queries[..batch])
                .into_iter()
                .map(|r| r.expect("in-vocabulary query").to_bits())
                .collect();
            assert_eq!(tried, got, "try batch={batch}");
        }
    }
}

fn small_sketch() -> &'static DeepSketch {
    static SKETCH: OnceLock<DeepSketch> = OnceLock::new();
    SKETCH.get_or_init(|| {
        let (db, _, _) = fixture();
        SketchBuilder::new(db, imdb_predicate_columns(db))
            .training_queries(200)
            .epochs(3)
            .sample_size(16)
            .hidden_units(24)
            .seed(9)
            .build()
            .expect("build sketch")
    })
}

/// A stream whose queries repeat elements (and, cycled, themselves)
/// answers from a warm memo exactly what an artifact that has seen nothing
/// answers, and what the trained model's reference forward answers.
#[test]
fn a_stream_with_repeats_answers_like_a_fresh_artifact_per_query() {
    let queries = mixed_queries(3 * 64 + 7);
    let mut sketch = small_sketch().clone();
    // Re-freezing replaces the artifact, so every answer here comes from
    // an empty memo.
    let mut cold = sketch.clone();
    let fresh: Vec<u64> = queries
        .iter()
        .map(|q| {
            cold.freeze();
            let v = cold.estimate_one(q).to_bits();
            assert_eq!(cold.memo_stats().hits, 0);
            v
        })
        .collect();
    let reference = sketch.reference_estimates(&queries);
    let reference: Vec<u64> = reference.iter().map(|v| v.to_bits()).collect();
    assert_eq!(reference, fresh, "f32 artifact vs the trained model");
    for threads in THREAD_COUNTS {
        sketch.set_threads(threads);
        for batch in [1, 2, 64, 65] {
            for (i, chunk) in queries.chunks(batch).enumerate() {
                let at = i * batch;
                let got: Vec<u64> = sketch
                    .estimate_batch(chunk)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(
                    got,
                    fresh[at..at + chunk.len()],
                    "batch={batch} threads={threads}"
                );
            }
        }
    }
    let stats = sketch.memo_stats();
    assert!(
        stats.hits > 10 * stats.misses,
        "16 distinct queries served many times over: {stats:?}"
    );
}

/// Eight threads released together onto one sketch — one artifact, one
/// memo — each get the single-thread answers.
#[test]
fn eight_threads_on_one_sketch_agree_with_one() {
    let queries = mixed_queries(256);
    let sketch = small_sketch().clone();
    let want: Vec<u64> = {
        let alone = sketch.clone();
        queries
            .iter()
            .map(|q| alone.estimate_one(q).to_bits())
            .collect()
    };
    let barrier = std::sync::Barrier::new(8);
    std::thread::scope(|s| {
        for t in 0..8 {
            let (sketch, queries, want, barrier) = (&sketch, &queries, &want, &barrier);
            s.spawn(move || {
                barrier.wait();
                // Half walk the stream backwards, so threads insert and
                // look up different elements at the same time.
                let order: Vec<usize> = if t % 2 == 0 {
                    (0..queries.len()).collect()
                } else {
                    (0..queries.len()).rev().collect()
                };
                for i in order {
                    assert_eq!(sketch.estimate_one(&queries[i]).to_bits(), want[i]);
                }
            });
        }
    });
    let stats = sketch.memo_stats();
    let elements: u64 = queries
        .iter()
        .map(|q| (q.tables.len() + q.joins.len() + q.predicates.len()) as u64)
        .sum();
    assert_eq!(stats.hits + stats.misses, 8 * elements);
}

/// The query just answered, asked again, finds every one of its elements
/// in the memo: over 2 048 generated queries of the benchmark stream's
/// shape, no query's own elements crowd each other out of a set.
#[test]
fn the_query_just_answered_misses_on_no_element() {
    let (db, _, _) = fixture();
    let mut cfg = GeneratorConfig::new(imdb_predicate_columns(db), 21);
    cfg.max_tables = 5;
    cfg.max_predicates = 4;
    let queries = QueryGenerator::new(db, cfg).generate_batch(2048);
    let sketch = small_sketch().clone();
    let mut missed = 0;
    for q in &queries {
        sketch.estimate_one(q);
        let primed = sketch.memo_stats().misses;
        sketch.estimate_one(q);
        missed += sketch.memo_stats().misses - primed;
    }
    assert_eq!(missed, 0, "elements recomputed for the query just answered");
}

#[test]
fn column_tile_kernel_matches_the_portable_oracle_on_ragged_widths() {
    let (db, samples, featurizer) = fixture();
    // Table width 22, and 262 at the benchmark's sample size of 256.
    let wide_samples = sample_all(db, 256, 7);
    let wide_featurizer = Featurizer::build(db, &imdb_predicate_columns(db), 256);
    // The kernel is whichever tile the CPU has. On AVX-512 each width is
    // one tile, 250 ending on a masked vector. On AVX2, 250 = 3·64 + 32 +
    // 16 + 8 + 2 takes every tile width and the scalar remainder, and 8,
    // 16 and 96 end on a narrower tile than they start on.
    for (samples, featurizer) in [(samples, featurizer), (&wide_samples, &wide_featurizer)] {
        let mut feats = ServedFeatures::default();
        for q in &mixed_queries(16) {
            featurizer.append_indices(q, samples, &mut feats);
        }
        // `append_indices` writes table elements as bitsets; the kernel
        // reads them expanded into entries.
        let mut tables = IndexSet::default();
        for r in 0..feats.tables.len() {
            feats.tables.expand_into(r, &mut tables);
        }
        for hidden in [8usize, 16, 96, 250, 256] {
            let case = (featurizer.table_dim(), hidden);
            let model = MscnModel::new(
                featurizer.table_dim(),
                featurizer.join_dim(),
                featurizer.pred_dim(),
                MscnConfig {
                    hidden,
                    seed: hidden as u64,
                },
            );
            let frozen = model.freeze();
            let [t1, t2, j1, j2, p1, p2, out1, out2] = frozen.layers();
            let mut hidden_rows = IndexSet::default();
            for (l1, l2, set) in [
                (t1, t2, &tables),
                (j1, j2, &feats.joins),
                (p1, p2, &feats.preds),
            ] {
                let rows = set.elems.len();
                assert!(rows > 0, "every module has rows to compare");
                let mut fast = vec![f32::NAN; rows * hidden];
                let mut slow = fast.clone();
                l1.forward_rows(set, true, &mut fast);
                l1.forward_rows_portable(set, true, &mut slow);
                assert_eq!(fast, slow, "layer 1, (table width, hidden) {case:?}");
                hidden_rows.compress_rows(&fast, hidden);
                l2.forward_rows(&hidden_rows, false, &mut fast);
                l2.forward_rows_portable(&hidden_rows, false, &mut slow);
                assert_eq!(fast, slow, "layer 2, (table width, hidden) {case:?}");
            }
            // The output MLP reads 3·hidden wide rows; any activations do.
            let rows = hidden_rows.elems.len() / 3;
            let wide: Vec<f32> = (0..rows * 3 * hidden)
                .map(|i| ((i * 37 % 11) as f32 - 4.0).max(0.0) * 0.125)
                .collect();
            hidden_rows.compress_rows(&wide, 3 * hidden);
            let mut fast = vec![f32::NAN; rows * hidden];
            let mut slow = fast.clone();
            out1.forward_rows(&hidden_rows, true, &mut fast);
            out1.forward_rows_portable(&hidden_rows, true, &mut slow);
            assert_eq!(fast, slow, "out1, (table width, hidden) {case:?}");
            hidden_rows.compress_rows(&fast, hidden);
            let mut fast = vec![f32::NAN; rows];
            let mut slow = fast.clone();
            out2.forward_rows(&hidden_rows, false, &mut fast);
            out2.forward_rows_portable(&hidden_rows, false, &mut slow);
            assert_eq!(fast, slow, "out2, (table width, hidden) {case:?}");
        }
    }
}
