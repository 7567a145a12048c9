//! A steady-state training step allocates (almost) nothing: every buffer a
//! step needs — the batch's element spans, activations and their sparse
//! forms, gradients, the transposed weights, the loss gradient, the
//! labels — lives in an arena that grew during the first steps. Pinned
//! under a counting global allocator at the benchmark's shape (hidden 256,
//! 256-bit sample bitmaps, batches of 128 queries over up to 5 tables), on
//! one lane and on two: a join boxes nothing, and the second lane's
//! scratch grows once like the first's.
//!
//! This file holds one test on purpose: the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ds_core::featurize::Featurizer;
use ds_core::mscn::{BackwardScratch, ForwardCache, MscnConfig, MscnGrads, MscnModel};
use ds_nn::loss::{LabelNormalizer, QErrorLoss};
use ds_nn::optim::Adam;
use ds_nn::pool::Team;
use ds_nn::tensor::Tensor;
use ds_query::workloads::imdb_predicate_columns;
use ds_query::{GeneratorConfig, QueryGenerator};
use ds_storage::gen::{imdb_database, ImdbConfig};
use ds_storage::sample::sample_all;

/// The system allocator, counting every byte it hands out.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a side effect that
// touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this layout, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What one steady-state step may allocate. The dense pipeline this
/// replaced allocated about 2 MB per step: a packed `FeatureBatch`, five
/// transposed weight copies, the loss gradient, column sums, the labels.
const STEP_BUDGET_BYTES: usize = 64 * 1024;

#[test]
fn a_steady_state_training_step_allocates_under_64_kib() {
    const BATCH: usize = 128;
    let db = imdb_database(&ImdbConfig {
        movies: 2_000,
        keywords: 1_000,
        companies: 400,
        persons: 5_000,
        seed: 7,
    });
    let cols = imdb_predicate_columns(&db);
    let samples = sample_all(&db, 256, 5);
    let featurizer = Featurizer::build(&db, &cols, 256);
    assert_eq!(featurizer.table_dim(), 262);
    let mut cfg = GeneratorConfig::new(cols, 11);
    cfg.max_tables = 5;
    cfg.max_predicates = 4;
    let queries = QueryGenerator::new(&db, cfg).generate_batch(4 * BATCH);
    let labels: Vec<u64> = (0..queries.len() as u64).map(|i| (i + 1) * 10).collect();
    let loss = QErrorLoss::new(LabelNormalizer::fit(&labels));
    let model = MscnModel::new(
        featurizer.table_dim(),
        featurizer.join_dim(),
        featurizer.pred_dim(),
        MscnConfig {
            hidden: 256,
            seed: 2,
        },
    );

    // The training loop's state, as `train_with_callback` keeps it.
    let feats = featurizer.pool(&queries, &samples);
    let idx: Vec<usize> = (0..queries.len()).collect();
    for lanes in [1, 2] {
        let mut model = model.clone();
        let mut batch = feats.batch();
        let mut cache = ForwardCache::new();
        let mut scratch = BackwardScratch::new();
        let mut grads = MscnGrads::new(&model);
        let mut grad = Tensor::zeros(0, 0);
        let mut truths: Vec<u64> = Vec::new();
        let mut adam = Adam::new(1e-3);
        Team::run(lanes, |team| {
            let mut step = |chunk: &[usize]| {
                batch.fill(chunk);
                model.forward_into(&batch, team, &mut cache);
                truths.clear();
                truths.extend(chunk.iter().map(|&i| labels[i]));
                let l = loss.forward_backward_into(cache.output(), &truths, &mut grad);
                assert!(l.is_finite());
                model.backward_with(&batch, &cache, &grad, &mut grads, team, &mut scratch);
                model.adam_step(&mut adam, &mut grads, team);
            };

            // One pass over all four batches grows every arena to the
            // largest batch; the second pass is the steady state.
            idx.chunks(BATCH).for_each(&mut step);
            for chunk in idx.chunks(BATCH) {
                let before = ALLOCATED.load(Ordering::Relaxed);
                step(chunk);
                let allocated = ALLOCATED.load(Ordering::Relaxed) - before;
                assert!(
                    allocated < STEP_BUDGET_BYTES,
                    "a steady-state step allocated {allocated} bytes on {lanes} lane(s)"
                );
            }
        });
    }
}
