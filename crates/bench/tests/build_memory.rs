//! Defining the benchmark's sketch raises the live heap by what training
//! needs and no more: under a counting global allocator, the peak of live
//! bytes during `benchmark_sketch_builder(..).build()` over the live bytes
//! before it. The feature pool holds each distinct set element once,
//! validation runs in training-sized batches, and a step's set modules
//! keep one row per distinct element of the batch. The rise reads 17.2 MB
//! training on one lane, 18.7 MB on two and 19.0 MB on three (the
//! backward keeps one scratch arena per lane, up to three). With a row
//! per element occurrence it read 23.3, 25.9 and 28.2 MB; before the pool
//! and the batched validation it read 66.0 MB on two lanes, 34.3 MB of it
//! the feature pool and 7.3 MB the one-shot validation pass.
//!
//! What the built sketch keeps is held too: its frozen serving artifact
//! is its only copy of the weights (1.9 MB at hidden 256), so it keeps
//! 2.3 MB with its samples and vocabulary. It kept 6.0 MB while it also
//! held the trained model, whose layers carried their gradients.
//!
//! This file holds one test on purpose: the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ds_bench::{bench_imdb, benchmark_sketch_builder};

/// The system allocator, tracking the bytes live and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are a side effect that
// touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator with
        // this layout, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        match new_size.checked_sub(layout.size()) {
            Some(more) => grew(more),
            None => _ = LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed),
        }
        // SAFETY: the caller's obligations are `System::realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The rise on two lanes plus ≈ 15 %, which three or more lanes stay under.
const BUILD_RISE_BUDGET_BYTES: usize = 30_000_000;

/// What the built sketch keeps plus ≈ 30 %: one copy of the weights, not
/// three.
const SKETCH_KEPT_BUDGET_BYTES: usize = 3_000_000;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "trains the benchmark's sketch: seconds optimized, minutes not; run with --release"
)]
fn building_the_benchmark_sketch_raises_the_live_heap_by_under_the_budget() {
    let db = bench_imdb();
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let sketch = benchmark_sketch_builder(&db).build().expect("sketch build");
    let rise = PEAK.load(Ordering::Relaxed) - before;
    let kept = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    println!(
        "build live-heap rise {:.1} MB (budget {:.1} MB); \
         the built sketch keeps {:.1} MB (budget {:.1} MB)",
        rise as f64 / 1e6,
        BUILD_RISE_BUDGET_BYTES as f64 / 1e6,
        kept as f64 / 1e6,
        SKETCH_KEPT_BUDGET_BYTES as f64 / 1e6,
    );
    drop(sketch);
    assert!(
        rise < BUILD_RISE_BUDGET_BYTES,
        "building the benchmark's sketch raised the live heap by {rise} B"
    );
    assert!(
        kept < SKETCH_KEPT_BUDGET_BYTES,
        "the benchmark's built sketch keeps {kept} B"
    );
}
