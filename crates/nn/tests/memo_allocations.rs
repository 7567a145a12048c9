//! A memo miss calls no allocator: the element memo's ring and index are
//! allocated once, on its first insert, and every later insert writes into
//! them and evicts by moving its tail. Pinned under a counting global
//! allocator by serving never-seen elements until the ring has wrapped at
//! least twice: after a warm-up batch on every CPU the test may run on
//! (the artifact makes its per-CPU copy of the output layer on a CPU's
//! first pass, once), the misses, inserts and evictions make no
//! allocation and ask for no byte, wherever the thread runs.
//!
//! This file holds one test on purpose: the counters are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ds_nn::frozen::{BitRows, FrozenLinear, FrozenModel, FrozenScratch, IndexSet};
use ds_nn::linear::Linear;

/// The system allocator, counting the calls that hand out memory and the
/// bytes they ask for.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

fn counted(bytes: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are a side effect that
// touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted(layout.size());
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted(layout.size());
        // SAFETY: the caller's obligations are `System::alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this layout, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted(new_size);
        // SAFETY: the caller's obligations are `System::realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The calling thread's CPU affinity, as 1 024 bits.
#[cfg(target_os = "linux")]
mod affinity {
    pub type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The CPUs the calling thread may run on.
    pub fn get() -> CpuSet {
        let mut set = [0; 16];
        // SAFETY: `set` is `size_of_val(&set)` writable bytes; pid 0 is the
        // calling thread.
        let got = unsafe { sched_getaffinity(0, size_of_val(&set), set.as_mut_ptr()) };
        assert_eq!(got, 0, "sched_getaffinity");
        set
    }

    /// Lets the calling thread run on `set`'s CPUs only.
    pub fn set(set: &CpuSet) {
        // SAFETY: `set` is `size_of_val(set)` readable bytes; pid 0 is the
        // calling thread.
        let done = unsafe { sched_setaffinity(0, size_of_val(set), set.as_ptr()) };
        assert_eq!(done, 0, "sched_setaffinity");
    }
}

/// Runs `f` once on each CPU the calling thread may run on, moving it
/// there first, and then lets it run wherever it could before.
fn on_every_cpu(mut f: impl FnMut()) {
    #[cfg(target_os = "linux")]
    {
        let allowed = affinity::get();
        for cpu in (0..1024).filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1) {
            let mut one = [0; 16];
            one[cpu / 64] = 1 << (cpu % 64);
            affinity::set(&one);
            f();
        }
        affinity::set(&allowed);
    }
    #[cfg(not(target_os = "linux"))]
    f();
}

/// Predicate-like elements per batch, each 200 `(index, value)` entries:
/// a 1.7 KB memo entry, ≈ 2 400 of them in the ring.
const BATCH: u32 = 64;

/// Element `n`: the features 0..200 of the predicate module at 0.5, the
/// first nudged by `n` units in the last place, so no two are equal.
fn push_element(set: &mut IndexSet, n: u32) {
    let e = set.begin_elem();
    set.push(0, f32::from_bits(0.5f32.to_bits() + n));
    for i in 1..200 {
        set.push(i, 0.5);
    }
    set.finish_elem(e);
}

#[test]
fn memo_misses_inserts_and_evictions_allocate_nothing() {
    let h = 32;
    let layer = |i: usize, o: usize, seed: u64| FrozenLinear::from_linear(&Linear::new(i, o, seed));
    let m = FrozenModel::new(
        layer(8, h, 1),
        layer(h, h, 2),
        layer(4, h, 3),
        layer(h, h, 4),
        layer(256, h, 5),
        layer(h, h, 6),
        layer(3 * h, h, 7),
        layer(h, 1, 8),
    );
    let (no_tables, empty) = (BitRows::default(), IndexSet::default());
    let mut preds = IndexSet::default();
    let mut scratch = FrozenScratch::new();
    let counts = vec![[0, 0, 1]; BATCH as usize];
    let mut out = vec![0.0f32; BATCH as usize];
    let mut serve = |first: u32, preds: &mut IndexSet| {
        preds.clear();
        for n in first..first + BATCH {
            push_element(preds, n);
        }
        m.forward_batch(&no_tables, &empty, preds, &counts, &mut scratch, &mut out);
    };

    // The warm-up batches grow the scratch, allocate the memo and make
    // each CPU's copy of the output layer.
    let mut first = 0;
    on_every_cpu(|| {
        serve(first, &mut preds);
        first += BATCH;
    });
    let (calls, bytes) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let mut most_held = 0;
    loop {
        serve(first, &mut preds);
        first += BATCH;
        let stats = m.memo_stats();
        most_held = most_held.max(stats.entries);
        // Each entry is about as long as the next, so a ring that holds
        // `most_held` of them has been filled once and wrapped twice by
        // three times as many.
        if stats.misses >= 3 * most_held + u64::from(BATCH) {
            break;
        }
    }
    let stats = m.memo_stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (0, u64::from(first)),
        "{stats:?}"
    );
    let calls = CALLS.load(Ordering::Relaxed) - calls;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes;
    println!(
        "{} misses, {} held at most: {calls} allocations, {bytes} bytes after warm-up",
        stats.misses, most_held
    );
    assert_eq!((calls, bytes), (0, 0), "a memo miss allocated");
}
