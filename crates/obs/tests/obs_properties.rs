//! Property and concurrency tests for the observability primitives.
//!
//! * The log₂ histogram's quantiles are pinned to a sorted-vector oracle:
//!   for any data set and any quantile, the histogram answer brackets the
//!   exact rank value within one power of two and never leaves the
//!   observed range.
//! * Counters, histograms, and span aggregation are exercised at thread
//!   counts {1, 2, 8}: no increment, observation, or span completion may
//!   be lost, and per-thread span hierarchies must aggregate under the
//!   same paths.

use ds_obs::{LogHistogram, Tracer, WindowedHistogram};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Exact rank-`q` value of the data, matching the histogram's rank rule:
/// the ceil(q·n)-th smallest value (clamped to [1, n]).
fn oracle_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    if q <= 0.0 {
        return sorted[0];
    }
    let rank = ((q * sorted.len() as f64).ceil() as u64).clamp(1, sorted.len() as u64);
    sorted[rank as usize - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Histogram quantiles vs the sorted-vector oracle: the answer is
    /// always >= the exact rank value, within 2x of it, and inside the
    /// observed [min, max] range.
    #[test]
    fn quantiles_bracket_the_sorted_oracle(
        values in prop::collection::vec(0u64..=(1u64 << 40), 1..200),
        // The offline proptest stand-in has no float strategies; draw
        // permille and divide.
        qs_permille in prop::collection::vec(0u32..=1000, 1..8),
    ) {
        let qs: Vec<f64> = qs_permille.iter().map(|&q| q as f64 / 1000.0).collect();
        let h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert_eq!(h.count(), sorted.len() as u64);
        prop_assert_eq!(h.min(), sorted[0]);
        prop_assert_eq!(h.max(), *sorted.last().unwrap());
        for &q in qs.iter().chain([0.0, 0.5, 0.95, 0.99, 1.0].iter()) {
            let got = h.quantile(q);
            let exact = oracle_quantile(&sorted, q);
            prop_assert!(got >= exact, "q={q}: got {got} < exact {exact}");
            prop_assert!(
                got <= exact.saturating_mul(2).max(h.min()),
                "q={q}: got {got} beyond 2x exact {exact}"
            );
            prop_assert!(
                (h.min()..=h.max()).contains(&got),
                "q={q}: got {got} outside observed range [{}, {}]",
                h.min(),
                h.max()
            );
        }
    }

    /// A single recorded value is exact at every quantile.
    #[test]
    fn single_sample_is_exact_everywhere(
        v in 0u64..=(1u64 << 40),
        q_permille in 0u32..=1000,
    ) {
        let h = LogHistogram::new();
        h.record(v);
        prop_assert_eq!(h.quantile(q_permille as f64 / 1000.0), v);
    }

    /// The merge oracle: merging two histograms must be indistinguishable
    /// — buckets, count, sum, min, max, and therefore every quantile —
    /// from recording the concatenated raw sample streams into one.
    #[test]
    fn merge_matches_the_concatenated_stream_oracle(
        a in prop::collection::vec(0u64..=(1u64 << 40), 0..150),
        b in prop::collection::vec(0u64..=(1u64 << 40), 0..150),
        qs_permille in prop::collection::vec(0u32..=1000, 1..8),
    ) {
        let ha = LogHistogram::new();
        for &v in &a {
            ha.record(v);
        }
        let hb = LogHistogram::new();
        for &v in &b {
            hb.record(v);
        }
        let oracle = LogHistogram::new();
        for &v in a.iter().chain(b.iter()) {
            oracle.record(v);
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.snapshot(), oracle.snapshot());
        prop_assert_eq!(ha.count(), (a.len() + b.len()) as u64);
        prop_assert_eq!(ha.min(), oracle.min());
        prop_assert_eq!(ha.max(), oracle.max());
        for &q in &qs_permille {
            let q = q as f64 / 1000.0;
            prop_assert_eq!(ha.quantile(q), oracle.quantile(q), "q={}", q);
        }
        // Snapshot-side merge agrees with the atomic-side merge.
        let mut sa = LogHistogram::new().snapshot();
        for &v in &a {
            let h = LogHistogram::new();
            h.record(v);
            sa.merge(&h.snapshot());
        }
        let sb = hb.snapshot();
        sa.merge(&sb);
        prop_assert_eq!(sa, oracle.snapshot());
    }

    /// A windowed histogram that never rotates is exactly a plain one.
    #[test]
    fn unrotated_window_matches_plain_histogram(
        values in prop::collection::vec(0u64..=(1u64 << 40), 1..100),
    ) {
        let w = WindowedHistogram::new(4, 1_000_000);
        let h = LogHistogram::new();
        for &v in &values {
            w.record(v);
            h.record(v);
        }
        prop_assert_eq!(w.count(), values.len() as u64);
        prop_assert_eq!(w.merged(), h.snapshot());
    }
}

#[test]
fn concurrent_counters_and_histograms_lose_nothing() {
    const OPS: u64 = 10_000;
    for threads in THREAD_COUNTS {
        let t = Tracer::new();
        t.enable();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for i in 0..OPS {
                        t.count("ops", 1);
                        t.observe("latency", i % 1024);
                    }
                });
            }
        });
        assert_eq!(
            t.counter_value("ops"),
            threads as u64 * OPS,
            "{threads} threads"
        );
        assert_eq!(
            t.histogram("latency").count(),
            threads as u64 * OPS,
            "{threads} threads"
        );
    }
}

#[test]
fn concurrent_span_aggregation_counts_every_completion() {
    const SPANS: u64 = 500;
    for threads in THREAD_COUNTS {
        let t = Tracer::new();
        t.enable();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    let _root = t.span("worker");
                    for _ in 0..SPANS {
                        let _outer = t.span("outer");
                        let _inner = t.span("step");
                    }
                });
            }
        });
        let n = threads as u64;
        assert_eq!(t.span_stat("worker").unwrap().count, n, "{threads} threads");
        let outer = t.span_stat("worker/outer").unwrap();
        assert_eq!(outer.count, n * SPANS, "{threads} threads");
        let inner = t.span_stat("worker/outer/step").unwrap();
        assert_eq!(inner.count, n * SPANS, "{threads} threads");
        assert!(
            t.span_stat("worker/step").is_none(),
            "step must nest under outer"
        );
    }
}

#[test]
fn nested_spans_keep_time_ordering_invariants() {
    let t = Tracer::new();
    t.enable();
    {
        let _a = t.span("a");
        for _ in 0..10 {
            let _b = t.span("b");
            std::hint::black_box(vec![0u8; 4096]);
        }
    }
    let a = t.span_stat("a").unwrap();
    let b = t.span_stat("a/b").unwrap();
    assert_eq!((a.count, b.count), (1, 10));
    assert!(a.total_ns >= b.total_ns, "parent must contain its children");
}
