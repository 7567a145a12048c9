//! Lock-free log₂ histograms — the workspace-wide latency/size
//! distribution type, generalized out of the serving metrics.
//!
//! Every record operation is a handful of relaxed atomic updates — safe to
//! call from every connection handler, batch worker, and training thread
//! with no shared locks on the hot path. Percentiles are derived from the
//! buckets at snapshot time; with power-of-two buckets they are upper
//! bounds accurate to 2×, which is the right fidelity for a dashboard
//! (and costs nothing to maintain).

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ buckets: covers values up to 2⁴⁷ µs (~4.5 years) — in
/// practice every observable latency and batch size.
const BUCKETS: usize = 48;

/// A histogram over `u64` values with power-of-two buckets. Bucket `i`
/// holds values `v` with `bit_len(v) == i`, i.e. `[2^(i-1), 2^i)`; bucket 0
/// holds zeros.
///
/// Quantiles are **deterministic for every population**, including the
/// edge cases the old serving histogram fudged:
///
/// * an empty histogram reports 0 for every quantile;
/// * a single-sample histogram reports that sample exactly (the bucket
///   bound is clamped to the observed `[min, max]` range);
/// * `quantile(0.0)` is the observed minimum, `quantile(1.0)` the
///   observed maximum — never a bucket bound beyond the data.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(v: u64) -> usize {
        ((u64::BITS - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Records one value.
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        let v = self.min.load(Ordering::Relaxed);
        if v == u64::MAX && self.count() == 0 {
            0
        } else {
            v
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Upper bound of the bucket containing the `q`-quantile (`q` in
    /// `[0, 1]`), clamped to the observed `[min, max]` range — a ≤2×
    /// overestimate of the true percentile that never exceeds the data.
    /// 0 when empty; the exact sample when only one value was recorded.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    /// Resets the histogram to empty.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// Merges `other` into `self`, bucket-wise. Equivalent to replaying
    /// `other`'s raw sample stream into `self`: counts and sums add, the
    /// min/max of the union are preserved. Merging an empty histogram is a
    /// no-op (the `u64::MAX` min sentinel loses every `fetch_min`).
    pub fn merge(&self, other: &LogHistogram) {
        for (b, ob) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = ob.load(Ordering::Relaxed);
            if n > 0 {
                b.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Rebuilds a live histogram from a frozen snapshot — the restore half
    /// of [`LogHistogram::snapshot`]. The raw fields are copied verbatim
    /// (including the `u64::MAX` empty-min sentinel), so
    /// `LogHistogram::from_snapshot(&s).snapshot() == s` holds for every
    /// snapshot, which is what warm-restart recovery relies on.
    pub fn from_snapshot(s: &HistogramSnapshot) -> Self {
        Self {
            buckets: std::array::from_fn(|i| AtomicU64::new(s.buckets[i])),
            count: AtomicU64::new(s.count),
            sum: AtomicU64::new(s.sum),
            min: AtomicU64::new(s.min),
            max: AtomicU64::new(s.max),
        }
    }

    /// A plain-data point-in-time copy — cheap to clone, serialize, and
    /// compare. The snapshot answers the same quantile queries as the live
    /// histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Shared quantile walk over a bucket array; `min`/`max` are the observed
/// extremes and `min_raw` may still be the `u64::MAX` empty sentinel.
fn quantile_over(buckets: &[u64; BUCKETS], count: u64, min_raw: u64, max: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    // Non-empty, so the raw min is a real observation (possibly u64::MAX
    // itself — the sentinel only means "empty" when count is 0).
    let min = min_raw;
    if q <= 0.0 {
        return min;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (i, &b) in buckets.iter().enumerate() {
        seen += b;
        if seen >= rank {
            let upper = if i == 0 { 0 } else { 1u64 << i };
            return upper.clamp(min, max);
        }
    }
    max
}

/// An immutable, plain-data copy of a [`LogHistogram`] — what a live
/// histogram looks like frozen at one instant. Used wherever a
/// distribution must travel (the training-time q-error baseline stored
/// inside a serialized sketch) or be merged without atomics (window
/// rotation snapshots).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of values behind the snapshot.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the values behind the snapshot.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.min == u64::MAX && self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Same deterministic quantile rule as [`LogHistogram::quantile`].
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_over(&self.buckets, self.count, self.min, self.max, q)
    }

    /// Merges `other` into `self`; same semantics as [`LogHistogram::merge`].
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, ob) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += ob;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Flattens to a fixed-length `u64` word sequence for serialization:
    /// `[count, sum, min, max, bucket_0 .. bucket_47]`.
    pub fn to_words(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(4 + BUCKETS);
        out.extend([self.count, self.sum, self.min, self.max]);
        out.extend(self.buckets);
        out
    }

    /// Inverse of [`HistogramSnapshot::to_words`]. Returns `None` on a
    /// wrong word count or when the header contradicts the buckets.
    pub fn from_words(words: &[u64]) -> Option<Self> {
        if words.len() != 4 + BUCKETS {
            return None;
        }
        let snap = Self {
            count: words[0],
            sum: words[1],
            min: words[2],
            max: words[3],
            buckets: std::array::from_fn(|i| words[4 + i]),
        };
        // Checked sum: untrusted bucket words can be large enough to
        // overflow a plain `sum()`, which is itself proof of corruption —
        // found by the snapshot fuzz smoke.
        let total = snap
            .buckets
            .iter()
            .try_fold(0u64, |acc, &b| acc.checked_add(b))?;
        if total != snap.count {
            return None;
        }
        Some(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_bound_the_data() {
        let h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        // Upper-bound property: quantile(q) >= true percentile, within one
        // power of two of it, and never beyond the observed max.
        let p50 = h.quantile(0.5);
        assert!((500..=1000).contains(&p50), "p50={p50}");
        let p99 = h.quantile(0.99);
        assert!((990..=1000).contains(&p99), "p99={p99}");
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LogHistogram::new();
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(h.quantile(q), 0);
        }
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn single_sample_is_exact_at_every_quantile() {
        for v in [0u64, 1, 7, 100, 1 << 20, u64::MAX] {
            let h = LogHistogram::new();
            h.record(v);
            for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
                assert_eq!(h.quantile(q), v, "v={v} q={q}");
            }
        }
    }

    #[test]
    fn zeros_land_in_bucket_zero() {
        let h = LogHistogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max(), 0);
        h.record(8);
        assert_eq!(h.quantile(1.0), 8);
    }

    #[test]
    fn merge_equals_replaying_the_union() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        let union = LogHistogram::new();
        for v in [0u64, 3, 17, 1 << 30] {
            a.record(v);
            union.record(v);
        }
        for v in [1u64, 1000, u64::MAX] {
            b.record(v);
            union.record(v);
        }
        a.merge(&b);
        assert_eq!(a.snapshot(), union.snapshot());
        // Merging an empty histogram changes nothing (min sentinel safe).
        let before = a.snapshot();
        a.merge(&LogHistogram::new());
        assert_eq!(a.snapshot(), before);
        // Merging *into* an empty histogram copies the other side.
        let empty = LogHistogram::new();
        empty.merge(&union);
        assert_eq!(empty.snapshot(), union.snapshot());
    }

    #[test]
    fn snapshot_answers_like_the_live_histogram() {
        let h = LogHistogram::new();
        for v in 1..=100u64 {
            h.record(v * 7);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), h.count());
        assert_eq!(s.min(), h.min());
        assert_eq!(s.max(), h.max());
        assert_eq!(s.mean(), h.mean());
        for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(s.quantile(q), h.quantile(q), "q={q}");
        }
        // Empty snapshot mirrors the empty histogram.
        let e = HistogramSnapshot::new();
        assert_eq!((e.count(), e.min(), e.max(), e.quantile(0.5)), (0, 0, 0, 0));
    }

    #[test]
    fn snapshot_words_roundtrip_and_reject_corruption() {
        let h = LogHistogram::new();
        for v in [0u64, 5, 1 << 20] {
            h.record(v);
        }
        let s = h.snapshot();
        let words = s.to_words();
        assert_eq!(HistogramSnapshot::from_words(&words).unwrap(), s);
        assert!(HistogramSnapshot::from_words(&words[1..]).is_none());
        let mut bad = words.clone();
        bad[0] += 1; // count no longer matches the bucket sum
        assert!(HistogramSnapshot::from_words(&bad).is_none());
    }

    #[test]
    fn from_snapshot_roundtrips_including_empty_sentinel() {
        let h = LogHistogram::new();
        for v in [0u64, 9, 1 << 33, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        let restored = LogHistogram::from_snapshot(&s);
        assert_eq!(restored.snapshot(), s);
        // The restored histogram keeps recording correctly.
        restored.record(2);
        assert_eq!(restored.count(), s.count() + 1);
        // Empty snapshot restores to an empty histogram whose min sentinel
        // still behaves (recording then reports the real min).
        let empty = LogHistogram::from_snapshot(&HistogramSnapshot::new());
        assert_eq!(empty.count(), 0);
        empty.record(7);
        assert_eq!(empty.min(), 7);
    }

    #[test]
    fn reset_clears_everything() {
        let h = LogHistogram::new();
        h.record(5);
        h.record(500);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        h.record(3);
        assert_eq!(h.quantile(0.5), 3);
    }
}
