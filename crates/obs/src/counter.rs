//! Typed scalar metrics: monotonic counters and last-value gauges.
//!
//! Both are one atomic, lock-free and safe to update from any thread. A
//! [`Counter`] only ever goes up (requests served, batches dispatched); a
//! [`Gauge`] holds the latest value of a continuous signal (epoch loss,
//! rows/s), which is all an exposition renders of it.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// The latest value of a continuous `f64` signal (0 before any `set`).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Creates a gauge reading 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a new observation, replacing the last.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Latest observation.
    pub fn last(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_adds_up() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_keeps_the_last_value() {
        let g = Gauge::new();
        assert_eq!(g.last(), 0.0);
        for v in [3.0, -1.0, 7.5] {
            g.set(v);
        }
        assert_eq!(g.last(), 7.5);
    }

    #[test]
    fn concurrent_updates_lose_nothing() {
        let c = Arc::new(Counter::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }
}
