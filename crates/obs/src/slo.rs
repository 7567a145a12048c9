//! Declarative SLOs with multi-window burn-rate alerting.
//!
//! An [`SloSpec`] states an objective ("99% of events must be good") and
//! two evaluation windows in the classic fast/slow shape — a short
//! window (5m-style) that reacts quickly and a long window (1h-style)
//! that filters blips. The **burn rate** of a window is how fast the
//! error budget is being spent:
//!
//! ```text
//! burn = bad_fraction / (1 - objective)
//! ```
//!
//! A burn of 1.0 consumes exactly the budget the objective allows; an
//! alert **fires** only when *both* windows exceed their thresholds —
//! the fast window proves the problem is current, the slow window
//! proves it is sustained. This is the standard multi-window,
//! multi-burn-rate construction from SRE practice.
//!
//! [`SloTracker`] is the lock-free evaluator: a ring of time slots
//! (sliced from the slow window) holding good/bad counts. All clocks are
//! **injected** — every method takes `now_ms`, a caller-defined
//! monotonic millisecond timestamp — so tests drive time
//! deterministically and the serving layer derives it from its existing
//! `Instant` epoch; no wall clock is read here.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::prom::PromText;

/// Number of ring slots the slow window is sliced into. 64 keeps the
/// fast window (typically 1/12 of the slow one) covered by several slots
/// so expiry is smooth, while the whole ring stays ~3 cache lines.
const SLOTS: usize = 64;

/// A declarative service-level objective: what fraction of events must
/// be good, and how aggressively budget burn should alert.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Alert name; becomes part of the exported metric names.
    pub name: String,
    /// Required good fraction, strictly inside `(0, 1)` — e.g. `0.99`.
    pub objective: f64,
    /// Fast ("is it happening now") window length in milliseconds.
    pub fast_window_ms: u64,
    /// Slow ("is it sustained") window length in milliseconds. Must be
    /// at least the fast window.
    pub slow_window_ms: u64,
    /// Burn-rate threshold the fast window must exceed to fire.
    pub fast_burn: f64,
    /// Burn-rate threshold the slow window must exceed to fire.
    pub slow_burn: f64,
}

impl SloSpec {
    /// A conventional page-severity spec: 5m/1h windows with the
    /// standard 14.4×/6× burn thresholds.
    pub fn paging(name: impl Into<String>, objective: f64) -> Self {
        Self {
            name: name.into(),
            objective,
            fast_window_ms: 5 * 60 * 1000,
            slow_window_ms: 60 * 60 * 1000,
            fast_burn: 14.4,
            slow_burn: 6.0,
        }
    }

    /// Checks the spec's invariants; `Err` carries a human-readable
    /// reason (surfaced through config validation).
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() || !self.name.chars().all(|c| c.is_ascii_graphic()) {
            return Err("slo name must be non-empty printable ASCII".into());
        }
        if !(self.objective > 0.0 && self.objective < 1.0) {
            return Err(format!(
                "slo {}: objective must be in (0, 1), got {}",
                self.name, self.objective
            ));
        }
        if self.fast_window_ms == 0 || self.slow_window_ms < self.fast_window_ms {
            return Err(format!(
                "slo {}: need 0 < fast window ({}) <= slow window ({})",
                self.name, self.fast_window_ms, self.slow_window_ms
            ));
        }
        let positive = |b: f64| b.is_finite() && b > 0.0;
        if !positive(self.fast_burn) || !positive(self.slow_burn) {
            return Err(format!(
                "slo {}: burn thresholds must be positive",
                self.name
            ));
        }
        Ok(())
    }
}

/// Burn rates of both windows at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnRates {
    /// Budget-burn multiple over the fast window (0 when no events).
    pub fast: f64,
    /// Budget-burn multiple over the slow window (0 when no events).
    pub slow: f64,
}

/// One time slot of good/bad counts. `epoch` is the absolute slot number
/// (`now_ms / slot_ms`) the counts belong to; a recorder landing on a
/// stale slot resets it first.
#[derive(Debug)]
struct Slot {
    epoch: AtomicU64,
    good: AtomicU64,
    bad: AtomicU64,
}

/// Lock-free time-sliced evaluator for one [`SloSpec`].
///
/// Recording is one atomic load plus one `fetch_add` on the steady
/// path. Rotation races are benign the same way [`crate::window`]'s
/// are: a racing recorder can land a count in a slot being recycled,
/// skewing one slot's tally — acceptable for an alerting signal.
#[derive(Debug)]
pub struct SloTracker {
    spec: SloSpec,
    slot_ms: u64,
    slots: Box<[Slot]>,
    good_total: AtomicU64,
    bad_total: AtomicU64,
}

impl SloTracker {
    /// Builds a tracker for `spec`. Panics on an invalid spec — validate
    /// first when the spec comes from configuration.
    pub fn new(spec: SloSpec) -> Self {
        spec.validate().expect("valid SloSpec");
        let slot_ms = (spec.slow_window_ms / SLOTS as u64).max(1);
        Self {
            spec,
            slot_ms,
            slots: (0..SLOTS)
                .map(|_| Slot {
                    epoch: AtomicU64::new(u64::MAX),
                    good: AtomicU64::new(0),
                    bad: AtomicU64::new(0),
                })
                .collect(),
            good_total: AtomicU64::new(0),
            bad_total: AtomicU64::new(0),
        }
    }

    /// The spec this tracker evaluates.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    /// Records `good`/`bad` event counts at `now_ms`.
    pub fn record_many(&self, now_ms: u64, good: u64, bad: u64) {
        if good == 0 && bad == 0 {
            return;
        }
        self.good_total.fetch_add(good, Ordering::Relaxed);
        self.bad_total.fetch_add(bad, Ordering::Relaxed);
        let epoch = now_ms / self.slot_ms;
        let slot = &self.slots[(epoch % SLOTS as u64) as usize];
        let seen = slot.epoch.load(Ordering::Relaxed);
        if seen != epoch {
            // Recycle the slot for the new epoch. One racer wins; the
            // loser's counts land in the freshly cleared slot, which is
            // where they belong anyway.
            if slot
                .epoch
                .compare_exchange(seen, epoch, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                slot.good.store(0, Ordering::Relaxed);
                slot.bad.store(0, Ordering::Relaxed);
            }
        }
        slot.good.fetch_add(good, Ordering::Relaxed);
        slot.bad.fetch_add(bad, Ordering::Relaxed);
    }

    /// Records one event at `now_ms`.
    pub fn record(&self, now_ms: u64, good: bool) {
        self.record_many(now_ms, u64::from(good), u64::from(!good));
    }

    /// Cumulative good events since construction (for counter export).
    pub fn good_total(&self) -> u64 {
        self.good_total.load(Ordering::Relaxed)
    }

    /// Cumulative bad events since construction (for counter export).
    pub fn bad_total(&self) -> u64 {
        self.bad_total.load(Ordering::Relaxed)
    }

    /// Sums `(good, bad)` over the trailing `window_ms` ending at
    /// `now_ms`.
    fn window_counts(&self, now_ms: u64, window_ms: u64) -> (u64, u64) {
        let newest = now_ms / self.slot_ms;
        // A slot at epoch e covers [e*slot_ms, (e+1)*slot_ms); include it
        // when any part of that range is inside the window.
        let oldest = now_ms.saturating_sub(window_ms) / self.slot_ms;
        let (mut good, mut bad) = (0u64, 0u64);
        for slot in self.slots.iter() {
            let e = slot.epoch.load(Ordering::Relaxed);
            if e != u64::MAX && e >= oldest && e <= newest {
                good += slot.good.load(Ordering::Relaxed);
                bad += slot.bad.load(Ordering::Relaxed);
            }
        }
        (good, bad)
    }

    fn burn(&self, now_ms: u64, window_ms: u64) -> f64 {
        let (good, bad) = self.window_counts(now_ms, window_ms);
        let total = good + bad;
        if total == 0 {
            return 0.0;
        }
        let bad_fraction = bad as f64 / total as f64;
        bad_fraction / (1.0 - self.spec.objective)
    }

    /// Burn rates of both windows at `now_ms`.
    pub fn burn_rates(&self, now_ms: u64) -> BurnRates {
        BurnRates {
            fast: self.burn(now_ms, self.spec.fast_window_ms),
            slow: self.burn(now_ms, self.spec.slow_window_ms),
        }
    }

    /// Whether the alert fires at `now_ms`: both windows over threshold.
    pub fn firing(&self, now_ms: u64) -> bool {
        let rates = self.burn_rates(now_ms);
        rates.fast >= self.spec.fast_burn && rates.slow >= self.spec.slow_burn
    }

    /// Renders this SLO's state into an exposition document: cumulative
    /// good/bad counters (mergeable by sum) and burn/firing gauges
    /// (mergeable by max — any firing shard keeps the fleet view firing).
    pub fn render(&self, now_ms: u64, p: &mut PromText) {
        let rates = self.burn_rates(now_ms);
        let base = format!("slo/{}", self.spec.name);
        p.counter(&format!("{base}/good"), self.good_total())
            .counter(&format!("{base}/bad"), self.bad_total())
            .gauge(&format!("{base}/burn_fast"), rates.fast)
            .gauge(&format!("{base}/burn_slow"), rates.slow)
            .gauge(
                &format!("{base}/firing"),
                if self.firing(now_ms) { 1.0 } else { 0.0 },
            );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SloSpec {
        SloSpec {
            name: "latency".into(),
            objective: 0.9,
            fast_window_ms: 1_000,
            slow_window_ms: 12_000,
            fast_burn: 2.0,
            slow_burn: 1.0,
        }
    }

    #[test]
    fn validation_rejects_nonsense_specs() {
        assert!(spec().validate().is_ok());
        for bad in [
            SloSpec {
                name: String::new(),
                ..spec()
            },
            SloSpec {
                name: "has space".into(),
                ..spec()
            },
            SloSpec {
                objective: 0.0,
                ..spec()
            },
            SloSpec {
                objective: 1.0,
                ..spec()
            },
            SloSpec {
                fast_window_ms: 0,
                ..spec()
            },
            SloSpec {
                slow_window_ms: 10,
                ..spec()
            },
            SloSpec {
                fast_burn: 0.0,
                ..spec()
            },
            SloSpec {
                slow_burn: -1.0,
                ..spec()
            },
        ] {
            assert!(bad.validate().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn burn_is_bad_fraction_over_budget() {
        let t = SloTracker::new(spec());
        // 10% objective budget; 20% bad => burn 2.0 in both windows.
        for i in 0..100 {
            t.record(500, i % 5 != 0);
        }
        let rates = t.burn_rates(500);
        assert!((rates.fast - 2.0).abs() < 1e-9, "fast {rates:?}");
        assert!((rates.slow - 2.0).abs() < 1e-9, "slow {rates:?}");
        assert!(t.firing(500));
        assert_eq!((t.good_total(), t.bad_total()), (80, 20));
    }

    #[test]
    fn a_short_blip_does_not_fire_the_slow_window() {
        let t = SloTracker::new(spec());
        // A long healthy history...
        for ms in (0..12_000).step_by(100) {
            t.record_many(ms, 10, 0);
        }
        // ...then one second of pure failure: fast window saturates but
        // the slow window still holds a mostly-good budget.
        for ms in (12_000..13_000).step_by(100) {
            t.record_many(ms, 0, 10);
        }
        let rates = t.burn_rates(13_000);
        assert!(rates.fast >= 2.0, "fast must saturate: {rates:?}");
        assert!(rates.slow < 1.0, "slow must absorb the blip: {rates:?}");
        assert!(!t.firing(13_000));
    }

    #[test]
    fn sustained_burn_fires_and_then_ages_out() {
        let t = SloTracker::new(spec());
        for ms in (0..12_000).step_by(100) {
            t.record_many(ms, 5, 5);
        }
        assert!(t.firing(12_000), "{:?}", t.burn_rates(12_000));
        // A full slow window of silence later the ring has aged out.
        let later = 12_000 + 13_000;
        assert_eq!(
            t.burn_rates(later),
            BurnRates {
                fast: 0.0,
                slow: 0.0
            }
        );
        assert!(!t.firing(later));
    }

    #[test]
    fn render_exports_mergeable_families() {
        let t = SloTracker::new(spec());
        t.record_many(100, 8, 2);
        let mut p = PromText::new();
        t.render(100, &mut p);
        let doc = p.finish().unwrap();
        assert!(doc.contains("ds_slo_latency_good 8"));
        assert!(doc.contains("ds_slo_latency_bad 2"));
        assert!(doc.contains("ds_slo_latency_burn_fast 2"));
        assert!(doc.contains("ds_slo_latency_firing 1"));
    }
}
