//! Deterministic fault injection for the serving path.
//!
//! Production code never branches on faults: a request reaches its model
//! through one call, `FaultInjector::reach_model`, which only runs the
//! model when the server holds no injector (real deployments hold `None`),
//! and the batcher draws its stall through the same `Option`. Even a
//! configured injector is inert in release builds —
//! [`FaultInjector::armed`] is `false` unless `debug_assertions` are on,
//! so the degradation tests can wire failures through the *real* serving
//! code without leaving a runtime injection surface in optimized builds.
//!
//! Faults are seeded and deterministic: the same seed and the same call
//! sequence produce the same fault schedule, so a failing degradation test
//! replays exactly.
//!
//! Supported faults:
//!
//! * **decode flips** — a per-sketch probability of downgrading a
//!   successful forward pass into [`ds_est::EstimateError::Decode`], as if
//!   the model bytes had rotted in memory;
//! * **forward delays** — a probability of stalling a forward pass
//!   long enough to blow request deadlines;
//! * **poisoned sketches** — names whose every estimate fails with an
//!   execution error before reaching the model.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Mutex;
use std::time::Duration;

use ds_est::EstimateError;

use crate::batcher::Rejection;
use crate::server::Answer;

struct FaultState {
    rng: u64,
    decode_flip: HashMap<String, f64>,
    forward_delay: Option<(Duration, f64)>,
    poisoned: HashSet<String>,
    chaos_kills: VecDeque<usize>,
}

/// A seeded, thread-safe fault plan shared between a server, its batcher,
/// and the test driving them. See the module docs for the fault kinds.
pub struct FaultInjector {
    state: Mutex<FaultState>,
}

impl FaultInjector {
    /// Creates an injector with a deterministic seed. A zero seed is
    /// remapped (xorshift has a zero fixed point).
    pub fn new(seed: u64) -> Self {
        Self {
            state: Mutex::new(FaultState {
                rng: if seed == 0 {
                    0x9e37_79b9_7f4a_7c15
                } else {
                    seed
                },
                decode_flip: HashMap::new(),
                forward_delay: None,
                poisoned: HashSet::new(),
                chaos_kills: VecDeque::new(),
            }),
        }
    }

    /// Whether injected faults fire at all. Always `false` in release
    /// builds: an injector can be configured and passed around, but every
    /// draw reports "no fault".
    pub fn armed() -> bool {
        cfg!(debug_assertions)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        // A panic while holding the lock only happens in tests; the plan
        // is still usable afterwards.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// One xorshift64* draw in `[0, 1)`.
    fn draw(state: &mut FaultState) -> f64 {
        let mut x = state.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        state.rng = x;
        (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Reaches `sketch`'s model through `reach` and surfaces this plan's
    /// model faults where a real one would: a poisoned sketch fails before
    /// `reach` runs (no cache probe, no pass), and an answer a forward pass
    /// gave may be flipped into a decode error once the pass returned. The
    /// draws come in a request's order — the pass's stall inside `reach`,
    /// then the flip — so a seeded schedule replays. With no injector, or
    /// a disarmed one, `reach`'s result passes through.
    pub(crate) fn reach_model(
        faults: Option<&Self>,
        sketch: &str,
        reach: impl FnOnce() -> Result<Answer, Rejection>,
    ) -> Result<Answer, Rejection> {
        let Some(faults) = faults else {
            return reach();
        };
        let fault = |e: EstimateError| Err(Rejection::Estimate(e));
        if faults.is_poisoned(sketch) {
            return fault(EstimateError::Execution(format!(
                "sketch '{sketch}' model poisoned (fault injection)"
            )));
        }
        match reach()? {
            Answer::Model(..) if faults.should_flip_decode(sketch) => fault(EstimateError::Decode(
                format!("sketch '{sketch}' decode flipped (fault injection)"),
            )),
            answer => Ok(answer),
        }
    }

    /// Configures a probability of downgrading successful estimates against
    /// `sketch` into decode errors. `rate` is clamped to `[0, 1]`.
    pub fn flip_decode(&self, sketch: &str, rate: f64) {
        self.lock()
            .decode_flip
            .insert(sketch.to_string(), rate.clamp(0.0, 1.0));
    }

    /// Draws whether this request's successful estimate should be flipped
    /// into a decode error.
    pub fn should_flip_decode(&self, sketch: &str) -> bool {
        if !Self::armed() {
            return false;
        }
        let mut st = self.lock();
        let Some(&rate) = st.decode_flip.get(sketch) else {
            return false;
        };
        Self::draw(&mut st) < rate
    }

    /// Configures a probability of delaying each forward pass by
    /// `delay` (used to force deadline misses deterministically).
    pub fn delay_forwards(&self, delay: Duration, rate: f64) {
        self.lock().forward_delay = Some((delay, rate.clamp(0.0, 1.0)));
    }

    /// Draws the delay (if any) to apply to the forward pass starting now.
    pub fn forward_delay(&self) -> Option<Duration> {
        if !Self::armed() {
            return None;
        }
        let mut st = self.lock();
        let (delay, rate) = st.forward_delay?;
        (Self::draw(&mut st) < rate).then_some(delay)
    }

    /// Marks `sketch` as poisoned: every estimate against it fails before
    /// the forward pass, as if the in-memory model were corrupt.
    pub fn poison(&self, sketch: &str) {
        self.lock().poisoned.insert(sketch.to_string());
    }

    /// Clears a poison mark, letting the sketch serve again.
    pub fn heal(&self, sketch: &str) {
        self.lock().poisoned.remove(sketch);
    }

    /// Whether `sketch` is currently poisoned (and faults are armed).
    pub fn is_poisoned(&self, sketch: &str) -> bool {
        Self::armed() && self.lock().poisoned.contains(sketch)
    }

    /// Queues a chaos kill of the given fleet shard. Unlike the in-process
    /// faults above, the chaos schedule is **not** gated by
    /// [`FaultInjector::armed`]: it models *external* process death (a
    /// machine loss the supervisor reacts to), not a code-path injection,
    /// and the fleet chaos test runs in release builds too. The injector
    /// only carries the deterministic schedule; the driver does the
    /// killing.
    pub fn schedule_chaos_kill(&self, shard: usize) {
        self.lock().chaos_kills.push_back(shard);
    }

    /// Pops the next scheduled chaos kill, if any. Works in release builds
    /// (see [`FaultInjector::schedule_chaos_kill`]).
    pub fn next_chaos_kill(&self) -> Option<usize> {
        self.lock().chaos_kills.pop_front()
    }

    /// A seeded draw of a shard index in `0..n` — for chaos drivers that
    /// want the victim chosen reproducibly rather than scripted. Also not
    /// gated by [`FaultInjector::armed`].
    pub fn draw_shard(&self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        let mut st = self.lock();
        (Self::draw(&mut st) * n as f64) as usize % n
    }

    /// Drops every configured fault, returning the injector to a clean
    /// pass-through state (the RNG keeps its position).
    pub fn clear(&self) {
        let mut st = self.lock();
        st.decode_flip.clear();
        st.forward_delay = None;
        st.poisoned.clear();
        st.chaos_kills.clear();
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.lock();
        f.debug_struct("FaultInjector")
            .field("armed", &Self::armed())
            .field("decode_flip", &st.decode_flip)
            .field("forward_delay", &st.forward_delay)
            .field("poisoned", &st.poisoned)
            .field("queued_chaos_kills", &st.chaos_kills.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_replays_the_same_fault_schedule() {
        let a = FaultInjector::new(42);
        let b = FaultInjector::new(42);
        a.flip_decode("s", 0.5);
        b.flip_decode("s", 0.5);
        let seq_a: Vec<bool> = (0..64).map(|_| a.should_flip_decode("s")).collect();
        let seq_b: Vec<bool> = (0..64).map(|_| b.should_flip_decode("s")).collect();
        assert_eq!(seq_a, seq_b);
        if FaultInjector::armed() {
            assert!(seq_a.iter().any(|&f| f), "rate 0.5 never fired in 64 draws");
        }
        assert!(!seq_a.iter().all(|&f| f), "rate 0.5 always fired");
    }

    #[test]
    fn rate_extremes_are_deterministic() {
        let f = FaultInjector::new(7);
        f.flip_decode("always", 1.0);
        f.flip_decode("never", 0.0);
        for _ in 0..32 {
            assert_eq!(f.should_flip_decode("always"), FaultInjector::armed());
            assert!(!f.should_flip_decode("never"));
            assert!(!f.should_flip_decode("unconfigured"));
        }
    }

    #[test]
    fn poison_and_heal_toggle_per_sketch() {
        let f = FaultInjector::new(1);
        assert!(!f.is_poisoned("imdb"));
        f.poison("imdb");
        assert_eq!(f.is_poisoned("imdb"), FaultInjector::armed());
        assert!(!f.is_poisoned("other"));
        f.heal("imdb");
        assert!(!f.is_poisoned("imdb"));
    }

    #[test]
    fn chaos_schedule_works_even_when_disarmed() {
        // External process death is not an in-process injection: the
        // schedule must survive release builds, where armed() is false.
        let f = FaultInjector::new(5);
        assert!(f.next_chaos_kill().is_none());
        f.schedule_chaos_kill(2);
        f.schedule_chaos_kill(0);
        assert_eq!(f.next_chaos_kill(), Some(2));
        assert_eq!(f.next_chaos_kill(), Some(0));
        assert!(f.next_chaos_kill().is_none());
        // Seeded victim draws are reproducible and in range.
        let a = FaultInjector::new(11);
        let b = FaultInjector::new(11);
        let da: Vec<usize> = (0..16).map(|_| a.draw_shard(4)).collect();
        let db: Vec<usize> = (0..16).map(|_| b.draw_shard(4)).collect();
        assert_eq!(da, db);
        assert!(da.iter().all(|&s| s < 4));
        assert_eq!(a.draw_shard(0), 0);
    }

    #[test]
    fn clear_returns_to_pass_through() {
        let f = FaultInjector::new(9);
        f.flip_decode("s", 1.0);
        f.poison("s");
        f.delay_forwards(Duration::from_millis(5), 1.0);
        f.schedule_chaos_kill(1);
        f.clear();
        assert!(!f.should_flip_decode("s"));
        assert!(!f.is_poisoned("s"));
        assert!(f.forward_delay().is_none());
        assert!(f.next_chaos_kill().is_none());
    }
}
