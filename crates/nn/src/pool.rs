//! The lane team: deterministic parallelism for one training run.
//!
//! A [`Team`] is a fixed set of *lanes* — the thread that opened it plus
//! `lanes − 1` helper threads spawned once, inside one
//! [`std::thread::scope`], by [`Team::run`]. Every fork inside the run is
//! [`Team::join`]: run `a` here and `b` on a helper that is idle right
//! now, return when both are done. When no helper is idle — one lane, or
//! every helper busy with somebody else's piece — both halves run in place
//! on the caller, `a` then `b`. A join may be issued from any lane,
//! nested to any depth: a claim never waits, and a lane only ever waits
//! for a piece that is already running, so joins cannot deadlock.
//!
//! ## What a lane may and may not share
//!
//! A join moves *where* a piece runs, never *what* it computes. The two
//! pieces of a join write disjoint memory — the borrow checker holds them
//! to it, `b` being an ordinary `Send` closure over `&mut` borrows — and
//! the callers in this workspace only ever fork work whose every output
//! element, gradient element and optimizer moment is produced by exactly
//! one piece in the serial order: whole set modules, contiguous output
//! rows of one kernel call ([`crate::sparse::sparse_rows_pool`]), the
//! weight gradient and the input gradient of one layer
//! ([`crate::linear::Linear::backward_into`]), element ranges of one
//! optimizer update ([`crate::optim::Adam::step`]). No reduction is ever
//! split across lanes and no accumulator is shared, so results are bit
//! for bit those of one lane at any lane count, whichever helper
//! happened to be idle.
//!
//! ## Cost
//!
//! A helper waits for its next piece by spinning, then polling between
//! yields, and parks only after milliseconds without one; the caller
//! waits for `b` the same way. Handing a piece to a polling helper costs
//! about a microsecond, waking a parked one a futex call and 50–100 µs
//! of latency; the smallest piece the workspace forks is ≈ 10 µs of
//! work. A join takes one mutex twice and allocates nothing (the piece
//! stays on the caller's stack). With one lane no thread is spawned and a
//! join is two calls.
//!
//! ## Panics and lifetime
//!
//! A helper catches its piece's unwind and the waiting `join` resumes it
//! with the original payload — after both halves are done, so no borrow
//! is ever left behind on a running thread. [`Team::run`] joins every
//! helper before it returns, on the normal and on the unwinding path: no
//! thread outlives the run.
//!
//! ## Tracing
//!
//! A piece that runs on a helper enters the span path of the `join` that
//! started it ([`ds_obs::Tracer::enter_under`]), so `forward/joins/…`
//! aggregates under `build/train/epoch` whichever lane ran it.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread::{self, ScopedJoinHandle, Thread};
use std::time::{Duration, Instant};

/// Iterations of [`std::hint::spin_loop`] a waiting lane starts with:
/// tens of microseconds, which covers a fork that follows the last one
/// directly at the latency of a cache line.
const SPINS: u32 = 1 << 11;

/// How long a waiting lane then keeps polling, yielding its core between
/// polls, before it parks. Waking a parked thread costs 50–100 µs on the
/// reference host — several of the smallest pieces worth forking — and the
/// serial stretches of a training step (glue between kernels, the loss,
/// a batch refill) are shorter than this, so within a run a lane is
/// rarely parked; a team left idle gives its cores back after this long.
/// Yielding keeps an oversubscribed host moving: if the thread a lane
/// waits for has no core, it gets this one.
const POLL_FOR: Duration = Duration::from_millis(2);

/// What a panicking piece unwound with.
type Payload = Box<dyn Any + Send + 'static>;

/// A piece of a join, borrowed from the joining thread's stack, its
/// lifetime erased so it can sit in a helper's mailbox.
struct Piece(*mut (dyn FnMut() + Send + 'static));

// SAFETY: the pointee is a `Send` closure, and the pointer is dereferenced
// by exactly one thread — the helper it was posted to — while the joining
// thread, which owns the closure, is blocked in `Helper::collect` and does
// not touch it.
unsafe impl Send for Piece {}

/// Helper states. A joiner moves `IDLE → CLAIMED → READY`, the helper
/// `READY → DONE`, the same joiner `DONE → IDLE`; [`Team::run`] ends with
/// `IDLE → SHUTDOWN`.
const IDLE: u8 = 0;
const CLAIMED: u8 = 1;
const READY: u8 = 2;
const DONE: u8 = 3;
const SHUTDOWN: u8 = 4;

/// What joiner and helper hand each other, under the helper's mutex.
#[derive(Default)]
struct Mail {
    piece: Option<Piece>,
    waiter: Option<Thread>,
    panic: Option<Payload>,
}

/// One helper lane: its state word, its mailbox and its thread's handle.
struct Helper {
    /// Every store is `Release` and every load that acts on the value
    /// `Acquire`: `READY` publishes the joiner's piece (and everything the
    /// piece borrows) to the helper, `DONE` publishes what the piece wrote
    /// to the joiner, `IDLE` the emptied mailbox to the next claimant.
    state: AtomicU8,
    mail: Mutex<Mail>,
    /// Set by [`Team::run`] right after the spawn, before any join.
    thread: OnceLock<Thread>,
}

/// Waits until `state` satisfies `until` and returns it: spins, then
/// polls between yields, then parks.
fn wait(state: &AtomicU8, until: impl Fn(u8) -> bool) -> u8 {
    let mut spins = 0;
    let mut polling_since = None;
    loop {
        let s = state.load(Ordering::Acquire);
        if until(s) {
            return s;
        }
        if spins < SPINS {
            spins += 1;
            std::hint::spin_loop();
        } else if polling_since.get_or_insert_with(Instant::now).elapsed() < POLL_FOR {
            thread::yield_now();
        } else {
            // Whoever changes the state unparks this thread afterwards; a
            // token left by an earlier unpark only costs one more round.
            thread::park();
        }
    }
}

impl Helper {
    fn new() -> Self {
        Self {
            state: AtomicU8::new(IDLE),
            mail: Mutex::new(Mail::default()),
            thread: OnceLock::new(),
        }
    }

    fn mail(&self) -> MutexGuard<'_, Mail> {
        self.mail
            .lock()
            .expect("no code panics while holding a lane's mailbox")
    }

    /// Takes the helper for one join if it is idle right now.
    fn claim(&self) -> bool {
        self.state
            .compare_exchange(IDLE, CLAIMED, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }

    /// Hands a claimed helper its piece and wakes it.
    fn post(&self, piece: Piece) {
        {
            let mut mail = self.mail();
            mail.piece = Some(piece);
            mail.waiter = Some(thread::current());
        }
        self.state.store(READY, Ordering::Release);
        if let Some(thread) = self.thread.get() {
            thread.unpark();
        }
    }

    /// Waits until the posted piece is done, frees the helper and returns
    /// the piece's panic, if it panicked.
    fn collect(&self) -> Option<Payload> {
        wait(&self.state, |s| s == DONE);
        let panic = self.mail().panic.take();
        self.state.store(IDLE, Ordering::Release);
        panic
    }

    /// The helper thread's body: run posted pieces until shut down.
    fn serve(&self) {
        while wait(&self.state, |s| s == READY || s == SHUTDOWN) == READY {
            let (piece, waiter) = {
                let mut mail = self.mail();
                (mail.piece.take(), mail.waiter.take())
            };
            let (piece, waiter) = piece.zip(waiter).expect("READY is stored after the post");
            // SAFETY: `Team::join` posted a pointer to a closure on its own
            // stack and is now blocked in `collect` until this thread stores
            // `DONE` below, so the closure is alive, and nothing else
            // touches it, for the whole call.
            let run = AssertUnwindSafe(|| unsafe { (*piece.0)() });
            if let Err(payload) = catch_unwind(run) {
                self.mail().panic = Some(payload);
            }
            self.state.store(DONE, Ordering::Release);
            waiter.unpark();
        }
    }
}

/// A training run's lanes. See the [module docs](self).
pub struct Team {
    helpers: Vec<Helper>,
}

/// The spawned helpers of a running team. Dropped when [`Team::run`]'s
/// closure returns or unwinds: shuts the helpers down and joins them, so
/// that their threads are gone — not merely finished — when `run` returns.
struct Spawned<'scope, 'team> {
    team: &'team Team,
    handles: Vec<ScopedJoinHandle<'scope, ()>>,
}

impl Drop for Spawned<'_, '_> {
    fn drop(&mut self) {
        // Every join has returned, so every helper is idle (or was never
        // spawned); none of them holds a piece.
        for helper in &self.team.helpers {
            helper.state.store(SHUTDOWN, Ordering::Release);
            if let Some(thread) = helper.thread.get() {
                thread.unpark();
            }
        }
        for handle in self.handles.drain(..) {
            // A helper catches its pieces' panics and has none of its own.
            let _ = handle.join();
        }
    }
}

impl Team {
    /// The team of one: the caller alone. Every join runs in place.
    pub const fn solo() -> Self {
        Self {
            helpers: Vec::new(),
        }
    }

    /// Runs `f` with a team of `lanes` lanes (at least one): the calling
    /// thread plus `lanes − 1` helpers, spawned here and joined before
    /// this returns, whether `f` returns or panics. A helper the system
    /// refuses to spawn is left out; its joins run in place.
    pub fn run<R>(lanes: usize, f: impl FnOnce(&Team) -> R) -> R {
        let team = Self {
            helpers: (1..lanes).map(|_| Helper::new()).collect(),
        };
        if team.helpers.is_empty() {
            return f(&team);
        }
        thread::scope(|scope| {
            let mut spawned = Spawned {
                team: &team,
                handles: Vec::with_capacity(team.helpers.len()),
            };
            for helper in &team.helpers {
                let lane = thread::Builder::new().name("ds-nn-lane".into());
                match lane.spawn_scoped(scope, || helper.serve()) {
                    Ok(handle) => {
                        let _ = helper.thread.set(handle.thread().clone());
                        spawned.handles.push(handle);
                    }
                    // Never claimable: a claim wants `IDLE`.
                    Err(_) => helper.state.store(SHUTDOWN, Ordering::Release),
                }
            }
            f(&team)
        })
    }

    /// Lanes of the team, the caller's included.
    pub fn lanes(&self) -> usize {
        self.helpers.len() + 1
    }

    /// Whether a helper looked idle just now — a hint for callers that
    /// would rather not cut their work in two when [`Team::join`] would
    /// only run both halves in place. The answer may be stale either way.
    pub fn has_idle(&self) -> bool {
        // Relaxed: the value publishes nothing; `join` claims for real.
        self.helpers
            .iter()
            .any(|h| h.state.load(Ordering::Relaxed) == IDLE)
    }

    /// Runs `a` on the calling thread and `b` on an idle helper, and
    /// returns when both are done; with no idle helper, runs `a` then `b`
    /// in place. If either piece panics, the panic resumes here once both
    /// are done (`a`'s, if both did).
    pub fn join<A, B>(&self, a: A, b: B)
    where
        A: FnOnce(),
        B: FnOnce() + Send,
    {
        let Some(helper) = self.helpers.iter().find(|h| h.claim()) else {
            a();
            b();
            return;
        };
        let obs = ds_obs::global();
        let path = obs.current_path();
        let mut b = Some(b);
        let mut piece = || {
            let _lane = obs.enter_under(path.as_deref());
            if let Some(b) = b.take() {
                b();
            }
        };
        let piece: *mut (dyn FnMut() + Send + '_) = &mut piece;
        // SAFETY: only the lifetime bound of the trait object changes. The
        // closure (and `path` and `b`, which it borrows) lives in this
        // frame, and this function does not return or unwind before
        // `helper.collect()` below has seen the helper store `DONE`, after
        // which the helper never touches the pointer again: `a`'s unwind
        // is caught, and `post` can only panic before it publishes.
        let piece = Piece(unsafe {
            std::mem::transmute::<*mut (dyn FnMut() + Send + '_), *mut (dyn FnMut() + Send + 'static)>(
                piece,
            )
        });
        helper.post(piece);
        let ours = catch_unwind(AssertUnwindSafe(a));
        let theirs = helper.collect();
        if let Err(payload) = ours {
            resume_unwind(payload);
        }
        if let Some(payload) = theirs {
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use std::thread::ThreadId;

    fn panic_message(lanes: usize, f: impl FnOnce(&Team)) -> String {
        let payload = catch_unwind(AssertUnwindSafe(|| Team::run(lanes, f)))
            .expect_err("the join must propagate the panic");
        match payload.downcast::<&'static str>() {
            Ok(s) => s.to_string(),
            Err(payload) => *payload.downcast::<String>().expect("a string payload"),
        }
    }

    #[test]
    fn both_halves_run_and_see_their_borrows() {
        for lanes in [1, 2, 3, 8] {
            Team::run(lanes, |team| {
                assert_eq!(team.lanes(), lanes);
                let mut data = vec![0u32; 64];
                for round in 1..=50u32 {
                    let (left, right) = data.split_at_mut(17);
                    team.join(
                        || left.iter_mut().for_each(|v| *v += round),
                        || right.iter_mut().for_each(|v| *v += 2 * round),
                    );
                }
                let sum: u32 = (1..=50).sum();
                assert!(data[..17].iter().all(|&v| v == sum), "lanes={lanes}");
                assert!(data[17..].iter().all(|&v| v == 2 * sum), "lanes={lanes}");
            });
        }
    }

    #[test]
    fn the_second_half_runs_on_a_helper_when_one_is_idle() {
        Team::run(2, |team| {
            assert!(team.has_idle());
            let here = thread::current().id();
            let mut there: Option<ThreadId> = None;
            // The barrier needs both halves running at once: it would
            // hang if `b` ran in place after `a`.
            let both = Barrier::new(2);
            team.join(
                || {
                    both.wait();
                },
                || {
                    both.wait();
                    there = Some(thread::current().id());
                },
            );
            assert_ne!(there, Some(here));
        });
        let mut ran = (false, false);
        Team::solo().join(|| ran.0 = true, || ran.1 = true);
        assert_eq!(ran, (true, true));
        assert!(!Team::solo().has_idle());
    }

    #[test]
    fn a_panic_on_either_side_reaches_the_caller_after_both_are_done() {
        for lanes in [1, 2, 4] {
            let finished = AtomicUsize::new(0);
            let msg = panic_message(lanes, |team| {
                team.join(
                    || {
                        finished.fetch_add(1, Ordering::SeqCst);
                    },
                    || panic!("helper piece failed"),
                )
            });
            assert_eq!(msg, "helper piece failed", "lanes={lanes}");
            let msg = panic_message(lanes, |team| {
                team.join(
                    || panic!("caller piece failed at {lanes}"),
                    || {
                        finished.fetch_add(1, Ordering::SeqCst);
                    },
                )
            });
            assert_eq!(msg, format!("caller piece failed at {lanes}"));
            // With helpers, the surviving half ran to its end both times;
            // in place, `a`'s panic leaves `b` unrun.
            let want = if lanes == 1 { 1 } else { 2 };
            assert_eq!(finished.load(Ordering::SeqCst), want, "lanes={lanes}");
        }
    }

    #[test]
    fn a_team_survives_a_panicked_join() {
        Team::run(2, |team| {
            let caught = catch_unwind(AssertUnwindSafe(|| team.join(|| {}, || panic!("once"))));
            assert!(caught.is_err());
            // The helper is idle again and takes the next piece.
            let both = Barrier::new(2);
            team.join(
                || {
                    both.wait();
                },
                || {
                    both.wait();
                },
            );
        });
    }

    #[test]
    fn nested_joins_run_in_place_when_every_helper_is_busy() {
        Team::run(2, |team| {
            let caller = thread::current().id();
            let both = Barrier::new(2);
            let mut inner_of_a = [None; 2];
            let mut inner_of_b = [None; 3];
            let (a0, a1) = inner_of_a.split_at_mut(1);
            let (b0, rest) = inner_of_b.split_at_mut(1);
            let (b1, b2) = rest.split_at_mut(1);
            team.join(
                || {
                    // The one helper is held inside `b` until this join
                    // has run: both of its halves must run here.
                    team.join(
                        || a0[0] = Some(thread::current().id()),
                        || a1[0] = Some(thread::current().id()),
                    );
                    both.wait();
                },
                || {
                    b0[0] = Some(thread::current().id());
                    // Issued from the helper itself, which is the only one.
                    team.join(
                        || b1[0] = Some(thread::current().id()),
                        || b2[0] = Some(thread::current().id()),
                    );
                    both.wait();
                },
            );
            assert_eq!(inner_of_a, [Some(caller); 2]);
            assert_ne!(inner_of_b[0], Some(caller));
            assert_eq!(inner_of_b, [inner_of_b[0]; 3]);
        });
    }

    #[test]
    fn deep_nesting_from_every_lane_never_deadlocks() {
        fn tree(team: &Team, depth: usize, leaves: &AtomicUsize) {
            if depth == 0 {
                leaves.fetch_add(1, Ordering::Relaxed);
                return;
            }
            team.join(
                || tree(team, depth - 1, leaves),
                || tree(team, depth - 1, leaves),
            );
        }
        for lanes in [1, 2, 3, 4] {
            let leaves = AtomicUsize::new(0);
            Team::run(lanes, |team| tree(team, 8, &leaves));
            assert_eq!(leaves.load(Ordering::Relaxed), 256, "lanes={lanes}");
        }
    }
}
