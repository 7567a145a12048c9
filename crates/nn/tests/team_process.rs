//! What a lane team does to its *process*: the threads it leaves behind
//! (none) and where the global tracer files a helper's spans. One test on
//! purpose — the thread count and the global tracer are process-wide, and
//! a second test running beside this one would move both.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use ds_nn::pool::Team;

/// `Threads:` of `/proc/self/status`; `None` off Linux.
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line["Threads:".len()..].trim().parse().ok()
}

/// [`os_threads`] once it reads `want`, polled for up to 2 s: a joined
/// helper can still be counted while it runs its kernel exit path.
fn os_threads_settled(want: usize) -> Option<usize> {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let now = os_threads();
        if now == Some(want) || Instant::now() >= deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_run_leaves_no_thread_behind_and_files_helper_spans_under_the_join() {
    // Both halves meet at a barrier, so `b` provably ran on a helper.
    let forked = |team: &Team, b: &(dyn Fn() + Sync)| {
        let both = Barrier::new(2);
        team.join(
            || {
                both.wait();
            },
            || {
                both.wait();
                b();
            },
        );
    };

    if let Some(before) = os_threads() {
        for lanes in [1, 2, 4] {
            Team::run(lanes, |team| {
                if lanes > 1 {
                    forked(team, &|| {});
                    assert_eq!(os_threads(), Some(before + lanes - 1), "inside");
                }
            });
            assert_eq!(
                os_threads_settled(before),
                Some(before),
                "after a run at {lanes} lanes"
            );
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                Team::run(lanes, |team| team.join(|| {}, || panic!("unwinding run")))
            }));
            assert!(unwound.is_err());
            assert_eq!(
                os_threads_settled(before),
                Some(before),
                "after a panic at {lanes} lanes"
            );
        }
    }

    let obs = ds_obs::global();
    obs.enable();
    Team::run(2, |team| {
        let _outer = obs.span("outer");
        forked(team, &|| drop(obs.span("on_helper")));
    });
    obs.disable();
    let stat = obs.span_stat("outer/on_helper");
    assert_eq!(stat.map(|s| s.count), Some(1));
    assert!(obs.span_stat("on_helper").is_none(), "rooted on its own");
}
