//! An honest open-loop load generator for the serving benchmarks.
//!
//! The closed-loop harness (N clients, each waiting for its previous
//! response) understates tail latency under overload: a slow response
//! throttles its own client, so the server never sees the arrivals it
//! would face from independent users — the *coordinated omission* problem.
//! This generator is open-loop: request arrival times are drawn up front
//! from a seeded Poisson process at the target rate, and each request's
//! latency is measured **from its scheduled arrival time**, not from when
//! a worker got around to sending it. A request that waits behind an
//! overloaded server accrues that wait in its recorded latency, exactly as
//! a real user would experience it.
//!
//! Failure accounting mirrors the fleet's chaos contract: a request that
//! errors is retried (against whatever backend the closure routes it to)
//! until it succeeds or its per-request deadline passes; only a
//! deadline-exhausted request counts as *failed forever*. The chaos
//! test (`tests/fleet_chaos.rs`) asserts that number is zero while a
//! replica dies and restarts mid-run.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ds_obs::LogHistogram;

/// Configuration for one open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Target offered load, requests per second (Poisson arrivals).
    pub target_rps: f64,
    /// Total requests to offer.
    pub total: usize,
    /// Sender threads. Enough to cover the target concurrency — when all
    /// are busy, arrivals queue and the queueing time lands in the
    /// recorded latency (that's the point).
    pub workers: usize,
    /// RNG seed for the arrival schedule.
    pub seed: u64,
    /// Per-request retry deadline; exhausting it marks the request failed
    /// forever.
    pub deadline: Duration,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        Self {
            target_rps: 500.0,
            total: 1000,
            workers: 8,
            seed: 0x0bea_7ab1e,
            deadline: Duration::from_secs(10),
        }
    }
}

/// What one open-loop run observed.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// The load the schedule offered (requests per second).
    pub offered_rps: f64,
    /// The load the backend actually completed.
    pub achieved_rps: f64,
    /// Completed requests (including after retries).
    pub completed: u64,
    /// Requests whose deadline passed without a success.
    pub failed_forever: u64,
    /// Total retries across all requests.
    pub retries: u64,
    /// Latency percentiles in microseconds, measured from each request's
    /// *scheduled arrival* (coordinated-omission-free).
    pub p50_us: u64,
    /// 95th percentile, same clock.
    pub p95_us: u64,
    /// 99th percentile, same clock.
    pub p99_us: u64,
    /// Worst observed latency.
    pub max_us: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

/// Draws `n` exponential inter-arrival gaps at `rate_rps` from a seeded
/// xorshift64*, returning cumulative offsets from the run start. Seeded →
/// the same schedule replays exactly.
fn arrival_schedule(n: usize, rate_rps: f64, seed: u64) -> Vec<Duration> {
    let mut rng = if seed == 0 { 0x9e37_79b9 } else { seed };
    let mut draw = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
    };
    let mean_gap = 1.0 / rate_rps.max(1e-9);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            // Inverse-CDF exponential draw; clamp the uniform away from 0
            // so ln() stays finite.
            let u = draw().max(1e-12);
            t += -u.ln() * mean_gap;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// Runs one open-loop experiment. `send` is called with the request index
/// and must perform exactly one attempt, returning `Ok` on success;
/// failures are retried until the request's deadline. It receives a worker
/// slot id as the second argument so backends can keep one connection per
/// worker.
///
/// The closure is shared across worker threads, so it must be `Sync`;
/// per-worker mutable state belongs behind the slot id.
pub fn run_open_loop<F>(cfg: &OpenLoopConfig, send: F) -> OpenLoopReport
where
    F: Fn(usize, usize) -> std::io::Result<()> + Sync,
{
    let schedule = arrival_schedule(cfg.total, cfg.target_rps, cfg.seed);
    let offered_rps = if cfg.total > 1 {
        (cfg.total as f64 - 1.0) / schedule.last().map(|d| d.as_secs_f64()).unwrap_or(1.0)
    } else {
        cfg.target_rps
    };
    let next = AtomicUsize::new(0);
    let completed = AtomicU64::new(0);
    let failed_forever = AtomicU64::new(0);
    let retries = AtomicU64::new(0);
    let latencies = LogHistogram::new();
    let max_us = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for worker in 0..cfg.workers.max(1) {
            let (schedule, next) = (&schedule, &next);
            let (completed, failed_forever, retries) = (&completed, &failed_forever, &retries);
            let (latencies, max_us, send) = (&latencies, &max_us, &send);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&arrival) = schedule.get(i) else {
                    return;
                };
                // Open loop: wait for the scheduled arrival even if the
                // backend is drowning — never let its slowness thin the
                // offered load.
                let now = start.elapsed();
                if arrival > now {
                    std::thread::sleep(arrival - now);
                }
                let deadline = start + arrival + cfg.deadline;
                let mut attempts = 0u64;
                let ok = loop {
                    attempts += 1;
                    match send(i, worker) {
                        Ok(()) => break true,
                        Err(_) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break false,
                    }
                };
                retries.fetch_add(attempts - 1, Ordering::Relaxed);
                if ok {
                    // Latency from *scheduled arrival*: queueing delay a
                    // real user would see is part of the number.
                    let lat = start.elapsed().saturating_sub(arrival);
                    let us = lat.as_micros() as u64;
                    latencies.record(us);
                    max_us.fetch_max(us, Ordering::Relaxed);
                    completed.fetch_add(1, Ordering::Relaxed);
                } else {
                    failed_forever.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let elapsed = start.elapsed();
    let completed = completed.into_inner();
    OpenLoopReport {
        offered_rps,
        achieved_rps: completed as f64 / elapsed.as_secs_f64().max(1e-9),
        completed,
        failed_forever: failed_forever.into_inner(),
        retries: retries.into_inner(),
        p50_us: latencies.quantile(0.50),
        p95_us: latencies.quantile(0.95),
        p99_us: latencies.quantile(0.99),
        max_us: max_us.into_inner(),
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn schedule_is_seeded_poisson_at_the_target_rate() {
        let a = arrival_schedule(2000, 1000.0, 7);
        let b = arrival_schedule(2000, 1000.0, 7);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.windows(2).all(|w| w[0] < w[1]), "monotone arrivals");
        // 2000 arrivals at 1000 rps span ~2s; exponential gaps put the
        // total within a broad band around the mean.
        let span = a.last().unwrap().as_secs_f64();
        assert!((1.0..4.0).contains(&span), "span={span}");
        let c = arrival_schedule(100, 1000.0, 8);
        assert_ne!(a[..100], c[..], "different seed, different schedule");
    }

    #[test]
    fn open_loop_counts_successes_retries_and_permanent_failures() {
        let calls = AtomicU64::new(0);
        let cfg = OpenLoopConfig {
            target_rps: 10_000.0,
            total: 200,
            workers: 4,
            seed: 3,
            deadline: Duration::from_secs(5),
        };
        // Every 10th request fails once, then succeeds on retry.
        let report = run_open_loop(&cfg, |i, _worker| {
            let n = calls.fetch_add(1, Ordering::Relaxed);
            if i.is_multiple_of(10) && n.is_multiple_of(2) {
                Err(std::io::Error::other("flaky"))
            } else {
                Ok(())
            }
        });
        assert_eq!(report.completed + report.failed_forever, 200);
        assert_eq!(report.failed_forever, 0, "retries must absorb blips");
        assert!(report.retries > 0, "some requests must have retried");
        assert!(report.p99_us >= report.p50_us);
        assert!(report.offered_rps > 1000.0, "{}", report.offered_rps);

        // A backend that is down forever → every request fails forever.
        let cfg = OpenLoopConfig {
            target_rps: 10_000.0,
            total: 20,
            workers: 2,
            seed: 4,
            deadline: Duration::from_millis(20),
        };
        let report = run_open_loop(&cfg, |_, _| Err(std::io::Error::other("dead")));
        assert_eq!(report.completed, 0);
        assert_eq!(report.failed_forever, 20);
    }
}
