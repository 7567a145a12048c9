//! What the four workloads share: the options of a run, its outcome, the
//! round loop with its CPU accounting, and the metrics derived from rounds
//! and builds. All loops are closed: a client sends its next request only
//! when the previous one returned.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::setup::{self, BuildNumbers};
use crate::stats::{median, percentile, Percentile};
use crate::trace::{self, Span};

pub const WORKLOADS: [&str; 4] = ["adhoc_wire", "hot_wire", "embedded_batch", "sketch_build"];

/// Timed rounds per run on the three estimate workloads; a shorter one runs
/// first, untimed.
pub const TIMED_ROUNDS: usize = 6;

/// The traced run alternates this many untraced and traced rounds, so a
/// change of the host's mood between the two does not pass for overhead.
pub const TRACE_ROUNDS: usize = 3;

/// Spans per name written to the trace file, earliest first; all spans
/// stay in memory and count towards the self-time table.
const TRACE_FILE_SPANS_PER_NAME: usize = 4000;

#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Opts {
    pub fn round_secs(&self) -> f64 {
        self.seconds / TIMED_ROUNDS as f64
    }

    /// Length of the untimed first round: caches fill and lazy set-up
    /// finishes within a second (`hot_wire` stays until its pool is cached).
    pub fn warmup_secs(&self) -> f64 {
        self.round_secs().min(1.0)
    }
}

/// A correctness check: failing one makes the run incorrect, unless it is
/// `advisory`, which prints `DRIFT` and leaves the verdict alone.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub pass: bool,
    pub advisory: bool,
    pub detail: String,
}

pub fn check(name: &'static str, pass: bool, detail: String) -> Check {
    Check {
        name,
        pass,
        advisory: false,
        detail,
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Lines for the human reader: sample counts, the budget table.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

pub fn run(workload: &str, opts: &Opts) -> Outcome {
    match workload {
        "adhoc_wire" => crate::wire::run(workload, false, opts),
        "hot_wire" => crate::wire::run(workload, true, opts),
        "embedded_batch" => crate::embedded::run(workload, opts),
        "sketch_build" => crate::sketch_build::run(workload, opts),
        other => panic!("unknown workload '{other}'"),
    }
}

// ---------------------------------------------------------------------
// Rounds and slices

/// Width of a slice of a round: eight hundred `hot_wire` requests, twenty-five
/// of `adhoc_wire`.
const SLICE_NS: u64 = 10_000_000;

/// Share of a run's slices, fastest first, that the timings are taken over.
/// The host only ever adds time, in bursts and in moods that last minutes
/// and slow a request by a third; even then some hundredths of a second run
/// at the program's own speed, and those are what repeats from run to run
/// (README.md, "The host"). Two percent of an 18 s run are 36 slices.
const QUIET_SHARE: f64 = 0.02;

/// One client's share of one round.
#[derive(Debug)]
pub struct RoundLog {
    /// Estimates completed; one latency sample may cover several.
    pub estimates: u64,
    pub failed: u64,
    /// When each sample completed, in ns since this client began the round.
    /// The loop is closed, so a sample's latency is its distance to the one
    /// before.
    done_ns: Vec<u64>,
    /// Lead client only: (ns since it began the round, CPU ns the process
    /// has used), taken at the first completion after every `SLICE_NS`.
    /// Two neighbouring marks bound a slice.
    marks: Vec<(u64, u64)>,
    start: Instant,
    next_mark: Option<u64>,
}

impl RoundLog {
    /// Starts the clock. Clients start together (a barrier), so the lead's
    /// marks cut every client's samples at the same moments to within the
    /// time it takes threads to leave the barrier.
    pub fn begin(lead: bool) -> Self {
        Self {
            estimates: 0,
            failed: 0,
            done_ns: Vec::new(),
            marks: if lead {
                vec![(0, setup::process_cpu_ns())]
            } else {
                Vec::new()
            },
            start: Instant::now(),
            next_mark: lead.then_some(SLICE_NS),
        }
    }

    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Records that one sample completed now.
    pub fn sample(&mut self) {
        let now = self.start.elapsed().as_nanos() as u64;
        self.done_ns.push(now);
        if self.next_mark.is_some_and(|at| now >= at) {
            self.marks.push((now, setup::process_cpu_ns()));
            self.next_mark = Some(now + SLICE_NS);
        }
    }
}

/// One round over all clients.
pub struct Round {
    pub logs: Vec<RoundLog>,
}

/// What all clients completed between two marks of the lead.
struct Slice {
    wall_ns: u64,
    cpu_ns: u64,
    latencies_ns: Vec<u64>,
}

impl Slice {
    fn samples_per_ns(&self) -> f64 {
        self.latencies_ns.len() as f64 / self.wall_ns as f64
    }
}

impl Round {
    pub fn single(log: RoundLog) -> Self {
        Self { logs: vec![log] }
    }

    fn estimates(&self) -> u64 {
        self.logs.iter().map(|l| l.estimates).sum()
    }

    pub fn attempted(&self) -> u64 {
        self.estimates() + self.failed()
    }

    fn failed(&self) -> u64 {
        self.logs.iter().map(|l| l.failed).sum()
    }

    fn slices(&self) -> Vec<Slice> {
        let marks = self.logs.iter().find(|l| !l.marks.is_empty());
        let marks = marks.map_or(&[][..], |l| &l.marks);
        marks
            .windows(2)
            .map(|w| {
                let ((from, cpu_from), (to, cpu_to)) = (w[0], w[1]);
                let mut latencies_ns = Vec::new();
                for log in &self.logs {
                    let done = &log.done_ns;
                    let lo = done.partition_point(|&d| d <= from);
                    let hi = done.partition_point(|&d| d <= to);
                    latencies_ns.extend((lo..hi).map(|i| match i {
                        0 => done[0],
                        _ => done[i] - done[i - 1],
                    }));
                }
                Slice {
                    wall_ns: to - from,
                    cpu_ns: cpu_to - cpu_from,
                    latencies_ns,
                }
            })
            .collect()
    }
}

/// Something that can run one time-bounded round on its own thread. The
/// lead client (one per round) also takes the slice marks.
pub trait RoundClient: Send {
    fn round(&mut self, secs: f64, lead: bool) -> RoundLog;
}

/// Runs one round of `secs` seconds, every client on a thread of its own,
/// started together.
pub fn run_round<C: RoundClient>(clients: &mut [C], secs: f64) -> Round {
    let start = Barrier::new(clients.len());
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    client.round(secs, c == 0)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    Round { logs }
}

/// Per-estimate timings over a set of slices.
pub struct Timings {
    pub estimates_per_s: f64,
    pub p50_us: f64,
    pub p99: Percentile,
    pub cpu_us_per_estimate: f64,
}

impl Timings {
    /// `per_sample` is the estimates one latency sample covers: one on the
    /// wire, 64 in `embedded_batch`.
    fn of(slices: &[Slice], per_sample: f64) -> Self {
        let sum = |f: fn(&Slice) -> u64| slices.iter().map(f).sum::<u64>() as f64;
        let estimates = sum(|s| s.latencies_ns.len() as u64) * per_sample;
        let mut latencies_us: Vec<f64> = slices
            .iter()
            .flat_map(|s| s.latencies_ns.iter().map(|&ns| ns as f64 / 1e3))
            .collect();
        latencies_us.sort_by(f64::total_cmp);
        Self {
            estimates_per_s: estimates / (sum(|s| s.wall_ns) / 1e9),
            p50_us: percentile(&latencies_us, 0.50).value,
            p99: percentile(&latencies_us, 0.99),
            cpu_us_per_estimate: sum(|s| s.cpu_ns) / 1e3 / estimates,
        }
    }
}

/// The timings of a set of rounds: over the quiet share of their slices,
/// which is what the end-to-end metrics report, and over all of them.
pub struct RunTimings {
    pub quiet: Timings,
    pub all: Timings,
    /// Slices the rounds were cut into, and how many of them are quiet.
    pub slices: (usize, usize),
}

pub fn timings(rounds: &[Round]) -> RunTimings {
    let mut slices: Vec<Slice> = rounds.iter().flat_map(Round::slices).collect();
    assert!(
        !slices.is_empty(),
        "no round lasted long enough to cut one slice of {SLICE_NS} ns"
    );
    let samples: usize = rounds
        .iter()
        .flat_map(|r| &r.logs)
        .map(|l| l.done_ns.len())
        .sum();
    let per_sample = rounds.iter().map(Round::estimates).sum::<u64>() as f64 / samples as f64;
    slices.sort_by(|a, b| b.samples_per_ns().total_cmp(&a.samples_per_ns()));
    let quiet = ((slices.len() as f64 * QUIET_SHARE).ceil() as usize).max(1);
    RunTimings {
        quiet: Timings::of(&slices[..quiet], per_sample),
        all: Timings::of(&slices, per_sample),
        slices: (slices.len(), quiet),
    }
}

/// Writes the three per-estimate end-to-end metrics and a note with the
/// evidence behind them.
pub fn estimate_metrics(out: &mut Outcome, rounds: &[Round], what: &str) {
    let t = timings(rounds);
    out.put("estimates_per_s", t.quiet.estimates_per_s);
    out.put("p50_us", t.quiet.p50_us);
    out.put("cpu_us_per_estimate", t.quiet.cpu_us_per_estimate);
    out.notes.push(format!(
        "latency is per {what}; {} rounds cut into {} slices of {} ms, timings over the {} fastest \
         ({} samples; p99 {:.3} us with {} beyond)",
        rounds.len(),
        t.slices.0,
        SLICE_NS / 1_000_000,
        t.slices.1,
        t.quiet.p99.samples,
        t.quiet.p99.value,
        t.quiet.p99.beyond,
    ));
    out.notes.push(format!(
        "all slices together: {:.1} estimates/s, p50 {:.3} us, p99 {:.3} us ({} samples, {} beyond), \
         {:.3} us CPU per estimate",
        t.all.estimates_per_s,
        t.all.p50_us,
        t.all.p99.value,
        t.all.p99.samples,
        t.all.p99.beyond,
        t.all.cpu_us_per_estimate
    ));
}

pub fn count_ops(out: &mut Outcome, rounds: &[Round]) {
    out.attempted += rounds.iter().map(Round::attempted).sum::<u64>();
    out.failed += rounds.iter().map(Round::failed).sum::<u64>();
}

pub fn plausible(v: f64) -> bool {
    v.is_finite() && v >= 1.0
}

// ---------------------------------------------------------------------
// Builds

/// JOB-light median q-error of the full sketch when this benchmark was
/// committed (also in baseline.md). The spec and JOB-light are seeded, so
/// an unchanged tree repeats it to the last digit.
const RECORDED_QERR_MEDIAN: f64 = 3.225_380_426_385_098_3;

/// What the run's builds say: accuracy and footprint for the end-to-end
/// metrics (seeded, the same from every build), or in the traced run the
/// build rows of the per-layer table, medians of what each build's report
/// says plus the two timings composed of the builds' fastest segments.
pub fn build_metrics(out: &mut Outcome, builds: &[BuildNumbers], opts: &Opts) {
    let med = |f: fn(&BuildNumbers) -> f64| median(&builds.iter().map(f).collect::<Vec<_>>());
    if opts.trace {
        out.put("core.build_generate_s", med(|b| b.generate_s));
        out.put("storage.label_execute_s", med(|b| b.label_execute_s));
        out.put(
            "storage.label_queries_per_s",
            med(|b| b.label_queries_per_s),
        );
        out.put("core.build_featurize_s", med(|b| b.featurize_s));
        out.put("core.train_s", med(|b| b.train_s));
        out.put("core.train_epoch_s", med(|b| b.train_epoch_s));
        out.put("core.freeze_s", med(|b| b.freeze_s));
        out.put("core.to_bytes_ms", med(|b| b.to_bytes_ms));
        out.put("core.from_bytes_ms", med(|b| b.from_bytes_ms));
        out.put("build_s", setup::quiet_build_s(builds));
        out.put("train_rows_per_s", setup::quiet_train_rows_per_s(builds));
    } else {
        out.put("joblight_qerr_median", med(|b| b.qerr_median));
        out.put("joblight_qerr_p95", med(|b| b.qerr_p95));
        out.put("sketch_bytes", med(|b| b.sketch_bytes));
    }
    let whole: Vec<String> = builds.iter().map(|b| format!("{:.3}", b.build_s)).collect();
    out.notes.push(format!(
        "{} builds took {} s; every segment at its fastest among them: {:.3} s",
        builds.len(),
        whole.join(" "),
        setup::quiet_build_s(builds)
    ));
    if !opts.smoke {
        // Advisory: a later change may move accuracy on purpose and may not
        // edit the benchmark, so drift is shown exactly and gated by the
        // bound on the metric, not by this line.
        let measured = med(|b| b.qerr_median);
        out.checks.push(Check {
            advisory: true,
            ..check(
                "joblight_qerr_median_as_recorded",
                (measured - RECORDED_QERR_MEDIAN).abs() <= 1e-9,
                format!(
                    "measured {measured:.9}, recorded {RECORDED_QERR_MEDIAN:.9}, difference {:e}",
                    measured - RECORDED_QERR_MEDIAN
                ),
            )
        });
    }
}

/// Overhead of the traced rounds, the self-time table, and the trace file.
pub fn finish_trace(
    out: &mut Outcome,
    workload: &str,
    untraced: &[Round],
    traced: &[Round],
    spans: &[Span],
) {
    let t = timings(untraced);
    out.put("p99_us", t.quiet.p99.value);
    out.put("all.estimates_per_s", t.all.estimates_per_s);
    out.put("all.p50_us", t.all.p50_us);
    out.put("all.p99_us", t.all.p99.value);
    let (plain, with_trace) = (
        t.quiet.estimates_per_s,
        timings(traced).quiet.estimates_per_s,
    );
    out.put("trace.overhead_pct", (plain - with_trace) / plain * 100.0);
    out.notes.push(format!(
        "traced rounds: {with_trace:.1} estimates/s against {plain:.1} untraced \
         ({} alternating rounds each, quiet slices of both)",
        untraced.len()
    ));
    out.notes.push(format!(
        "{:<28} {:>9} {:>14} {:>14}",
        "span", "count", "mean_us", "mean_self_us"
    ));
    for (name, t) in trace::totals_by_name(spans) {
        out.notes.push(format!(
            "{name:<28} {:>9} {:>14.3} {:>14.3}",
            t.count,
            t.total_ns as f64 / 1e3 / t.count as f64,
            t.self_ns as f64 / 1e3 / t.count as f64
        ));
    }
    let path = std::path::Path::new("target/benchmark").join(format!("trace-{workload}.json"));
    let mut by_start: Vec<&Span> = spans.iter().collect();
    by_start.sort_by_key(|s| s.start_ns);
    let mut seen: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    let kept: Vec<&Span> = by_start
        .into_iter()
        .filter(|s| {
            let n = seen.entry(s.name).or_default();
            *n += 1;
            *n <= TRACE_FILE_SPANS_PER_NAME
        })
        .collect();
    match trace::write_json(&path, workload, &kept) {
        Ok(()) => out.notes.push(format!(
            "wrote {} of {} spans to {}",
            kept.len(),
            spans.len(),
            path.display()
        )),
        Err(e) => out
            .checks
            .push(check("trace_file_written", false, e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(estimates: u64, done_ns: Vec<u64>, marks: Vec<(u64, u64)>) -> RoundLog {
        RoundLog {
            estimates,
            failed: 0,
            done_ns,
            marks,
            start: Instant::now(),
            next_mark: None,
        }
    }

    #[test]
    fn slices_cut_every_client_at_the_leads_marks() {
        let lead = log(4, vec![4, 10, 15, 21], vec![(0, 100), (10, 130), (21, 190)]);
        let other = log(3, vec![6, 12, 30], Vec::new());
        let slices = Round {
            logs: vec![lead, other],
        }
        .slices();
        assert_eq!(slices.len(), 2);
        assert_eq!((slices[0].wall_ns, slices[0].cpu_ns), (10, 30));
        // A sample belongs to the slice it completed in and keeps its whole
        // latency; the first one of a client is timed from the round's start.
        assert_eq!(slices[0].latencies_ns, [4, 6, 6]);
        assert_eq!((slices[1].wall_ns, slices[1].cpu_ns), (11, 60));
        assert_eq!(slices[1].latencies_ns, [5, 6, 6]);
    }

    #[test]
    fn timings_come_from_the_fastest_slices_and_from_all() {
        // 100 slices of 1000 ns: two hold ten samples of 100 ns, the others
        // five of 200 ns. One sample covers two estimates.
        let mut done = Vec::new();
        let mut marks = vec![(0, 0)];
        for slice in 0..100u64 {
            let n = if slice == 40 || slice == 41 { 10 } else { 5 };
            done.extend((1..=n).map(|i| slice * 1000 + i * 1000 / n));
            marks.push(((slice + 1) * 1000, (slice + 1) * 500));
        }
        let samples = done.len() as u64;
        let t = timings(&[Round::single(log(2 * samples, done, marks))]);
        assert_eq!(t.slices, (100, 2));
        assert_eq!(t.quiet.estimates_per_s, 2.0 * 20.0 / 2000e-9);
        assert_eq!(t.quiet.p50_us, 0.1);
        assert_eq!(t.quiet.cpu_us_per_estimate, 1.0 / 40.0);
        assert_eq!(t.all.estimates_per_s, 2.0 * samples as f64 / 100_000e-9);
        assert_eq!(t.all.p50_us, 0.2);
        assert_eq!((t.all.p99.samples, t.all.p99.beyond), (510, 0));
    }
}
