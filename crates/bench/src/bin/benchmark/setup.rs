//! Shared set-up: the database, the one sketch specification every
//! workload uses, JOB-light ground truth, and process-level readings.
//! Everything a workload does before its first measured operation is
//! counted in `setup_s`.

use std::sync::Arc;
use std::time::Instant;

use ds_bench::{bench_imdb, qerrors_against_truth, BENCH_SEED};
use ds_core::builder::{BuildProgress, BuildReport, SketchBuilder};
use ds_core::metrics::QErrorSummary;
use ds_core::sketch::DeepSketch;
use ds_est::oracle::TrueCardinalityOracle;
use ds_est::CardinalityEstimator;
use ds_query::query::Query;
use ds_query::workloads::imdb_predicate_columns;
use ds_query::workloads::job_light::job_light_workload;
use ds_storage::catalog::Database;

use crate::workload::{MAX_PREDICATES, MAX_TABLES};

/// The shared sketch, as the issue specifies it. `--smoke` trains a
/// fortieth of the queries for a third of the epochs.
fn builder(db: &Database, smoke: bool) -> SketchBuilder<'_> {
    let (queries, epochs) = if smoke { (100, 2) } else { (4000, 6) };
    SketchBuilder::new(db, imdb_predicate_columns(db))
        .training_queries(queries)
        .epochs(epochs)
        .sample_size(256)
        .hidden_units(256)
        .max_tables(MAX_TABLES)
        .max_predicates(MAX_PREDICATES)
        .seed(BENCH_SEED ^ 2)
}

/// The 70 JOB-light queries with their true cardinalities.
pub struct JobLight {
    pub queries: Vec<Query>,
    pub truths: Vec<f64>,
    pub oracle_s: f64,
}

pub fn job_light(db: &Database) -> JobLight {
    let queries = job_light_workload(db, BENCH_SEED);
    let t = Instant::now();
    let oracle = TrueCardinalityOracle::new(db);
    let truths = queries.iter().map(|q| oracle.estimate(q)).collect();
    JobLight {
        queries,
        truths,
        oracle_s: t.elapsed().as_secs_f64(),
    }
}

pub fn database() -> Arc<Database> {
    Arc::new(bench_imdb())
}

/// One "define a sketch and watch it train": the sketch, what building it
/// cost, and how it grades on JOB-light.
pub struct Built {
    pub sketch: DeepSketch,
    pub bytes: Vec<u8>,
    pub numbers: BuildNumbers,
}

/// A stretch of a build between two of the builder's progress events, the
/// only phase boundaries visible from outside: name and seconds.
pub type Segment = (&'static str, f64);

/// The numbers of one build.
#[derive(Debug, Clone, Default)]
pub struct BuildNumbers {
    pub build_s: f64,
    /// The build cut at every progress event: query generation, twenty
    /// chunks of label execution, every training epoch (the first carries
    /// the featurizer), and the rest (freezing). The spec is seeded, so
    /// segment `i` is the same work in every build.
    pub segments: Vec<Segment>,
    pub train_rows: f64,
    pub epoch_s: Vec<f64>,
    pub qerr_median: f64,
    pub qerr_p95: f64,
    pub sketch_bytes: f64,
    pub generate_s: f64,
    pub label_execute_s: f64,
    pub label_queries_per_s: f64,
    pub featurize_s: f64,
    pub train_s: f64,
    pub train_epoch_s: f64,
    pub freeze_s: f64,
    pub to_bytes_ms: f64,
    pub from_bytes_ms: f64,
}

/// `build_s` of a run: every segment at its fastest among the run's builds,
/// summed. A whole build is seconds long and no build escapes the host's
/// interference; a segment is 5 to 700 ms, and the same segment is rarely
/// hit in every build.
pub fn quiet_build_s(builds: &[BuildNumbers]) -> f64 {
    let first = &builds[0].segments;
    assert!(
        builds.iter().all(|b| b.segments.len() == first.len()),
        "builds of one seeded spec report the same progress events"
    );
    (0..first.len())
        .map(|i| {
            builds
                .iter()
                .map(|b| b.segments[i].1)
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// `train_rows_per_s` of a run: the rows of one epoch over the fastest
/// epoch among the run's builds.
pub fn quiet_train_rows_per_s(builds: &[BuildNumbers]) -> f64 {
    let fastest = builds
        .iter()
        .flat_map(|b| &b.epoch_s)
        .copied()
        .fold(f64::INFINITY, f64::min);
    builds[0].train_rows / fastest
}

/// Builds the shared sketch and grades it on JOB-light.
pub fn build(db: &Database, joblight: &JobLight, smoke: bool) -> Built {
    let t = Instant::now();
    let mut segments: Vec<Segment> = Vec::new();
    let mut mark = 0.0;
    let mut cut = |name: &'static str| {
        let now = t.elapsed().as_secs_f64();
        segments.push((name, now - mark));
        mark = now;
    };
    // Generated training queries are valid by construction; a build error
    // means the repo is broken, and the run ends without a result.
    let (sketch, report) = builder(db, smoke)
        .build_with_progress(&mut |event| {
            cut(match event {
                BuildProgress::QueriesGenerated { .. } => "build.generate",
                BuildProgress::LabelsExecuted { .. } => "build.label_execute",
                BuildProgress::EpochCompleted { .. } => "build.train_epoch",
            })
        })
        .expect("sketch build");
    cut("build.freeze");
    let build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let bytes = sketch.to_bytes();
    let to_bytes_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let reloaded = DeepSketch::from_bytes(&bytes);
    let from_bytes_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(reloaded);

    let qerrors = qerrors_against_truth(&sketch, &joblight.truths, &joblight.queries);
    let summary = QErrorSummary::from_qerrors(&qerrors);
    let numbers = numbers(&report, build_s, segments, &summary, bytes.len());
    Built {
        sketch,
        bytes,
        numbers: BuildNumbers {
            to_bytes_ms,
            from_bytes_ms,
            ..numbers
        },
    }
}

fn numbers(
    report: &BuildReport,
    build_s: f64,
    segments: Vec<Segment>,
    qerr: &QErrorSummary,
    sketch_bytes: usize,
) -> BuildNumbers {
    let training = &report.training;
    let train_s = training.total_duration.as_secs_f64();
    let epoch_s: Vec<f64> = training
        .epochs
        .iter()
        .map(|e| e.duration.as_secs_f64())
        .collect();
    let generate_s = report.generation.as_secs_f64();
    let label_execute_s = report.execution.as_secs_f64();
    let featurize_s = report.featurization.as_secs_f64();
    BuildNumbers {
        build_s,
        segments,
        train_rows: training.train_examples as f64,
        qerr_median: qerr.median,
        qerr_p95: qerr.p95,
        sketch_bytes: sketch_bytes as f64,
        generate_s,
        label_execute_s,
        label_queries_per_s: report.num_queries as f64 / label_execute_s,
        featurize_s,
        train_s,
        train_epoch_s: epoch_s.iter().sum::<f64>() / epoch_s.len().max(1) as f64,
        epoch_s,
        // What the report does not itemize: freezing the serving artifact
        // behind its accuracy gate, and measuring the footprint.
        freeze_s: (build_s - generate_s - label_execute_s - featurize_s - train_s).max(0.0),
        to_bytes_ms: 0.0,
        from_bytes_ms: 0.0,
    }
}

/// CPU time the whole process has used so far, in nanoseconds, threads
/// that have exited included (handler threads of closed connections do):
/// the C library's `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`, which std
/// links but does not expose. `/proc/self/stat` has the same sum in 10 ms
/// ticks, too coarse for the slices the timings are taken over.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::ffi::c_int, ts: *mut Timespec) -> std::ffi::c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux, the only platform the benchmark reads /proc on), and
    // clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_build_takes_every_segment_and_epoch_from_the_build_that_ran_it_fastest() {
        let build = |segments: [f64; 3], epoch_s: [f64; 2]| BuildNumbers {
            segments: ["build.generate", "build.train_epoch", "build.freeze"]
                .into_iter()
                .zip(segments)
                .collect(),
            epoch_s: epoch_s.to_vec(),
            train_rows: 3600.0,
            ..BuildNumbers::default()
        };
        let builds = [
            build([1.0, 5.0, 0.5], [2.5, 2.4]),
            build([2.0, 3.0, 0.25], [1.5, 1.6]),
        ];
        assert_eq!(quiet_build_s(&builds), 1.0 + 3.0 + 0.25);
        assert_eq!(quiet_train_rows_per_s(&builds), 3600.0 / 1.5);
        assert_eq!(quiet_build_s(&builds[..1]), 6.5);
    }
}
