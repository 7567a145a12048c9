//! `sketch_build`: define the issue's sketch, train it, grade it on
//! JOB-light, then estimate with it.

use std::time::Instant;

use ds_core::sketch::DeepSketch;
use ds_storage::catalog::Database;

use crate::layers;
use crate::run::{
    build_metrics, check, count_ops, estimate_metrics, finish_trace, plausible, Opts, Outcome,
    Round, RoundLog, TRACE_ROUNDS,
};
use crate::setup::{self, BuildNumbers, Built, JobLight};
use crate::trace::Recorder;
use crate::workload::{query_stream, StreamQuery};

/// Single estimates timed after each build: more than a second of them,
/// so every round adds some twenty slices to the run's timings.
const BUILD_ESTIMATES: usize = 16_384;

/// Builds the sketch; with a recorder, turns the build's segments into
/// spans under one `build` root.
fn build_once(
    db: &Database,
    joblight: &JobLight,
    smoke: bool,
    rec: Option<&mut Recorder>,
) -> Built {
    let Some(rec) = rec else {
        return setup::build(db, joblight, smoke);
    };
    let root = rec.open();
    let start = rec.now();
    let built = setup::build(db, joblight, smoke);
    let mut mark = start;
    for &(name, seconds) in &built.numbers.segments {
        let end = mark + (seconds * 1e9) as u64;
        let id = rec.open();
        rec.close(id, root, 0, name, mark, end);
        mark = end;
    }
    rec.close(root, 0, 0, "build", start, mark);
    built
}

/// `BUILD_ESTIMATES` single estimates on one thread, each timed.
fn estimate_phase(
    sketch: &DeepSketch,
    stream: &[StreamQuery],
    mut rec: Option<&mut Recorder>,
) -> Round {
    let mut log = RoundLog::begin(true);
    for (i, q) in stream.iter().enumerate() {
        let v = match rec.as_deref_mut() {
            Some(rec) => {
                rec.child(0, i as u32, "build.estimate_one", || {
                    sketch.estimate_one(&q.query)
                })
                .0
            }
            None => sketch.estimate_one(&q.query),
        };
        log.sample();
        if plausible(v) {
            log.estimates += 1;
        } else {
            log.failed += 1;
        }
    }
    Round::single(log)
}

pub fn run(workload: &str, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let t = Instant::now();
    let db = setup::database();
    let joblight = setup::job_light(&db);
    let stream = query_stream(&db, opts.seed, BUILD_ESTIMATES);

    // Every build's numbers, the first one's bytes, and how many later
    // builds serialized differently: the spec is seeded.
    let mut numbers: Vec<BuildNumbers> = Vec::new();
    let mut first_bytes: Option<Vec<u8>> = None;
    let mut differing = 0;
    let mut last_sketch = None;
    // One round: define the sketch, train it, then estimate with it. A
    // build counts as one operation, each estimate as another.
    let mut round = |out: &mut Outcome, mut rec: Option<&mut Recorder>| -> Round {
        out.attempted += 1;
        let built = build_once(&db, &joblight, opts.smoke, rec.as_deref_mut());
        numbers.push(built.numbers);
        differing +=
            usize::from(*first_bytes.get_or_insert_with(|| built.bytes.clone()) != built.bytes);
        let r = estimate_phase(&built.sketch, &stream, rec);
        count_ops(out, std::slice::from_ref(&r));
        last_sketch = Some(built.sketch);
        r
    };

    // A warm-up round ends the set-up: the first build pays for cold memory
    // and lazy initialisation that later ones do not. It counts towards the
    // determinism check only. Then rounds until the time is used: at least
    // three, and no new one that would overshoot by more than half a round.
    round(&mut out, None);
    let setup_s = t.elapsed().as_secs_f64();
    let mut rounds: Vec<Round> = Vec::new();
    let start = Instant::now();
    let planned = if opts.trace { 1 } else { usize::MAX };
    while rounds.len() < planned {
        let elapsed = start.elapsed().as_secs_f64();
        let mean = elapsed / rounds.len().max(1) as f64;
        if rounds.len() >= 3 && elapsed + mean / 2.0 > opts.seconds {
            break;
        }
        rounds.push(round(&mut out, None));
    }
    let peak_rss_mb = setup::peak_rss_mb();
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, 1 << 26);
    let traced = opts.trace.then(|| {
        ds_obs::global().enable();
        let traced = round(&mut out, Some(&mut rec));
        ds_obs::global().disable();
        traced
    });
    out.checks.push(check(
        "build_repeats_exactly",
        differing == 0,
        format!(
            "{} builds of the seeded spec, {differing} serialized to other bytes than the first",
            numbers.len()
        ),
    ));
    numbers.remove(0);

    let Some(traced) = traced else {
        out.put("setup_s", setup_s);
        estimate_metrics(
            &mut out,
            &rounds,
            "estimate_one call on the sketch just built, one thread",
        );
        build_metrics(&mut out, &numbers, opts);
        out.put("peak_rss_mb", peak_rss_mb);
        return out;
    };
    let sketch = last_sketch.expect("a build succeeded");
    // More estimate phases on the last sketch, untraced and traced in
    // turn, so the overhead does not rest on one pair of phases.
    let mut traced = vec![traced];
    for _ in 1..TRACE_ROUNDS {
        rounds.push(estimate_phase(&sketch, &stream, None));
        ds_obs::global().enable();
        traced.push(estimate_phase(&sketch, &stream, Some(&mut rec)));
        ds_obs::global().disable();
    }
    count_ops(&mut out, &rounds[1..]);
    count_ops(&mut out, &traced[1..]);
    let mut spans = rec.spans;
    spans.append(&mut layers::replay(
        &mut out,
        &db,
        &sketch,
        &stream,
        None,
        opts.seconds / 3.0,
        epoch,
    ));
    out.put("est.oracle_joblight_s", joblight.oracle_s);
    build_metrics(&mut out, &numbers, opts);
    finish_trace(&mut out, workload, &rounds, &traced, &spans);
    out
}
