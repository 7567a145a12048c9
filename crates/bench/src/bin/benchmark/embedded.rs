//! `embedded_batch`: no sockets, one thread, `DeepSketch::estimate_batch`
//! over 64 pre-parsed queries per call.

use std::time::{Duration, Instant};

use ds_core::sketch::DeepSketch;
use ds_query::query::Query;

use crate::layers;
use crate::run::{
    build_metrics, check, count_ops, estimate_metrics, finish_trace, plausible, run_round, Opts,
    Outcome, RoundClient, RoundLog, TIMED_ROUNDS, TRACE_ROUNDS,
};
use crate::setup;
use crate::trace::Recorder;
use crate::workload::{client_count, query_stream, EMBEDDED_BATCH};

/// Distinct batches the workload cycles through.
const EMBEDDED_BATCHES: usize = 256;

/// One thread calling `estimate_batch` on 64 pre-parsed queries at a time,
/// cycling through a fixed set of distinct batches.
struct EmbeddedClient<'a> {
    sketch: &'a DeepSketch,
    batches: &'a [Vec<Query>],
    cursor: usize,
    /// First result seen per batch, for the looped-`estimate_one` check.
    results: Vec<Option<Vec<f64>>>,
    /// Records a span per call while `tracing` (the traced rounds only).
    rec: Recorder,
    tracing: bool,
}

impl RoundClient for EmbeddedClient<'_> {
    fn round(&mut self, secs: f64, lead: bool) -> RoundLog {
        let mut log = RoundLog::begin(lead);
        let length = Duration::from_secs_f64(secs);
        while log.elapsed() < length {
            let b = self.cursor % self.batches.len();
            self.cursor += 1;
            let batch = &self.batches[b];
            let estimates = if self.tracing {
                let sketch = self.sketch;
                self.rec
                    .child(0, b as u32, "embedded.estimate_batch", || {
                        sketch.estimate_batch(batch)
                    })
                    .0
            } else {
                self.sketch.estimate_batch(batch)
            };
            log.sample();
            let good = estimates.iter().filter(|&&v| plausible(v)).count() as u64;
            log.estimates += good;
            log.failed += estimates.len() as u64 - good;
            self.results[b].get_or_insert(estimates);
        }
        log
    }
}

pub fn run(workload: &str, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let t = Instant::now();
    let db = setup::database();
    let joblight = setup::job_light(&db);
    let built = setup::build(&db, &joblight, opts.smoke);
    let stream = query_stream(&db, opts.seed, EMBEDDED_BATCHES * EMBEDDED_BATCH);
    let setup_s = t.elapsed().as_secs_f64();
    let sketch = built.sketch;
    let batches: Vec<Vec<_>> = stream
        .chunks(EMBEDDED_BATCH)
        .map(|c| c.iter().map(|q| q.query.clone()).collect())
        .collect();
    let epoch = Instant::now();
    let mut client = [EmbeddedClient {
        sketch: &sketch,
        batches: &batches,
        cursor: 0,
        results: vec![None; batches.len()],
        rec: Recorder::new(epoch, 1 << 26),
        tracing: false,
    }];
    let secs = opts.round_secs();
    let warmup = run_round(&mut client, opts.warmup_secs());
    let mut traced = Vec::new();
    let rounds: Vec<_> = if opts.trace {
        (0..TRACE_ROUNDS)
            .map(|_| {
                let untraced = run_round(&mut client, secs);
                ds_obs::global().enable();
                client[0].tracing = true;
                traced.push(run_round(&mut client, secs));
                client[0].tracing = false;
                ds_obs::global().disable();
                untraced
            })
            .collect()
    } else {
        (0..TIMED_ROUNDS)
            .map(|_| run_round(&mut client, secs))
            .collect()
    };
    let peak_rss_mb = setup::peak_rss_mb();
    count_ops(&mut out, std::slice::from_ref(&warmup));
    count_ops(&mut out, &rounds);
    count_ops(&mut out, &traced);

    // Looped estimate_one over every batch the run touched.
    let [client] = client;
    let covered: Vec<(&Vec<_>, &Vec<f64>)> = batches
        .iter()
        .zip(&client.results)
        .filter_map(|(b, r)| Some((b, r.as_ref()?)))
        .collect();
    let threads = client_count();
    let mismatches: usize = std::thread::scope(|s| {
        let sketch = &sketch;
        let handles: Vec<_> = covered
            .chunks(covered.len().div_ceil(threads).max(1))
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .flat_map(|(batch, got)| batch.iter().zip(got.iter()))
                        .filter(|(q, &got)| sketch.estimate_one(q).to_bits() != got.to_bits())
                        .count()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread"))
            .sum()
    });
    out.checks.push(check(
        "batch_equals_looped_estimate_one",
        mismatches == 0,
        format!(
            "{} distinct batches of {EMBEDDED_BATCH} compared, {mismatches} estimates differ",
            covered.len()
        ),
    ));

    if opts.trace {
        let mut spans = client.rec.spans;
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
        build_metrics(&mut out, &[built.numbers], opts);
        finish_trace(&mut out, workload, &rounds, &traced, &spans);
    } else {
        out.put("setup_s", setup_s);
        estimate_metrics(
            &mut out,
            &rounds,
            &format!("estimate_batch({EMBEDDED_BATCH}) call, one thread"),
        );
        build_metrics(&mut out, &[built.numbers], opts);
        out.put("peak_rss_mb", peak_rss_mb);
    }
    out
}
