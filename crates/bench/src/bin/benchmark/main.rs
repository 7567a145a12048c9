//! The repo's benchmark: four closed-loop workloads (three of them in
//! BENCHMARK.json), eight end-to-end metrics with fixed regression bounds,
//! and a traced run that fills the per-layer table. See README.md beside
//! this file for the glossary.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark --all [--smoke] [--repeat <n>] [--seed <n>] [--trace <0|1>]
//! ```
//!
//! One workload runs in this process and ends with one JSON line. `--all`
//! and `--repeat` re-execute this binary once per workload and run, so
//! `setup_s` and `peak_rss_mb` belong to one workload each.

mod embedded;
mod layers;
mod run;
mod setup;
mod sketch_build;
mod stats;
mod trace;
mod wire;
mod workload;

use std::process::{Command, ExitCode, Stdio};

use ds_obs::JsonValue;

use run::{Opts, Outcome, WORKLOADS};

/// Seconds one run measures when `--seconds` is not given; `run_seconds`
/// in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 18.0;
const SMOKE_SECONDS: f64 = 1.2;

/// One metric of BENCHMARK.json. `bound` is the share of the parent's
/// median by which an end-to-end metric may worsen; per-layer metrics
/// have none.
struct Metric {
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    bound: f64,
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better,
        bound,
    }
}

const END_TO_END: &[Metric] = &[
    metric("setup_s", "s", true, 0.25),
    metric("estimates_per_s", "1/s", false, 0.25),
    metric("p50_us", "us", true, 0.25),
    metric("cpu_us_per_estimate", "us", true, 0.25),
    metric("joblight_qerr_median", "ratio", true, 0.05),
    metric("joblight_qerr_p95", "ratio", true, 0.05),
    metric("sketch_bytes", "B", true, 0.02),
    metric("peak_rss_mb", "MB", true, 0.10),
];

const PER_LAYER: &[Metric] = &[
    metric("p99_us", "us", true, 0.0),
    metric("all.estimates_per_s", "1/s", false, 0.0),
    metric("all.p50_us", "us", true, 0.0),
    metric("all.p99_us", "us", true, 0.0),
    metric("build_s", "s", true, 0.0),
    metric("train_rows_per_s", "1/s", false, 0.0),
    metric("query.parse_us", "us", true, 0.0),
    metric("query.sqlgen_us", "us", true, 0.0),
    metric("serve.parse_request_us", "us", true, 0.0),
    metric("serve.format_response_us", "us", true, 0.0),
    metric("serve.format_request_us", "us", true, 0.0),
    metric("serve.parse_response_us", "us", true, 0.0),
    metric("serve.cache_key_us", "us", true, 0.0),
    metric("serve.cache_hit_us", "us", true, 0.0),
    metric("serve.cache_miss_us", "us", true, 0.0),
    metric("serve.cache_insert_evict_us", "us", true, 0.0),
    metric("serve.cache_hits", "count", false, 0.0),
    metric("serve.cache_misses", "count", true, 0.0),
    metric("serve.cache_evictions", "count", true, 0.0),
    metric("serve.cache_hit_share", "ratio", false, 0.0),
    metric("serve.batcher_roundtrip_us", "us", true, 0.0),
    metric("serve.batcher_handoff_us", "us", true, 0.0),
    metric("serve.batches", "count", true, 0.0),
    metric("serve.mean_batch", "count", false, 0.0),
    metric("serve.max_batch", "count", false, 0.0),
    metric("serve.shed", "count", true, 0.0),
    metric("serve.timeouts", "count", true, 0.0),
    metric("serve.errors", "count", true, 0.0),
    metric("serve.stage_parse_us", "us", true, 0.0),
    metric("serve.stage_queue_us", "us", true, 0.0),
    metric("serve.stage_batch_wait_us", "us", true, 0.0),
    metric("serve.stage_forward_us", "us", true, 0.0),
    metric("serve.stage_write_us", "us", true, 0.0),
    metric("wire.loopback_rtt_us", "us", true, 0.0),
    metric("core.validate_us", "us", true, 0.0),
    metric("core.featurize_us", "us", true, 0.0),
    metric("core.estimate_one_us", "us", true, 0.0),
    metric("core.try_estimate_batch1_us", "us", true, 0.0),
    metric("core.estimate_batch64_us_per_query", "us", true, 0.0),
    metric("nn.frozen_forward_us", "us", true, 0.0),
    metric("nn.frozen_flops_per_query", "count", true, 0.0),
    metric("nn.frozen_bytes_per_query", "B", true, 0.0),
    metric("core.build_generate_s", "s", true, 0.0),
    metric("storage.label_execute_s", "s", true, 0.0),
    metric("storage.label_queries_per_s", "1/s", false, 0.0),
    metric("core.build_featurize_s", "s", true, 0.0),
    metric("core.train_s", "s", true, 0.0),
    metric("core.train_epoch_s", "s", true, 0.0),
    metric("core.freeze_s", "s", true, 0.0),
    metric("core.to_bytes_ms", "ms", true, 0.0),
    metric("core.from_bytes_ms", "ms", true, 0.0),
    metric("est.oracle_joblight_s", "s", true, 0.0),
    metric("obs.hist_record_ns", "ns", true, 0.0),
    metric("obs.stats_scrape_us", "us", true, 0.0),
    metric("wire.budget_sum_us", "us", true, 0.0),
    metric("wire.residual_us", "us", true, 0.0),
    metric("trace.overhead_pct", "%", true, 0.0),
];

struct Cli {
    workloads: Vec<String>,
    all: bool,
    repeat: usize,
    opts: Opts,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        all: false,
        repeat: 1,
        opts: Opts {
            seed: 1,
            seconds: 0.0,
            trace: false,
            smoke: false,
        },
    };
    let mut it = args.iter().peekable();
    let value = |flag: &str, v: Option<&String>| v.cloned().ok_or(format!("{flag} needs a value"));
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let name = value(arg, it.next())?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload '{name}'; one of {WORKLOADS:?}"));
                }
                cli.workloads.push(name);
            }
            "--all" => cli.all = true,
            "--smoke" => cli.opts.smoke = true,
            "--seed" => {
                cli.opts.seed = value(arg, it.next())?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.opts.seconds = value(arg, it.next())?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--repeat" => {
                cli.repeat = value(arg, it.next())?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => {
                cli.opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if cli.opts.seconds <= 0.0 {
        cli.opts.seconds = if cli.opts.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        };
    }
    if cli.all {
        cli.workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    if cli.workloads.is_empty() {
        return Err("name a workload with --workload, or pass --all".to_string());
    }
    if cli.repeat == 0 {
        return Err("--repeat needs at least 1".to_string());
    }
    Ok(cli)
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric '{name}' is not in the tables"))
        .unit
}

/// Prints one workload's rows, notes and checks, then the JSON line the
/// driver reads. Returns whether the run was correct and nothing failed.
fn report(workload: &str, opts: &Opts, outcome: &Outcome) -> bool {
    let expected = if opts.trace { PER_LAYER } else { END_TO_END };
    for m in expected {
        assert!(
            outcome.metrics.iter().any(|(name, _)| *name == m.name),
            "{workload} did not report {}",
            m.name
        );
    }
    for (name, value) in &outcome.metrics {
        println!("{workload} {name} {value} {}", unit_of(name));
    }
    // 0 of 0 prints as NaN; the run is then incorrect (below).
    let share = outcome.failed as f64 / outcome.attempted as f64;
    println!(
        "{workload} failed_share {share} ratio  ({} failed of {} attempted)",
        outcome.failed, outcome.attempted
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    for c in &outcome.checks {
        let verdict = match (c.pass, c.advisory) {
            (true, _) => "pass",
            (false, true) => "DRIFT",
            (false, false) => "FAIL",
        };
        println!("check {workload} {} {verdict}: {}", c.name, c.detail);
    }
    if outcome.attempted == 0 {
        println!("check {workload} operations_attempted FAIL: the run attempted nothing");
    }
    let correct = outcome.attempted > 0
        && outcome.checks.iter().all(|c| c.pass || c.advisory)
        && outcome.metrics.iter().all(|(_, v)| v.is_finite());
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    correct && outcome.failed == 0
}

/// Runs one workload in a child process and returns its JSON line.
fn run_child(workload: &str, opts: &Opts, seed: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    Ok(last)
}

fn metric_value(result: &JsonValue, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// `--repeat`: per workload and end-to-end metric, the medians of the
/// first and the second half of the runs, how much worse the second is,
/// the bound, and (from four runs on) the quartile spread over all runs as
/// a share of their median. Returns whether every difference is within
/// its bound.
fn compare_halves(workload: &str, runs: &[JsonValue]) -> bool {
    let (first, second) = runs.split_at(runs.len() / 2);
    let mut within = true;
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>9} {:>7} {:>8}",
        "workload", "metric", "first_median", "second_median", "worse_by", "bound", "spread"
    );
    for m in END_TO_END {
        let values = |half: &[JsonValue]| -> Vec<f64> {
            half.iter()
                .filter_map(|r| metric_value(r, m.name))
                .collect()
        };
        let (a, b) = (values(first), values(second));
        if a.is_empty() || b.is_empty() {
            continue;
        }
        let spread = if runs.len() >= 4 {
            let all: Vec<f64> = a.iter().chain(&b).copied().collect();
            format!("{:.2}%", stats::quartile_spread(&all) * 100.0)
        } else {
            "-".to_string()
        };
        let (a, b) = (stats::median(&a), stats::median(&b));
        let worse = stats::worsening(a, b, m.lower_is_better);
        let verdict = if worse > m.bound { "  EXCEEDS" } else { "" };
        within &= worse <= m.bound;
        println!(
            "{workload:<16} {:<22} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.0}% {spread:>8}{verdict}",
            m.name,
            worse * 100.0,
            m.bound * 100.0
        );
    }
    within
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if !cli.all && cli.repeat == 1 && cli.workloads.len() == 1 {
        let workload = &cli.workloads[0];
        let outcome = run::run(workload, &cli.opts);
        return if report(workload, &cli.opts, &outcome) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let mut ok = true;
    let mut lines = Vec::new();
    let mut per_workload: Vec<(String, Vec<JsonValue>)> = Vec::new();
    for workload in &cli.workloads {
        let mut runs = Vec::new();
        for rep in 0..cli.repeat {
            // Like the driver, every run of a workload gets another seed.
            match run_child(workload, &cli.opts, cli.opts.seed + rep as u64) {
                Ok(line) => match JsonValue::parse(&line) {
                    Ok(v) => {
                        ok &= v.get("correct").and_then(JsonValue::as_bool) == Some(true);
                        lines.push(format!(
                            "{{\"workload\": \"{workload}\", \"run\": {rep}, \"result\": {line}}}"
                        ));
                        runs.push(v);
                    }
                    Err(e) => {
                        eprintln!("benchmark: {workload} printed no result: {e}");
                        ok = false;
                    }
                },
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    ok = false;
                }
            }
        }
        per_workload.push((workload.clone(), runs));
    }
    if cli.repeat > 1 && !cli.opts.trace {
        for (workload, runs) in &per_workload {
            if runs.len() >= 2 {
                ok &= compare_halves(workload, runs);
            }
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \"nproc\": {nproc}, \"runs\": [\n{}\n]}}\n",
        cli.opts.seed,
        cli.opts.seconds,
        cli.opts.trace,
        cli.opts.smoke,
        lines.join(",\n")
    );
    let path = std::path::Path::new("target/benchmark/result.json");
    let written =
        std::fs::create_dir_all("target/benchmark").and_then(|()| std::fs::write(path, doc));
    match written {
        Ok(()) => println!("# wrote {}", path.display()),
        Err(e) => {
            eprintln!("benchmark: {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn cli_takes_the_driver_command_line() {
        let cli = parse_cli(&args("--workload hot_wire --seed 9 --seconds 10 --trace 1")).unwrap();
        assert_eq!(cli.workloads, ["hot_wire"]);
        assert_eq!(
            (cli.opts.seed, cli.opts.seconds, cli.opts.trace),
            (9, 10.0, true)
        );
        let cli = parse_cli(&args("--all --smoke --trace 0 --repeat 2")).unwrap();
        assert_eq!(cli.workloads.len(), WORKLOADS.len());
        assert_eq!(
            (cli.opts.seconds, cli.opts.trace, cli.repeat),
            (SMOKE_SECONDS, false, 2)
        );
        assert!(parse_cli(&args("--all --trace")).unwrap().opts.trace);
        assert!(parse_cli(&args("--workload nope")).is_err());
        assert!(parse_cli(&args("--seed 1")).is_err());
    }

    /// BENCHMARK.json and the tables above describe the same benchmark.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let mut dir = std::env::current_dir().unwrap();
        let text = loop {
            if let Ok(text) = std::fs::read_to_string(dir.join("BENCHMARK.json")) {
                break text;
            }
            assert!(
                dir.pop(),
                "BENCHMARK.json not found above the test's directory"
            );
        };
        let doc = JsonValue::parse(&text).unwrap();
        let same = |key: &str, table: &[Metric], bounded: bool| {
            let listed = doc.get(key).and_then(JsonValue::as_array).unwrap();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, m) in listed.iter().zip(table) {
                let field = |f: &str| entry.get(f).and_then(JsonValue::as_str).unwrap();
                assert_eq!(field("name"), m.name);
                assert_eq!(field("unit"), m.unit, "{}", m.name);
                let better = if m.lower_is_better { "lower" } else { "higher" };
                assert_eq!(field("better"), better, "{}", m.name);
                if bounded {
                    let bound = entry.get("bound").and_then(JsonValue::as_f64).unwrap();
                    assert_eq!(bound, m.bound, "{}", m.name);
                }
            }
        };
        same("end_to_end", END_TO_END, true);
        same("per_layer", PER_LAYER, false);
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        // `embedded_batch` runs by hand and under `--all` only: see README.md.
        let driven: Vec<&str> = WORKLOADS
            .into_iter()
            .filter(|w| *w != "embedded_batch")
            .collect();
        assert_eq!(names, driven);
        assert_eq!(
            doc.get("run_seconds").and_then(JsonValue::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }
}
