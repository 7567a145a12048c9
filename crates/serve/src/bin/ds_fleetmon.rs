//! The fleet observability aggregator: one pane of glass over N shards.
//!
//! `ds_fleetmon` scrapes every shard's `STATS` and `TRACE` over the
//! normal wire protocol on a fixed interval, then serves the merged view
//! on its own socket speaking the same one-line protocol:
//!
//! * `STATS` — the per-shard Prometheus expositions merged via
//!   [`ds_obs::merge_expositions`] (counters sum, histograms merge
//!   bucket-wise exactly, gauges take the worst shard), with the
//!   aggregator's own two counters folded into the same document:
//!   `ds_fleetmon_scrapes` (sweeps run) and `ds_fleetmon_scrape_failures`
//!   (shards a sweep could not reach or parse);
//! * `TRACE` — every shard's slow-request exemplars, with records that
//!   share a trace id grouped together so a cross-shard traced request
//!   reads as one causal tree (client span → per-shard server spans);
//! * `HELLO` / `QUIT` — the shards' version check and teardown.
//!
//! Usage: `ds_fleetmon --shard HOST:PORT [--shard HOST:PORT ...]
//! [--addr HOST:PORT] [--interval-ms N]`
//!
//! Prints `ADDR <bound-address>` on stdout once listening, then serves
//! until stdin reaches EOF (the same lifetime contract as `ds_shard`).

#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::panic, clippy::unreachable)
)]

use std::io::{BufRead, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use ds_obs::{Counter, PromFamily, PromText};
use ds_serve::{
    hello_response, parse_request, Client, ErrorCode, LineReader, Request, RequestTimeline,
    Response,
};

/// The latest scrape of the whole fleet: one parsed exposition per
/// reachable shard plus every shard's exemplars.
#[derive(Default)]
struct FleetView {
    expositions: Vec<Vec<PromFamily>>,
    timelines: Vec<RequestTimeline>,
}

struct Monitor {
    shards: Vec<SocketAddr>,
    view: Mutex<FleetView>,
    /// Scrape sweeps run.
    scrapes: Counter,
    /// Shards a sweep could not reach or parse.
    scrape_failures: Counter,
    shutting_down: AtomicBool,
}

impl Monitor {
    /// The latest view, poisoned or not. A holder that unwound left a
    /// whole view behind: `scrape` builds the new one unlocked and swaps it
    /// in by one assignment, and the readers only read.
    fn view(&self) -> MutexGuard<'_, FleetView> {
        self.view.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Scrapes every shard once, replacing the stored view with whatever
    /// answered. Unreachable shards are skipped (and counted) — the merge
    /// over the survivors is still exact for what it covers.
    fn scrape(&self) {
        let mut expositions = Vec::with_capacity(self.shards.len());
        let mut timelines = Vec::new();
        for &addr in &self.shards {
            match scrape_shard(addr) {
                Some((doc, mut tl)) => {
                    expositions.push(doc);
                    timelines.append(&mut tl);
                }
                None => self.scrape_failures.inc(),
            }
        }
        self.scrapes.inc();
        // Group cross-shard records of the same trace together, so one
        // traced request's spans are adjacent in the stitched output.
        timelines.sort_by_key(|t| t.trace_id);
        *self.view() = FleetView {
            expositions,
            timelines,
        };
    }

    /// The merged `STATS` payload: every shard document plus the
    /// aggregator's own counters, newline-escaped for the one-line wire.
    fn stats_payload(&self) -> Option<String> {
        let view = self.view();
        let mut own = PromText::new();
        own.counter("fleetmon/scrapes", self.scrapes.get())
            .counter("fleetmon/scrape_failures", self.scrape_failures.get());
        let own = ds_obs::parse_families(&own.finish().ok()?)?;
        let mut docs: Vec<&[PromFamily]> = view.expositions.iter().map(Vec::as_slice).collect();
        docs.push(&own);
        let merged = ds_obs::merge_expositions(&docs)?;
        Some(merged.trim_end().replace('\n', "\\n"))
    }
}

/// One scrape of one shard: its `STATS` families and `TRACE` exemplars.
/// `None` when the shard is unreachable or answers garbage.
fn scrape_shard(addr: SocketAddr) -> Option<(Vec<PromFamily>, Vec<RequestTimeline>)> {
    let mut client = Client::connect_timeout(addr, Duration::from_secs(10)).ok()?;
    Some((client.stats_families().ok()?, client.trace().ok()?))
}

/// Answers one connection with the aggregator's four verbs; everything
/// else gets a typed `ERR` so probing tools fail loudly, not silently.
fn handle_connection(stream: TcpStream, monitor: &Monitor) {
    let Ok(mut lines) = LineReader::new(stream, &monitor.shutting_down) else {
        return;
    };
    while let Some(line) = lines.next_line() {
        let response = answer(line, monitor);
        if lines.respond(&response).is_err() || response == Response::Bye {
            return;
        }
    }
}

fn answer(line: &str, monitor: &Monitor) -> Response {
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    match request {
        Request::Hello { version } => hello_response(version),
        Request::Stats => match monitor.stats_payload() {
            Some(p) => Response::Text(p),
            None => Response::Error {
                code: ErrorCode::Internal,
                message: "shard expositions failed to merge".to_string(),
            },
        },
        // The stitched exemplars, in a shard's wire shape.
        Request::Trace => Response::Text(RequestTimeline::payload(&monitor.view().timelines)),
        Request::Quit => Response::Bye,
        _ => Response::Error {
            code: ErrorCode::Proto,
            message: "fleetmon speaks HELLO/STATS/TRACE/QUIT only".to_string(),
        },
    }
}

fn main() -> std::io::Result<()> {
    let mut addr = "127.0.0.1:0".to_string();
    let mut interval = Duration::from_millis(500);
    let mut shards: Vec<SocketAddr> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("ds_fleetmon: {flag} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--addr" => addr = value("--addr"),
            "--shard" => shards.push(value("--shard").parse().unwrap_or_else(|e| {
                eprintln!("ds_fleetmon: bad --shard: {e}");
                std::process::exit(2);
            })),
            "--interval-ms" => {
                interval =
                    Duration::from_millis(value("--interval-ms").parse().unwrap_or_else(|e| {
                        eprintln!("ds_fleetmon: bad --interval-ms: {e}");
                        std::process::exit(2);
                    }))
            }
            other => {
                eprintln!("ds_fleetmon: unknown flag '{other}'");
                std::process::exit(2);
            }
        }
    }
    if shards.is_empty() {
        eprintln!("ds_fleetmon: at least one --shard is required");
        std::process::exit(2);
    }

    let monitor = Arc::new(Monitor {
        shards,
        view: Mutex::new(FleetView::default()),
        scrapes: Counter::new(),
        scrape_failures: Counter::new(),
        shutting_down: AtomicBool::new(false),
    });
    monitor.scrape();

    let scraper = {
        let monitor = Arc::clone(&monitor);
        std::thread::Builder::new()
            .name("fleetmon-scrape".to_string())
            .spawn(move || {
                while !monitor.shutting_down.load(Ordering::SeqCst) {
                    std::thread::sleep(interval);
                    monitor.scrape();
                }
            })?
    };

    let listener = TcpListener::bind(&addr)?;
    let local = listener.local_addr()?;
    let acceptor = {
        let monitor = Arc::clone(&monitor);
        std::thread::Builder::new()
            .name("fleetmon-accept".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if monitor.shutting_down.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let monitor = Arc::clone(&monitor);
                    let _ = std::thread::Builder::new()
                        .name("fleetmon-conn".to_string())
                        .spawn(move || handle_connection(stream, &monitor));
                }
            })?
    };

    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "ADDR {local}")?;
    stdout.flush()?;

    let stdin = std::io::stdin();
    let mut line = String::new();
    let mut handle = stdin.lock();
    while handle.read_line(&mut line)? > 0 {
        line.clear();
    }
    monitor.shutting_down.store(true, Ordering::SeqCst);
    // Unblock the acceptor with a wake-up connection, then join.
    let _ = TcpStream::connect(local);
    let _ = acceptor.join();
    let _ = scraper.join();
    Ok(())
}
