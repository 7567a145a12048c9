//! `adhoc_wire` and `hot_wire`: closed-loop connections to a default
//! `Server`, never-repeated queries on the one, a cached pool on the other.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ds_core::sketch::DeepSketch;
use ds_core::store::SketchStore;
use ds_obs::PromSample;
use ds_serve::protocol::{format_request, parse_response};
use ds_serve::{Client, MetricsSnapshot, Request, Response, ServeConfig, Server};
use ds_storage::catalog::Database;

use crate::layers::{self, ServerSide};
use crate::run::{
    build_metrics, check, count_ops, estimate_metrics, finish_trace, plausible, run_round, timings,
    Check, Opts, Outcome, Round, RoundClient, RoundLog, TIMED_ROUNDS, TRACE_ROUNDS,
};
use crate::setup::{self, Built};
use crate::stats::median;
use crate::trace::{Recorder, Span};
use crate::workload::{
    client_count, query_stream, stripes, SplitMix64, StreamQuery, Zipf, HOT_POOL, SKETCH_NAME,
};

/// Distinct queries provisioned per connection and second of `adhoc_wire`;
/// about 1.5× what one connection completes on the reference host. A
/// client that runs out ends its round early.
const ADHOC_QUERIES_PER_CONN_S: f64 = 3000.0;

/// Which stream index a wire client sends next.
enum Picker {
    /// `adhoc_wire`: walk a private stripe, never repeating; each round
    /// may use at most `quota` of it.
    Stripe {
        next: usize,
        end: usize,
        quota: usize,
        round_end: usize,
    },
    /// `hot_wire`: sweep a share of the pool once so every entry is
    /// cached, then draw Zipf(1.0) from the whole pool.
    Hot {
        sweep: std::ops::Range<usize>,
        zipf: Arc<Zipf>,
        rng: SplitMix64,
    },
}

impl Picker {
    fn begin_round(&mut self) {
        if let Picker::Stripe {
            next,
            end,
            quota,
            round_end,
        } = self
        {
            *round_end = (*next + *quota).min(*end);
        }
    }

    /// True while a hot client still has pool entries to put in the
    /// cache; a warm-up round lasts at least that long.
    fn warming(&self) -> bool {
        matches!(self, Picker::Hot { sweep, .. } if !sweep.is_empty())
    }

    fn next(&mut self) -> Option<usize> {
        match self {
            Picker::Stripe {
                next, round_end, ..
            } => (*next < *round_end).then(|| {
                *next += 1;
                *next - 1
            }),
            Picker::Hot { sweep, zipf, rng } => {
                Some(sweep.next().unwrap_or_else(|| zipf.sample(rng)))
            }
        }
    }
}

/// What a wire client was answered, per stream index, in fixed space: the
/// bits of the first answer (0 while unseen; no plausible estimate has
/// them) and how often a later answer to the same query differed from it.
/// The first answers are compared with the local reference after the
/// timed window.
struct Answers {
    first_bits: Vec<u64>,
    changed: u64,
}

impl Answers {
    fn new(stream_len: usize) -> Self {
        Self {
            first_bits: vec![0; stream_len],
            changed: 0,
        }
    }

    fn record(&mut self, log: &mut RoundLog, index: usize, response: Option<Response>) {
        match response {
            Some(Response::Estimate(v)) if plausible(v) => {
                log.estimates += 1;
                let slot = &mut self.first_bits[index];
                if *slot == 0 {
                    *slot = v.to_bits();
                } else if *slot != v.to_bits() {
                    self.changed += 1;
                }
            }
            // ERR, BUSY, a degraded or implausible answer, a timeout or an
            // I/O error all count as a failed operation.
            _ => log.failed += 1,
        }
    }
}

/// How long a client waits for one reply. The server answers or sheds
/// within its own two-second deadline, so a client still waiting after
/// this has lost its request; that is a failed operation, not a hang.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// One connection, speaking the protocol through the repo's own
/// `format_request` and `parse_response`. It differs from
/// `Connection::roundtrip` in one thing: the request line and its newline
/// leave in one write, not two. The server's handler polls its socket with
/// a 50 ms read timeout and clears its line buffer when the timeout fires,
/// so a client stalled that long between the two writes (a descheduled
/// vCPU is enough) loses the request and waits forever. That happened
/// about once in fifty `hot_wire` runs with `Connection`; the finding is
/// recorded in the README and not fixed here.
struct Link {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Link {
    fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Self {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            line: String::new(),
        })
    }

    /// One request, one reply; `None` on any I/O or protocol error. With a
    /// recorder, each step gets a span under a `client.request` root.
    fn roundtrip(
        &mut self,
        mut rec: Option<&mut Recorder>,
        key: u32,
        request: &Request,
    ) -> Option<Response> {
        let root = rec.as_deref_mut().map(|r| (r.open(), r.now()));
        let parent = root.map_or(0, |(id, _)| id);
        let mut step = |name: &'static str, f: &mut dyn FnMut() -> bool| match rec.as_deref_mut() {
            Some(rec) => rec.child(parent, key, name, f).0,
            None => f(),
        };
        let Self {
            reader,
            writer,
            line,
        } = self;
        // Each step runs only if the one before it succeeded.
        let mut response = None;
        let _ = step("client.format_request", &mut || {
            *line = format_request(request);
            line.push('\n');
            true
        }) && step("client.write", &mut || {
            writer.write_all(line.as_bytes()).is_ok()
        }) && step("client.wait", &mut || {
            line.clear();
            matches!(reader.read_line(line), Ok(n) if n > 0)
        }) && step("client.parse_response", &mut || {
            response = parse_response(line, true).ok();
            response.is_some()
        });
        if let (Some(rec), Some((id, start))) = (rec, root) {
            let end = rec.now();
            rec.close(id, 0, key, "client.request", start, end);
        }
        response
    }
}

/// One closed-loop client: one request in flight at a time. Every round
/// opens a fresh connection, and with it a fresh handler thread in the
/// server, so where the scheduler happens to place a pair of threads holds
/// for one round rather than for the whole run.
struct WireClient<'a> {
    addr: SocketAddr,
    picker: Picker,
    requests: &'a [Request],
    answers: Answers,
    /// Records a span per step of every request when present.
    rec: Option<Recorder>,
}

impl<'a> WireClient<'a> {
    fn new(
        addr: SocketAddr,
        picker: Picker,
        requests: &'a [Request],
        rec: Option<Recorder>,
    ) -> Self {
        Self {
            addr,
            picker,
            requests,
            answers: Answers::new(requests.len()),
            rec,
        }
    }
}

impl RoundClient for WireClient<'_> {
    fn round(&mut self, secs: f64, lead: bool) -> RoundLog {
        let link = Link::open(self.addr);
        let mut log = RoundLog::begin(lead);
        let Ok(mut link) = link else {
            log.failed += 1;
            return log;
        };
        self.picker.begin_round();
        let length = Duration::from_secs_f64(secs);
        while log.elapsed() < length || self.picker.warming() {
            let Some(i) = self.picker.next() else { break };
            let response = link.roundtrip(self.rec.as_mut(), i as u32, &self.requests[i]);
            log.sample();
            let broken = response.is_none();
            self.answers.record(&mut log, i, response);
            if broken {
                break;
            }
        }
        log
    }
}

fn start_server(
    db: &Arc<Database>,
    sketch: DeepSketch,
    cfg: ServeConfig,
) -> (Server, Arc<DeepSketch>) {
    let store = Arc::new(SketchStore::new());
    store.insert(SKETCH_NAME, sketch).expect("fresh store");
    let local = store.get(SKETCH_NAME).expect("sketch just inserted");
    let server = Server::start(Arc::clone(db), store, cfg).expect("bind a loopback port");
    (server, local)
}

/// Everything a wire workload sets up before its first request.
struct WireSetup {
    db: Arc<Database>,
    built: Built,
    stream: Vec<StreamQuery>,
    requests: Vec<Request>,
    server: Server,
    sketch: Arc<DeepSketch>,
    oracle_s: f64,
}

fn wire_setup(hot: bool, opts: &Opts) -> WireSetup {
    let db = setup::database();
    let joblight = setup::job_light(&db);
    let built = setup::build(&db, &joblight, opts.smoke);
    let stream_len = if hot {
        HOT_POOL
    } else {
        let per_conn = ADHOC_QUERIES_PER_CONN_S * (opts.warmup_secs() + opts.seconds);
        client_count() * per_conn.ceil() as usize
    };
    let stream = query_stream(&db, opts.seed, stream_len);
    let requests = stream
        .iter()
        .map(|q| Request::Estimate {
            sketch: SKETCH_NAME.to_string(),
            sql: q.sql.clone(),
            trace: None,
        })
        .collect();
    let (server, sketch) = start_server(&db, built.sketch.clone(), ServeConfig::default());
    WireSetup {
        db,
        built,
        stream,
        requests,
        server,
        sketch,
        oracle_s: joblight.oracle_s,
    }
}

fn pickers(hot: bool, clients: usize, stream_len: usize, rounds: usize, seed: u64) -> Vec<Picker> {
    if hot {
        let zipf = Arc::new(Zipf::new(HOT_POOL, 1.0));
        stripes(HOT_POOL, clients)
            .into_iter()
            .enumerate()
            .map(|(c, sweep)| Picker::Hot {
                sweep,
                zipf: Arc::clone(&zipf),
                rng: SplitMix64(seed ^ (c as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)),
            })
            .collect()
    } else {
        stripes(stream_len, clients)
            .into_iter()
            .map(|s| Picker::Stripe {
                next: s.start,
                end: s.end,
                quota: s.len() / rounds,
                round_end: s.start,
            })
            .collect()
    }
}

fn scrape(addr: SocketAddr) -> Vec<PromSample> {
    Client::connect_timeout(addr, REPLY_TIMEOUT)
        .and_then(|mut c| c.stats())
        .expect("STATS scrape")
}

fn stat(samples: &[PromSample], name: &str) -> f64 {
    samples
        .iter()
        .find(|s| s.name == name && s.labels.is_empty())
        .map_or(0.0, |s| s.value)
}

fn stat_p50(samples: &[PromSample], name: &str) -> f64 {
    samples
        .iter()
        .find(|s| s.name == name && s.labels.iter().any(|(k, v)| k == "quantile" && v == "0.5"))
        .map_or(0.0, |s| s.value)
}

/// Compares what each client was answered with `estimate_one` on the same
/// parsed query, bit for bit, on as many threads as there were clients.
fn answers_check(
    name: &'static str,
    sketch: &DeepSketch,
    stream: &[StreamQuery],
    answers: &[Answers],
) -> Check {
    let counts: Vec<(usize, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = answers
            .iter()
            .map(|a| {
                s.spawn(move || {
                    let seen = a
                        .first_bits
                        .iter()
                        .zip(stream)
                        .filter(|(&bits, _)| bits != 0);
                    let differ = seen
                        .clone()
                        .filter(|(&bits, q)| sketch.estimate_one(&q.query).to_bits() != bits)
                        .count();
                    (seen.count(), differ)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread"))
            .collect()
    });
    let distinct: usize = counts.iter().map(|c| c.0).sum();
    let differ: usize = counts.iter().map(|c| c.1).sum();
    let changed: u64 = answers.iter().map(|a| a.changed).sum();
    check(
        name,
        differ == 0 && changed == 0,
        format!(
            "{distinct} distinct queries answered, {differ} differ from the local estimate, \
             {changed} repeated answers differ from the first"
        ),
    )
}

/// The traced run's second server (an exemplar per request) and its
/// span-recording clients, so the first server's numbers stay untouched.
struct TracedSide<'a> {
    server: Server,
    clients: Vec<WireClient<'a>>,
    warmup: Round,
    rounds: Vec<Round>,
}

impl<'a> TracedSide<'a> {
    fn start(
        db: &Arc<Database>,
        sketch: &DeepSketch,
        pickers: Vec<Picker>,
        requests: &'a [Request],
        epoch: Instant,
    ) -> Self {
        let cfg = ServeConfig::builder()
            .slow_threshold(Duration::ZERO)
            .build()
            .expect("default config with a zero slow threshold");
        let (server, _) = start_server(db, sketch.clone(), cfg);
        let mut clients: Vec<WireClient> = pickers
            .into_iter()
            .enumerate()
            .map(|(c, picker)| {
                let rec = Recorder::new(epoch, (c as u32 + 1) << 26);
                WireClient::new(server.local_addr(), picker, requests, Some(rec))
            })
            .collect();
        // This server's cache is empty too: a zero-length warm-up round
        // lets hot clients sweep the pool. Its spans are dropped.
        let warmup = run_round(&mut clients, 0.0);
        for rec in clients.iter_mut().filter_map(|c| c.rec.as_mut()) {
            rec.spans.clear();
        }
        Self {
            server,
            clients,
            warmup,
            rounds: Vec::new(),
        }
    }

    fn round(&mut self, secs: f64) {
        ds_obs::global().enable();
        self.rounds.push(run_round(&mut self.clients, secs));
        ds_obs::global().disable();
    }
}

pub fn run(workload: &str, hot: bool, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let secs = opts.round_secs();
    // Warm-up and timed rounds; the traced run alternates untraced and
    // traced rounds instead, which uses the stream as fast.
    let rounds_planned = TIMED_ROUNDS + 1;

    let t = Instant::now();
    let state = wire_setup(hot, opts);
    let setup_s = t.elapsed().as_secs_f64();
    let WireSetup {
        db,
        built,
        stream,
        requests,
        server,
        sketch,
        oracle_s,
    } = state;
    let clients_n = client_count();
    let addr = server.local_addr();
    let picker_sets = |seed| pickers(hot, clients_n, stream.len(), rounds_planned, seed);

    let mut clients: Vec<WireClient> = picker_sets(opts.seed)
        .into_iter()
        .map(|picker| WireClient::new(addr, picker, &requests, None))
        .collect();
    let warmup = run_round(&mut clients, opts.warmup_secs());
    let before = scrape(addr);
    let epoch = Instant::now();
    let mut traced_side = opts.trace.then(|| {
        // Traced adhoc clients walk the part of each stripe that the
        // warm-up and the untraced rounds leave over.
        let mut second = picker_sets(opts.seed ^ 0x7ACE);
        for p in &mut second {
            if let Picker::Stripe { next, quota, .. } = p {
                *next += (1 + TRACE_ROUNDS) * *quota;
            }
        }
        TracedSide::start(&db, &built.sketch, second, &requests, epoch)
    });
    let rounds: Vec<Round> = match &mut traced_side {
        None => (0..TIMED_ROUNDS)
            .map(|_| run_round(&mut clients, secs))
            .collect(),
        Some(traced) => (0..TRACE_ROUNDS)
            .map(|_| {
                let untraced = run_round(&mut clients, secs);
                traced.round(secs);
                untraced
            })
            .collect(),
    };
    let peak_rss_mb = setup::peak_rss_mb();
    let after = scrape(addr);
    let stats_scrape_us = median(
        &(0..5)
            .map(|_| {
                let t = Instant::now();
                scrape(addr);
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect::<Vec<_>>(),
    );
    let live = server.metrics();
    let answers: Vec<Answers> = clients.into_iter().map(|c| c.answers).collect();
    let finals = server.shutdown();

    count_ops(&mut out, std::slice::from_ref(&warmup));
    count_ops(&mut out, &rounds);
    let delta = |name: &str| stat(&after, name) - stat(&before, name);
    let (hits, misses) = (delta("ds_serve_cache_hits"), delta("ds_serve_cache_misses"));
    let hit_share = hits / (hits + misses).max(1.0);
    out.checks.push(if hot {
        check(
            "cache_serves_the_hot_pool",
            hit_share >= 0.99,
            format!("hit share {hit_share:.4} over the timed rounds"),
        )
    } else {
        check(
            "cache_never_hits_on_distinct_queries",
            stat(&after, "ds_serve_cache_hits") == 0.0,
            format!(
                "{} hits since server start",
                stat(&after, "ds_serve_cache_hits")
            ),
        )
    });
    out.checks.push(server_accounting(&finals, out.attempted));
    out.checks.push(answers_check(
        "answers_bit_identical_to_estimate_one",
        &sketch,
        &stream,
        &answers,
    ));

    let Some(traced) = traced_side else {
        out.put("setup_s", setup_s);
        estimate_metrics(
            &mut out,
            &rounds,
            &format!("ESTIMATE round trip, {clients_n} connections"),
        );
        build_metrics(&mut out, &[built.numbers], opts);
        out.put("peak_rss_mb", peak_rss_mb);
        return out;
    };

    let traced_finals = traced.server.shutdown();
    count_ops(&mut out, std::slice::from_ref(&traced.warmup));
    count_ops(&mut out, &traced.rounds);
    out.checks.push(server_accounting(
        &traced_finals,
        traced.warmup.attempted() + traced.rounds.iter().map(Round::attempted).sum::<u64>(),
    ));
    let mut spans: Vec<Span> = Vec::new();
    let mut traced_answers = Vec::new();
    for c in traced.clients {
        spans.extend(c.rec.into_iter().flat_map(|rec| rec.spans));
        traced_answers.push(c.answers);
    }
    out.checks.push(answers_check(
        "traced_answers_bit_identical_to_estimate_one",
        &sketch,
        &stream,
        &traced_answers,
    ));

    let server_side = ServerSide {
        p50_us: timings(&rounds).all.p50_us,
        hit_share,
        cache_hits: hits,
        cache_misses: misses,
        cache_evictions: delta("ds_serve_cache_evictions"),
        batches: live.batches as f64,
        mean_batch: live.mean_batch,
        max_batch: live.max_batch as f64,
        shed: finals.shed as f64,
        timeouts: finals.timeouts as f64,
        errors: finals.errors as f64,
        stage_us: [
            "ds_serve_stage_parse_us",
            "ds_serve_stage_queue_us",
            "ds_serve_stage_batch_wait_us",
            "ds_serve_stage_forward_us",
            "ds_serve_stage_write_us",
        ]
        .map(|name| stat_p50(&after, name)),
        stats_scrape_us,
    };
    spans.append(&mut layers::replay(
        &mut out,
        &db,
        &sketch,
        &stream,
        Some(&server_side),
        opts.seconds / 3.0,
        epoch,
    ));
    out.put("est.oracle_joblight_s", oracle_s);
    build_metrics(&mut out, &[built.numbers], opts);
    finish_trace(&mut out, workload, &rounds, &traced.rounds, &spans);
    out
}

fn server_accounting(finals: &MetricsSnapshot, sent: u64) -> Check {
    let bad = finals.shed + finals.timeouts + finals.errors;
    check(
        "server_answered_every_request",
        finals.ok == sent && bad == 0,
        format!(
            "{sent} sent, server ok {} shed {} timeouts {} errors {}",
            finals.ok, finals.shed, finals.timeouts, finals.errors
        ),
    )
}
