//! Per-layer metrics, measured from outside: a single-threaded replay of
//! the workload's own queries through each crate's public functions, one
//! span per call under a per-query root, plus the transport floor and the
//! budget table that sets the rows against the end-to-end median.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ds_core::featurize::QueryIndexFeatures;
use ds_core::sketch::DeepSketch;
use ds_est::CardinalityEstimator;
use ds_nn::frozen::{FrozenScratch, IndexSet};
use ds_obs::LogHistogram;
use ds_query::parser::parse_query;
use ds_query::sqlgen::to_sql;
use ds_serve::protocol::{format_request, format_response, parse_request, parse_response};
use ds_serve::{Batcher, BatcherConfig, EstimateCache, Metrics, Request, Response, ServeConfig};
use ds_storage::catalog::Database;

use crate::run::Outcome;
use crate::stats::median;
use crate::trace::{Recorder, Span};
use crate::workload::{client_count, StreamQuery, EMBEDDED_BATCH, SKETCH_NAME};

/// Most queries one replay walks; it also stops when its time is used.
const REPLAY_SAMPLE: usize = 20_000;

/// Calls per span for functions too short to time one at a time.
const REPEAT_SHORT: usize = 16;
const REPEAT_HIST: usize = 1024;

/// Round trips of the raw loopback echo.
const LOOPBACK_ROUND_TRIPS: usize = 20_000;

/// What only a running server can tell: read over the wire or from
/// `Server::metrics()` by the wire workloads.
pub struct ServerSide {
    /// Client-side median over every slice of the untraced rounds
    /// (`all.p50_us`), which the budget is set against: the replay's rows
    /// are medians over all its calls too, not over the host's best moments.
    pub p50_us: f64,
    pub hit_share: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub cache_evictions: f64,
    pub batches: f64,
    pub mean_batch: f64,
    pub max_batch: f64,
    pub shed: f64,
    pub timeouts: f64,
    pub errors: f64,
    /// parse, queue, batch_wait, forward, write: server-side p50 of each.
    pub stage_us: [f64; 5],
    pub stats_scrape_us: f64,
}

/// Per-call microseconds of every replayed function.
#[derive(Default)]
struct Samples {
    format_request: Vec<f64>,
    parse_request: Vec<f64>,
    parse_query: Vec<f64>,
    cache_key: Vec<f64>,
    cache_miss: Vec<f64>,
    cache_insert_evict: Vec<f64>,
    cache_hit: Vec<f64>,
    validate: Vec<f64>,
    featurize: Vec<f64>,
    frozen_forward: Vec<f64>,
    estimate_one: Vec<f64>,
    batch1: Vec<f64>,
    batcher_roundtrip: Vec<f64>,
    format_response: Vec<f64>,
    parse_response: Vec<f64>,
    sqlgen: Vec<f64>,
    hist_record_ns: Vec<f64>,
    flops: Vec<f64>,
    bytes: Vec<f64>,
}

/// Multiply-adds and weight bytes of one fused forward pass, computed from
/// the query's set sizes and the layer widths (not measured).
fn forward_cost(sets: [&IndexSet; 3], hidden: usize) -> (f64, f64) {
    let h = hidden as f64;
    let (mut flops, mut floats) = (0.0, 0.0);
    for set in sets {
        let active = set.entries.len() as f64;
        let elems = set.elems.len() as f64;
        // Layer 1 gathers one weight row per active feature; layer 2 is
        // dense h×h per element; bias, ReLU and pooling are 4h per element.
        flops += 2.0 * active * h + elems * (2.0 * h * h + 4.0 * h);
        floats += active * h + elems * (h * h + 2.0 * h);
    }
    flops += 2.0 * 3.0 * h * h + 2.0 * h;
    floats += 3.0 * h * h + 2.0 * h + 1.0;
    (flops, floats * 4.0)
}

/// A cache filled to capacity with keys no replayed query shares, so every
/// insert evicts.
fn full_cache(sample: &[StreamQuery]) -> EstimateCache {
    let capacity = ServeConfig::default().cache_capacity();
    let cache = EstimateCache::new(capacity, 8);
    let mut filler = 0;
    while cache.len() < capacity {
        let name = format!("filler-{filler}");
        for q in sample.iter().take(capacity) {
            cache.insert(cache.key(&name, 0, &q.query), 1.0);
        }
        filler += 1;
    }
    cache
}

/// Replays the head of `sample`, writes every per-layer metric into `out`
/// and returns the spans it recorded against `epoch`. `server` carries what a wire workload read from its server; the two
/// workloads that start none pass `None` and those rows read 0.
pub fn replay(
    out: &mut Outcome,
    db: &Database,
    sketch: &DeepSketch,
    sample: &[StreamQuery],
    server: Option<&ServerSide>,
    budget_secs: f64,
    epoch: Instant,
) -> Vec<Span> {
    let mut recorder = Recorder::new(epoch, 0);
    let rec = &mut recorder;
    let sample = &sample[..sample.len().min(REPLAY_SAMPLE)];
    let frozen = sketch.frozen().expect("f32 sketches freeze");
    let shared: ds_serve::SharedEstimator = Arc::new(sketch.clone());
    let batcher = Batcher::new(BatcherConfig::default(), Arc::new(Metrics::new()));
    let cache = full_cache(sample);
    let hist = LogHistogram::new();
    let mut feats = QueryIndexFeatures::default();
    let mut scratch = FrozenScratch::new();
    let mut s = Samples::default();
    let us = |ns: u64, calls: usize| ns as f64 / 1e3 / calls as f64;

    // Pass one: what every request does around the model, in request
    // order under a per-query root — client format, server parse, cache
    // probe and insert, reply format and parse — plus the two canaries.
    let deadline = Instant::now() + Duration::from_secs_f64(budget_secs / 4.0);
    let mut replayed = 0;
    for (i, q) in sample.iter().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        replayed += 1;
        let key = i as u32;
        let root = rec.open();
        let start = rec.now();
        let request = Request::Estimate {
            sketch: SKETCH_NAME.to_string(),
            sql: q.sql.clone(),
            trace: None,
        };

        let (line, ns) = rec.child(root, key, "serve.format_request", || {
            format_request(&request)
        });
        s.format_request.push(us(ns, 1));
        let (parsed, ns) = rec.child(root, key, "serve.parse_request", || parse_request(&line));
        s.parse_request.push(us(ns, 1));
        assert!(parsed.is_ok(), "generated request parses");
        let (query, ns) = rec.child(root, key, "query.parse", || parse_query(db, &q.sql));
        s.parse_query.push(us(ns, 1));
        let query = query.expect("generated SQL parses");

        let (cache_key, ns) = rec.child(root, key, "serve.cache_key", || {
            for _ in 1..REPEAT_SHORT {
                std::hint::black_box(cache.key(SKETCH_NAME, 0, std::hint::black_box(&query)));
            }
            cache.key(SKETCH_NAME, 0, &query)
        });
        s.cache_key.push(us(ns, REPEAT_SHORT));
        let (missed, ns) = rec.child(root, key, "serve.cache_miss", || cache.get(&cache_key));
        s.cache_miss.push(us(ns, 1));
        assert!(missed.is_none(), "a distinct query misses");
        let (_, ns) = rec.child(root, key, "core.validate", || {
            for _ in 0..REPEAT_SHORT {
                std::hint::black_box(sketch.validate(std::hint::black_box(&query))).ok();
            }
        });
        s.validate.push(us(ns, REPEAT_SHORT));

        let value = 1.0 + i as f64;
        let (_, ns) = rec.child(root, key, "serve.cache_insert_evict", || {
            cache.insert(cache_key, value)
        });
        s.cache_insert_evict.push(us(ns, 1));
        let hit_key = cache.key(SKETCH_NAME, 0, &query);
        let (hit, ns) = rec.child(root, key, "serve.cache_hit", || {
            for _ in 1..REPEAT_SHORT {
                std::hint::black_box(cache.get(std::hint::black_box(&hit_key)));
            }
            cache.get(&hit_key)
        });
        s.cache_hit.push(us(ns, REPEAT_SHORT));
        assert_eq!(hit, Some(value), "an inserted key hits");

        let response = Response::Estimate(value);
        let (reply, ns) = rec.child(root, key, "serve.format_response", || {
            format_response(&response)
        });
        s.format_response.push(us(ns, 1));
        let (back, ns) = rec.child(root, key, "serve.parse_response", || {
            parse_response(&reply, true)
        });
        s.parse_response.push(us(ns, 1));
        assert_eq!(back.ok(), Some(response), "the reply round-trips");
        let (sql, ns) = rec.child(root, key, "query.sqlgen", || to_sql(db, &query));
        std::hint::black_box(sql);
        s.sqlgen.push(us(ns, 1));
        let (_, ns) = rec.child(root, key, "obs.hist_record", || {
            for v in 0..REPEAT_HIST as u64 {
                hist.record(std::hint::black_box(v + i as u64));
            }
        });
        s.hist_record_ns.push(ns as f64 / REPEAT_HIST as f64);

        let end = rec.now();
        rec.close(root, 0, key, "replay.query", start, end);
    }
    assert!(replayed > 0, "the replay budget admits at least one query");
    let sample = &sample[..replayed];

    // Pass two: each way into the model in a loop of its own over the same
    // queries, the way a serving thread runs it — one path after another
    // would evict each other's weights between calls. Spans are roots
    // carrying the query's index.
    let slice = Duration::from_secs_f64(budget_secs * 0.15);
    let mut reference = Vec::with_capacity(sample.len());
    let within = |start: Instant| start.elapsed() < slice;

    let start = Instant::now();
    for (i, q) in sample.iter().enumerate().take_while(|_| within(start)) {
        let (_, ns) = rec.child(0, i as u32, "core.featurize", || {
            sketch
                .featurizer()
                .featurize_indices(&q.query, sketch.samples(), &mut feats)
        });
        s.featurize.push(us(ns, 1));
        let (flops, bytes) =
            forward_cost([&feats.tables, &feats.joins, &feats.preds], frozen.hidden());
        s.flops.push(flops);
        s.bytes.push(bytes);
        let (y, ns) = rec.child(0, i as u32, "nn.frozen_forward", || {
            frozen.forward_query(&feats.tables, &feats.joins, &feats.preds, &mut scratch)
        });
        std::hint::black_box(y);
        s.frozen_forward.push(us(ns, 1));
    }
    let start = Instant::now();
    for (i, q) in sample.iter().enumerate().take_while(|_| within(start)) {
        let (one, ns) = rec.child(0, i as u32, "core.estimate_one", || {
            sketch.estimate_one(&q.query)
        });
        s.estimate_one.push(us(ns, 1));
        reference.push(one);
    }
    let start = Instant::now();
    for (i, q) in sample.iter().enumerate().take_while(|_| within(start)) {
        let (got, ns) = rec.child(0, i as u32, "core.try_estimate_batch1", || {
            sketch.try_estimate_batch(std::slice::from_ref(&q.query))
        });
        s.batch1.push(us(ns, 1));
        agrees(
            got[0].as_ref().ok(),
            reference.get(i),
            "try_estimate_batch",
            i,
        );
    }
    let start = Instant::now();
    for (i, q) in sample.iter().enumerate().take_while(|_| within(start)) {
        let owned = q.query.clone();
        let (got, ns) = rec.child(0, i as u32, "serve.batcher_roundtrip", || {
            batcher.estimate(Arc::clone(&shared), owned)
        });
        s.batcher_roundtrip.push(us(ns, 1));
        agrees(got.as_ref().ok(), reference.get(i), "Batcher::estimate", i);
    }
    batcher.shutdown();
    let queries: Vec<_> = sample.iter().map(|q| q.query.clone()).collect();
    let mut batch64 = Vec::new();
    let start = Instant::now();
    for (b, chunk) in queries
        .chunks_exact(EMBEDDED_BATCH)
        .enumerate()
        .take_while(|_| within(start))
    {
        let (got, ns) = rec.child(0, b as u32, "core.estimate_batch64", || {
            sketch.estimate_batch(chunk)
        });
        std::hint::black_box(got);
        batch64.push(us(ns, EMBEDDED_BATCH));
    }
    let loopback_us = loopback_rtt_us(client_count());

    let m = |v: &[f64]| median(v);
    let roundtrip = m(&s.batcher_roundtrip);
    let batch1 = m(&s.batch1);
    out.put("query.parse_us", m(&s.parse_query));
    out.put("query.sqlgen_us", m(&s.sqlgen));
    out.put("serve.parse_request_us", m(&s.parse_request));
    out.put("serve.format_response_us", m(&s.format_response));
    out.put("serve.format_request_us", m(&s.format_request));
    out.put("serve.parse_response_us", m(&s.parse_response));
    out.put("serve.cache_key_us", m(&s.cache_key));
    out.put("serve.cache_hit_us", m(&s.cache_hit));
    out.put("serve.cache_miss_us", m(&s.cache_miss));
    out.put("serve.cache_insert_evict_us", m(&s.cache_insert_evict));
    out.put("serve.batcher_roundtrip_us", roundtrip);
    out.put("serve.batcher_handoff_us", roundtrip - batch1);
    out.put("wire.loopback_rtt_us", loopback_us);
    out.put("core.validate_us", m(&s.validate));
    out.put("core.featurize_us", m(&s.featurize));
    out.put("core.estimate_one_us", m(&s.estimate_one));
    out.put("core.try_estimate_batch1_us", batch1);
    out.put(
        "core.estimate_batch64_us_per_query",
        if batch64.is_empty() { 0.0 } else { m(&batch64) },
    );
    out.put("nn.frozen_forward_us", m(&s.frozen_forward));
    out.put("nn.frozen_flops_per_query", m(&s.flops));
    out.put("nn.frozen_bytes_per_query", m(&s.bytes));
    out.put("obs.hist_record_ns", m(&s.hist_record_ns));
    out.notes.push(format!(
        "replayed {replayed} of the workload's queries through each public function, one thread \
         ({} through the slowest, try_estimate_batch); nn.frozen_flops/bytes are computed from \
         set sizes and layer widths",
        s.batch1.len()
    ));

    let zero = ServerSide {
        p50_us: 0.0,
        hit_share: 0.0,
        cache_hits: 0.0,
        cache_misses: 0.0,
        cache_evictions: 0.0,
        batches: 0.0,
        mean_batch: 0.0,
        max_batch: 0.0,
        shed: 0.0,
        timeouts: 0.0,
        errors: 0.0,
        stage_us: [0.0; 5],
        stats_scrape_us: 0.0,
    };
    let side = server.unwrap_or(&zero);
    out.put("serve.cache_hits", side.cache_hits);
    out.put("serve.cache_misses", side.cache_misses);
    out.put("serve.cache_evictions", side.cache_evictions);
    out.put("serve.cache_hit_share", side.hit_share);
    out.put("serve.batches", side.batches);
    out.put("serve.mean_batch", side.mean_batch);
    out.put("serve.max_batch", side.max_batch);
    out.put("serve.shed", side.shed);
    out.put("serve.timeouts", side.timeouts);
    out.put("serve.errors", side.errors);
    for (name, v) in [
        "serve.stage_parse_us",
        "serve.stage_queue_us",
        "serve.stage_batch_wait_us",
        "serve.stage_forward_us",
        "serve.stage_write_us",
    ]
    .into_iter()
    .zip(side.stage_us)
    {
        out.put(name, v);
    }
    out.put("obs.stats_scrape_us", side.stats_scrape_us);

    let Some(side) = server else {
        out.put("wire.budget_sum_us", 0.0);
        out.put("wire.residual_us", 0.0);
        return recorder.spans;
    };
    // The budget: what one request costs, layer by layer, on the path most
    // requests of this workload take (cache hit or miss), set against the
    // client-side median. What the rows do not explain is the residual.
    let mut rows = vec![
        ("wire.loopback_rtt_us", loopback_us),
        ("serve.format_request_us", m(&s.format_request)),
        ("serve.parse_request_us", m(&s.parse_request)),
        ("query.parse_us", m(&s.parse_query)),
        ("serve.cache_key_us", m(&s.cache_key)),
    ];
    if side.hit_share >= 0.5 {
        rows.push(("serve.cache_hit_us", m(&s.cache_hit)));
    } else {
        rows.push(("serve.cache_miss_us", m(&s.cache_miss)));
        rows.push(("serve.batcher_handoff_us", roundtrip - batch1));
        rows.push(("core.try_estimate_batch1_us", batch1));
        rows.push(("serve.cache_insert_evict_us", m(&s.cache_insert_evict)));
    }
    rows.push(("serve.format_response_us", m(&s.format_response)));
    rows.push(("serve.parse_response_us", m(&s.parse_response)));
    let sum: f64 = rows.iter().map(|r| r.1).sum();
    let residual = side.p50_us - sum;
    out.put("wire.budget_sum_us", sum);
    out.put("wire.residual_us", residual);
    let largest = rows.iter().map(|r| r.1).fold(f64::NEG_INFINITY, f64::max);
    out.notes.push(format!(
        "budget of one request against all.p50_us = {:.3}",
        side.p50_us
    ));
    for (name, v) in &rows {
        let flag = if *v == largest {
            "  <- largest row"
        } else {
            ""
        };
        out.notes.push(format!("  {name:<32} {v:>10.3} us{flag}"));
        if *name == "core.try_estimate_batch1_us" {
            out.notes.push(format!(
                "  {:<32} {:>10.3} us  (same query through estimate_one; not in the sum)",
                "(core.estimate_one_us)",
                m(&s.estimate_one)
            ));
        }
    }
    out.notes
        .push(format!("  {:<32} {sum:>10.3} us", "wire.budget_sum_us"));
    let reading = if residual >= 0.0 {
        "unexplained: socket wake-ups, thread hand-offs, allocation"
    } else {
        "negative: the rows, each replayed alone on one thread, cost more than inside the server"
    };
    out.notes.push(format!(
        "  {:<32} {residual:>10.3} us  <- {reading}",
        "wire.residual_us"
    ));
    recorder.spans
}

/// The replay doubles as a check that every way into the model gives
/// `estimate_one`'s answer, bit for bit.
fn agrees(got: Option<&f64>, reference: Option<&f64>, path: &str, i: usize) {
    if let (Some(got), Some(reference)) = (got, reference) {
        assert_eq!(
            got.to_bits(),
            reference.to_bits(),
            "{path} differs on query {i}"
        );
    } else {
        assert!(got.is_some(), "{path} rejected query {i}");
    }
}

/// Median round trip of a 200-byte line answered by a 24-byte line over
/// loopback `TcpStream`s between threads of this process, as many pairs at
/// once as the wire workloads have connections: no repo code, the floor
/// under every wire latency at that concurrency.
fn loopback_rtt_us(pairs: usize) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    let request = format!("{}\n", "q".repeat(199));
    let reply = format!("{}\n", "r".repeat(23));
    let split = |stream: TcpStream| {
        stream.set_nodelay(true).expect("nodelay");
        let writer = stream.try_clone().expect("clone the stream");
        (BufReader::new(stream), writer)
    };
    let samples: Vec<f64> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..pairs)
            .map(|_| {
                let client = TcpStream::connect(addr).expect("connect to the echo thread");
                let (served, _) = listener.accept().expect("accept the echo client");
                let reply = &reply;
                s.spawn(move || {
                    let (mut reader, mut writer) = split(served);
                    let mut line = String::new();
                    // Echo until the client hangs up.
                    while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                        writer.write_all(reply.as_bytes()).expect("echo reply");
                        line.clear();
                    }
                });
                client
            })
            .collect();
        let handles: Vec<_> = clients
            .into_iter()
            .map(|client| {
                let request = &request;
                s.spawn(move || {
                    let (mut reader, mut writer) = split(client);
                    let mut line = String::new();
                    (0..LOOPBACK_ROUND_TRIPS)
                        .map(|_| {
                            let t = Instant::now();
                            writer.write_all(request.as_bytes()).expect("send");
                            line.clear();
                            reader.read_line(&mut line).expect("receive");
                            t.elapsed().as_nanos() as f64 / 1e3
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("echo client"))
            .collect()
    });
    median(&samples)
}
