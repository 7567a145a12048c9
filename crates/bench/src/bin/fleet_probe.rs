//! Fleet probe: N closed-loop clients on never-repeated generator queries
//! against one server with the estimate cache off, so every request runs a
//! forward pass. One line per round: req/s, client-side p50/p99, the
//! server's pass counters and the element memo's hit share.
//!
//! This is the many-client measurement behind EXPERIMENTS.md E24 (the
//! repo's benchmark has two connections; nothing else committed drives
//! sixteen or sixty-four). It asserts nothing and writes no baseline: it is
//! for alternated runs of two builds on one host.
//!
//! ```bash
//! cargo run --release -p ds-bench --bin fleet_probe -- \
//!     --clients 16 --seconds 4 --rounds 1 --label change --sketch /tmp/probe.bin
//! ```
//!
//! `--sketch` caches the trained sketch (the benchmark's: 4000 queries × 6
//! epochs, hidden 256) so both builds load the same bytes; without it every
//! run trains its own. To read another commit, copy this one file into that
//! checkout's `crates/bench/src/bin/` — it names nothing newer than PR 21.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ds_bench::{bench_imdb, BENCH_SEED};
use ds_core::builder::SketchBuilder;
use ds_core::sketch::DeepSketch;
use ds_core::store::SketchStore;
use ds_query::generator::{GeneratorConfig, QueryGenerator};
use ds_query::sqlgen::to_sql;
use ds_query::workloads::imdb_predicate_columns;
use ds_serve::{Client, ServeConfig, Server};

/// Distinct queries in the stream; each client loops over its own stripe.
const STREAM: usize = 16_384;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let arg = |name: &str| {
        args.iter().position(|a| a == name).map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{name} takes a value"))
                .clone()
        })
    };
    let number = |name: &str, default: f64| -> f64 {
        arg(name).map_or(default, |v| {
            v.parse().unwrap_or_else(|_| panic!("bad {name} '{v}'"))
        })
    };
    let clients = number("--clients", 16.0) as usize;
    let seconds = number("--seconds", 4.0);
    let rounds = number("--rounds", 1.0) as usize;
    let label = arg("--label").unwrap_or_else(|| "probe".to_string());
    let sketch_path = arg("--sketch");

    let db = Arc::new(bench_imdb());
    let cached = sketch_path.as_ref().and_then(|p| std::fs::read(p).ok());
    let sketch = match cached {
        Some(bytes) => DeepSketch::from_bytes(&bytes).expect("cached sketch decodes"),
        None => {
            let built = SketchBuilder::new(&db, imdb_predicate_columns(&db))
                .training_queries(4000)
                .epochs(6)
                .sample_size(256)
                .hidden_units(256)
                .max_tables(5)
                .max_predicates(4)
                .seed(BENCH_SEED ^ 2)
                .build()
                .expect("build probe sketch");
            if let Some(path) = &sketch_path {
                std::fs::write(path, built.to_bytes()).expect("write sketch cache");
            }
            built
        }
    };
    let mut cfg = GeneratorConfig::new(imdb_predicate_columns(&db), 1);
    cfg.max_tables = 5;
    cfg.max_predicates = 4;
    let mut generator = QueryGenerator::new(&db, cfg);
    let sqls: Vec<String> = (0..STREAM)
        .map(|_| to_sql(&db, &generator.generate()))
        .collect();

    for round in 0..rounds {
        let store = Arc::new(SketchStore::new());
        store.insert("imdb", sketch.clone()).expect("insert sketch");
        let server = Server::start(
            Arc::clone(&db),
            Arc::clone(&store),
            ServeConfig::builder()
                .cache_capacity(0)
                .request_timeout(Duration::from_secs(30))
                .max_connections(clients + 8)
                .build()
                .expect("probe config"),
        )
        .expect("start probe server");
        let addr = server.local_addr();
        let stop = AtomicBool::new(false);
        let stripe = sqls.len() / clients;
        let start = Barrier::new(clients + 1);
        let (elapsed, mut lat): (f64, Vec<u32>) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let (sqls, stop, start) = (&sqls, &stop, &start);
                    s.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        let mine = &sqls[c * stripe..(c + 1) * stripe];
                        // Warm the connection outside the timed window.
                        client.estimate_value("imdb", &mine[0]).expect("warm-up");
                        let mut lat = Vec::with_capacity(1 << 16);
                        start.wait();
                        let mut i = 1;
                        while !stop.load(Ordering::Relaxed) {
                            let t = Instant::now();
                            client
                                .estimate_value("imdb", &mine[i % stripe])
                                .expect("estimate");
                            lat.push(t.elapsed().as_nanos().min(u32::MAX as u128) as u32);
                            i += 1;
                        }
                        client.quit().ok();
                        lat
                    })
                })
                .collect();
            start.wait();
            let t0 = Instant::now();
            std::thread::sleep(Duration::from_secs_f64(seconds));
            stop.store(true, Ordering::Relaxed);
            let mut all = Vec::new();
            for h in handles {
                all.extend(h.join().expect("client thread"));
            }
            (t0.elapsed().as_secs_f64(), all)
        });
        let memo = store.get("imdb").expect("probe sketch").memo_stats();
        let snap = server.shutdown();
        lat.sort_unstable();
        let q = |p: f64| lat[((lat.len() - 1) as f64 * p) as usize] as f64 / 1e3;
        println!(
            "{label} clients={clients} round={round} rps={:.0} p50_us={:.0} p99_us={:.0} \
             mean_batch={:.2} max_batch={} errors={} timeouts={} shed={} memo_hit_share={:.3}",
            lat.len() as f64 / elapsed,
            q(0.5),
            q(0.99),
            snap.mean_batch,
            snap.max_batch,
            snap.errors,
            snap.timeouts,
            snap.shed,
            memo.hits as f64 / (memo.hits + memo.misses).max(1) as f64
        );
    }
}
