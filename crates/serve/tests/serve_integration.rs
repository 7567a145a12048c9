//! End-to-end tests for the serving front end: a real `DeepSketch` behind a
//! real TCP server, hammered by concurrent clients.

use std::sync::Arc;
use std::time::Duration;

use ds_core::store::SketchStore;
use ds_query::parser::parse_query;
use ds_query::workloads::imdb_predicate_columns;
use ds_serve::fleet::FleetConfig;
use ds_serve::{Client, ErrorCode, Fleet, Response, ServeConfig, ServeSlo, Server};
use ds_storage::gen::{imdb_database, ImdbConfig};

mod common;
use common::{start, tiny_db, tiny_sketch};

const WORKLOAD: &[&str] = &[
    "SELECT COUNT(*) FROM title",
    "SELECT COUNT(*) FROM title WHERE title.kind_id = 1",
    "SELECT COUNT(*) FROM title WHERE title.production_year > 1990",
    "SELECT COUNT(*) FROM title WHERE title.production_year > 2000",
    "SELECT COUNT(*) FROM title t, movie_keyword mk \
     WHERE mk.movie_id = t.id AND mk.keyword_id = 11",
    "SELECT COUNT(*) FROM title t, movie_keyword mk \
     WHERE mk.movie_id = t.id AND t.production_year > 1995",
];

/// The tentpole guarantee: 64 concurrent clients, each request answered on
/// its own handler thread — from the cache or by a forward pass of its own
/// — and every answer bit-identical to a local per-query `estimate_one`.
/// Then again with every hook on: timelines, an exemplar for every request
/// and the global tracer.
#[test]
fn concurrent_estimates_match_estimate_one() {
    concurrent_clients_match_estimate_one(ServeConfig::builder());
    let obs = ds_obs::global();
    let was_enabled = obs.is_enabled();
    obs.enable();
    let hooked = ServeConfig::builder().slow_threshold(Duration::ZERO);
    concurrent_clients_match_estimate_one(hooked.timeline(true));
    if !was_enabled {
        obs.disable();
    }
}

fn concurrent_clients_match_estimate_one(cfg: ds_serve::ServeConfigBuilder) {
    let (server, db, store) = start(
        cfg.request_timeout(Duration::from_secs(30))
            .build()
            .unwrap(),
    );
    let addr = server.local_addr();
    let sketch = store.get("imdb").unwrap();
    let expected: Vec<f64> = WORKLOAD
        .iter()
        .map(|sql| sketch.estimate_one(&parse_query(&db, sql).unwrap()))
        .collect();

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..64)
            .map(|i| {
                let expected = &expected;
                s.spawn(move || {
                    let mut client =
                        Client::connect_timeout(addr, Duration::from_secs(60)).unwrap();
                    // Each client walks the workload from a different offset
                    // so distinct queries are in flight simultaneously.
                    for k in 0..WORKLOAD.len() {
                        let j = (i + k) % WORKLOAD.len();
                        let got = client.estimate_value("imdb", WORKLOAD[j]).unwrap();
                        assert_eq!(
                            got.to_bits(),
                            expected[j].to_bits(),
                            "client {i} query {j}: {got} != {}",
                            expected[j]
                        );
                    }
                    client.quit().unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });

    let stats = Client::connect(addr).unwrap().stats().unwrap();
    let stat = |name: &str| stats.iter().find(|s| s.name == name).unwrap().value as u64;
    let (hits, misses) = (stat("ds_serve_cache_hits"), stat("ds_serve_cache_misses"));
    let snap = server.shutdown();
    assert_eq!(snap.ok, 64 * WORKLOAD.len() as u64);
    assert_eq!(snap.errors, 0);
    // One pass per cache miss, one query per pass: nothing is gathered and
    // nothing runs twice.
    assert_eq!(hits + misses, snap.ok);
    assert_eq!(snap.batches, misses);
    assert_eq!(snap.max_batch, 1);
}

/// No pass runs anywhere but on a handler (or the lifecycle daemon): a
/// serving process has no `ds-serve-batch-*` worker threads.
#[cfg(target_os = "linux")]
#[test]
fn running_server_has_no_batch_worker_threads() {
    let (server, ..) = start(ServeConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.estimate_value("imdb", WORKLOAD[4]).unwrap();
    let threads: Vec<String> = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect();
    // The scan sees this server's threads (names are cut at 15 bytes)...
    assert!(
        threads.iter().any(|t| t == "ds-serve-accept"),
        "{threads:?}"
    );
    assert!(threads.iter().any(|t| t == "ds-serve-conn"), "{threads:?}");
    // ...and none of them is a batch worker.
    assert!(
        !threads.iter().any(|t| t.starts_with("ds-serve-batch")),
        "{threads:?}"
    );
    c.quit().unwrap();
    server.shutdown();
}

#[test]
fn protocol_commands_and_typed_errors() {
    let (server, ..) = start(ServeConfig::default());
    let mut c = Client::connect_timeout(server.local_addr(), Duration::from_secs(10)).unwrap();

    // LIST names the sketches, sorted; every one of them is ready.
    match c.list().unwrap() {
        Response::Text(t) => assert_eq!(t, "imdb"),
        other => panic!("{other:?}"),
    }
    // INFO returns the summary card.
    match c.info("imdb").unwrap() {
        Response::Text(t) => assert!(!t.is_empty()),
        other => panic!("{other:?}"),
    }
    // METRICS is retired: `STATS` carries every counter it did.
    assert_eq!(
        c.send_raw("METRICS").unwrap(),
        "ERR proto unknown command 'METRICS'"
    );
    // HELLO checks the one version, reading past the feature list older
    // builds sent after it.
    for (hello, answer) in [
        ("HELLO 3", "OK HELLO 3"),
        ("HELLO 2", "ERR version-mismatch"),
        ("HELLO 3 cache,trace", "OK HELLO 3"),
        ("HELLO", "ERR proto"),
    ] {
        let line = c.send_raw(hello).unwrap();
        assert!(
            line == answer || line.starts_with(&format!("{answer} ")),
            "{hello:?} -> {line}"
        );
    }
    c.hello().unwrap();

    // Typed errors, one per failure class — and the connection survives
    // every one of them.
    match c.estimate("nope", "SELECT COUNT(*) FROM title").unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownSketch),
        other => panic!("{other:?}"),
    }
    match c
        .estimate("imdb", "SELECT COUNT(*) FROM bogus_table")
        .unwrap()
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Parse),
        other => panic!("{other:?}"),
    }
    match c.info("nope").unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownSketch),
        other => panic!("{other:?}"),
    }
    // LIFECYCLE knows the store's names with no lifecycle configured too.
    match c.lifecycle("nope").unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownSketch),
        other => panic!("{other:?}"),
    }
    match c.lifecycle("imdb").unwrap() {
        Response::Text(t) => assert_eq!(t, "LIFECYCLE imdb disabled"),
        other => panic!("{other:?}"),
    }
    for raw in ["FROBNICATE", "ESTIMATE", "ESTIMATE imdb", "INFO", "???"] {
        let line = c.send_raw(raw).unwrap();
        assert!(line.starts_with("ERR proto "), "{raw:?} -> {line}");
    }
    // Still alive after all that abuse.
    match c.estimate("imdb", "SELECT COUNT(*) FROM title").unwrap() {
        Response::Estimate(v) => assert!(v.is_finite() && v >= 1.0),
        other => panic!("{other:?}"),
    }
    c.quit().unwrap();
    let snap = server.shutdown();
    assert!(snap.errors >= 8);
}

/// A request split by a client stall longer than the handler's read-poll
/// interval (50 ms) is still one request: the handler keeps the half line
/// its timed-out read already consumed and finishes it with the next
/// read. (It used to clear its buffer on every poll, answer the second
/// half alone with a parse error at best, and leave the client of a
/// two-write request hanging.)
#[test]
fn request_split_by_a_client_stall_is_answered_bit_exactly() {
    use std::io::{BufRead, BufReader, Write};

    let (server, db, store) = start(ServeConfig::default());
    let sql = WORKLOAD[5];
    let expected = store
        .get("imdb")
        .unwrap()
        .estimate_one(&parse_query(&db, sql).unwrap());
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let request = format!("ESTIMATE imdb {sql}\n");
    let (head, tail) = request.split_at(request.len() / 2);
    stream.write_all(head.as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(150)); // 3 × POLL_INTERVAL
    stream.write_all(tail.as_bytes()).unwrap();
    let mut reply = String::new();
    BufReader::new(&stream).read_line(&mut reply).unwrap();
    let got: f64 = reply
        .trim_end()
        .strip_prefix("OK ")
        .unwrap_or_else(|| panic!("split request answered with {reply:?}"))
        .parse()
        .unwrap();
    assert_eq!(got.to_bits(), expected.to_bits());
    let snap = server.shutdown();
    assert_eq!((snap.requests, snap.ok, snap.errors), (1, 1, 0));
}

/// A zero-length deadline forces every request down the timeout path; the
/// server answers `ERR timeout` instead of hanging or panicking.
#[test]
fn zero_deadline_requests_time_out_cleanly() {
    let (server, ..) = start(
        ServeConfig::builder()
            .request_timeout(Duration::from_nanos(1))
            .build()
            .unwrap(),
    );
    let mut c = Client::connect_timeout(server.local_addr(), Duration::from_secs(10)).unwrap();
    match c.estimate("imdb", "SELECT COUNT(*) FROM title").unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Timeout),
        other => panic!("{other:?}"),
    }
    c.quit().unwrap();
    let snap = server.shutdown();
    assert_eq!(snap.timeouts, 1);
    assert_eq!(snap.ok, 0);
}

/// Beyond `max_connections`, new connections get one `BUSY` line.
#[test]
fn connection_cap_sheds_with_busy() {
    let (server, ..) = start(ServeConfig::builder().max_connections(2).build().unwrap());
    let addr = server.local_addr();
    let a = Client::connect_timeout(addr, Duration::from_secs(10)).unwrap();
    let b = Client::connect_timeout(addr, Duration::from_secs(10)).unwrap();
    // The two admitted connections occupy the cap; the third is shed. Give
    // the acceptor a moment to register both.
    std::thread::sleep(Duration::from_millis(100));
    let mut shed = Client::connect_timeout(addr, Duration::from_secs(10)).unwrap();
    let line = shed
        .send_raw("LIST")
        .unwrap_or_else(|e| format!("ERR io {e}"));
    assert!(
        line.starts_with("BUSY") || line.starts_with("ERR io"),
        "expected shed, got {line}"
    );
    drop(a);
    drop(b);
    let snap = server.shutdown();
    assert!(snap.shed >= 1);
}

/// The store stays consistent under concurrent insert/swap/estimate/remove
/// from many threads (the serving scenario: queries racing retraining
/// swaps). A reader never sees a generation go back, nor an answer from a
/// model that was never published.
#[test]
fn sketch_store_survives_concurrent_mutation() {
    let db = tiny_db(11);
    let store = Arc::new(SketchStore::new());
    let models = [tiny_sketch(&db, 1), tiny_sketch(&db, 3)].map(Arc::new);
    store.insert("stable", (*models[0]).clone()).unwrap();
    let churn_sketch = tiny_sketch(&db, 2);
    let q = parse_query(&db, "SELECT COUNT(*) FROM title WHERE title.kind_id = 1").unwrap();
    let bits = models.each_ref().map(|m| m.estimate_one(&q).to_bits());
    assert_ne!(bits[0], bits[1], "fixture must distinguish the models");

    std::thread::scope(|s| {
        // Readers hammer the swapping sketch and the churning one.
        for _ in 0..4 {
            let store = Arc::clone(&store);
            let q = q.clone();
            s.spawn(move || {
                let mut last = 0;
                for _ in 0..200 {
                    let (sketch, generation) = store.get_with_generation("stable").unwrap();
                    assert!(generation >= last, "generation {generation} after {last}");
                    last = generation;
                    let got = sketch.estimate_one(&q).to_bits();
                    assert!(bits.contains(&got), "answer from neither model");
                    // "churn" may or may not exist right now — either a
                    // value or a typed error, never a panic.
                    match store.get("churn") {
                        Ok(sketch) => assert!(sketch.estimate_one(&q) >= 1.0),
                        Err(e) => {
                            let _ = e.to_string();
                        }
                    }
                    let _ = store.list();
                }
            });
        }
        // One writer inserts and removes "churn" and swaps "stable"
        // between the two models in a loop.
        let store2 = Arc::clone(&store);
        s.spawn(move || {
            for i in 0..50 {
                let _ = store2.insert("churn", churn_sketch.clone());
                std::thread::yield_now();
                store2.remove("churn");
                store2
                    .swap("stable", Arc::clone(&models[(i + 1) % 2]))
                    .unwrap();
            }
        });
    });
    assert!(store.get("stable").unwrap().estimate_one(&q) >= 1.0);
}

/// The observability surface end to end: STATS exposition, TRACE stage
/// decomposition, typed client accessors, and the FEEDBACK ↔ ESTIMATE
/// bit-identity.
#[test]
fn stats_trace_and_feedback_expose_the_request_timeline() {
    let (server, ..) = start(
        ServeConfig::builder()
            .request_timeout(Duration::from_secs(30))
            // Keep every request as a TRACE exemplar.
            .slow_threshold(Duration::ZERO)
            .build()
            .unwrap(),
    );
    let mut c = Client::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();

    // FEEDBACK answers through the same handler path as ESTIMATE: the
    // returned estimate is bit-identical.
    let joined = WORKLOAD[4];
    let est = c.estimate_value("imdb", joined).unwrap();
    let fed = c.feedback_value("imdb", 123, joined).unwrap();
    assert_eq!(est.to_bits(), fed.to_bits());
    for sql in WORKLOAD {
        c.estimate_value("imdb", sql).unwrap();
    }
    let answered = 2 + WORKLOAD.len() as u64;

    // The in-process snapshot and the typed INFO card.
    let snap = server.metrics();
    assert_eq!(snap.ok, answered);
    assert_eq!(snap.errors, 0);
    let card = c.info_card("imdb").unwrap();
    assert_eq!(card.tables, 6);
    assert!(card.model_params > 0 && card.footprint_mib > 0.0);

    // STATS: the Prometheus exposition carries the counters, the stage
    // summaries, and the feedback monitor's rolling q-error histogram.
    let samples = c.stats().unwrap();
    let value = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.value)
            .unwrap_or_else(|| panic!("missing sample {name}"))
    };
    assert_eq!(value("ds_serve_ok"), answered as f64);
    assert!(value("ds_serve_requests") >= answered as f64);
    for stage in ["parse", "forward", "write"] {
        let count = value(&format!("ds_serve_stage_{stage}_us_count"));
        assert_eq!(count, answered as f64, "stage {stage}");
    }
    assert!(samples.iter().any(|s| {
        s.name == "ds_serve_stage_forward_us"
            && s.labels.iter().any(|(k, v)| k == "quantile" && v == "0.95")
    }));
    assert_eq!(value("ds_feedback_imdb_qerror_scaled_count"), 1.0);

    // TRACE: every exemplar's stages sum to its wall time within 5%
    // (plus sub-µs truncation slack per stage).
    let traces = c.trace().unwrap();
    assert_eq!(traces.len(), answered as usize);
    for t in &traces {
        assert_eq!(t.sketch, "imdb");
        assert!(!t.template.is_empty());
        let diff = t.stage_sum_us().abs_diff(t.total_us) as f64;
        assert!(
            diff <= 0.05 * t.total_us as f64 + 4.0,
            "stages {} vs total {} in {t:?}",
            t.stage_sum_us(),
            t.total_us
        );
    }
    // Templates are structural: the joined query names both tables and
    // elides literals.
    let tpl = &traces
        .iter()
        .find(|t| t.template.contains("movie_keyword"))
        .expect("joined-query exemplar")
        .template;
    assert!(
        tpl.contains("title") && tpl.contains('?') && !tpl.contains('1'),
        "{tpl}"
    );

    c.quit().unwrap();
    server.shutdown();
}

/// The server-side SLO wiring, switched on: every `ESTIMATE` is graded at
/// its terminal, a burning objective fires, STATS exports it, and gossip
/// demotes the shard. A 0 µs latency objective makes every healthy request
/// a bad event (the cache is off, so each one runs a forward pass), while
/// the error objective sees only good ones.
#[test]
fn configured_slos_grade_requests_and_demote_a_burning_shard() {
    let cfg = ServeConfig::builder()
        .cache_capacity(0)
        .request_timeout(Duration::from_secs(30))
        .slos(vec![
            ServeSlo::latency("lat", 0.99, 0),
            ServeSlo::errors("err", 0.99),
        ])
        .build()
        .unwrap();
    let requests = 50;

    let (server, db, _) = start(cfg.clone());
    let mut c = Client::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();
    for i in 0..requests {
        c.estimate_value("imdb", WORKLOAD[i % WORKLOAD.len()])
            .unwrap();
    }
    assert_eq!(server.firing_slos(), ["lat"]);
    let samples = c.stats().unwrap();
    let value = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.value)
            .unwrap_or_else(|| panic!("missing sample {name}"))
    };
    assert_eq!(value("ds_slo_lat_firing"), 1.0);
    assert_eq!(value("ds_slo_err_firing"), 0.0);
    assert_eq!(
        (value("ds_slo_lat_good"), value("ds_slo_lat_bad")),
        (0.0, requests as f64)
    );
    assert_eq!(
        (value("ds_slo_err_good"), value("ds_slo_err_bad")),
        (requests as f64, 0.0)
    );
    c.quit().unwrap();
    server.shutdown();

    // The same configuration behind a one-shard fleet: gossip reads the
    // firing gauge off STATS and steers routing away from the shard.
    let mut fleet = Fleet::start(
        Arc::clone(&db),
        FleetConfig {
            shards: 1,
            replication: 1,
            server: cfg,
            timeout: Duration::from_secs(30),
        },
    )
    .unwrap();
    fleet.deploy("imdb", tiny_sketch(&db, 7)).unwrap();
    let mut routed = fleet.client();
    for i in 0..requests {
        routed
            .estimate("imdb", WORKLOAD[i % WORKLOAD.len()])
            .unwrap();
    }
    let health = fleet.gossip();
    assert_eq!(health.len(), 1);
    assert!(health[0].alive && health[0].open_breakers.is_empty());
    assert_eq!(health[0].firing_slos, ["lat"]);
    assert!(health[0].degraded());
    fleet.shutdown();
}

/// Satellite 3: replaying FEEDBACK with actuals from a shifted-skew,
/// grown database drives the rolling q-error window away from the
/// training-time holdout baseline and raises the staleness signal; the
/// same replay with stationary actuals stays silent.
#[test]
fn injected_drift_fires_and_stationary_feedback_stays_silent() {
    use ds_core::advisor::recommend_retraining;
    use ds_core::maintain::{accuracy_drift, DEFAULT_DRIFT_RATIO, DEFAULT_MIN_SAMPLES};
    use ds_est::oracle::TrueCardinalityOracle;
    use ds_query::sqlgen::to_sql;
    use ds_query::{GeneratorConfig, QueryGenerator};

    let (server, db, store) = start(
        ServeConfig::builder()
            .request_timeout(Duration::from_secs(30))
            .build()
            .unwrap(),
    );
    let sketch = store.get("imdb").unwrap();
    let baseline = sketch
        .baseline()
        .expect("builder attaches the holdout baseline")
        .clone();

    // Feedback queries drawn from the same uniform generator family the
    // builder trains on, so a stationary replay matches the holdout.
    let mut generator =
        QueryGenerator::new(&db, GeneratorConfig::new(imdb_predicate_columns(&db), 4242));
    let queries = generator.generate_batch(60);
    let sqls: Vec<String> = queries.iter().map(|q| to_sql(&db, q)).collect();
    let stationary_oracle = TrueCardinalityOracle::new(&db);
    // The drifted world: 10x the movies, a third of the keywords — the
    // sketch still answers from its training-time snapshot.
    let evolved = imdb_database(&ImdbConfig {
        movies: 5000,
        keywords: 40,
        companies: 40,
        persons: 300,
        seed: 777,
    });
    let evolved_oracle = TrueCardinalityOracle::new(&evolved);

    let monitors = server.monitors();
    let mut c = Client::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();

    // Phase 1: stationary — actuals from the database the sketch was
    // trained on. The drift detector must stay silent.
    for (q, sql) in queries.iter().zip(&sqls) {
        let actual = stationary_oracle.cardinality(q).unwrap();
        c.feedback_value("imdb", actual, sql).unwrap();
    }
    let monitor = monitors.get("imdb").expect("feedback created a monitor");
    let drift = accuracy_drift(&baseline, &monitor.rolling()).expect("baseline present");
    assert!(drift.samples >= DEFAULT_MIN_SAMPLES);
    assert!(
        !drift.is_stale(DEFAULT_DRIFT_RATIO, DEFAULT_MIN_SAMPLES),
        "stationary feedback must not raise staleness: {drift}"
    );
    assert!(
        recommend_retraining(&store, &monitors, DEFAULT_DRIFT_RATIO, DEFAULT_MIN_SAMPLES)
            .is_empty()
    );

    // Phase 2: the database evolves under the sketch. Same queries, but
    // the observed actuals now come from the evolved data.
    monitor.reset();
    for (q, sql) in queries.iter().zip(&sqls) {
        let actual = evolved_oracle.cardinality(q).unwrap();
        c.feedback_value("imdb", actual, sql).unwrap();
    }
    let drift = accuracy_drift(&baseline, &monitor.rolling()).expect("baseline present");
    assert!(
        drift.is_stale(DEFAULT_DRIFT_RATIO, DEFAULT_MIN_SAMPLES),
        "injected drift must raise staleness: {drift}"
    );
    let advice = recommend_retraining(&store, &monitors, DEFAULT_DRIFT_RATIO, DEFAULT_MIN_SAMPLES);
    assert_eq!(advice.len(), 1, "{advice:?}");
    assert_eq!(advice[0].sketch, "imdb");
    assert!(advice[0].drift.severity() > DEFAULT_DRIFT_RATIO);

    c.quit().unwrap();
    server.shutdown();
}

/// Regression test for the remove/swap-during-request race: while clients
/// hammer "churn", a writer keeps removing it and re-inserting alternating
/// model versions. A request runs its pass against the model its lookup
/// resolved and caches the answer in that model's own cache, so every
/// answer must be bit-identical to ONE of the two versions' local
/// estimates.
#[test]
fn estimates_stay_version_consistent_under_store_churn() {
    let db = tiny_db(11);
    let store = Arc::new(SketchStore::new());
    let version_a = tiny_sketch(&db, 1);
    let version_b = tiny_sketch(&db, 2);
    let sql = "SELECT COUNT(*) FROM title WHERE title.kind_id = 1";
    let q = parse_query(&db, sql).unwrap();
    let bits_a = version_a.estimate_one(&q).to_bits();
    let bits_b = version_b.estimate_one(&q).to_bits();
    assert_ne!(bits_a, bits_b, "fixture must distinguish the versions");
    store.insert("churn", version_a.clone()).unwrap();

    let server = Server::start(
        Arc::clone(&db),
        Arc::clone(&store),
        ServeConfig::builder()
            .request_timeout(Duration::from_secs(30))
            .build()
            .unwrap(),
    )
    .unwrap();
    let addr = server.local_addr();

    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(move || {
                let mut c = Client::connect_timeout(addr, Duration::from_secs(30)).unwrap();
                for _ in 0..100 {
                    match c.estimate("churn", sql).unwrap() {
                        Response::Estimate(v) => {
                            let bits = v.to_bits();
                            assert!(
                                bits == bits_a || bits == bits_b,
                                "answer {v} from neither model version"
                            );
                        }
                        // Mid-swap the name can briefly be missing; that
                        // typed error is fine, mixed models are not.
                        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownSketch),
                        other => panic!("{other:?}"),
                    }
                }
                c.quit().unwrap();
            });
        }
        let store = Arc::clone(&store);
        s.spawn(move || {
            for i in 0..50 {
                store.remove("churn");
                std::thread::yield_now();
                let next = if i % 2 == 0 {
                    version_b.clone()
                } else {
                    version_a.clone()
                };
                store.insert("churn", next).unwrap();
                std::thread::yield_now();
            }
        });
    });
    server.shutdown();
}

/// Graceful shutdown: every request read before shutdown starts is still
/// answered.
#[test]
fn shutdown_drains_in_flight_work() {
    let (server, ..) = start(
        ServeConfig::builder()
            .request_timeout(Duration::from_secs(30))
            .build()
            .unwrap(),
    );
    let addr = server.local_addr();
    let answered = std::thread::spawn(move || {
        let mut c = Client::connect_timeout(addr, Duration::from_secs(30)).unwrap();
        let mut n = 0;
        for _ in 0..20 {
            if c.estimate_value("imdb", "SELECT COUNT(*) FROM title")
                .is_ok()
            {
                n += 1;
            } else {
                break;
            }
        }
        n
    });
    std::thread::sleep(Duration::from_millis(50));
    let snap = server.shutdown();
    let n = answered.join().unwrap();
    // Every request the server acknowledged with OK was really answered.
    assert_eq!(snap.ok, n);
}
