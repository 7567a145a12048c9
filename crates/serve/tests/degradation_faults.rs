//! Degradation-chain integration tests: a real server with a fallback
//! estimator and a deterministic fault plan, proving that
//!
//! * a poisoned sketch answers through the fallback with the `degraded`
//!   wire flag, trips its circuit breaker, and recovers after healing;
//! * health failures without a fallback surface typed errors and an open
//!   circuit short-circuits with `not-ready`;
//! * an injected forward stall blows the deadline and degrades too;
//! * a half-open probe that ends in a client error hands the probe back.
//!
//! The tests are compiled only under `debug_assertions`: the injector is
//! deliberately inert in release builds. That a healthy sketch answers
//! byte-identically with a fallback configured is checked by the root
//! package's `one_answer` harness.
#![cfg(debug_assertions)]

use std::sync::Arc;
use std::time::Duration;

use ds_est::postgres::PostgresEstimator;
use ds_est::CardinalityEstimator;
use ds_query::parser::parse_query;
use ds_serve::{
    BreakerConfig, Client, ErrorCode, FaultInjector, Response, ServeConfig, Server, SharedEstimator,
};
use ds_storage::catalog::Database;
use ds_storage::column::Column;
use ds_storage::table::Table;

mod common;
use common::fixture;

const SQL: &str = "SELECT COUNT(*) FROM title WHERE title.kind_id = 1";

#[test]
fn poisoned_sketch_degrades_to_fallback_then_recovers_after_heal() {
    let (db, store) = fixture();
    let query = parse_query(&db, SQL).unwrap();
    let sketch_expected = store.get("imdb").unwrap().estimate_one(&query);
    let fallback_est = PostgresEstimator::build(&db);
    let fallback_expected = fallback_est.try_estimate(&query).unwrap();
    // With the process-global tracer on, `STATS` renders its counters
    // beside the server's own.
    ds_obs::global().enable();
    assert_ne!(
        sketch_expected.to_bits(),
        fallback_expected.to_bits(),
        "fixture must distinguish sketch and fallback answers"
    );
    let faults = Arc::new(FaultInjector::new(42));
    let server = Server::start(
        Arc::clone(&db),
        store,
        ServeConfig::builder()
            .fallback(Some(Arc::new(fallback_est)))
            .breaker(BreakerConfig {
                failure_threshold: 3,
                cooldown: Duration::from_millis(100),
            })
            .faults(Some(Arc::clone(&faults)))
            .request_timeout(Duration::from_secs(30))
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut c = Client::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();

    // Sanity: healthy first.
    let (v, degraded) = c.estimate_flagged("imdb", SQL).unwrap();
    assert!(!degraded);
    assert_eq!(v.to_bits(), sketch_expected.to_bits());

    // Poison the model: every answer is the fallback's, flagged.
    faults.poison("imdb");
    for i in 0..5 {
        let (v, degraded) = c.estimate_flagged("imdb", SQL).unwrap();
        assert!(degraded, "request {i} after poison must be degraded");
        assert_eq!(v.to_bits(), fallback_expected.to_bits(), "request {i}");
    }
    let breaker = server.breaker("imdb");
    assert!(breaker.is_open(), "3 consecutive failures must trip it");
    assert_eq!(breaker.opened(), 1);
    assert!(
        breaker.short_circuits() >= 2,
        "requests beyond the threshold short-circuit: {}",
        breaker.short_circuits()
    );
    // The raw wire line carries the flag as a trailing token.
    let line = c.send_raw(&format!("ESTIMATE imdb {SQL}")).unwrap();
    assert!(line.ends_with(" degraded"), "{line}");
    let snap = server.metrics();
    assert!(snap.degraded >= 6, "degraded counter: {}", snap.degraded);
    // Each metric family is declared once: a degraded answer is counted
    // by the server alone.
    let mut names: Vec<String> = c
        .stats_families()
        .unwrap()
        .into_iter()
        .map(|f| f.name)
        .collect();
    names.sort_unstable();
    let twice: Vec<&String> = names
        .windows(2)
        .filter(|w| w[0] == w[1])
        .map(|w| &w[0])
        .collect();
    assert!(
        twice.is_empty(),
        "families declared twice in STATS: {twice:?}"
    );

    // Heal and wait out the cooldown: the half-open probe succeeds,
    // the breaker closes, and answers are bit-identical to the sketch
    // again.
    faults.heal("imdb");
    std::thread::sleep(Duration::from_millis(150));
    let (v, degraded) = c.estimate_flagged("imdb", SQL).unwrap();
    assert!(!degraded, "probe after heal must serve from the sketch");
    assert_eq!(v.to_bits(), sketch_expected.to_bits());
    assert_eq!(breaker.state_name(), "closed");
    let (v, degraded) = c.estimate_flagged("imdb", SQL).unwrap();
    assert!(!degraded);
    assert_eq!(v.to_bits(), sketch_expected.to_bits());

    c.quit().unwrap();
    server.shutdown();
}

#[test]
fn decode_flips_without_fallback_surface_typed_errors_then_open_circuit() {
    let (db, store) = fixture();
    let faults = Arc::new(FaultInjector::new(7));
    faults.flip_decode("imdb", 1.0);
    let server = Server::start(
        db,
        store,
        ServeConfig::builder()
            .breaker(BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_secs(300),
            })
            .faults(Some(Arc::clone(&faults)))
            .request_timeout(Duration::from_secs(30))
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut c = Client::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();

    // Two decode failures reach the client as typed errors and count
    // toward the breaker.
    for i in 0..2 {
        match c.estimate("imdb", SQL).unwrap() {
            Response::Error { code, .. } => {
                assert_eq!(code, ErrorCode::Decode, "request {i}")
            }
            other => panic!("request {i}: {other:?}"),
        }
    }
    // The circuit is open and there is no fallback: not-ready, with a
    // message naming the open circuit.
    match c.estimate("imdb", SQL).unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::NotReady);
            assert!(message.contains("circuit open"), "{message}");
        }
        other => panic!("{other:?}"),
    }
    assert!(server.breaker("imdb").is_open());

    // STATS exposes the per-sketch breaker counters and state gauge.
    let samples = c.stats().unwrap();
    let value = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.value)
            .unwrap_or_else(|| panic!("missing sample {name}"))
    };
    assert_eq!(value("ds_serve_breaker_imdb_opened"), 1.0);
    assert!(value("ds_serve_breaker_imdb_short_circuits") >= 1.0);
    assert_eq!(value("ds_serve_breaker_imdb_open"), 1.0);

    // Clearing the fault plan does not close the breaker by itself —
    // the cooldown gate still short-circuits (no false recovery).
    faults.clear();
    match c.estimate("imdb", SQL).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::NotReady),
        other => panic!("{other:?}"),
    }

    c.quit().unwrap();
    server.shutdown();
}

#[test]
fn stalled_forward_pass_blows_the_deadline_and_degrades() {
    let (db, store) = fixture();
    let fallback: SharedEstimator = Arc::new(PostgresEstimator::build(&db));
    let query = parse_query(&db, SQL).unwrap();
    let fallback_expected = fallback.try_estimate(&query).unwrap();
    let faults = Arc::new(FaultInjector::new(99));
    faults.delay_forwards(Duration::from_millis(300), 1.0);
    let server = Server::start(
        Arc::clone(&db),
        store,
        ServeConfig::builder()
            .fallback(Some(fallback))
            .breaker(BreakerConfig {
                failure_threshold: 100, // keep the breaker out of this test
                cooldown: Duration::from_secs(300),
            })
            .faults(Some(Arc::clone(&faults)))
            .request_timeout(Duration::from_millis(50))
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut c = Client::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();
    // The forward pass stalls past the 50ms deadline; the timeout is a
    // health failure, so the fallback answers with the flag instead of
    // surfacing `ERR timeout`.
    let (v, degraded) = c.estimate_flagged("imdb", SQL).unwrap();
    assert!(
        degraded,
        "deadline miss must degrade when a fallback exists"
    );
    assert_eq!(v.to_bits(), fallback_expected.to_bits());
    let snap = server.metrics();
    assert_eq!(snap.degraded, 1);
    assert_eq!(snap.timeouts, 1, "the underlying timeout is still counted");
    c.quit().unwrap();
    server.shutdown();
}

/// `db` with a `note` column after `title`'s last: the wider schema a
/// sketch of `db` meets next to a newer database, where `title.note`
/// parses but is out of the sketch's vocabulary.
fn with_title_note(db: &Database) -> Database {
    let mut tables = db.tables().to_vec();
    let note = Column::new("note", vec![1; tables[0].num_rows()]);
    tables[0] = Table::new(tables[0].name(), [tables[0].columns(), &[note]].concat());
    Database::new(db.name(), tables, db.foreign_keys().to_vec())
}

#[test]
fn a_probe_that_ends_in_a_client_error_hands_the_probe_back() {
    let (db, store) = fixture();
    let query = parse_query(&db, SQL).unwrap();
    let sketch_expected = store.get("imdb").unwrap().estimate_one(&query);
    let faults = Arc::new(FaultInjector::new(5));
    let cooldown = Duration::from_millis(100);
    let server = Server::start(
        Arc::new(with_title_note(&db)),
        store,
        ServeConfig::builder()
            .breaker(BreakerConfig {
                failure_threshold: 3,
                cooldown,
            })
            .faults(Some(Arc::clone(&faults)))
            .request_timeout(Duration::from_secs(30))
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut c = Client::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();
    let breaker = server.breaker("imdb");

    // Three health failures open the breaker; heal and wait out the
    // cooldown.
    faults.poison("imdb");
    for i in 0..3 {
        let line = c.send_raw(&format!("ESTIMATE imdb {SQL}")).unwrap();
        assert!(line.starts_with("ERR internal"), "request {i}: {line}");
    }
    assert_eq!(breaker.state_name(), "open");
    faults.heal("imdb");
    std::thread::sleep(cooldown + Duration::from_millis(50));

    // The probe names a column the sketch does not know: a client error,
    // which says nothing about the sketch and hands the probe back.
    let probe = "SELECT COUNT(*) FROM title WHERE title.note = 1";
    let line = c.send_raw(&format!("ESTIMATE imdb {probe}")).unwrap();
    assert!(line.starts_with("ERR vocabulary"), "{line}");
    assert_eq!(breaker.state_name(), "half-open");

    // The next healthy request is the probe: it reaches the sketch and
    // closes the breaker.
    match c.estimate("imdb", SQL).unwrap() {
        Response::Estimate(v) => assert_eq!(v.to_bits(), sketch_expected.to_bits()),
        other => panic!("a healthy request after the client error: {other:?}"),
    }
    assert_eq!(breaker.state_name(), "closed");
    assert_eq!(breaker.opened(), 1);
    c.quit().unwrap();
    server.shutdown();
}
