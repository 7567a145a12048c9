//! The lifecycle soak drill: a live server with the retrain-and-hot-swap
//! daemon enabled, driven through a deterministic, seeded drift injection
//! (every observed cardinality shifts by a constant factor mid-run, the
//! "data grew under the model" scenario).
//!
//! Phase A asserts the full happy path — drift fires the advisor, a
//! candidate trains off the hot path on the harvested queries, shadow
//! scoring on mirrored traffic passes the gate, the store hot-swaps under
//! a fresh generation, and the post-swap guard promotes — while a
//! background `ESTIMATE` hammer sees zero dropped or failed responses.
//!
//! Phase B arms the poison hook (a deliberately corrupted candidate that
//! passes the gate) and asserts the post-swap guard rolls back to the
//! previous model with bit-identical answers restored.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ds_core::lifecycle::{LifecycleConfig, LifecycleManager};
use ds_core::store::SketchStore;
use ds_query::generator::{GeneratorConfig, QueryGenerator};
use ds_query::sqlgen::to_sql;
use ds_query::workloads::imdb_predicate_columns;
use ds_serve::{Client, ServeConfig, Server};
use ds_storage::catalog::Database;

mod common;
use common::{tiny_db, tiny_sketch};

/// The injected correlation shift: every observed true cardinality is the
/// executed count times this factor, so the live model (trained pre-shift)
/// is ~64x off while a candidate trained on the shifted labels is not.
const DRIFT_FACTOR: u64 = 64;

const PROBE_SQL: &str = "SELECT COUNT(*) FROM title WHERE title.kind_id = 1";

fn drill_lifecycle_config() -> LifecycleConfig {
    LifecycleConfig {
        harvest_capacity: 256,
        min_harvest: 12,
        drift_ratio: 2.0,
        drift_min_samples: 8,
        shadow_min_samples: 6,
        shadow_gate_ratio: 2.0,
        guard_min_samples: 6,
        guard_ratio: 3.0,
        train_epochs: 6,
        train_threads: 1,
        seed: 0x50AC,
        tick_interval: Duration::from_millis(25),
    }
}

/// Distinct drill queries with their *shifted* true cardinalities: the
/// executed count times [`DRIFT_FACTOR`]. Deterministic (seeded generator,
/// seeded database).
fn drifted_workload(db: &Database, want: usize) -> Vec<(String, u64)> {
    let mut generator =
        QueryGenerator::new(db, GeneratorConfig::new(imdb_predicate_columns(db), 9));
    let mut by_sql = BTreeMap::new();
    while by_sql.len() < want {
        for q in generator.generate_batch(16) {
            by_sql.entry(to_sql(db, &q)).or_insert(q);
        }
    }
    let (sqls, queries): (Vec<String>, Vec<_>) = by_sql.into_iter().unzip();
    let execs: Vec<_> = queries.iter().map(|q| q.to_exec()).collect();
    let counts = ds_storage::exec::CountExecutor::new()
        .count_batch(db, &execs, 1)
        .expect("count workload");
    sqls.into_iter()
        .zip(counts)
        .map(|(sql, c)| (sql, c.max(1).saturating_mul(DRIFT_FACTOR)))
        .collect()
}

/// Sends one round of `FEEDBACK` for every drill query. Every line must be
/// answered (`OK …`, possibly the degraded-free happy path only — any ERR
/// or BUSY fails the drill).
fn feedback_round(c: &mut Client, workload: &[(String, u64)]) {
    for (sql, actual) in workload {
        let line = c
            .send_raw(&format!("FEEDBACK imdb {actual} {sql}"))
            .expect("feedback answered");
        assert!(line.starts_with("OK "), "feedback line: {line}");
    }
}

/// Drives feedback rounds until `done` observes the manager state it
/// waits for, or the deadline passes.
fn drive_until(
    c: &mut Client,
    workload: &[(String, u64)],
    manager: &LifecycleManager,
    what: &str,
    done: impl Fn(&LifecycleManager) -> bool,
) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !done(manager) {
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; status={:?} counters={:?}",
            manager.status("imdb"),
            manager.counters(),
        );
        feedback_round(c, workload);
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn drift_is_detected_retrained_shadow_gated_and_hot_swapped() {
    let db = tiny_db(42);
    let store = Arc::new(SketchStore::new());
    store.insert("imdb", tiny_sketch(&db, 7)).unwrap();
    let snap_dir = std::env::temp_dir().join(format!("ds_lc_soak_{}", std::process::id()));
    std::fs::create_dir_all(&snap_dir).unwrap();

    let server = Server::start(
        Arc::clone(&db),
        Arc::clone(&store),
        ServeConfig::builder()
            .request_timeout(Duration::from_secs(30))
            .snapshot_dir(Some(snap_dir.clone()))
            .lifecycle(Some(drill_lifecycle_config()))
            .build()
            .unwrap(),
    )
    .unwrap();
    let addr = server.local_addr();
    let manager = server.lifecycle().expect("lifecycle enabled");
    let workload = drifted_workload(&db, 16);

    // Background hammer: uninterrupted ESTIMATE traffic across the swap.
    // Zero drops, zero errors — every line is answered with an OK payload.
    let stop = Arc::new(AtomicBool::new(false));
    let hammer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut c = Client::connect_timeout(addr, Duration::from_secs(30)).unwrap();
            let mut answered = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let line = c
                    .send_raw(&format!("ESTIMATE imdb {PROBE_SQL}"))
                    .expect("estimate answered during swap");
                assert!(line.starts_with("OK "), "estimate line: {line}");
                answered += 1;
            }
            c.quit().unwrap();
            answered
        })
    };

    let mut c = Client::connect_timeout(addr, Duration::from_secs(30)).unwrap();
    // Drift → advisor fires → candidate trains on the harvested queries.
    drive_until(&mut c, &workload, &manager, "retrain to start", |m| {
        m.counters().retrains_started.get() >= 1
    });
    // Shadow scoring on mirrored traffic → gate → snapshot-then-swap.
    drive_until(&mut c, &workload, &manager, "hot swap", |m| {
        m.counters().swaps.get() >= 1
    });
    // Post-swap guard window closes clean: promotion, never rollback.
    drive_until(&mut c, &workload, &manager, "promotion", |m| {
        m.counters().promotions.get() >= 1
    });

    stop.store(true, Ordering::Relaxed);
    let answered = hammer.join().expect("hammer thread");
    assert!(answered > 0, "hammer must have run during the drill");

    let counters = manager.counters();
    assert_eq!(counters.rollbacks.get(), 0, "happy path must not roll back");
    assert_eq!(counters.retrains_failed.get(), 0);
    assert!(
        store.generation("imdb").unwrap() > 1,
        "the swap must bump the serving generation"
    );
    // The pre-swap model was snapshotted before being replaced.
    assert!(
        std::fs::read_dir(&snap_dir)
            .unwrap()
            .flatten()
            .any(|e| e.path().extension().is_some_and(|x| x == "snap")),
        "swap must leave a durable rollback snapshot"
    );

    // The wire status reflects the drill's end state.
    let line = c.send_raw("LIFECYCLE imdb").unwrap();
    assert!(
        line.starts_with("OK LIFECYCLE imdb phase="),
        "status line: {line}"
    );
    assert!(line.contains("rollbacks=0"), "status line: {line}");

    let m = server.shutdown();
    assert_eq!(m.errors, 0, "zero failed responses across the whole drill");
    let _ = std::fs::remove_dir_all(&snap_dir);
}

#[test]
fn poisoned_candidate_is_rolled_back_with_answers_restored() {
    let db = tiny_db(42);
    let store = Arc::new(SketchStore::new());
    store.insert("imdb", tiny_sketch(&db, 7)).unwrap();

    let server = Server::start(
        Arc::clone(&db),
        Arc::clone(&store),
        ServeConfig::builder()
            .request_timeout(Duration::from_secs(30))
            .lifecycle(Some(drill_lifecycle_config()))
            .build()
            .unwrap(),
    )
    .unwrap();
    let manager = server.lifecycle().expect("lifecycle enabled");
    manager.set_poison(true);
    let workload = drifted_workload(&db, 16);

    let mut c = Client::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();
    let before = c.send_raw(&format!("ESTIMATE imdb {PROBE_SQL}")).unwrap();
    assert!(before.starts_with("OK "), "pre-drill line: {before}");

    // The poisoned candidate passes the shadow gate (it is corrupted only
    // after the gate — modeling a bad model the gate failed to catch), is
    // swapped in, regresses against live feedback, and the guard rolls
    // back to the previous model.
    drive_until(
        &mut c,
        &workload,
        &manager,
        "swap of the poisoned candidate",
        |m| m.counters().swaps.get() >= 1,
    );
    drive_until(&mut c, &workload, &manager, "rollback", |m| {
        m.counters().rollbacks.get() >= 1
    });

    let counters = manager.counters();
    assert_eq!(
        counters.promotions.get(),
        0,
        "the poisoned candidate must not be promoted"
    );

    // Rollback restored the exact previous model: the probe answer is
    // byte-identical to what it was before the drill started.
    let after = c.send_raw(&format!("ESTIMATE imdb {PROBE_SQL}")).unwrap();
    assert_eq!(after, before, "rollback must restore bit-identical answers");

    let m = server.shutdown();
    assert_eq!(
        m.errors, 0,
        "zero failed responses across the rollback drill"
    );
}
