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
//! Phase B shifts the data by a far larger [`FAR_DRIFT`], then moves it
//! back once the candidate is swapped in (every reported count is the
//! executed count again, which the candidate, trained on the shifted
//! counts, misjudges and the model it replaced reads far better) and
//! asserts the post-swap guard, grading both models on the same queries,
//! rolls back to the previous model with bit-identical answers restored.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ds_core::lifecycle::LifecycleManager;
use ds_core::store::SketchStore;
use ds_serve::{Client, Server};

mod common;
use common::{drifted_workload, drill_serve_config, tiny_db, tiny_sketch, DRIFT_FACTOR};

/// Phase B's shift. The drill's tiny models answer near-constants: trained
/// on [`DRIFT_FACTOR`], a candidate answers ≈ 2.8× its rollback target, so
/// no counts can set their q-errors further apart than the guard's 3×.
/// Trained on this shift, it answers far from its target.
const FAR_DRIFT: u64 = 1 << 20;

const PROBE_SQL: &str = "SELECT COUNT(*) FROM title WHERE title.kind_id = 1";

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

    let cfg = drill_serve_config(6, Some(snap_dir.clone()));
    let server = Server::start(Arc::clone(&db), Arc::clone(&store), cfg).unwrap();
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
fn drift_after_the_swap_is_rolled_back_with_answers_restored() {
    let db = tiny_db(42);
    let store = Arc::new(SketchStore::new());
    store.insert("imdb", tiny_sketch(&db, 7)).unwrap();

    let cfg = drill_serve_config(6, None);
    let server = Server::start(Arc::clone(&db), Arc::clone(&store), cfg).unwrap();
    let manager = server.lifecycle().expect("lifecycle enabled");
    // The drill queries with their executed counts, and shifted far.
    let executed: Vec<(String, u64)> = drifted_workload(&db, 16)
        .into_iter()
        .map(|(sql, actual)| (sql, actual / DRIFT_FACTOR))
        .collect();
    let shifted: Vec<(String, u64)> = executed
        .iter()
        .map(|(sql, actual)| (sql.clone(), actual * FAR_DRIFT))
        .collect();

    let mut c = Client::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();
    let before = c.send_raw(&format!("ESTIMATE imdb {PROBE_SQL}")).unwrap();
    assert!(before.starts_with("OK "), "pre-drill line: {before}");

    // A candidate trained on the drifted counts passes the shadow gate and
    // is swapped in. One line at a time, so at most one drifted line
    // reaches the guard window.
    let deadline = Instant::now() + Duration::from_secs(120);
    for line in shifted.iter().cycle() {
        if manager.counters().swaps.get() >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no swap: {:?}",
            manager.counters()
        );
        feedback_round(&mut c, std::slice::from_ref(line));
    }
    // Then the data moves back: on the same queries the candidate reads far
    // worse than the model it replaced, so the guard swaps that one back.
    drive_until(&mut c, &executed, &manager, "rollback", |m| {
        m.counters().rollbacks.get() >= 1
    });

    let counters = manager.counters();
    assert_eq!(
        counters.promotions.get(),
        0,
        "a candidate worse than the model it replaced must not be promoted"
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
