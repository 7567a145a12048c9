//! Nightly long-soak kill drill: a real server with the lifecycle daemon
//! enabled is `kill -9`ed mid-retrain, and a warm restart must come up
//! clean — the recovered store serves the last durable generation, the
//! in-flight candidate is abandoned (its training thread died with the
//! process and nothing of it was published), the persisted harvest set
//! still decodes, and the quarantine never grows.
//!
//! The parent/child split follows the crash drill in
//! `ds-core/tests/crash_recovery.rs`: the `#[ignore]`d child test is
//! spawned from the current test binary by exact name, driven over env
//! vars, and killed at a staggered point after it signals (via a marker
//! file) that a retrain has started.
//!
//! `DS_LIFECYCLE_KILL_ITERS` scales the loop (nightly CI raises it).

use std::sync::Arc;
use std::time::{Duration, Instant};

use ds_core::lifecycle::{HarvestSet, LifecycleConfig};
use ds_core::store::SketchStore;
use ds_query::generator::{GeneratorConfig, QueryGenerator};
use ds_query::sqlgen::to_sql;
use ds_query::workloads::imdb_predicate_columns;
use ds_serve::{Client, ServeConfig, Server};
use ds_storage::catalog::Database;

mod common;
use common::{tiny_db, tiny_sketch};

const DRIFT_FACTOR: u64 = 64;
const PROBE_SQL: &str = "SELECT COUNT(*) FROM title WHERE title.kind_id = 1";

fn iterations() -> usize {
    std::env::var("DS_LIFECYCLE_KILL_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

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
        // Deliberately heavy epochs: the kill should land while the
        // candidate is still training.
        train_epochs: 64,
        train_threads: 1,
        seed: 0x50AC,
        tick_interval: Duration::from_millis(25),
    }
}

/// Deterministic drill workload with drift-shifted actuals (see
/// `lifecycle_soak.rs`); both parent and child derive it identically from
/// the seeded database.
fn drifted_workload(db: &Database, want: usize) -> Vec<(String, u64)> {
    let mut generator =
        QueryGenerator::new(db, GeneratorConfig::new(imdb_predicate_columns(db), 9));
    let mut by_sql = std::collections::BTreeMap::new();
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

/// Child half: recovers the store from `DS_LC_KILL_DIR`, starts a
/// lifecycle-enabled server persisting into the same directory, drives
/// drift-shifted feedback until a retrain starts, drops the marker file
/// the parent waits for, and keeps serving until SIGKILL. Ignored so plain
/// `cargo test` never runs it; exits immediately without the env contract.
#[test]
#[ignore = "spawned as a crash child by kill_nine_mid_retrain_restarts_clean"]
fn lifecycle_kill_child_server() {
    let Ok(dir) = std::env::var("DS_LC_KILL_DIR") else {
        return;
    };
    let dir = std::path::PathBuf::from(dir);
    let db = tiny_db(42);
    let (store, _monitors, report) = SketchStore::open_dir(&dir).expect("child: recover store");
    assert!(
        report.loaded.iter().any(|(n, _)| n == "imdb"),
        "child: seeded sketch must recover"
    );
    let server = Server::start(
        Arc::clone(&db),
        Arc::new(store),
        ServeConfig::builder()
            .request_timeout(Duration::from_secs(30))
            .snapshot_dir(Some(dir.clone()))
            .lifecycle(Some(drill_lifecycle_config()))
            .build()
            .unwrap(),
    )
    .expect("child: server");
    let manager = server.lifecycle().expect("child: lifecycle enabled");
    let workload = drifted_workload(&db, 16);
    let mut c = Client::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();
    let mut marked = false;
    loop {
        for (sql, actual) in &workload {
            let _ = c.send_raw(&format!("FEEDBACK imdb {actual} {sql}"));
        }
        if !marked && manager.counters().retrains_started.get() >= 1 {
            std::fs::write(dir.join("retrain.marker"), b"training").expect("child: marker");
            marked = true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Kills the child on drop so an assertion failure in the parent never
/// leaks the child's infinite serve loop.
struct ChildGuard(std::process::Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Parent half: seed a durable generation, spawn the child server, wait
/// for its retrain marker, `kill -9` at a staggered point, then assert a
/// warm restart is clean — recovered store serves, candidate abandoned,
/// harvest decodes, quarantine empty.
#[cfg(unix)]
#[test]
fn kill_nine_mid_retrain_restarts_clean() {
    let db = tiny_db(42);
    let sketch = tiny_sketch(&db, 7);
    let root = std::env::temp_dir().join(format!("ds_lc_kill_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let exe = std::env::current_exe().expect("test binary path");
    let cfg = drill_lifecycle_config();

    for iter in 0..iterations().clamp(1, 50) {
        let dir = root.join(format!("iter{iter:03}"));
        std::fs::create_dir_all(&dir).unwrap();
        // Seed the durable generation the child recovers from.
        {
            let store = SketchStore::new();
            store.insert("imdb", sketch.clone()).unwrap();
            store.save_snapshot(&dir, "imdb", None).unwrap();
        }

        let mut child = ChildGuard(
            std::process::Command::new(&exe)
                .args([
                    "lifecycle_kill_child_server",
                    "--ignored",
                    "--exact",
                    "--nocapture",
                ])
                .env("DS_LC_KILL_DIR", &dir)
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .spawn()
                .expect("spawn child server"),
        );

        // Wait for the child to reach the retrain, then land the SIGKILL
        // at a staggered point inside training/shadow.
        let marker = dir.join("retrain.marker");
        let deadline = Instant::now() + Duration::from_secs(120);
        while !marker.exists() {
            assert!(
                Instant::now() < deadline,
                "iter {iter}: child never reached a retrain"
            );
            if let Ok(Some(status)) = child.0.try_wait() {
                panic!("iter {iter}: child exited early: {status}");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        std::thread::sleep(Duration::from_millis((iter as u64 * 13) % 80));
        child.0.kill().expect("kill -9 child");
        let _ = child.0.wait();

        // Recovery: the last durable generation loads, nothing is
        // quarantined (no torn snapshot was published), and any persisted
        // harvest still decodes canonically.
        let (store, _monitors, report) =
            SketchStore::open_dir(&dir).unwrap_or_else(|e| panic!("iter {iter}: recovery: {e}"));
        assert!(
            report.loaded.iter().any(|(n, _)| n == "imdb"),
            "iter {iter}: {report:?}"
        );
        assert!(
            report.quarantined.is_empty(),
            "iter {iter}: kill -9 must never grow the quarantine: {report:?}"
        );
        let harvested = HarvestSet::load(&dir, "imdb", cfg.harvest_capacity)
            .unwrap_or_else(|e| panic!("iter {iter}: persisted harvest must decode: {e:?}"));
        if let Some(set) = &harvested {
            assert!(!set.is_empty(), "iter {iter}: persisted harvest is empty");
        }

        // Warm restart: the same directory boots a serving,
        // lifecycle-enabled server again; the dead child's candidate was
        // abandoned with the process and nothing of it was published.
        let server = Server::start(
            Arc::clone(&db),
            Arc::new(store),
            ServeConfig::builder()
                .request_timeout(Duration::from_secs(30))
                .snapshot_dir(Some(dir.clone()))
                .lifecycle(Some(drill_lifecycle_config()))
                .build()
                .unwrap(),
        )
        .unwrap_or_else(|e| panic!("iter {iter}: warm restart: {e}"));
        let manager = server.lifecycle().expect("lifecycle enabled");
        if harvested.is_some() {
            assert!(
                manager.status("imdb").harvested > 0,
                "iter {iter}: warm restart must reload the persisted harvest"
            );
        }
        let mut c = Client::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();
        let line = c.send_raw(&format!("ESTIMATE imdb {PROBE_SQL}")).unwrap();
        assert!(line.starts_with("OK "), "iter {iter}: {line}");
        c.quit().unwrap();
        let m = server.shutdown();
        assert_eq!(m.errors, 0, "iter {iter}: warm restart must serve cleanly");
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&root).ok();
}
