//! Nightly long-soak kill drill: a real server with the lifecycle daemon
//! enabled is `kill -9`ed mid-retrain, and a warm restart from an empty
//! store and the snapshot directory alone must come up clean — the
//! recovered store serves the last durable generation, the
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

use ds_core::lifecycle::HarvestSet;
use ds_core::store::SketchStore;
use ds_serve::{Client, Server};

mod common;
use common::{drifted_workload, drill_lifecycle_config, drill_serve_config, tiny_db, tiny_sketch};

/// Deliberately heavy epochs: the kill should land while the candidate is
/// still training.
const TRAIN_EPOCHS: usize = 64;
const PROBE_SQL: &str = "SELECT COUNT(*) FROM title WHERE title.kind_id = 1";

fn iterations() -> usize {
    std::env::var("DS_LIFECYCLE_KILL_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

/// Child half: starts a lifecycle-enabled server with an empty store on
/// `DS_LC_KILL_DIR`, which it recovers and persists into, drives
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
    let store = Arc::new(SketchStore::new());
    let cfg = drill_serve_config(TRAIN_EPOCHS, Some(dir.clone()));
    let server = Server::start(Arc::clone(&db), Arc::clone(&store), cfg).expect("child: server");
    assert!(
        store.generation("imdb").is_some(),
        "child: seeded sketch must recover"
    );
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
    let cfg = drill_lifecycle_config(TRAIN_EPOCHS);

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

        // Any persisted harvest still decodes canonically.
        let harvested = HarvestSet::load(&dir, "imdb", cfg.harvest_capacity)
            .unwrap_or_else(|e| panic!("iter {iter}: persisted harvest must decode: {e:?}"));
        if let Some(set) = &harvested {
            assert!(!set.is_empty(), "iter {iter}: persisted harvest is empty");
        }

        // Warm restart: the same directory boots a serving,
        // lifecycle-enabled server again from an empty store; the last
        // durable generation loads, nothing is quarantined (no torn
        // snapshot was published), and the dead child's candidate was
        // abandoned with the process and nothing of it was published.
        let store = Arc::new(SketchStore::new());
        let serve = drill_serve_config(TRAIN_EPOCHS, Some(dir.clone()));
        let server = Server::start(Arc::clone(&db), Arc::clone(&store), serve)
            .unwrap_or_else(|e| panic!("iter {iter}: warm restart: {e}"));
        assert!(store.generation("imdb").is_some(), "iter {iter}: recovered");
        assert!(
            !dir.join("quarantine").exists(),
            "iter {iter}: kill -9 must never grow the quarantine"
        );
        let manager = server.lifecycle().expect("lifecycle enabled");
        if harvested.is_some() {
            assert!(
                manager.status("imdb").harvested > 0,
                "iter {iter}: warm restart must reload the persisted harvest"
            );
        }
        let mut c = Client::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();
        // `STATS` says the same as the directory: a generation adopted,
        // nothing quarantined.
        let samples = c.stats().unwrap();
        let stat = |name: &str| samples.iter().find(|s| s.name == name).map(|s| s.value);
        let adopted = stat("ds_serve_recovery_adopted").unwrap_or(0.0);
        assert!(adopted >= 1.0, "iter {iter}: adopted {adopted}");
        assert_eq!(
            stat("ds_serve_recovery_quarantined"),
            Some(0.0),
            "iter {iter}"
        );
        let line = c.send_raw(&format!("ESTIMATE imdb {PROBE_SQL}")).unwrap();
        assert!(line.starts_with("OK "), "iter {iter}: {line}");
        c.quit().unwrap();
        let m = server.shutdown();
        assert_eq!(m.errors, 0, "iter {iter}: warm restart must serve cleanly");
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&root).ok();
}
