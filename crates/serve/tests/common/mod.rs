//! The one fixture of the serve suites: a tiny synthetic IMDb, a sketch
//! that trains on it in well under a second, and a server over the two;
//! plus the scaffolding several suites share: a spawned server process, a
//! `STATS` sample, and the lifecycle drills' config and workload.

// Each suite is its own crate and uses its own subset of this module.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use ds_core::builder::SketchBuilder;
use ds_core::lifecycle::LifecycleConfig;
use ds_core::sketch::DeepSketch;
use ds_core::store::SketchStore;
use ds_query::generator::{GeneratorConfig, QueryGenerator};
use ds_query::query::Query;
use ds_query::sqlgen::to_sql;
use ds_query::workloads::imdb_predicate_columns;
use ds_serve::{Client, ServeConfig, Server};
use ds_storage::catalog::Database;
use ds_storage::gen::{imdb_database, ImdbConfig};

/// The tiny synthetic IMDb generated from `seed`.
pub fn tiny_db(seed: u64) -> Arc<Database> {
    Arc::new(imdb_database(&ImdbConfig::tiny(seed)))
}

/// A sketch small enough to train per test; `seed` picks the training
/// queries and the initial weights, so different seeds answer differently.
pub fn tiny_sketch(db: &Database, seed: u64) -> DeepSketch {
    SketchBuilder::new(db, imdb_predicate_columns(db))
        .training_queries(120)
        .epochs(2)
        .sample_size(8)
        .hidden_units(8)
        .seed(seed)
        .build()
        .expect("tiny sketch")
}

/// The standard pair: `tiny_db(42)` and a store serving `tiny_sketch(.., 7)`
/// as `imdb`.
pub fn fixture() -> (Arc<Database>, Arc<SketchStore>) {
    let db = tiny_db(42);
    let store = Arc::new(SketchStore::new());
    store.insert("imdb", tiny_sketch(&db, 7)).unwrap();
    (db, store)
}

/// A server over [`fixture`], with the database and store it serves.
pub fn start(cfg: ServeConfig) -> (Server, Arc<Database>, Arc<SketchStore>) {
    let (db, store) = fixture();
    let server = Server::start(Arc::clone(&db), Arc::clone(&store), cfg).unwrap();
    (server, db, store)
}

/// A server over `db` and `store` with a 30 s request deadline, and a
/// client of it.
pub fn serve(db: &Arc<Database>, store: &Arc<SketchStore>) -> (Server, Client) {
    let cfg = ServeConfig::builder().request_timeout(Duration::from_secs(30));
    let server = Server::start(Arc::clone(db), Arc::clone(store), cfg.build().unwrap()).unwrap();
    let client = connect(server.local_addr());
    (server, client)
}

/// One spawned server process (`ds_shard` or `ds_fleetmon`); killed on
/// drop so a failing test never leaks servers.
pub struct Proc {
    pub child: Child,
    pub addr: SocketAddr,
}

impl Proc {
    /// Spawns `bin` with `args` and reads the `ADDR` banner it prints
    /// once listening.
    pub fn spawn(bin: &str, args: &[String]) -> Proc {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn server process");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read ADDR line");
        let addr = line
            .trim()
            .strip_prefix("ADDR ")
            .unwrap_or_else(|| panic!("bad banner {line:?}"))
            .parse()
            .expect("parse server addr");
        Proc { child, addr }
    }

    /// SIGKILL — the real thing, no graceful shutdown.
    pub fn kill(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A client of the server at `addr`, with a 30 s timeout.
pub fn connect(addr: SocketAddr) -> Client {
    Client::connect_timeout(addr, Duration::from_secs(30)).expect("connect")
}

/// The value of the `STATS` sample `name`.
pub fn stat(c: &mut Client, name: &str) -> f64 {
    c.stats()
        .unwrap()
        .iter()
        .find(|s| s.name == name)
        .map(|s| s.value)
        .unwrap_or_else(|| panic!("missing sample {name}"))
}

/// The lifecycle drills' injected correlation shift: every observed true
/// cardinality is the executed count times this factor, so the live model
/// (trained pre-shift) is ~64x off while a candidate trained on the
/// shifted labels is not.
pub const DRIFT_FACTOR: u64 = 64;

/// The lifecycle drills' config: small windows and a 25 ms tick, with
/// candidates trained for `train_epochs`.
pub fn drill_lifecycle_config(train_epochs: usize) -> LifecycleConfig {
    LifecycleConfig {
        harvest_capacity: 256,
        min_harvest: 12,
        drift_ratio: 2.0,
        drift_min_samples: 8,
        shadow_min_samples: 6,
        shadow_gate_ratio: 2.0,
        guard_min_samples: 6,
        guard_ratio: 3.0,
        train_epochs,
        train_threads: 1,
        seed: 0x50AC,
        tick_interval: Duration::from_millis(25),
    }
}

/// A server config for the lifecycle drills: [`drill_lifecycle_config`],
/// a 30 s request deadline and, when given, a snapshot directory.
pub fn drill_serve_config(train_epochs: usize, snapshot_dir: Option<PathBuf>) -> ServeConfig {
    let lifecycle = Some(drill_lifecycle_config(train_epochs));
    let builder = ServeConfig::builder().request_timeout(Duration::from_secs(30));
    builder
        .snapshot_dir(snapshot_dir)
        .lifecycle(lifecycle)
        .build()
        .unwrap()
}

/// `want` distinct drill queries with their *shifted* true cardinalities:
/// the executed count times [`DRIFT_FACTOR`]. Deterministic (seeded
/// generator, seeded database), so a parent and a child process derive it
/// identically.
pub fn drifted_workload(db: &Database, want: usize) -> Vec<(String, u64)> {
    let mut generator =
        QueryGenerator::new(db, GeneratorConfig::new(imdb_predicate_columns(db), 9));
    let mut by_sql = BTreeMap::new();
    while by_sql.len() < want {
        for q in generator.generate_batch(16) {
            by_sql.entry(to_sql(db, &q)).or_insert(q);
        }
    }
    let (sqls, queries): (Vec<String>, Vec<_>) = by_sql.into_iter().unzip();
    sqls.into_iter()
        .zip(true_counts(db, &queries))
        .map(|(sql, c)| (sql, c.saturating_mul(DRIFT_FACTOR)))
        .collect()
}

/// True cardinalities for a workload, floored at 1 (the estimate floor).
pub fn true_counts(db: &Database, queries: &[Query]) -> Vec<u64> {
    let execs: Vec<_> = queries.iter().map(Query::to_exec).collect();
    ds_storage::exec::CountExecutor::new()
        .count_batch(db, &execs, 1)
        .expect("workload executes")
        .into_iter()
        .map(|c| c.max(1))
        .collect()
}
