//! In-process fleet integration tests: real TCP shards, wire-shipped
//! replication, failover, healing, snapshot adoption and warm restarts.
//!
//! * Deploying a sketch ships a snapshot whose wire bytes are
//!   **bit-identical** to the durable `DSNP` file the store writes — one
//!   format, disk and wire.
//! * Killing a replica mid-traffic fails estimates over to the survivor
//!   with bit-identical answers; restart + heal restores R-way replication
//!   at the same generation.
//! * One table of snapshot offers is driven through both ways a snapshot
//!   enters a store: as a file through `SketchStore::recover`, and as a
//!   `SYNC` to a live server. Each path adopts the intact offer and
//!   refuses every other one alike: a typed reason or `ERR decode`, the
//!   payload quarantined on disk (no copy ever overwritten, not even by a
//!   restarted server), and the store still serving what it served.
//! * A server restarted on its snapshot directory serves what it saved
//!   there, drift windows included.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ds_core::monitor::{MonitorRegistry, MonitorState, QErrorMonitor};
use ds_core::sketch::DeepSketch;
use ds_core::snapshot::{
    encode_hex, encode_snapshot, seal, snapshot_path, write_snapshot_bytes, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
use ds_core::store::{QuarantineReason, SketchStore};
use ds_query::parser::parse_query;
use ds_serve::fleet::FleetConfig;
use ds_serve::{Client, Fleet, Response, ServeConfig, Server, SyncAck};
use ds_storage::catalog::Database;

mod common;
use common::{stat, tiny_db, tiny_sketch};

const SQL: &str = "SELECT COUNT(*) FROM title WHERE title.kind_id = 1";

fn fleet_config(shards: usize, replication: usize) -> FleetConfig {
    FleetConfig {
        shards,
        replication,
        server: ServeConfig::builder()
            .request_timeout(Duration::from_secs(30))
            .build()
            .unwrap(),
        timeout: Duration::from_secs(30),
    }
}

/// Deploy ships the primary's snapshot to every replica over the wire, and
/// the shipped bytes match the durable `DSNP` file bit for bit.
#[test]
fn deploy_ships_bit_identical_snapshots_to_all_replicas() {
    let db = tiny_db(42);
    let sketch = tiny_sketch(&db, 7);
    let expected = sketch.estimate_one(&parse_query(&db, SQL).unwrap());
    let mut fleet = Fleet::start(Arc::clone(&db), fleet_config(3, 2)).unwrap();
    let replicas = fleet.deploy("imdb", sketch).unwrap();
    assert_eq!(replicas.len(), 2, "R=2 must place two copies");

    // Every replica holds the same generation and answers with the same
    // bits, straight over its own wire.
    let mut blobs = Vec::new();
    for &shard in &replicas {
        let store = fleet.store(shard);
        assert_eq!(store.generation("imdb"), Some(1), "shard {shard}");
        let mut conn = fleet.client_connection(shard).unwrap();
        let (generation, bytes) = conn.fetch_snapshot("imdb").unwrap();
        assert_eq!(generation, 1);
        blobs.push(bytes);
    }
    assert_eq!(blobs[0], blobs[1], "replicas must hold identical blobs");

    // Wire blob == durable snapshot file, byte for byte.
    let dir = std::env::temp_dir().join(format!("ds_fleet_ship_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = fleet
        .store(replicas[0])
        .save_snapshot(&dir, "imdb", None)
        .unwrap();
    let on_disk = std::fs::read(&path).unwrap();
    assert_eq!(
        blobs[0], on_disk,
        "the shipped snapshot and the durable file are the same format"
    );
    std::fs::remove_dir_all(&dir).ok();

    // Non-replica shards must NOT hold the sketch.
    for shard in 0..3 {
        if !replicas.contains(&shard) {
            assert_eq!(fleet.store(shard).generation("imdb"), None);
        }
    }

    // The routing client answers bit-identically.
    let mut client = fleet.client();
    let (v, degraded) = client.estimate("imdb", SQL).unwrap();
    assert!(!degraded);
    assert_eq!(v.to_bits(), expected.to_bits());
    fleet.shutdown();
}

/// Killing a replica fails traffic over to the survivor; restart + heal
/// restores R-way replication at the original generation.
#[test]
fn replica_death_fails_over_then_heal_restores_replication() {
    let db = tiny_db(42);
    let sketch = tiny_sketch(&db, 7);
    let expected = sketch.estimate_one(&parse_query(&db, SQL).unwrap());
    let mut fleet = Fleet::start(Arc::clone(&db), fleet_config(3, 2)).unwrap();
    let replicas = fleet.deploy("imdb", sketch).unwrap();
    let mut client = fleet.client();

    // Pin affinity to the shard we are about to kill.
    let (v, _) = client.estimate("imdb", SQL).unwrap();
    assert_eq!(v.to_bits(), expected.to_bits());

    // Kill the primary: its store is gone (machine loss, not reboot).
    let victim = replicas[0];
    fleet.kill(victim);
    assert!(!fleet.is_alive(victim));

    // Traffic keeps succeeding, bit-identically: the client's affinity
    // still points at the corpse, so the first request visibly fails over
    // to the survivor.
    let deadline = Instant::now() + Duration::from_secs(30);
    for _ in 0..5 {
        let (v, degraded) = client
            .estimate_with_deadline("imdb", SQL, deadline)
            .unwrap();
        assert!(!degraded);
        assert_eq!(v.to_bits(), expected.to_bits());
    }
    assert!(
        client.counters().failovers.get() >= 1,
        "at least one request must have failed over"
    );

    // Gossip sees the corpse and steers the client away from it, so later
    // requests skip the doomed first attempt entirely.
    let health = fleet.gossip();
    assert!(!health[victim].alive);
    assert!(health[victim].degraded());
    fleet.steer(&mut client);
    let (v, _) = client.estimate("imdb", SQL).unwrap();
    assert_eq!(v.to_bits(), expected.to_bits());

    // Restart empty, heal: the survivor re-ships the snapshot and the
    // original generation is preserved — nothing was lost.
    fleet.restart(victim).unwrap();
    assert_eq!(fleet.store(victim).generation("imdb"), None);
    let restored = fleet.heal().unwrap();
    assert!(restored >= 1, "heal must re-replicate the lost copy");
    assert_eq!(fleet.store(victim).generation("imdb"), Some(1));
    for &shard in &replicas {
        let (v2, _) = fleet.store(shard).get_with_generation("imdb").unwrap();
        let got = v2.estimate_one(&parse_query(&db, SQL).unwrap());
        assert_eq!(got.to_bits(), expected.to_bits(), "shard {shard}");
    }
    // A healed fleet needs no further resyncs.
    assert_eq!(fleet.heal().unwrap(), 0, "second heal must be a no-op");
    fleet.shutdown();
}

/// Samples in the drift window the intact offer carries.
const SAMPLES: u64 = 5;

/// One row of the adoption table: bytes offered as `imdb` at generation 2
/// to a store serving generation 1, and what `adopt` must answer — `None`
/// adopts; a `Corrupt` reason matches any message containing its text.
struct Offer {
    row: &'static str,
    bytes: Vec<u8>,
    refused: Option<QuarantineReason>,
}

/// The table with its fixture: generation 1 of `imdb` serves `served`;
/// the intact offer, last, carries `offered` and a drift window.
struct Table {
    db: Arc<Database>,
    served: DeepSketch,
    offered: DeepSketch,
    first: Vec<u8>,
    offers: Vec<Offer>,
}

fn table() -> Table {
    let db = tiny_db(42);
    let (served, offered) = (tiny_sketch(&db, 7), tiny_sketch(&db, 8));
    let monitors = MonitorRegistry::new();
    for i in 0..SAMPLES {
        monitors.monitor("imdb").record("t", (i + 2) as f64, 1.0);
    }
    let window = monitors.get("imdb").unwrap().export_state();
    let snap = |name, generation, window| encode_snapshot(name, generation, &offered, window);
    let intact = snap("imdb", 2, Some(&window));
    let truncated = intact[..intact.len() / 2].to_vec();
    let mut flipped = intact.clone();
    flipped[intact.len() / 2] ^= 0x40;
    let bad_words = MonitorState {
        overall: vec![0; 3],
        templates: Vec::new(),
    };
    assert!(QErrorMonitor::from_state(&bad_words).is_none());
    // A sealed snapshot whose sketch sets the frozen-section flag, as
    // older writers did when they stored the artifact too.
    let mut blob = offered.to_bytes();
    let flag = blob.len() - 8;
    blob[flag..].copy_from_slice(&1u64.to_le_bytes());
    let frozen = seal(&SNAPSHOT_MAGIC, SNAPSHOT_VERSION, |e| {
        e.string("imdb");
        e.u64(2);
        e.bytes(&blob);
        e.u64(0);
    });
    use QuarantineReason::{MonitorState as Monitor, NameMismatch as Mismatch};
    let corrupt = |m: &str| Some(QuarantineReason::Corrupt(m.to_string()));
    let offer = |row, bytes, refused| Offer {
        row,
        bytes,
        refused,
    };
    let offers = vec![
        offer("truncated", truncated, corrupt("checksum")),
        offer("bit-flipped", flipped, corrupt("checksum")),
        offer("another name", snap("other", 2, None), Some(Mismatch)),
        offer("another generation", snap("imdb", 3, None), Some(Mismatch)),
        offer(
            "bad monitor words",
            snap("imdb", 2, Some(&bad_words)),
            Some(Monitor),
        ),
        offer("frozen artifact", frozen, corrupt("stored frozen artifact")),
        offer("intact", intact, None),
    ];
    Table {
        first: encode_snapshot("imdb", 1, &served, None),
        db,
        served,
        offered,
        offers,
    }
}

impl Table {
    /// The bits `sketch` answers the probe query with.
    fn bits(&self, sketch: &DeepSketch) -> u64 {
        let probe = parse_query(&self.db, SQL).unwrap();
        sketch.estimate_one(&probe).to_bits()
    }

    /// The bits a store must serve after this offer.
    fn want_bits(&self, offer: &Offer) -> u64 {
        self.bits(match offer.refused {
            Some(_) => &self.served,
            None => &self.offered,
        })
    }
}

fn same_reason(got: &QuarantineReason, want: &QuarantineReason) -> bool {
    match (got, want) {
        (QuarantineReason::Corrupt(got), QuarantineReason::Corrupt(want)) => got.contains(want),
        _ => got == want,
    }
}

/// Every payload kept under `<dir>/quarantine/`, sorted.
fn quarantined(dir: &Path) -> Vec<Vec<u8>> {
    let Ok(entries) = std::fs::read_dir(dir.join("quarantine")) else {
        return Vec::new();
    };
    let mut kept: Vec<Vec<u8>> =
        (entries.map(|e| std::fs::read(e.unwrap().path()).unwrap())).collect();
    kept.sort();
    kept
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ds_fleet_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A server over `store` on the snapshot directory `dir`, and a client.
fn serve(db: &Arc<Database>, store: &Arc<SketchStore>, dir: &Path) -> (Server, Client) {
    let cfg = ServeConfig::builder()
        .request_timeout(Duration::from_secs(30))
        .snapshot_dir(Some(dir.to_path_buf()))
        .build()
        .unwrap();
    let server = Server::start(Arc::clone(db), Arc::clone(store), cfg).unwrap();
    let conn = Client::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();
    (server, conn)
}

/// The served estimate's bits for the probe query.
fn probe(conn: &mut Client) -> u64 {
    match conn.estimate("imdb", SQL).unwrap() {
        Response::Estimate(v) => v.to_bits(),
        other => panic!("expected an estimate, got {other:?}"),
    }
}

/// `ds_serve_sync_rejected` and `ds_serve_sync_quarantined`.
fn sync_stats(conn: &mut Client) -> [f64; 2] {
    ["ds_serve_sync_rejected", "ds_serve_sync_quarantined"].map(|name| stat(conn, name))
}

/// The table as files: beside a durable generation 1 and an interrupted
/// write's `.tmp`, each offer is `imdb`'s generation-2 snapshot file, and
/// `recover` adopts it or quarantines it with its typed reason, falling
/// back to generation 1. Recovered twice, a refused file keeps both copies.
#[test]
fn recovery_adopts_or_quarantines_every_offer_of_the_table() {
    let t = table();
    let root = temp_dir("table_disk");
    for offer in &t.offers {
        let row = offer.row;
        let dir = root.join(row.replace(' ', "_"));
        let first = write_snapshot_bytes(&dir, "imdb", 1, &t.first).unwrap();
        for round in 1..=2 {
            write_snapshot_bytes(&dir, "imdb", 2, &offer.bytes).unwrap();
            std::fs::write(dir.join("imdb.00000000000000000003.tmp"), &offer.bytes).unwrap();
            let (store, monitors) = (SketchStore::new(), MonitorRegistry::new());
            let report = store.recover(&dir, &monitors).unwrap();
            assert_eq!(report.removed_temps.len(), 1, "{row}: {report:?}");
            assert_eq!(t.bits(&store.get("imdb").unwrap()), t.want_bits(offer));
            match &offer.refused {
                None => {
                    assert_eq!(report.loaded, [("imdb".to_string(), 2)], "{row}");
                    assert_eq!(report.stale, std::slice::from_ref(&first), "{row}");
                    assert!(report.quarantined.is_empty(), "{row}: {report:?}");
                    assert_eq!(monitors.get("imdb").unwrap().samples(), SAMPLES);
                    // Re-exported, the adopted snapshot is the offered bytes.
                    let exported = store.export_snapshot("imdb", Some(&monitors)).unwrap();
                    assert_eq!(exported, (offer.bytes.clone(), 2), "{row}");
                    assert!(quarantined(&dir).is_empty(), "{row}");
                }
                Some(want) => {
                    assert_eq!(report.loaded, [("imdb".to_string(), 1)], "{row}");
                    let [(kept, got)] = &report.quarantined[..] else {
                        panic!("{row}: one file quarantined: {report:?}");
                    };
                    assert!(same_reason(got, want), "{row}: {got:?}");
                    assert_eq!(std::fs::read(kept).unwrap(), offer.bytes, "{row}");
                    assert!(first.exists(), "{row}: generation 1 is left in place");
                    assert!(!snapshot_path(&dir, "imdb", 2).exists(), "{row}");
                    assert!(monitors.get("imdb").is_none(), "{row}");
                    assert_eq!(quarantined(&dir), vec![offer.bytes.clone(); round]);
                }
            }
        }
    }
    std::fs::remove_dir_all(&root).ok();
}

/// The table over the wire: a live server on a snapshot directory that
/// does not exist yet answers each refused offer, and the two only a wire
/// can carry (bad hex, a wrong length), with `ERR decode`, keeps every
/// payload under `quarantine/`, counts each in `STATS` with the tracer
/// off, and goes on serving generation 1; the intact offer then adopts
/// with its drift window, and its replay is stale.
#[test]
fn sync_adopts_or_refuses_every_offer_of_the_table() {
    let t = table();
    let dir = temp_dir("table_sync");
    let store = Arc::new(SketchStore::new());
    let (server, mut conn) = serve(&t.db, &store, &dir);
    let adopted = conn.sync_snapshot("imdb", 1, &t.first).unwrap();
    assert_eq!(adopted, SyncAck::Adopted(1));
    assert!(!ds_obs::global().is_enabled());

    let (refused, intact): (Vec<&Offer>, Vec<&Offer>) =
        t.offers.iter().partition(|o| o.refused.is_some());
    let [intact] = intact[..] else {
        panic!("one intact offer");
    };
    let (mut kept, mut rejected) = (Vec::new(), 0.0);
    let mut refusal = |conn: &mut Client, row: &str, reply: String, payload: Option<&Vec<u8>>| {
        assert!(reply.starts_with("ERR decode "), "{row}: {reply}");
        assert_eq!(store.generation("imdb"), Some(1), "{row}");
        assert_eq!(probe(conn), t.bits(&t.served), "{row}");
        kept.extend(payload.cloned());
        kept.sort();
        rejected += 1.0;
        assert_eq!(quarantined(&dir), kept, "{row}");
        assert_eq!(sync_stats(conn), [rejected, kept.len() as f64], "{row}");
    };
    for offer in refused {
        let err = conn.sync_snapshot("imdb", 2, &offer.bytes).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{}", offer.row);
        refusal(&mut conn, offer.row, err.to_string(), Some(&offer.bytes));
    }
    let reply = conn.send_raw("SYNC imdb 2 2 zz").unwrap();
    refusal(&mut conn, "bad hex", reply, None);
    let hex = encode_hex(&intact.bytes);
    let reply = conn.send_raw(&format!("SYNC imdb 2 1 {hex}")).unwrap();
    refusal(&mut conn, "a wrong length", reply, Some(&intact.bytes));

    let adopted = conn.sync_snapshot("imdb", 2, &intact.bytes).unwrap();
    assert_eq!(adopted, SyncAck::Adopted(2));
    assert_eq!(store.generation("imdb"), Some(2));
    assert_eq!(probe(&mut conn), t.want_bits(intact));
    assert_eq!(server.monitors().get("imdb").unwrap().samples(), SAMPLES);
    let exported = conn.fetch_snapshot("imdb").unwrap();
    assert_eq!(
        exported,
        (2, intact.bytes.clone()),
        "re-exported as offered"
    );
    let replayed = conn.sync_snapshot("imdb", 2, &intact.bytes).unwrap();
    assert_eq!(replayed, SyncAck::Stale(2));
    assert_eq!(sync_stats(&mut conn), [rejected, kept.len() as f64]);

    conn.quit().unwrap();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A warm restart: a server on a snapshot directory grades `FEEDBACK`,
/// saves the sketch with its drift window and shuts down; a server started
/// on the same directory with an empty store serves the sketch at its
/// generation, bit for bit, with the window it saved.
#[test]
fn a_restarted_server_serves_its_snapshot_directory_with_its_drift_window() {
    const FEEDBACKS: u64 = 7;
    let db = tiny_db(42);
    let dir = temp_dir("warm");
    let store = Arc::new(SketchStore::new());
    store.insert("imdb", tiny_sketch(&db, 7)).unwrap();
    let (server, mut conn) = serve(&db, &store, &dir);
    for actual in 1..=FEEDBACKS {
        conn.feedback_value("imdb", actual * 100, SQL).unwrap();
    }
    let served = probe(&mut conn);
    let monitors = server.monitors();
    store.save_snapshot(&dir, "imdb", Some(&monitors)).unwrap();
    conn.quit().unwrap();
    server.shutdown();

    let restarted = Arc::new(SketchStore::new());
    let (server, mut conn) = serve(&db, &restarted, &dir);
    assert_eq!(restarted.generation("imdb"), store.generation("imdb"));
    assert_eq!(probe(&mut conn), served);
    let window = server.monitors().get("imdb").map(|m| m.samples());
    assert_eq!(window, Some(FEEDBACKS), "the drift window survives");
    conn.quit().unwrap();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A server restarted on the same snapshot directory counts its rejections
/// from one again; the payload it quarantines must not overwrite the one
/// its predecessor kept.
#[test]
fn a_restarted_server_keeps_its_predecessors_quarantine() {
    let db = tiny_db(42);
    let good = encode_snapshot("imdb", 1, &tiny_sketch(&db, 7), None);
    let dir = temp_dir("requar");
    let mut rejected = Vec::new();
    for flip in [0x40, 0x20] {
        let (server, mut conn) = serve(&db, &Arc::new(SketchStore::new()), &dir);
        let mut corrupt = good.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= flip;
        conn.sync_snapshot("imdb", 1, &corrupt).unwrap_err();
        rejected.push(corrupt);
        conn.quit().unwrap();
        server.shutdown();
    }
    rejected.sort();
    let kept = quarantined(&dir);
    assert!(
        kept == rejected,
        "{} files kept for 2 rejections",
        kept.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}
