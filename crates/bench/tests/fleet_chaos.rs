//! A seeded replica of a 4-shard, R=2 fleet dies, restarts blank and heals
//! under open-loop load: no request fails forever, no generation is lost.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use ds_bench::loadgen::{run_open_loop, OpenLoopConfig};
use ds_bench::BENCH_SEED;
use ds_core::builder::SketchBuilder;
use ds_query::workloads::imdb_predicate_columns;
use ds_serve::{FaultInjector, Fleet, FleetClient, FleetConfig, ServeConfig};
use ds_storage::gen::{imdb_database, ImdbConfig};

const SQL: &str = "SELECT COUNT(*) FROM title t, movie_keyword mk \
                   WHERE mk.movie_id = t.id AND mk.keyword_id = 11";

#[test]
fn a_replica_killed_under_open_loop_load_loses_no_request_and_no_generation() {
    let db = Arc::new(imdb_database(&ImdbConfig::tiny(42)));
    let sketch = SketchBuilder::new(&db, imdb_predicate_columns(&db))
        .training_queries(120)
        .epochs(2)
        .sample_size(8)
        .hidden_units(8)
        .seed(7)
        .build()
        .expect("tiny sketch");
    let cfg = FleetConfig {
        shards: 4,
        replication: 2,
        server: ServeConfig::builder()
            .cache_capacity(0)
            .build()
            .expect("config"),
        timeout: Duration::from_secs(60),
    };
    let mut fleet = Fleet::start(Arc::clone(&db), cfg).expect("fleet");
    let replicas = fleet.deploy("imdb", sketch).expect("deploy");
    let generation = fleet
        .store(replicas[0])
        .generation("imdb")
        .expect("deployed");

    let faults = FaultInjector::new(BENCH_SEED ^ 31);
    faults.schedule_chaos_kill(replicas[faults.draw_shard(replicas.len())]);
    let clients: Vec<_> = (0..6)
        .map(|_| Mutex::new(FleetClient::new(fleet.topology())))
        .collect();
    let load = OpenLoopConfig {
        target_rps: 300.0,
        total: 600,
        workers: clients.len(),
        seed: BENCH_SEED ^ 32,
        deadline: Duration::from_secs(30),
    };
    let fleet = Mutex::new(fleet);
    let report = std::thread::scope(|s| {
        s.spawn(|| {
            // A fifth of the way in, kill the victim; shortly after, bring
            // a blank replacement up and heal it from the surviving copy.
            std::thread::sleep(Duration::from_millis(400));
            let victim = faults.next_chaos_kill().expect("scheduled kill");
            fleet.lock().unwrap().kill(victim);
            std::thread::sleep(Duration::from_millis(400));
            let mut fleet = fleet.lock().unwrap();
            fleet.restart(victim).expect("restart victim");
            fleet.heal().expect("heal fleet");
        });
        run_open_loop(&load, |_, worker| {
            let mut client = clients[worker].lock().unwrap();
            client.estimate("imdb", SQL).map(|_| ())
        })
    });
    let fleet = fleet.into_inner().unwrap();

    assert_eq!(report.failed_forever, 0, "no request may fail forever");
    assert_eq!(report.completed, load.total as u64);
    let counters = clients.iter().map(|c| c.lock().unwrap().counters());
    let failovers: u64 = counters.map(|c| c.failovers.get()).sum();
    assert!(failovers > 0, "the kill must land on live traffic");
    let lost: Vec<_> = replicas
        .iter()
        .filter(|&&s| !fleet.is_alive(s) || fleet.store(s).generation("imdb") != Some(generation))
        .collect();
    assert!(lost.is_empty(), "replicas {lost:?} lost the generation");
    fleet.shutdown();
}
