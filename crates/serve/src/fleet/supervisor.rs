//! An in-process fleet supervisor: real TCP shards, wire-shipped
//! replication, gossip, kill/restart, and re-replication.
//!
//! [`Fleet`] runs N [`Server`]s in one process (each with its own
//! [`SketchStore`], talking only over TCP), which is what the failover
//! tests and the bench harness need: every replication byte crosses the
//! real wire, but a "shard death" is a clean `shutdown()` instead of a
//! `kill -9`. The separate multi-process smoke test (`ds_shard` binary)
//! covers the genuinely-separate-address-space case; this supervisor
//! covers everything else cheaply and deterministically.
//!
//! The failover state machine, as exercised by [`Fleet::kill`] /
//! [`Fleet::restart`] / [`Fleet::heal`]:
//!
//! ```text
//!        deploy(name)            kill(i)              restart(i)
//! ready ───────────────▶ R live ───────────▶ R-1 live ─────────▶ R-1 live
//!                            ▲                (routing fails      + 1 empty
//!                            │                 over to the        │
//!                            │                 survivors)         │ heal()
//!                            └─────────────────────────────────────┘
//!                              (snapshot re-shipped from a survivor,
//!                               generation preserved, R restored)
//! ```

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use ds_core::sketch::DeepSketch;
use ds_core::store::SketchStore;
use ds_storage::catalog::Database;

use crate::client::{Client, SyncAck};
use crate::config::ServeConfig;
use crate::server::Server;

use super::{FleetClient, FleetTopology};

/// Tuning for an in-process [`Fleet`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of shard servers.
    pub shards: usize,
    /// Copies of each sketch (clamped to the shard count).
    pub replication: usize,
    /// Per-shard server config template; the bind address is overridden
    /// per shard.
    pub server: ServeConfig,
    /// Deadline for supervisor-side wire operations (snapshot shipping,
    /// gossip probes).
    pub timeout: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            shards: 3,
            replication: 2,
            server: ServeConfig::default(),
            timeout: Duration::from_secs(30),
        }
    }
}

/// One gossip observation of a shard's health.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealth {
    /// Shard index in the topology.
    pub shard: usize,
    /// Whether the shard answered its `STATS` probe at all.
    pub alive: bool,
    /// Sketches whose server-side circuit breaker is currently open.
    pub open_breakers: Vec<String>,
    /// SLOs whose multi-window burn-rate alert is firing on this shard
    /// (sanitized metric names from the exposition). A sustained
    /// latency/q-error burn demotes the shard exactly like a breaker trip.
    pub firing_slos: Vec<String>,
}

impl ShardHealth {
    /// Whether routing should steer away from this shard.
    pub fn degraded(&self) -> bool {
        !self.alive || !self.open_breakers.is_empty() || !self.firing_slos.is_empty()
    }
}

struct ShardNode {
    addr: SocketAddr,
    store: Arc<SketchStore>,
    server: Option<Server>,
}

/// An in-process fleet of real TCP shard servers.
pub struct Fleet {
    db: Arc<Database>,
    cfg: FleetConfig,
    nodes: Vec<ShardNode>,
    deployed: Vec<String>,
}

impl Fleet {
    /// Starts `cfg.shards` servers on OS-assigned ports, each with an
    /// empty store.
    pub fn start(db: Arc<Database>, cfg: FleetConfig) -> std::io::Result<Self> {
        let mut nodes = Vec::with_capacity(cfg.shards);
        for _ in 0..cfg.shards {
            let store = Arc::new(SketchStore::new());
            let mut server_cfg = cfg.server.clone();
            server_cfg.addr = "127.0.0.1:0".to_string();
            let server = Server::start(Arc::clone(&db), Arc::clone(&store), server_cfg)?;
            nodes.push(ShardNode {
                addr: server.local_addr(),
                store,
                server: Some(server),
            });
        }
        Ok(Self {
            db,
            cfg,
            nodes,
            deployed: Vec::new(),
        })
    }

    /// The fixed topology (addresses survive kill/restart cycles).
    pub fn topology(&self) -> FleetTopology {
        FleetTopology::new(
            self.nodes.iter().map(|n| n.addr).collect(),
            self.cfg.replication,
        )
    }

    /// A routing client over this fleet.
    pub fn client(&self) -> FleetClient {
        FleetClient::new(self.topology())
    }

    /// The store behind shard `i` (tests inspect generations directly).
    pub fn store(&self, shard: usize) -> Arc<SketchStore> {
        Arc::clone(&self.nodes[shard].store)
    }

    /// Whether shard `i` is currently running.
    pub fn is_alive(&self, shard: usize) -> bool {
        self.nodes[shard].server.is_some()
    }

    /// Deploys a sketch: inserts it into its primary replica's store —
    /// or, when the name is already deployed (a promoted lifecycle
    /// candidate), hot-swaps it under a fresh generation — then ships it
    /// to the remaining replicas over the wire (`SNAPSHOT` from the
    /// primary → `SYNC` into each, newest-wins). Returns the replica set.
    pub fn deploy(&mut self, name: &str, sketch: DeepSketch) -> std::io::Result<Vec<usize>> {
        let replicas = self.topology().replicas(name);
        let &primary = replicas.first().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, "fleet has no shards")
        })?;
        let store = &self.nodes[primary].store;
        if store.generation(name).is_some() {
            store
                .swap(name, Arc::new(sketch))
                .map_err(|e| std::io::Error::other(e.to_string()))?;
        } else {
            store
                .insert(name, sketch)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
        }
        if !self.deployed.iter().any(|n| n == name) {
            self.deployed.push(name.to_string());
        }
        self.replicate(name)?;
        Ok(replicas)
    }

    /// Ships `name` from a live replica that holds it to every other live
    /// replica in its set (newest-wins; already-current replicas ack
    /// `stale`, which is fine). Returns how many replicas adopted.
    pub fn replicate(&mut self, name: &str) -> std::io::Result<usize> {
        let replicas = self.topology().replicas(name);
        // Find the freshest live copy to ship from.
        let source = replicas
            .iter()
            .copied()
            .filter(|&i| self.nodes[i].server.is_some())
            .filter_map(|i| self.nodes[i].store.generation(name).map(|g| (g, i)))
            .max();
        let Some((_, source)) = source else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no live replica holds sketch '{name}'"),
            ));
        };
        let mut src = self.client_connection(source)?;
        let (generation, bytes) = src.fetch_snapshot(name)?;
        let mut adopted = 0;
        for &target in replicas.iter().filter(|&&i| i != source) {
            if self.nodes[target].server.is_none() {
                continue; // dead; heal() catches it up after restart
            }
            let mut dst = self.client_connection(target)?;
            match dst.sync_snapshot(name, generation, &bytes)? {
                SyncAck::Adopted(_) => adopted += 1,
                SyncAck::Stale(_) => {}
            }
        }
        Ok(adopted)
    }

    /// Kills shard `i`: graceful server shutdown, connections die, the
    /// store's contents are dropped (a restart starts empty — total local
    /// loss, the worst case re-replication must cover).
    pub fn kill(&mut self, shard: usize) {
        if let Some(server) = self.nodes[shard].server.take() {
            server.shutdown();
        }
        // Model a machine loss, not a reboot: the replacement shard starts
        // with nothing and must be re-seeded over the wire.
        self.nodes[shard].store = Arc::new(SketchStore::new());
    }

    /// Restarts a killed shard on its original address with an empty
    /// store. Retries the bind briefly — the OS may lag releasing the
    /// port after shutdown.
    pub fn restart(&mut self, shard: usize) -> std::io::Result<()> {
        if self.nodes[shard].server.is_some() {
            return Ok(());
        }
        let addr = self.nodes[shard].addr;
        let store = Arc::new(SketchStore::new());
        let mut server_cfg = self.cfg.server.clone();
        server_cfg.addr = addr.to_string();
        let mut last = None;
        for _ in 0..50 {
            match Server::start(Arc::clone(&self.db), Arc::clone(&store), server_cfg.clone()) {
                Ok(server) => {
                    self.nodes[shard].store = store;
                    self.nodes[shard].server = Some(server);
                    return Ok(());
                }
                Err(e) => {
                    last = Some(e);
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        Err(last.unwrap_or_else(|| std::io::Error::other("restart failed")))
    }

    /// Re-replicates every deployed sketch whose replica set has a live
    /// member missing it (or holding an older generation) — the recovery
    /// step after [`Fleet::restart`]. Returns the number of replica
    /// copies restored.
    pub fn heal(&mut self) -> std::io::Result<usize> {
        let mut restored = 0;
        for name in self.deployed.clone() {
            let replicas = self.topology().replicas(&name);
            let needs_copy = replicas.iter().any(|&i| {
                self.nodes[i].server.is_some() && self.nodes[i].store.generation(&name).is_none()
            });
            let stale = {
                let gens: Vec<_> = replicas
                    .iter()
                    .filter(|&&i| self.nodes[i].server.is_some())
                    .filter_map(|&i| self.nodes[i].store.generation(&name))
                    .collect();
                gens.iter().max() != gens.iter().min()
            };
            if needs_copy || stale {
                restored += self.replicate(&name)?;
            }
        }
        Ok(restored)
    }

    /// One gossip round: probes every shard's `STATS` over the wire and
    /// reports liveness plus any open per-sketch circuit breakers — the
    /// same breaker state the server uses for its own degradation chain,
    /// reused here as the routing health signal.
    pub fn gossip(&self) -> Vec<ShardHealth> {
        (0..self.nodes.len())
            .map(|shard| match self.probe(shard) {
                Some((open_breakers, firing_slos)) => ShardHealth {
                    shard,
                    alive: true,
                    open_breakers,
                    firing_slos,
                },
                None => ShardHealth {
                    shard,
                    alive: false,
                    open_breakers: Vec::new(),
                    firing_slos: Vec::new(),
                },
            })
            .collect()
    }

    /// Applies a gossip round to a routing client: shards that are dead or
    /// have open breakers get demoted; recovered shards get promoted back.
    pub fn steer(&self, client: &mut FleetClient) {
        for health in self.gossip() {
            client.set_degraded(health.shard, health.degraded());
        }
    }

    /// Probes one shard: `None` when unreachable, otherwise the sketches
    /// with open server-side breakers plus the SLOs whose burn-rate alert
    /// fires, parsed from the typed `STATS` families
    /// (`ds_serve_breaker_<name>_open` / `ds_slo_<name>_firing` gauges).
    fn probe(&self, shard: usize) -> Option<(Vec<String>, Vec<String>)> {
        let families = self.client_connection(shard).ok()?.stats_families().ok()?;
        let flagged = |prefix: &str, suffix: &str| -> Vec<String> {
            families
                .iter()
                .filter(|f| f.kind == ds_obs::FamilyKind::Gauge)
                .filter_map(|f| f.scalar().map(|v| (f, v)))
                .filter(|&(f, v)| f.name.starts_with(prefix) && f.name.ends_with(suffix) && v > 0.0)
                .map(|(f, _)| {
                    f.name
                        .trim_start_matches(prefix)
                        .trim_end_matches(suffix)
                        .to_string()
                })
                .collect()
        };
        Some((
            flagged("ds_serve_breaker_", "_open"),
            flagged("ds_slo_", "_firing"),
        ))
    }

    /// A fresh connection to shard `i` (tests drive raw snapshot/sync
    /// traffic through this).
    pub fn client_connection(&self, shard: usize) -> std::io::Result<Client> {
        Client::connect_timeout(self.nodes[shard].addr, self.cfg.timeout)
    }

    /// Shuts down every live shard; dropping the fleet does the same.
    pub fn shutdown(self) {}
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for node in &mut self.nodes {
            if let Some(server) = node.server.take() {
                server.shutdown();
            }
        }
    }
}
