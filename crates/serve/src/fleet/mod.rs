//! The fleet tier: consistent-hash routing of sketch names across N
//! shards with R-way replication, snapshot-shipped bootstrap, health-aware
//! routing, and failover.
//!
//! Layers, bottom up:
//!
//! * [`HashRing`] ([`ring`]) — a deterministic consistent-hash ring over
//!   shard indices. Every process that knows the topology computes the
//!   same replica set for a sketch name, so routing needs no coordinator.
//! * [`FleetClient`] ([`client`]) — the high-level client: owns one
//!   [`crate::Client`] per shard (lazily opened), routes each request
//!   to the sketch's replica set, retries across replicas on failure,
//!   remembers per-sketch affinity (the replica that answered last), and
//!   keeps a client-side circuit breaker per shard so a dead or degraded
//!   replica stops receiving first-choice traffic.
//! * [`Fleet`] ([`supervisor`]) — an in-process supervisor for tests and
//!   benches: starts N real TCP servers, deploys sketches by shipping
//!   `DSNP` snapshots over the wire (`SNAPSHOT` → `SYNC`), polls `STATS`
//!   for health gossip (per-sketch circuit-breaker gauges + connection
//!   refusals), kills/restarts shards, and re-replicates from the
//!   surviving copy after a loss.
//!
//! Replication is generation-keyed and newest-wins end to end: a shipped
//! blob carries the store generation it captured, adoption rejects stale
//! offers, and the checksum trailer means a corrupt transfer is
//! quarantined rather than adopted — a replica can lose a race but never
//! regress or adopt garbage.

pub mod client;
pub mod ring;
pub mod supervisor;

pub use client::{FleetClient, FleetCounters};
pub use ring::HashRing;
pub use supervisor::{Fleet, FleetConfig, ShardHealth};

/// The shared map of the fleet: every shard's address plus the
/// replication factor. Both [`FleetClient`] and [`Fleet`] derive routing
/// from this via [`HashRing`], so they always agree on who owns what.
#[derive(Debug, Clone)]
pub struct FleetTopology {
    /// Shard addresses, index-aligned with the ring's node indices.
    pub shards: Vec<std::net::SocketAddr>,
    /// Copies of each sketch (clamped to the shard count).
    pub replication: usize,
}

impl FleetTopology {
    /// Builds a topology; `replication` is clamped into `1..=shards.len()`.
    pub fn new(shards: Vec<std::net::SocketAddr>, replication: usize) -> Self {
        let replication = replication.clamp(1, shards.len().max(1));
        Self {
            shards,
            replication,
        }
    }

    /// The ring for this topology (stable for a fixed shard count).
    pub fn ring(&self) -> HashRing {
        HashRing::new(self.shards.len())
    }

    /// The replica set (shard indices, preference order) for a sketch.
    pub fn replicas(&self, sketch: &str) -> Vec<usize> {
        self.ring().replicas(sketch, self.replication)
    }
}
