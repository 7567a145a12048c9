//! The estimate cache a served sketch owns: the healthy answers of its own
//! model, keyed by the parsed [`Query`] the model read.
//!
//! A [`DeepSketch`](crate::sketch::DeepSketch) holds one beside its
//! artifact's element memo. Only the server probes and fills it;
//! `estimate_one` and the batch paths never touch it. The key is what the
//! model reads, clause order included, so equal keys are answered with
//! equal bits by construction. Nothing invalidates an entry: a swap,
//! retrain, remove or re-insert serves another artifact with a cache of its
//! own, and the displaced entries go when their artifact's last `Arc`
//! drops. A clone, a load and `freeze` start empty, as the memo does.
//!
//! Eviction is second-chance (CLOCK): a FIFO ring over exactly the map's
//! keys plus one referenced bit per entry. A hit sets the bit, and eviction
//! gives a set bit a second lap. This approximates LRU without per-hit list
//! surgery, so a hit is one hash, one lookup and one store under one lock.
//! The map and the ring share each key through one `Arc`, each beside its
//! hash: a key is hashed once, before the lock ([`QueryCache::hash`]), and
//! a miss hands that hash on to its insert, so neither the insert's probe,
//! its store nor an eviction hashes a key again. The caller passes the
//! bound in at insert.

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use ds_query::query::Query;

/// One cached estimate plus its CLOCK referenced bit.
#[derive(Debug)]
struct Entry {
    value: f64,
    referenced: bool,
}

/// The entry map plus the second-chance ring over exactly its keys.
#[derive(Debug)]
struct Table<K> {
    map: Map<K>,
    ring: Ring<K>,
}

/// A stored key beside its hash.
#[derive(Debug)]
struct Keyed<K> {
    hash: KeyHash,
    key: Arc<K>,
}

/// A key and its hash, stored ([`Keyed`]) or probed with: the map looks
/// either up by the hash alone.
trait Probe<K> {
    fn key_hash(&self) -> KeyHash;
    fn key(&self) -> &K;
}

impl<K> Probe<K> for Keyed<K> {
    fn key_hash(&self) -> KeyHash {
        self.hash
    }

    fn key(&self) -> &K {
        &self.key
    }
}

impl<K> Probe<K> for (KeyHash, &K) {
    fn key_hash(&self) -> KeyHash {
        self.0
    }

    fn key(&self) -> &K {
        self.1
    }
}

impl<K> Hash for dyn Probe<K> + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.key_hash().0);
    }
}

impl<K: Eq> PartialEq for dyn Probe<K> + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.key_hash() == other.key_hash() && self.key() == other.key()
    }
}

impl<K: Eq> Eq for dyn Probe<K> + '_ {}

impl<'a, K: 'a> Borrow<dyn Probe<K> + 'a> for Keyed<K> {
    fn borrow(&self) -> &(dyn Probe<K> + 'a) {
        self
    }
}

impl<K> Hash for Keyed<K> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash.0);
    }
}

impl<K: Eq> PartialEq for Keyed<K> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.key == other.key
    }
}

impl<K: Eq> Eq for Keyed<K> {}

/// The entries, behind a hasher that passes each key's hash through.
#[derive(Debug)]
struct Map<K>(HashMap<Keyed<K>, Entry, BuildHasherDefault<PassThrough>>);

impl<K: Eq> Map<K> {
    fn get_mut(&mut self, hash: KeyHash, key: &K) -> Option<&mut Entry> {
        self.0.get_mut(&(hash, key) as &dyn Probe<K>)
    }

    #[cfg(test)]
    fn keys(&self) -> impl Iterator<Item = &Arc<K>> {
        self.0.keys().map(|k| &k.key)
    }

    fn len(&self) -> usize {
        self.0.len()
    }
}

/// The second-chance ring: the map's keys, oldest first.
#[derive(Debug)]
struct Ring<K>(VecDeque<Keyed<K>>);

impl<K> Ring<K> {
    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = &Arc<K>> {
        self.0.iter().map(|k| &k.key)
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.0.len()
    }
}

/// Passes a [`KeyHash`] through: the one `write_u64` a stored or probed
/// key makes.
#[derive(Debug, Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    /// What `write_u64` would keep: a key writes nothing else.
    fn write(&mut self, bytes: &[u8]) {
        let mut word = [0; 8];
        let n = bytes.len().min(8);
        word[..n].copy_from_slice(&bytes[..n]);
        self.0 = u64::from_ne_bytes(word);
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Hashes cache keys. A derived `Query` hash makes one `write` per field,
/// about thirty for a five-table query, and SipHash pays ≈ 10 ns a call;
/// here a write is one folded multiply. Seeded per cache.
#[derive(Debug, Clone, Copy)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let product = u128::from(self.0 ^ u64::from_le_bytes(word)) * 0x5851_f42d_4c95_7f2d;
            self.0 = product as u64 ^ (product >> 64) as u64;
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl BuildHasher for KeyHasher {
    type Hasher = Self;

    fn build_hasher(&self) -> Self {
        *self
    }
}

/// A key's hash in one [`QueryCache`] ([`QueryCache::hash`]), which only
/// that cache's `*_hashed` calls take: each cache seeds its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyHash(u64);

/// Bounded second-chance estimate cache, keyed by the query by default.
/// See the module docs for the keying and ownership contract.
#[derive(Debug)]
pub struct QueryCache<K = Query> {
    hasher: KeyHasher,
    table: Mutex<Table<K>>,
}

impl<K: Hash + Eq> Default for QueryCache<K> {
    fn default() -> Self {
        let map = Map(HashMap::default());
        let ring = Ring(VecDeque::new());
        Self {
            hasher: KeyHasher(RandomState::new().hash_one(0)),
            table: Mutex::new(Table { map, ring }),
        }
    }
}

/// A clone starts empty: it serves a model of its own.
impl<K: Hash + Eq> Clone for QueryCache<K> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl<K: Hash + Eq> QueryCache<K> {
    /// Locks the table, poisoned or not. A holder that unwound cannot have
    /// left a wrong answer behind: a key and its value enter the map in one
    /// `insert` and a value is replaced by one store, so every entry still
    /// maps its key to the bits a healthy pass produced for it. At worst
    /// the ring lost a key (its entry is never evicted) or kept one whose
    /// entry is gone (eviction skips it).
    fn lock(&self) -> MutexGuard<'_, Table<K>> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `key`'s hash in this cache, for [`QueryCache::get_hashed`] and
    /// [`QueryCache::insert_hashed`].
    pub fn hash(&self, key: &K) -> KeyHash {
        KeyHash(self.hasher.hash_one(key))
    }

    /// The cached estimate of `key`, marking it referenced.
    pub fn get(&self, key: &K) -> Option<f64> {
        self.get_hashed(key, self.hash(key))
    }

    /// [`QueryCache::get`] of a key this cache hashed to `hash`.
    pub fn get_hashed(&self, key: &K, hash: KeyHash) -> Option<f64> {
        let mut table = self.lock();
        let entry = table.map.get_mut(hash, key)?;
        entry.referenced = true;
        Some(entry.value)
    }

    /// Inserts a healthy estimate, evicting with second chance while the
    /// cache holds `capacity` entries (at least 1), and returns how many it
    /// evicted. Re-inserting a key refreshes its value in place.
    pub fn insert(&self, key: K, value: f64, capacity: usize) -> u64 {
        let hash = self.hash(&key);
        self.insert_hashed(key, hash, value, capacity)
    }

    /// [`QueryCache::insert`] of a key this cache hashed to `hash`: the
    /// one hash a miss computes, when it probed.
    pub fn insert_hashed(&self, key: K, hash: KeyHash, value: f64, capacity: usize) -> u64 {
        let mut table = self.lock();
        if let Some(entry) = table.map.get_mut(hash, &key) {
            entry.value = value;
            entry.referenced = true;
            return 0;
        }
        let mut evicted = 0;
        while table.map.len() >= capacity.max(1) {
            let Some(victim) = table.ring.0.pop_front() else {
                break;
            };
            match table.map.get_mut(victim.hash, &victim.key) {
                Some(entry) if entry.referenced => {
                    // Second chance: clear the bit, send it one more lap.
                    entry.referenced = false;
                    table.ring.0.push_back(victim);
                }
                // Only eviction removes an entry, and it pops the key off
                // the ring first, so a ring key always has its entry.
                _ => {
                    table.map.0.remove(&victim);
                    evicted += 1;
                }
            }
        }
        let key = Arc::new(key);
        let referenced = false;
        let stored = Keyed {
            hash,
            key: Arc::clone(&key),
        };
        table.ring.0.push_back(Keyed { hash, key });
        table.map.0.insert(stored, Entry { value, referenced });
        evicted
    }

    /// Cached entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_storage::catalog::TableId;
    use ds_storage::predicate::{CmpOp, ColPredicate};
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    /// A query of one fixed shape with literal `lit`: the cache never looks
    /// inside a key, so its tests need no database.
    fn key(lit: i64) -> Query {
        let mut query = Query::new();
        query.tables.push(TableId(0));
        query
            .predicates
            .push((TableId(0), ColPredicate::new(0, CmpOp::Gt, lit)));
        query
    }

    /// The ring holds exactly the map's keys, each once.
    fn assert_ring_holds_its_map(cache: &QueryCache) {
        let table = cache.lock();
        let ring: HashSet<&Arc<Query>> = table.ring.iter().collect();
        assert_eq!(ring.len(), table.ring.len(), "a key is in the ring twice");
        assert_eq!(ring, table.map.keys().collect(), "ring and map disagree");
    }

    /// `len() <= capacity` always, a full cache evicts one entry per new
    /// key, and a capacity of 0 holds one entry.
    #[test]
    fn the_cache_never_holds_more_than_its_capacity() {
        for (capacity, full) in [(0, 1), (1, 1), (5, 5), (4096, 4096)] {
            let cache = QueryCache::default();
            let evicted: u64 = (0..20_000)
                .map(|i| cache.insert(key(i), 0.0, capacity))
                .sum();
            assert_eq!(cache.len(), full, "capacity {capacity}");
            assert_eq!(evicted, 20_000 - full as u64, "capacity {capacity}");
            assert_ring_holds_its_map(&cache);
        }
    }

    /// Eight threads get and insert over overlapping keys at a capacity
    /// that forces eviction: a hit always returns the bits inserted for its
    /// key, and the bound and the ring hold.
    #[test]
    fn concurrent_gets_and_inserts_keep_every_key_to_its_value() {
        let (cache, start) = (QueryCache::default(), std::sync::Barrier::new(8));
        let (hits, evicted) = (AtomicU64::new(0), AtomicU64::new(0));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let (cache, start, hits, evicted) = (&cache, &start, &hits, &evicted);
                s.spawn(move || {
                    start.wait();
                    for j in 0..2_000u64 {
                        let lit = ((j * 7 + t * 13) % 1_200) as i64;
                        let Some(v) = cache.get(&key(lit)) else {
                            evicted.fetch_add(cache.insert(key(lit), lit as f64, 256), Relaxed);
                            continue;
                        };
                        assert_eq!(v.to_bits(), (lit as f64).to_bits());
                        hits.fetch_add(1, Relaxed);
                    }
                });
            }
        });
        let (hits, evicted) = (hits.into_inner(), evicted.into_inner());
        assert!(hits > 0 && evicted > 0, "{hits} hits, {evicted} evicted");
        assert!(cache.len() <= 256, "{} entries", cache.len());
        assert_ring_holds_its_map(&cache);
    }

    #[test]
    fn capacity_is_bounded_and_hot_entries_survive_eviction() {
        let cache = QueryCache::default();
        cache.insert(key(0), 0.0, 4);
        for i in 1..20 {
            // Keep key 0 hot so second chance retains it.
            assert_eq!(cache.get(&key(0)), Some(0.0), "hot entry evicted at {i}");
            cache.insert(key(i), i as f64, 4);
            assert!(cache.len() <= 4, "cache grew past capacity");
        }
        assert_eq!(cache.get(&key(1)), None, "a cold entry survived");
        cache.insert(key(0), 0.5, 4);
        assert_eq!((cache.get(&key(0)), cache.len()), (Some(0.5), 4));
    }
}
