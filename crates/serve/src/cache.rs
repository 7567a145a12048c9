//! The template-keyed estimate cache: memoizes healthy `ESTIMATE` answers
//! in front of the batcher.
//!
//! A cache entry is keyed by the sketch name, the store **generation** of
//! the sketch that produced the value, the query's canonical structural
//! shape (the same canonicalization as [`crate::query_template`]), and the
//! predicate literal values — the `CanonicalQuery` form, which the
//! template interner and the lifecycle harvest key are derived from too. Keying by generation makes swap/remove
//! invalidation structural: a retrained or re-inserted sketch gets a fresh
//! generation from the store, so stale entries can never hit — the cache
//! additionally purges them eagerly (and counts the purge) the first time
//! it sees the new generation.
//!
//! Correctness contract, enforced by integration tests:
//!
//! * a hit returns the **bit-identical** `f64` a cold estimate would
//!   produce (values enter the cache only from healthy batcher answers);
//! * degraded (circuit-breaker / fallback) responses are never inserted,
//!   and the serving path consults the cache only after breaker admission,
//!   so an open circuit is never masked by a warm cache;
//! * `FEEDBACK`-detected accuracy drift for a template drops every cached
//!   entry of that template (all literals, all generations).
//!
//! Eviction is sharded second-chance (CLOCK): each shard keeps a FIFO ring
//! over its keys plus one referenced bit per entry — hits set the bit,
//! eviction gives set bits a second lap. This approximates LRU without
//! per-hit list surgery, so a hit is one hash lookup and one store.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

use ds_query::query::Query;

/// Cache key of one estimate: sketch identity and generation plus the
/// canonical query shape and its literal values. Two queries build equal
/// keys exactly when a sketch of that generation must answer them with the
/// same estimate.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct EstimateKey {
    sketch: String,
    generation: u64,
    shape: Vec<u32>,
    lits: Vec<i64>,
}

impl EstimateKey {
    /// Builds the key for `query` served by `sketch` at `generation`.
    pub fn new(sketch: &str, generation: u64, query: &Query) -> Self {
        let CanonicalQuery { shape, lits, .. } = CanonicalQuery::of(query);
        Self {
            sketch: sketch.to_string(),
            generation,
            shape,
            lits,
        }
    }

    /// Makes this the key [`EstimateKey::new`] would build, in place: a
    /// connection looks every request up through one key and clones it
    /// only for the entry a miss inserts.
    pub(crate) fn set(&mut self, sketch: &str, generation: u64, query: &CanonicalQuery) {
        self.sketch.clear();
        self.sketch.push_str(sketch);
        self.generation = generation;
        self.shape.clone_from(&query.shape);
        self.lits.clone_from(&query.lits);
    }

    /// The canonical structural shape (template identity) of the keyed
    /// query: equal shapes render equal [`crate::query_template`]s.
    pub fn shape(&self) -> &[u32] {
        &self.shape
    }
}

/// The canonical form of a query, computed once per request: the cache key
/// (shape and literals), the interned template (shape) and the harvest key
/// (predicates) all read it instead of sorting the query again. Refillable:
/// [`CanonicalQuery::fill`] reuses every vector, so a connection that keeps
/// one canonicalises without allocating.
#[derive(Default)]
pub(crate) struct CanonicalQuery {
    /// Table count, sorted tables, join count, sorted canonical join quads,
    /// then `[table, col, op]` per predicate — plus the literal count for
    /// the variable-width `IN` and `LIKE`, so `lits` stays unambiguous.
    pub(crate) shape: Vec<u32>,
    /// The predicates' literals, flattened in `shape`'s predicate order.
    pub(crate) lits: Vec<i64>,
    /// The predicates as `(table, col, op code, literals)` — the literals
    /// as a range of `lits` — sorted, by literals last, so `lits` stays
    /// aligned with `shape` even when two predicates share a column and
    /// operator. Op codes 0/1/2 are `=`, `<`, `>` (one literal each), 3 is
    /// `IN` (the canonical sorted list), 4 is `LIKE` (the pattern's bytes,
    /// one per element: exact, no hashing).
    pub(crate) preds: Vec<(u32, u32, u32, Range<usize>)>,
    /// Working memory of [`CanonicalQuery::fill`]: the join quads while they
    /// are sorted, and the literals in the query's own predicate order.
    joins: Vec<[u32; 4]>,
    unsorted: Vec<i64>,
}

impl CanonicalQuery {
    pub(crate) fn of(query: &Query) -> Self {
        let mut canonical = Self::default();
        canonical.fill(query);
        canonical
    }

    /// Replaces the contents with the canonical form of `query`.
    pub(crate) fn fill(&mut self, query: &Query) {
        use ds_storage::predicate::PredTest;
        let Self {
            shape,
            lits,
            preds,
            joins,
            unsorted,
        } = self;
        shape.clear();
        // Exact, like `lits` below: `EstimateKey::new` keeps both vectors.
        shape.reserve_exact(
            2 + query.tables.len() + 4 * (query.joins.len() + query.predicates.len()),
        );
        shape.push(query.tables.len() as u32);
        shape.extend(query.tables.iter().map(|t| t.0 as u32));
        shape[1..].sort_unstable();
        joins.clear();
        joins.extend(query.joins.iter().map(|j| {
            let l = [j.left.table.0 as u32, j.left.col as u32];
            let r = [j.right.table.0 as u32, j.right.col as u32];
            let ([lt, lc], [rt, rc]) = if l <= r { (l, r) } else { (r, l) };
            [lt, lc, rt, rc]
        }));
        joins.sort_unstable();
        shape.push(joins.len() as u32);
        shape.extend(joins.iter().flatten());
        unsorted.clear();
        preds.clear();
        preds.extend(query.qualified_predicates().map(|(cr, p)| {
            let start = unsorted.len();
            let op = match &p.test {
                PredTest::Cmp(op, lit) => {
                    unsorted.push(*lit);
                    op.index() as u32
                }
                PredTest::In(values) => {
                    unsorted.extend_from_slice(values);
                    3
                }
                PredTest::Like(pat) => {
                    unsorted.extend(pat.as_str().bytes().map(i64::from));
                    4
                }
            };
            (cr.table.0 as u32, cr.col as u32, op, start..unsorted.len())
        }));
        preds.sort_unstable_by(|a, b| {
            (a.0, a.1, a.2, &unsorted[a.3.clone()]).cmp(&(b.0, b.1, b.2, &unsorted[b.3.clone()]))
        });
        lits.clear();
        lits.reserve_exact(unsorted.len());
        for (t, c, op, range) in preds {
            shape.extend_from_slice(&[*t, *c, *op]);
            if *op >= 3 {
                shape.push(range.len() as u32);
            }
            let start = lits.len();
            lits.extend_from_slice(&unsorted[range.clone()]);
            *range = start..lits.len();
        }
    }
}

/// One cached estimate plus its CLOCK referenced bit.
struct Entry {
    value: f64,
    referenced: bool,
}

/// One independently locked shard: entry map plus the second-chance ring
/// over exactly the map's keys.
#[derive(Default)]
struct Shard {
    map: HashMap<EstimateKey, Entry>,
    ring: VecDeque<EstimateKey>,
}

impl Shard {
    /// Drops the entries whose keys are `dead` from the map and from the
    /// ring alike — an invalidated key left in the ring would stay there
    /// until capacity eviction happened to sweep past it, which a sketch
    /// that changes generation faster than its shard fills never reaches.
    /// Returns how many entries went.
    fn purge(&mut self, dead: impl Fn(&EstimateKey) -> bool) -> u64 {
        let before = self.map.len();
        self.map.retain(|k, _| !dead(k));
        self.ring.retain(|k| !dead(k));
        (before - self.map.len()) as u64
    }
}

/// Bounded, sharded, second-chance estimate cache. See the module docs for
/// the keying and invalidation contract.
pub struct EstimateCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    /// Latest store generation seen per sketch name; a change purges the
    /// sketch's stale entries eagerly.
    latest: RwLock<HashMap<String, u64>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl EstimateCache {
    /// A cache holding at most `capacity` entries across `shards` shards
    /// (both clamped to at least 1).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard_capacity = capacity.max(1).div_ceil(shards);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity,
            latest: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &EstimateKey) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Builds the key for a request and eagerly purges stale entries when
    /// this is the first sight of `sketch` at `generation` (a swap,
    /// remove/re-insert, or background-retrain promotion).
    pub fn key(&self, sketch: &str, generation: u64, query: &Query) -> EstimateKey {
        self.note_generation(sketch, generation);
        EstimateKey::new(sketch, generation, query)
    }

    /// [`EstimateCache::key`] into a key the caller reuses, for a query
    /// already in canonical form.
    pub(crate) fn key_into(
        &self,
        key: &mut EstimateKey,
        sketch: &str,
        generation: u64,
        query: &CanonicalQuery,
    ) {
        self.note_generation(sketch, generation);
        key.set(sketch, generation, query);
    }

    /// Purges `dead` entries from every shard; returns how many went.
    fn purge(&self, dead: impl Fn(&EstimateKey) -> bool) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").purge(&dead))
            .sum()
    }

    fn note_generation(&self, sketch: &str, generation: u64) {
        if self
            .latest
            .read()
            .expect("cache generation map poisoned")
            .get(sketch)
            == Some(&generation)
        {
            return;
        }
        // Hold the write lock across the purge so concurrent first
        // sightings of the same swap purge exactly once.
        let mut latest = self.latest.write().expect("cache generation map poisoned");
        match latest.insert(sketch.to_string(), generation) {
            Some(prev) if prev != generation => {
                let purged = self.purge(|k| k.sketch == sketch && k.generation != generation);
                self.invalidations.fetch_add(purged, Ordering::Relaxed);
            }
            _ => {}
        }
    }

    /// Looks up a cached estimate, counting the hit or miss.
    pub fn get(&self, key: &EstimateKey) -> Option<f64> {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        match shard.map.get_mut(key) {
            Some(entry) => {
                entry.referenced = true;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.value)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a healthy estimate, evicting with second chance when the
    /// shard is full. Re-inserting an existing key refreshes its value in
    /// place.
    pub fn insert(&self, key: EstimateKey, value: f64) {
        let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
        if let Some(entry) = shard.map.get_mut(&key) {
            entry.value = value;
            entry.referenced = true;
            return;
        }
        while shard.map.len() >= self.per_shard_capacity {
            let Some(victim) = shard.ring.pop_front() else {
                break;
            };
            match shard.map.get_mut(&victim) {
                Some(entry) if entry.referenced => {
                    // Second chance: clear the bit, send it one more lap.
                    entry.referenced = false;
                    shard.ring.push_back(victim);
                }
                Some(_) => {
                    shard.map.remove(&victim);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                // Purges take their keys out of the ring with them, so a
                // ring key always has its entry; nothing to evict if not.
                None => {}
            }
        }
        shard.ring.push_back(key.clone());
        shard.map.insert(
            key,
            Entry {
                value,
                referenced: false,
            },
        );
    }

    /// Drops every cached entry of `sketch` whose query shape equals
    /// `shape` — all literals, all generations. Called when `FEEDBACK`
    /// detects accuracy drift for the template. Returns the number of
    /// entries dropped.
    pub fn invalidate_template(&self, sketch: &str, shape: &[u32]) -> u64 {
        let dropped = self.purge(|k| k.sketch == sketch && k.shape == shape);
        self.invalidations.fetch_add(dropped, Ordering::Relaxed);
        dropped
    }

    /// Cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to the batcher.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped by capacity eviction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Entries dropped by generation swaps and template drift.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_query::parser::parse_query;
    use ds_storage::gen::{imdb_database, ImdbConfig};

    fn queries() -> (Query, Query, Query) {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let a = parse_query(
            &db,
            "SELECT COUNT(*) FROM title WHERE title.production_year > 2000",
        )
        .unwrap();
        // Same template as `a`, different literal.
        let b = parse_query(
            &db,
            "SELECT COUNT(*) FROM title WHERE title.production_year > 1990",
        )
        .unwrap();
        // Different template.
        let c = parse_query(&db, "SELECT COUNT(*) FROM title WHERE title.kind_id = 1").unwrap();
        (a, b, c)
    }

    #[test]
    fn same_shape_different_literals_are_distinct_keys_with_one_shape() {
        let (a, b, c) = queries();
        let ka = EstimateKey::new("s", 1, &a);
        let kb = EstimateKey::new("s", 1, &b);
        let kc = EstimateKey::new("s", 1, &c);
        assert_ne!(ka, kb, "literals must distinguish keys");
        assert_eq!(ka.shape(), kb.shape(), "same template, same shape");
        assert_ne!(ka.shape(), kc.shape());
        // Clause order and aliasing never change the key (canonical sort).
        assert_eq!(ka, EstimateKey::new("s", 1, &a.clone()));
    }

    #[test]
    fn hits_misses_and_generation_purge() {
        let (a, b, _) = queries();
        let cache = EstimateCache::new(64, 4);
        let k = cache.key("imdb", 1, &a);
        assert_eq!(cache.get(&k), None);
        cache.insert(k.clone(), 42.5);
        assert_eq!(cache.get(&k), Some(42.5));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        let kb = cache.key("imdb", 1, &b);
        cache.insert(kb, 7.0);
        assert_eq!(cache.len(), 2);

        // A new generation purges the old entries and can never hit them.
        let k2 = cache.key("imdb", 2, &a);
        assert_eq!(cache.len(), 0, "swap must purge stale generations");
        assert_eq!(cache.invalidations(), 2);
        assert_eq!(cache.get(&k2), None);
    }

    #[test]
    fn template_invalidation_is_shape_scoped() {
        let (a, b, c) = queries();
        let cache = EstimateCache::new(64, 4);
        let ka = cache.key("imdb", 1, &a);
        let kb = cache.key("imdb", 1, &b);
        let kc = cache.key("imdb", 1, &c);
        cache.insert(ka.clone(), 1.0);
        cache.insert(kb.clone(), 2.0);
        cache.insert(kc.clone(), 3.0);
        // Another sketch's entry with the same shape must survive.
        let other = cache.key("other", 9, &a);
        cache.insert(other.clone(), 4.0);
        assert_eq!(cache.invalidate_template("imdb", ka.shape()), 2);
        assert_eq!(cache.get(&ka), None);
        assert_eq!(cache.get(&kb), None);
        assert_eq!(cache.get(&kc), Some(3.0));
        assert_eq!(cache.get(&other), Some(4.0));
    }

    /// Invalidation takes a key out of the eviction ring too. (The ring
    /// used to be trimmed only by capacity eviction, so a sketch whose
    /// generation moved faster than a shard filled kept every key it ever
    /// cached: 10 000 ring keys for 200 live entries in the first loop.)
    #[test]
    fn invalidated_keys_leave_the_eviction_ring() {
        let (a, _, _) = queries();
        let shape = EstimateKey::new("s", 1, &a).shape;
        let key = |generation: u64, i: i64| EstimateKey {
            sketch: "s".to_string(),
            generation,
            shape: shape.clone(),
            lits: vec![i],
        };
        let ring_matches_map = |cache: &EstimateCache| {
            for shard in &cache.shards {
                let s = shard.lock().unwrap();
                assert_eq!(s.ring.len(), s.map.len(), "the ring holds the map's keys");
            }
        };

        // 50 generations of 200 distinct queries, far below capacity.
        let cache = EstimateCache::new(4096, 8);
        for generation in 1..=50 {
            cache.note_generation("s", generation);
            for i in 0..200 {
                cache.insert(key(generation, i), i as f64);
            }
        }
        assert_eq!(cache.len(), 200);
        assert_eq!(cache.invalidations(), 49 * 200);
        ring_matches_map(&cache);

        // 50 rounds of template drift over the same 200 queries.
        let cache = EstimateCache::new(4096, 8);
        for _ in 0..50 {
            for i in 0..200 {
                cache.insert(key(1, i), i as f64);
            }
            assert_eq!(cache.invalidate_template("s", &shape), 200);
        }
        assert!(cache.is_empty());
        ring_matches_map(&cache);
    }

    #[test]
    fn capacity_is_bounded_and_hot_entries_survive_eviction() {
        let (a, _, _) = queries();
        // Single shard, capacity 4: inserts must never grow past it.
        let cache = EstimateCache::new(4, 1);
        let key_i = |i: i64| EstimateKey {
            sketch: "s".to_string(),
            generation: 1,
            shape: EstimateKey::new("s", 1, &a).shape.clone(),
            lits: vec![i],
        };
        cache.insert(key_i(0), 0.0);
        for i in 1..20 {
            // Keep key 0 hot so second chance retains it.
            assert_eq!(cache.get(&key_i(0)), Some(0.0), "hot entry evicted at {i}");
            cache.insert(key_i(i), i as f64);
            assert!(cache.len() <= 4, "cache grew past capacity");
        }
        assert!(cache.evictions() > 0);
    }
}
