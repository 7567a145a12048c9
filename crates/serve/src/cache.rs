//! The estimate cache: memoizes healthy `ESTIMATE` answers in front of the
//! forward pass.
//!
//! A cache entry is keyed by what the model reads: the sketch name, the
//! store **generation** of the sketch that produced the value, and the
//! parsed [`Query`] itself ([`CacheKey`]). Equal keys are answered with
//! equal bits by construction. The clause-order-canonical form
//! (`CanonicalQuery`, [`EstimateKey`]) is not the key: the model pools
//! each set's elements in clause order, and f32 sums in another order can
//! round to other bits, so two orders of one query are two keys. The
//! canonical form serves the readers that want it: the template interner
//! and the lifecycle harvest key.
//!
//! The generation is the cache's one invalidation rule. A cached answer is
//! right exactly as long as the model that computed it serves, and every
//! swap, rollback, retrain or remove/re-insert serves under a fresh store
//! generation, so no request builds a key of a displaced generation again.
//! Nothing purges those entries: they age out under eviction like any entry
//! no request touches, and count toward [`EstimateCache::len`] until then.
//! Accuracy drift reported through `FEEDBACK` drops nothing either — the
//! same model recomputes the same bits — and is answered by retraining,
//! which brings a new generation.
//!
//! Correctness contract, enforced by integration tests:
//!
//! * a hit returns the **bit-identical** `f64` a cold estimate of the same
//!   query would produce (values enter the cache only from healthy forward
//!   passes);
//! * degraded (circuit-breaker / fallback) responses are never inserted,
//!   and the serving path consults the cache only after breaker admission,
//!   so an open circuit is never masked by a warm cache.
//!
//! Eviction is sharded second-chance (CLOCK): each shard keeps a FIFO ring
//! over exactly its keys plus one referenced bit per entry — hits set the
//! bit, eviction gives set bits a second lap. This approximates LRU without
//! per-hit list surgery, so a hit is one hash lookup and one store. The map
//! and the ring share each key through one `Arc`.
#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::panic, clippy::unreachable)
)]

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use ds_obs::PromText;
use ds_query::query::Query;
use ds_storage::catalog::Database;

/// The key of one cached estimate: the sketch name, its store generation
/// and the query the model reads. A connection parses each request straight
/// into its key, so a lookup copies nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct CacheKey {
    pub(crate) sketch: String,
    pub(crate) generation: u64,
    pub(crate) query: Query,
}

impl CacheKey {
    pub(crate) fn new(sketch: &str, generation: u64, query: Query) -> Self {
        let sketch = sketch.to_string();
        Self {
            sketch,
            generation,
            query,
        }
    }
}

/// The canonical identity of one estimate: sketch name and generation plus
/// the canonical query shape and its literal values, so two clause orders
/// of one query build one key. It is not the cache's key ([`CacheKey`]):
/// the model reads clause order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
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

    /// The canonical structural shape (template identity) of the keyed
    /// query: equal shapes render equal [`crate::query_template`]s.
    pub fn shape(&self) -> &[u32] {
        &self.shape
    }
}

/// The canonical form of a query: clause order and aliasing removed. Built
/// only where it is read: a graded `FEEDBACK`'s template and harvest key, a
/// kept `TRACE` exemplar's template, and [`EstimateKey`].
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
}

impl CanonicalQuery {
    /// The canonical form of `query`.
    pub(crate) fn of(query: &Query) -> Self {
        use ds_storage::predicate::PredTest;
        // Exact, like `lits` below: `EstimateKey::new` keeps both vectors.
        let mut shape = Vec::with_capacity(
            2 + query.tables.len() + 4 * (query.joins.len() + query.predicates.len()),
        );
        shape.push(query.tables.len() as u32);
        shape.extend(query.tables.iter().map(|t| t.0 as u32));
        shape[1..].sort_unstable();
        // The join quads, and the literals in the query's own predicate order.
        let (mut joins, mut unsorted, mut preds) = (Vec::new(), Vec::new(), Vec::new());
        joins.extend(query.joins.iter().map(|j| {
            let l = [j.left.table.0 as u32, j.left.col as u32];
            let r = [j.right.table.0 as u32, j.right.col as u32];
            let ([lt, lc], [rt, rc]) = if l <= r { (l, r) } else { (r, l) };
            [lt, lc, rt, rc]
        }));
        joins.sort_unstable();
        shape.push(joins.len() as u32);
        shape.extend(joins.iter().flatten());
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
        let mut lits = Vec::with_capacity(unsorted.len());
        for (t, c, op, range) in &mut preds {
            shape.extend_from_slice(&[*t, *c, *op]);
            if *op >= 3 {
                shape.push(range.len() as u32);
            }
            let start = lits.len();
            lits.extend_from_slice(&unsorted[range.clone()]);
            *range = start..lits.len();
        }
        Self { shape, lits, preds }
    }

    /// The lifecycle harvest's deduplication key: `template` (the interned
    /// template of this form's query) plus the concrete literals in
    /// canonical predicate order. Two gradings of the same concrete query
    /// collide (refreshing that harvest entry); the same template with
    /// different literals stays distinct.
    pub(crate) fn harvest_key(&self, template: &str) -> String {
        use std::fmt::Write as _;
        let mut key = String::with_capacity(template.len() + self.preds.len() * 12);
        key.push_str(template);
        for (t, c, op, lits) in &self.preds {
            // Op codes < 3 are single-literal comparisons and keep the legacy
            // `#{t}.{c}:{op}={lit}` spelling; IN/LIKE render their full
            // literal vector so distinct lists and patterns stay distinct.
            let _ = write!(key, "#{t}.{c}:{op}=");
            for (i, lit) in self.lits[lits.start..lits.end].iter().enumerate() {
                if i > 0 {
                    key.push(',');
                }
                let _ = write!(key, "{lit}");
            }
        }
        key
    }
}

/// Shapes a [`TemplateInterner`] keeps. Past it, a new shape is rendered
/// and handed out without being kept, so the shapes already kept (the ones
/// traffic met first, and the hot ones among them) stay shared.
const INTERNED_SHAPES: usize = 4096;

/// Interns structural templates: queries with the same shape share one
/// rendered string, so a reader of the template (a `FEEDBACK` grade, a
/// kept `TRACE` exemplar) pays a read-locked map hit on its query's
/// canonical shape instead of re-rendering [`query_template`]
/// (string sorts and a dozen allocations). Public for `ds-bench`'s
/// `ceilings` test, which holds the exemplar's timeline work under an
/// absolute ceiling.
pub struct TemplateInterner {
    map: RwLock<HashMap<Vec<u32>, Arc<str>>>,
}

impl Default for TemplateInterner {
    fn default() -> Self {
        Self::new()
    }
}

impl TemplateInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self {
            map: RwLock::new(HashMap::new()),
        }
    }

    /// Returns the interned [`query_template`] of `query`, rendering and
    /// keeping it on first sight of `shape`, the query's
    /// [`EstimateKey::shape`]. Once 4 096 shapes are kept, a new one is
    /// rendered for this call alone.
    pub fn get(&self, db: &Database, query: &Query, shape: &[u32]) -> Arc<str> {
        if let Some(t) = self
            .map
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(shape)
        {
            return Arc::clone(t);
        }
        let rendered: Arc<str> = query_template(db, query).into();
        let mut map = self.map.write().unwrap_or_else(PoisonError::into_inner);
        if map.len() >= INTERNED_SHAPES && !map.contains_key(shape) {
            return rendered;
        }
        Arc::clone(map.entry(shape.to_vec()).or_insert(rendered))
    }
}

/// The structural template of a query: sorted table names, join equalities,
/// and predicate shapes with literals elided. Space-free by construction
/// (identifier characters only plus `,|+=<>?.`), so it survives the
/// one-token wire formats, and canonical, so the same query shape always
/// feeds the same per-template drift monitor regardless of literal values
/// or clause order.
pub fn query_template(db: &Database, query: &Query) -> String {
    let mut tables: Vec<&str> = query.tables.iter().map(|t| db.table(*t).name()).collect();
    tables.sort_unstable();
    let mut joins: Vec<String> = query
        .joins
        .iter()
        .map(|j| {
            let (l, r) = (db.col_name(j.left), db.col_name(j.right));
            if l <= r {
                format!("{l}={r}")
            } else {
                format!("{r}={l}")
            }
        })
        .collect();
    joins.sort();
    let mut preds: Vec<String> = query
        .qualified_predicates()
        .map(|(cr, p)| {
            // Comparison tokens keep their legacy spelling; the word-like
            // operators get dot delimiters so the template stays
            // unambiguous against identifier characters.
            let tok = match p.op_kind() {
                ds_storage::predicate::PredOpKind::In => ".IN.",
                ds_storage::predicate::PredOpKind::Like => ".LIKE.",
                k => k.sql(),
            };
            format!("{}{}?", db.col_name(cr), tok)
        })
        .collect();
    preds.sort();
    let mut out = tables.join(",");
    if !joins.is_empty() {
        out.push('|');
        out.push_str(&joins.join("+"));
    }
    if !preds.is_empty() {
        out.push('|');
        out.push_str(&preds.join("+"));
    }
    out
}

/// One cached estimate plus its CLOCK referenced bit.
struct Entry {
    value: f64,
    referenced: bool,
}

/// One independently locked shard: entry map plus the second-chance ring
/// over exactly the map's keys, each key held once and shared by both.
struct Shard {
    map: HashMap<Arc<CacheKey>, Entry, KeyHasher>,
    ring: VecDeque<Arc<CacheKey>>,
}

/// Hashes cache keys, for the shard choice and in the shard maps. A derived
/// `Query` hash makes one `write` per field, about thirty for a five-table
/// query, and SipHash pays ≈ 10 ns a call; here a write is one folded
/// multiply. Seeded per cache.
#[derive(Clone, Copy)]
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

/// Locks one shard, poisoned or not. A holder that unwound cannot have left
/// a wrong answer behind: a key and its value enter the map in one
/// `insert` and a value is replaced by one store, so every entry still maps
/// its key to the bits a healthy pass produced for it. At worst the ring
/// lost a key (its entry is never evicted) or kept one whose entry is gone
/// (eviction skips it).
fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Bounded, sharded, second-chance estimate cache. See the module docs for
/// the keying and invalidation contract.
pub struct EstimateCache {
    shards: Vec<Mutex<Shard>>,
    hasher: KeyHasher,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl EstimateCache {
    /// A cache holding at most `capacity` entries (at least 1) across
    /// `shards` shards, never more shards than entries. Each shard holds
    /// `capacity / shards`, rounded down, so up to `shards - 1` of the
    /// capacity can go unused but the bound always holds.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = shards.clamp(1, capacity);
        let hasher = KeyHasher(RandomState::new().hash_one(0));
        let shard = || {
            let (map, ring) = (HashMap::with_hasher(hasher), VecDeque::new());
            Mutex::new(Shard { map, ring })
        };
        Self {
            shards: (0..shards).map(|_| shard()).collect(),
            hasher,
            per_shard_capacity: capacity / shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The locked shard `key` lives in, chosen by the high half of its
    /// hash: the shard's map indexes its buckets by the low bits.
    fn shard(&self, key: &CacheKey) -> MutexGuard<'_, Shard> {
        let h = self.hasher.hash_one(key) >> 32;
        lock(&self.shards[h as usize % self.shards.len()])
    }

    /// Looks up a cached estimate, counting the hit or miss.
    pub fn get(&self, key: &CacheKey) -> Option<f64> {
        let mut shard = self.shard(key);
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
    pub fn insert(&self, key: CacheKey, value: f64) {
        let mut shard = self.shard(&key);
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
                // Only eviction removes an entry, and it pops the key off
                // the ring first, so a ring key always has its entry.
                _ => {
                    shard.map.remove(&victim);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let key = Arc::new(key);
        shard.ring.push_back(Arc::clone(&key));
        shard.map.insert(
            key,
            Entry {
                value,
                referenced: false,
            },
        );
    }

    /// Cached entries across all shards, displaced generations' included.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).map.len()).sum()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to the forward pass.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped by capacity eviction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Renders the hit, miss and eviction counters and the entry count.
    pub fn render(&self, p: &mut PromText) {
        p.counter("serve/cache/hits", self.hits())
            .counter("serve/cache/misses", self.misses())
            .counter("serve/cache/evictions", self.evictions())
            .gauge("serve/cache/len", self.len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_query::parser::parse_query;
    use ds_storage::catalog::TableId;
    use ds_storage::gen::{imdb_database, ImdbConfig};
    use ds_storage::predicate::{CmpOp, ColPredicate};
    use std::collections::HashSet;

    impl TemplateInterner {
        /// Shapes kept.
        pub(crate) fn len(&self) -> usize {
            self.map
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .len()
        }
    }

    #[test]
    fn interner_shares_one_rendering_per_query_shape() {
        let db = imdb_database(&ImdbConfig::tiny(3));
        let interner = TemplateInterner::new();
        // Same shape, different literals and clause order → one entry.
        let a = parse_query(
            &db,
            "SELECT COUNT(*) FROM title t, movie_keyword mk \
             WHERE mk.movie_id = t.id AND t.production_year > 1995",
        )
        .expect("parse");
        let b = parse_query(
            &db,
            "SELECT COUNT(*) FROM movie_keyword mk, title t \
             WHERE t.production_year > 2001 AND mk.movie_id = t.id",
        )
        .expect("parse");
        let get = |q: &Query| interner.get(&db, q, EstimateKey::new("imdb", 1, q).shape());
        let ta = get(&a);
        let tb = get(&b);
        assert!(Arc::ptr_eq(&ta, &tb), "same shape must intern to one Arc");
        assert_eq!(ta.as_ref(), query_template(&db, &a));
        assert_eq!(ta.as_ref(), query_template(&db, &b));

        // A different operator on the same column is a different shape.
        let c = parse_query(
            &db,
            "SELECT COUNT(*) FROM title t, movie_keyword mk \
             WHERE mk.movie_id = t.id AND t.production_year < 1995",
        )
        .expect("parse");
        let tc = get(&c);
        assert!(!Arc::ptr_eq(&ta, &tc));
        assert_eq!(tc.as_ref(), query_template(&db, &c));
    }

    /// Past its bound the interner renders a new shape for its caller
    /// without keeping it, and every shape it kept stays shared.
    #[test]
    fn a_full_interner_keeps_its_shapes_and_renders_new_ones_unkept() {
        let db = imdb_database(&ImdbConfig::tiny(3));
        let interner = TemplateInterner::new();
        let parse = |sql| parse_query(&db, sql).expect("parse");
        let a = parse("SELECT COUNT(*) FROM title WHERE title.production_year > 2000");
        let b = parse("SELECT COUNT(*) FROM title WHERE title.kind_id = 1");
        let (ka, kb) = (EstimateKey::new("s", 1, &a), EstimateKey::new("s", 1, &b));
        let first = interner.get(&db, &a, ka.shape());
        // The interner keys by the shape it is handed, so shapes no query
        // has fill it.
        for i in 1..INTERNED_SHAPES {
            interner.get(&db, &a, &[u32::MAX, i as u32]);
        }
        assert_eq!(interner.len(), INTERNED_SHAPES);
        let past = interner.get(&db, &b, kb.shape());
        assert_eq!(past.as_ref(), query_template(&db, &b));
        assert_eq!(
            interner.len(),
            INTERNED_SHAPES,
            "a shape past the bound was kept"
        );
        let again = interner.get(&db, &b, kb.shape());
        assert!(!Arc::ptr_eq(&past, &again));
        assert_eq!(again.as_ref(), query_template(&db, &b));
        let kept = interner.get(&db, &a, ka.shape());
        assert!(Arc::ptr_eq(&first, &kept), "a kept shape was dropped");
    }

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
        assert_eq!(ka, EstimateKey::new("s", 1, &a.clone()));
    }

    /// Two clause orders of one query share their canonical identity but
    /// not their cache key: the model reads clause order, so the second
    /// order misses the first one's entry.
    #[test]
    fn clause_orders_of_one_query_are_distinct_cache_keys() {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let (year, keyword) = ("t.production_year > 1995", "mk.keyword_id = 7");
        let parse = |from, first, second| {
            let sql = format!(
                "SELECT COUNT(*) FROM {from} WHERE mk.movie_id = t.id AND {first} AND {second}"
            );
            parse_query(&db, &sql).expect("parse")
        };
        let a = parse("title t, movie_keyword mk", year, keyword);
        let b = parse("movie_keyword mk, title t", keyword, year);
        assert_eq!(EstimateKey::new("s", 1, &a), EstimateKey::new("s", 1, &b));
        let (ka, kb) = (CacheKey::new("s", 1, a), CacheKey::new("s", 1, b));
        assert_ne!(ka, kb);
        let cache = EstimateCache::new(64, 4);
        cache.insert(ka.clone(), 1.5);
        assert_eq!(cache.get(&kb), None);
        assert_eq!(cache.get(&ka), Some(1.5));
    }

    /// A key of one fixed query shape with literal `lit`: the cache never
    /// looks inside a key, so its tests need no database.
    fn key(generation: u64, lit: i64) -> CacheKey {
        let mut query = Query::new();
        query.tables.push(TableId(0));
        query
            .predicates
            .push((TableId(0), ColPredicate::new(0, CmpOp::Gt, lit)));
        CacheKey::new("s", generation, query)
    }

    /// The value a test inserts under `key(generation, lit)`.
    fn value(generation: u64, lit: i64) -> f64 {
        (generation * 1_000_000) as f64 + lit as f64
    }

    /// Each shard's ring holds exactly its map's keys, each once.
    fn assert_rings_hold_their_maps(cache: &EstimateCache) {
        for shard in &cache.shards {
            let s = shard.lock().unwrap();
            let ring: HashSet<&Arc<CacheKey>> = s.ring.iter().collect();
            assert_eq!(ring.len(), s.ring.len(), "a key is in the ring twice");
            assert_eq!(ring, s.map.keys().collect(), "ring and map disagree");
        }
    }

    #[test]
    fn a_new_generation_misses_and_the_old_entries_stay() {
        let (a, b, _) = queries();
        let cache = EstimateCache::new(64, 4);
        let k = CacheKey::new("imdb", 1, a.clone());
        assert_eq!(cache.get(&k), None);
        cache.insert(k.clone(), 42.5);
        assert_eq!(cache.get(&k), Some(42.5));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        cache.insert(CacheKey::new("imdb", 1, b), 7.0);
        assert_eq!(cache.len(), 2);

        // A new generation never hits the old entries, and builds none of
        // their keys again; they stay until eviction takes them.
        let k2 = CacheKey::new("imdb", 2, a);
        assert_eq!(cache.get(&k2), None);
        assert_eq!(cache.len(), 2);
        cache.insert(k2.clone(), 1.5);
        assert_eq!(cache.get(&k2), Some(1.5));
        assert_eq!(cache.get(&k), Some(42.5));
        assert_eq!(cache.len(), 3);
    }

    /// A sketch whose generation moves faster than the cache fills: each
    /// generation misses on every query the one before it cached, and the
    /// displaced entries are evicted within the capacity, off the ring too.
    #[test]
    fn displaced_generations_age_out_within_capacity() {
        let cache = EstimateCache::new(1024, 8);
        for generation in 1..=50 {
            for i in 0..200 {
                let k = key(generation, i);
                assert_eq!(cache.get(&k), None, "generation {generation}");
                cache.insert(k.clone(), value(generation, i));
                assert_eq!(cache.get(&k), Some(value(generation, i)));
            }
            assert!(cache.len() <= 1024, "{} entries", cache.len());
            assert_rings_hold_their_maps(&cache);
        }
        assert_eq!((cache.hits(), cache.misses()), (50 * 200, 50 * 200));
        assert_eq!(cache.evictions(), 50 * 200 - cache.len() as u64);
    }

    /// `len() <= capacity` whatever the split: the shard count is clamped
    /// to the capacity and each shard's share rounded down.
    #[test]
    fn the_cache_never_holds_more_than_its_capacity() {
        for (capacity, shards, full) in [(1, 8, 1), (5, 8, 5), (4097, 8, 4096), (4096, 8, 4096)] {
            let cache = EstimateCache::new(capacity, shards);
            for i in 0..20_000 {
                cache.insert(key(1, i), 0.0);
            }
            assert_eq!(cache.len(), full, "new({capacity}, {shards})");
            assert_rings_hold_their_maps(&cache);
        }
    }

    /// Eight threads get and insert over overlapping keys of four
    /// generations at a capacity that forces eviction: a hit always returns
    /// the bits inserted for its key, and the bound and the rings hold.
    #[test]
    fn concurrent_gets_and_inserts_keep_every_key_to_its_value() {
        let cache = EstimateCache::new(256, 8);
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let (cache, start) = (&cache, &start);
                s.spawn(move || {
                    start.wait();
                    for j in 0..2_000u64 {
                        let generation = (j + t) % 4 + 1;
                        let lit = ((j * 7 + t * 13) % 300) as i64;
                        let k = key(generation, lit);
                        match cache.get(&k) {
                            Some(v) => assert_eq!(v.to_bits(), value(generation, lit).to_bits()),
                            None => cache.insert(k, value(generation, lit)),
                        }
                    }
                });
            }
        });
        assert_eq!(cache.hits() + cache.misses(), 8 * 2_000);
        assert!(cache.hits() > 0 && cache.evictions() > 0);
        assert!(cache.len() <= 256, "{} entries", cache.len());
        assert_rings_hold_their_maps(&cache);
    }

    #[test]
    fn capacity_is_bounded_and_hot_entries_survive_eviction() {
        // Single shard, capacity 4: inserts must never grow past it.
        let cache = EstimateCache::new(4, 1);
        cache.insert(key(1, 0), 0.0);
        for i in 1..20 {
            // Keep key 0 hot so second chance retains it.
            assert_eq!(cache.get(&key(1, 0)), Some(0.0), "hot entry evicted at {i}");
            cache.insert(key(1, i), i as f64);
            assert!(cache.len() <= 4, "cache grew past capacity");
        }
        assert!(cache.evictions() > 0);
    }
}
