//! Workload inputs, all derived from `--seed`: one stream of distinct
//! queries, disjoint stripes of it per connection, and a fixed hot pool
//! drawn from with Zipf(1.0). The program under test only ever sees the
//! generated SQL, never the seed.

use std::collections::HashSet;
use std::ops::Range;

use ds_query::generator::{GeneratorConfig, QueryGenerator};
use ds_query::parser::parse_query;
use ds_query::query::Query;
use ds_query::sqlgen::to_sql;
use ds_query::workloads::imdb_predicate_columns;
use ds_serve::EstimateKey;
use ds_storage::catalog::Database;

/// Name the sketch is served under.
pub const SKETCH_NAME: &str = "imdb";

/// Queries in `hot_wire`'s pool; must stay below the server's cache
/// capacity so the whole pool stays resident (asserted by a unit test).
pub const HOT_POOL: usize = 1024;

/// Queries per `embedded_batch` call.
pub const EMBEDDED_BATCH: usize = 64;

/// Largest join and predicate counts the generator draws — the same limits
/// the benchmark's sketch is trained with.
pub const MAX_TABLES: usize = 5;
pub const MAX_PREDICATES: usize = 4;

/// Connections of the wire workloads: one per core, at most four. Every
/// client waits for its reply, so more of them than cores would measure
/// the scheduler.
pub fn client_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// splitmix64: the benchmark's only random source besides the repo's own
/// seeded query generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One generated request: the SQL text sent over the wire and the query
/// the server's parser makes of it, which is what in-process calls and the
/// local reference estimate use.
#[derive(Debug, Clone)]
pub struct StreamQuery {
    pub sql: String,
    pub query: Query,
}

/// `n` distinct comparison-only queries drawn from the repo's generator
/// seeded with `seed`. Distinct means distinct under the server's own
/// cache key, which is stricter than distinct SQL text: two texts that
/// differ only in clause order would share a cache entry.
pub fn query_stream(db: &Database, seed: u64, n: usize) -> Vec<StreamQuery> {
    let mut cfg = GeneratorConfig::new(imdb_predicate_columns(db), seed);
    cfg.max_tables = MAX_TABLES;
    cfg.max_predicates = MAX_PREDICATES;
    let mut generator = QueryGenerator::new(db, cfg);
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let generated = generator.generate();
        if !seen.insert(EstimateKey::new(SKETCH_NAME, 0, &generated)) {
            continue;
        }
        let sql = to_sql(db, &generated);
        let query = parse_query(db, &sql).expect("generated SQL parses");
        out.push(StreamQuery { sql, query });
    }
    out
}

/// Splits `0..total` into `parts` contiguous, disjoint, equal stripes (the
/// remainder is left unused).
pub fn stripes(total: usize, parts: usize) -> Vec<Range<usize>> {
    let len = total / parts;
    (0..parts).map(|i| i * len..(i + 1) * len).collect()
}

/// Zipf(`s`) over ranks `0..n` by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_storage::gen::{imdb_database, ImdbConfig};

    fn sqls(stream: &[StreamQuery]) -> Vec<&str> {
        stream.iter().map(|q| q.sql.as_str()).collect()
    }

    #[test]
    fn same_seed_same_stream_and_another_seed_another_stream() {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let a = query_stream(&db, 7, 300);
        let b = query_stream(&db, 7, 300);
        let c = query_stream(&db, 8, 300);
        assert_eq!(sqls(&a), sqls(&b));
        assert_ne!(sqls(&a), sqls(&c));
    }

    #[test]
    fn stream_has_no_duplicates_by_text_or_by_cache_key() {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let stream = query_stream(&db, 3, 2000);
        let texts: HashSet<&str> = sqls(&stream).into_iter().collect();
        assert_eq!(texts.len(), stream.len());
        let keys: HashSet<EstimateKey> = stream
            .iter()
            .map(|q| EstimateKey::new(SKETCH_NAME, 0, &q.query))
            .collect();
        assert_eq!(keys.len(), stream.len());
    }

    #[test]
    fn stripes_are_disjoint_and_equal() {
        let s = stripes(10, 3);
        assert_eq!(s, vec![0..3, 3..6, 6..9]);
    }

    #[test]
    fn hot_pool_fits_the_default_cache() {
        let capacity = ds_serve::ServeConfig::default().cache_capacity();
        assert!(HOT_POOL < capacity, "pool {HOT_POOL} vs cache {capacity}");
    }

    #[test]
    fn zipf_is_seeded_skewed_and_in_range() {
        let zipf = Zipf::new(HOT_POOL, 1.0);
        let draw = |seed| {
            let mut rng = SplitMix64(seed);
            (0..20_000)
                .map(|_| zipf.sample(&mut rng))
                .collect::<Vec<_>>()
        };
        let a = draw(1);
        assert_eq!(a, draw(1));
        assert_ne!(a, draw(2));
        assert!(a.iter().all(|&r| r < HOT_POOL));
        // Zipf(1.0) over 1024 ranks puts 1/H(1024) ≈ 13 % on rank 0.
        let top = a.iter().filter(|&&r| r == 0).count() as f64 / a.len() as f64;
        assert!((0.11..0.16).contains(&top), "rank-0 share {top}");
    }
}
