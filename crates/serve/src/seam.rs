//! The names the benchmark's source compiles against, and nothing else
//! does: the server runs its own forward pass (`server::pass`). These go
//! when the benchmark is re-pointed at the serving path.

use std::sync::Arc;

use ds_core::cache::QueryCache;
use ds_est::EstimateError;
use ds_query::query::Query;

use crate::config::SharedEstimator;
use crate::metrics::Metrics;

/// Configures nothing; kept for its `Default`.
#[derive(Default)]
pub struct BatcherConfig {}

/// One [`try_estimate`](ds_est::CardinalityEstimator::try_estimate) call.
pub struct Batcher;

impl Batcher {
    /// A batcher; it counts nothing into `metrics`.
    pub fn new(_cfg: BatcherConfig, _metrics: Arc<Metrics>) -> Self {
        Self
    }

    /// `estimator.try_estimate(&query)`.
    pub fn estimate(&self, estimator: SharedEstimator, query: Query) -> Result<f64, EstimateError> {
        estimator.try_estimate(&query)
    }

    /// Does nothing: a pass runs on its caller's stack.
    pub fn shutdown(&self) {}
}

/// An artifact's cache type ([`QueryCache`]) keyed by (sketch name,
/// generation, query), with the bound it was built with: the benchmark
/// fills it under names it then never looks up. A server keys each
/// artifact's cache by the query alone.
pub struct EstimateCache {
    table: QueryCache<(String, u64, Query)>,
    capacity: usize,
}

impl EstimateCache {
    /// A cache of at most `capacity` entries (at least 1) in one table;
    /// `_shards` is ignored.
    pub fn new(capacity: usize, _shards: usize) -> Self {
        let table = QueryCache::default();
        Self { table, capacity }
    }

    /// The key of `query` under `sketch` at `generation`: a copy of each.
    pub fn key(&self, sketch: &str, generation: u64, query: &Query) -> (String, u64, Query) {
        (sketch.to_string(), generation, query.clone())
    }

    /// [`QueryCache::get`].
    pub fn get(&self, key: &(String, u64, Query)) -> Option<f64> {
        self.table.get(key)
    }

    /// [`QueryCache::insert`] at this cache's bound.
    pub fn insert(&self, key: (String, u64, Query), value: f64) {
        self.table.insert(key, value, self.capacity);
    }

    /// Cached entries.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_core::builder::SketchBuilder;
    use ds_query::workloads::imdb_predicate_columns;
    use ds_storage::gen::{imdb_database, ImdbConfig};

    #[test]
    fn each_seam_answers_what_the_served_path_answers() {
        let db = imdb_database(&ImdbConfig::tiny(5));
        let sketch = SketchBuilder::new(&db, imdb_predicate_columns(&db))
            .training_queries(60)
            .epochs(1)
            .sample_size(8)
            .hidden_units(8)
            .build()
            .expect("sketch");
        assert_eq!(sketch.frozen(), Some(sketch.artifact()));
        let batcher = Batcher::new(BatcherConfig::default(), Arc::new(Metrics::new()));
        let query = ds_query::parser::parse_query(&db, "SELECT COUNT(*) FROM title").expect("sql");
        let got = batcher.estimate(Arc::new(sketch.clone()), query.clone());
        let want = ds_est::CardinalityEstimator::try_estimate(&sketch, &query);
        assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
        batcher.shutdown();
        let (f, m, mut feats) = (sketch.featurizer(), sketch.artifact(), Default::default());
        f.featurize_indices(&query, sketch.samples(), &mut feats);
        let sets = [&feats.tables, &feats.joins, &feats.preds];
        let y = m.forward_query(sets[0], sets[1], sets[2], &mut Default::default());
        let served = sketch.estimate_one(&query);
        assert_eq!(sketch.normalizer().denormalize(y).max(1.0), served);
        let cache = EstimateCache::new(4, 1);
        cache.insert(cache.key("imdb", 1, &query), served);
        assert_eq!(cache.get(&cache.key("imdb", 1, &query)), Some(served));
        assert_eq!(cache.get(&cache.key("imdb", 2, &query)), None);
    }
}
