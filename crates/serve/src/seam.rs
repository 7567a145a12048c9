//! The names the benchmark's source compiles against, and nothing else
//! does: the server runs its own forward pass (`server::pass`). These go
//! when the benchmark is re-pointed at the serving path.

use std::sync::Arc;

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
    }
}
