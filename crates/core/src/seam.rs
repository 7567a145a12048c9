//! The names the benchmark's source compiles against, and nothing else
//! does. They go when the benchmark is re-pointed.

use std::cell::RefCell;

use ds_nn::frozen::{FrozenModel, IndexSet};
use ds_query::query::Query;
use ds_storage::sample::TableSample;

use crate::featurize::{Featurizer, ServedFeatures};
use crate::sketch::DeepSketch;

impl DeepSketch {
    /// [`DeepSketch::artifact`] in an `Option` that is always `Some`.
    #[doc(hidden)]
    pub fn frozen(&self) -> Option<&FrozenModel> {
        Some(self.artifact())
    }
}

/// A query's three sets as `(index, value)` entries, table elements
/// expanded; `ds_core::featurize::QueryIndexFeatures` re-exports it.
#[doc(hidden)]
#[derive(Debug, Default, Clone, PartialEq)]
pub struct QueryIndexFeatures {
    pub tables: IndexSet,
    pub joins: IndexSet,
    pub preds: IndexSet,
}

impl Featurizer {
    /// [`Featurizer::append_indices`] into this thread's
    /// [`ServedFeatures`], written into `out` as entries.
    #[doc(hidden)]
    pub fn featurize_indices(
        &self,
        query: &Query,
        samples: &[TableSample],
        out: &mut QueryIndexFeatures,
    ) {
        thread_local!(static SERVED: RefCell<ServedFeatures> = RefCell::default());
        SERVED.with_borrow_mut(|served| {
            served.clear();
            self.append_indices(query, samples, served);
            out.tables.clear();
            for r in 0..served.tables.len() {
                served.tables.expand_into(r, &mut out.tables);
            }
            std::mem::swap(&mut out.joins, &mut served.joins);
            std::mem::swap(&mut out.preds, &mut served.preds);
        });
    }
}
