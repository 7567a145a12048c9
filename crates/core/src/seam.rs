//! The names the benchmark's source compiles against, and nothing else
//! does. They go when the benchmark is re-pointed.

use ds_nn::frozen::FrozenModel;

use crate::sketch::DeepSketch;

impl DeepSketch {
    /// [`DeepSketch::artifact`] in an `Option` that is always `Some`.
    #[doc(hidden)]
    pub fn frozen(&self) -> Option<&FrozenModel> {
        Some(self.artifact())
    }
}
