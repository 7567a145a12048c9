//! The names the benchmark's source compiles against, and nothing else
//! does. They go when the benchmark is re-pointed.

use std::cell::RefCell;

use crate::frozen::{BitRows, FrozenModel, FrozenScratch, IndexSet};

impl FrozenModel {
    /// [`FrozenModel::forward_batch`] over one query whose table elements
    /// come as entries, each packed into this thread's bitset first.
    /// Panics on a table entry other than `1.0` or past the table width.
    #[doc(hidden)]
    pub fn forward_query(
        &self,
        tables: &IndexSet,
        joins: &IndexSet,
        preds: &IndexSet,
        scratch: &mut FrozenScratch,
    ) -> f32 {
        thread_local!(static BITS: RefCell<BitRows> = RefCell::default());
        BITS.with_borrow_mut(|bits| {
            bits.clear();
            for r in 0..tables.elems.len() {
                let mut row = bits.push_clear(self.layers()[0].in_dim());
                for &(i, v) in tables.elem(r) {
                    assert!(v == 1.0, "table entry {i} has the value {v}, not 1.0");
                    row.set(i as usize);
                }
            }
            let counts = [[&tables.elems, &joins.elems, &preds.elems].map(|e| e.len() as u32)];
            let mut y = [0.0f32];
            self.forward_batch(bits, joins, preds, &counts, scratch, &mut y);
            y[0]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::tests::tiny_model;

    #[test]
    #[should_panic(expected = "table entry 4 has the value 0.5, not 1.0")]
    fn a_table_entry_other_than_one_is_refused() {
        let m = tiny_model();
        let mut tables = IndexSet::default();
        let e = tables.begin_elem();
        tables.push(1, 1.0);
        tables.push(4, 0.5);
        tables.finish_elem(e);
        let empty = IndexSet::default();
        m.forward_query(&tables, &empty, &empty, &mut FrozenScratch::new());
    }
}
