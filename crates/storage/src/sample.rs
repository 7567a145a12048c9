//! Materialized base-table samples.
//!
//! A Deep Sketch ships, for every base table, a uniform sample of (e.g.)
//! 1000 tuples. At featurization time each base-table selection is executed
//! against its sample, yielding a bitmap of qualifying sample tuples that is
//! fed to the MSCN model; at template-instantiation time literals are drawn
//! from the sample's columns.

use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

use crate::bitmap::Bitmap;
use crate::catalog::{Database, TableId};
use crate::predicate::{CmpOp, ColPredicate, PredTest};
use crate::table::Table;

/// A materialized uniform sample of one base table.
#[derive(Debug, Clone)]
pub struct TableSample {
    table_id: TableId,
    /// Row ids of the sampled rows in the base table.
    row_ids: Vec<u32>,
    /// The sampled rows, materialized as a mini-table for fast scans.
    rows: Table,
    /// Nominal sample size the sketch was configured with; the bitmap is
    /// always this long even if the base table is smaller.
    nominal_size: usize,
}

impl TableSample {
    /// Draws a uniform sample (without replacement) of up to `size` rows.
    /// Deterministic for a given `seed`.
    pub fn draw(db: &Database, table_id: TableId, size: usize, seed: u64) -> Self {
        let table = db.table(table_id);
        let n = table.num_rows();
        let mut ids: Vec<u32> = (0..n as u32).collect();
        let mut rng =
            StdRng::seed_from_u64(seed ^ (table_id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        ids.shuffle(&mut rng);
        ids.truncate(size.min(n));
        ids.sort_unstable(); // stable row order for reproducible bitmaps
        let rows = table.project_rows(&ids);
        Self {
            table_id,
            row_ids: ids,
            rows,
            nominal_size: size,
        }
    }

    /// Reassembles a sample from its parts (sketch deserialization). The
    /// materialized `rows` table must have one row per entry of `row_ids`.
    ///
    /// # Panics
    /// Panics if `rows.num_rows() != row_ids.len()` or the nominal size is
    /// smaller than the materialized row count.
    pub fn from_parts(
        table_id: TableId,
        row_ids: Vec<u32>,
        rows: Table,
        nominal_size: usize,
    ) -> Self {
        assert_eq!(rows.num_rows(), row_ids.len(), "sample row count mismatch");
        assert!(nominal_size >= row_ids.len(), "nominal size too small");
        Self {
            table_id,
            row_ids,
            rows,
            nominal_size,
        }
    }

    /// The sampled table's id.
    pub fn table_id(&self) -> TableId {
        self.table_id
    }

    /// Number of materialized sample rows (≤ nominal size).
    pub fn len(&self) -> usize {
        self.rows.num_rows()
    }

    /// True if the sample holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.num_rows() == 0
    }

    /// Nominal (configured) sample size; this is the bitmap length used by
    /// the featurizer.
    pub fn nominal_size(&self) -> usize {
        self.nominal_size
    }

    /// Base-table row ids of the sample.
    pub fn row_ids(&self) -> &[u32] {
        &self.row_ids
    }

    /// The materialized sample rows.
    pub fn rows(&self) -> &Table {
        &self.rows
    }

    /// Evaluates a conjunction of predicates against the sample into `bm`,
    /// which becomes a bitmap of `nominal_size` bits (bits past the
    /// materialized rows stay clear) and keeps its allocation: a predicate
    /// at a time, each clearing the rows it rejects. A comparison on a
    /// column without NULLs tests the whole column, 64 rows to a word
    /// (`Bitmap::and_where`); `IN`, `LIKE` and columns with NULLs test
    /// only the rows still set.
    pub fn qualify_into<'a>(
        &self,
        preds: impl IntoIterator<Item = &'a ColPredicate>,
        bm: &mut Bitmap,
    ) {
        let rows = self.rows.num_rows();
        bm.reset(self.nominal_size, rows);
        for p in preds {
            let col = self.rows.column(p.col);
            match (&p.test, col.null_mask()) {
                (&PredTest::Cmp(op, lit), None) => match op {
                    CmpOp::Eq => bm.and_where(col.data(), |v| v == lit),
                    CmpOp::Lt => bm.and_where(col.data(), |v| v < lit),
                    CmpOp::Gt => bm.and_where(col.data(), |v| v > lit),
                },
                _ => bm.retain(|row| p.eval_row(col, row)),
            }
        }
    }

    /// [`TableSample::qualify_into`] a fresh bitmap. This is the bitmap
    /// input of the MSCN model.
    pub fn qualifying_bitmap<'a>(
        &self,
        preds: impl IntoIterator<Item = &'a ColPredicate>,
    ) -> Bitmap {
        let mut bm = Bitmap::default();
        self.qualify_into(preds, &mut bm);
        bm
    }

    /// Estimated selectivity of the predicates: qualifying fraction of the
    /// materialized sample. Returns `None` for an empty sample.
    pub fn selectivity<'a>(
        &self,
        preds: impl IntoIterator<Item = &'a ColPredicate>,
    ) -> Option<f64> {
        let n = self.rows.num_rows();
        if n == 0 {
            return None;
        }
        Some(self.qualifying_bitmap(preds).count_ones() as f64 / n as f64)
    }

    /// Distinct non-NULL values of column `col` present in the sample,
    /// sorted ascending — the literal pool for query templates.
    pub fn distinct_values(&self, col: usize) -> Vec<i64> {
        let c = self.rows.column(col);
        let mut vals: Vec<i64> = (0..c.len()).filter_map(|i| c.get(i)).collect();
        vals.sort_unstable();
        vals.dedup();
        vals
    }
}

/// Draws one sample per table of the database with a shared seed.
pub fn sample_all(db: &Database, size: usize, seed: u64) -> Vec<TableSample> {
    (0..db.num_tables())
        .map(|i| TableSample::draw(db, TableId(i), size, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use proptest::prelude::*;

    fn db() -> Database {
        let t = Table::new(
            "t",
            vec![
                Column::new("id", (0..1000).collect()),
                Column::new("v", (0..1000).map(|i| i % 10).collect()),
            ],
        );
        Database::new("d", vec![t], vec![])
    }

    #[test]
    fn draw_is_deterministic_and_sorted() {
        let db = db();
        let s1 = TableSample::draw(&db, TableId(0), 100, 42);
        let s2 = TableSample::draw(&db, TableId(0), 100, 42);
        assert_eq!(s1.row_ids(), s2.row_ids());
        assert_eq!(s1.len(), 100);
        assert!(s1.row_ids().windows(2).all(|w| w[0] < w[1]));
        let s3 = TableSample::draw(&db, TableId(0), 100, 43);
        assert_ne!(s1.row_ids(), s3.row_ids());
    }

    #[test]
    fn sample_larger_than_table_is_clamped() {
        let db = db();
        let s = TableSample::draw(&db, TableId(0), 5000, 1);
        assert_eq!(s.len(), 1000);
        assert_eq!(s.nominal_size(), 5000);
        let bm = s.qualifying_bitmap(&[]);
        assert_eq!(bm.len(), 5000);
        assert_eq!(bm.count_ones(), 1000);
    }

    #[test]
    fn bitmap_and_selectivity_match_predicate() {
        let db = db();
        let s = TableSample::draw(&db, TableId(0), 200, 7);
        let preds = vec![ColPredicate::new(1, CmpOp::Eq, 3)];
        let bm = s.qualifying_bitmap(&preds);
        let sel = s.selectivity(&preds).unwrap();
        assert_eq!(bm.count_ones() as f64 / 200.0, sel);
        // v==3 is 10% of rows; a 200-row uniform sample should see roughly that.
        assert!(sel > 0.02 && sel < 0.25, "sel={sel}");
    }

    #[test]
    fn zero_tuple_situation() {
        let db = db();
        let s = TableSample::draw(&db, TableId(0), 50, 7);
        let preds = vec![ColPredicate::new(1, CmpOp::Gt, 999_999)];
        assert!(s.qualifying_bitmap(&preds).is_all_clear());
        assert_eq!(s.selectivity(&preds), Some(0.0));
    }

    /// Predicate `code` on column 0 (no NULLs) or 1 (a third NULL): a
    /// comparison, an `IN` list or a `LIKE` pattern, over the columns'
    /// values −2..12, so each one keeps some rows and drops others.
    fn predicate(code: u32) -> ColPredicate {
        let col = (code % 2) as usize;
        let lit = (code / 18 % 14) as i64 - 2;
        match code / 2 % 3 {
            0 => ColPredicate::new(col, CmpOp::ALL[(code / 6 % 3) as usize], lit),
            1 => ColPredicate::is_in(col, vec![lit, lit + 3, 11 - lit]),
            _ => ColPredicate::like(col, ["1%", "%3", "_", "-%"][(code / 6 % 4) as usize]),
        }
    }

    proptest! {
        /// Word-at-a-time comparisons and the row-at-a-time fallback
        /// together equal the conjunction of `eval_row` over every row, on
        /// row counts on both sides of a word and a nominal size beyond
        /// the rows.
        #[test]
        fn qualify_into_is_the_conjunction_of_eval_row(
            cells in prop::collection::vec(0..14 * 14 * 3u32, 0..200),
            padding in 0..100usize,
            codes in prop::collection::vec(0..1_000_000u32, 0..5),
        ) {
            let rows = cells.len();
            let value = |c: u32| (c % 14) as i64 - 2;
            let table = Table::new(
                "t",
                vec![
                    Column::new("a", cells.iter().map(|&c| value(c)).collect()),
                    Column::with_nulls(
                        "b",
                        cells.iter().map(|&c| value(c / 14)).collect(),
                        cells.iter().map(|&c| c / 196 == 0).collect(),
                    ),
                ],
            );
            let preds: Vec<ColPredicate> = codes.into_iter().map(predicate).collect();
            let want: Vec<usize> = (0..rows)
                .filter(|&row| preds.iter().all(|p| p.eval_row(table.column(p.col), row)))
                .collect();
            let sample = TableSample::from_parts(TableId(0), (0..rows as u32).collect(), table, rows + padding);
            let mut bm = Bitmap::all_set(7); // stale contents are replaced
            sample.qualify_into(&preds, &mut bm);
            prop_assert_eq!(bm.len(), rows + padding);
            prop_assert_eq!(bm.iter_ones().collect::<Vec<_>>(), want);
            prop_assert_eq!(&bm, &Bitmap::from_words(bm.words().to_vec(), rows + padding));
        }
    }

    #[test]
    fn distinct_values_sorted_dedup() {
        let db = db();
        let s = TableSample::draw(&db, TableId(0), 500, 3);
        let vals = s.distinct_values(1);
        assert_eq!(vals, (0..10).collect::<Vec<i64>>());
    }

    #[test]
    fn sample_all_covers_every_table() {
        let db = db();
        let samples = sample_all(&db, 10, 9);
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].table_id(), TableId(0));
    }
}
