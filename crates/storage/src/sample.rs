//! Materialized base-table samples.
//!
//! A Deep Sketch ships, for every base table, a uniform sample of (e.g.)
//! 1000 tuples. At featurization time each base-table selection is executed
//! against its sample, yielding a bitmap of qualifying sample tuples that is
//! fed to the MSCN model; at template-instantiation time literals are drawn
//! from the sample's columns.

use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

use crate::bitmap::{Bitmap, Kernel};
use crate::catalog::{Database, TableId};
use crate::predicate::ColPredicate;
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
    /// at a time, each clearing the rows it rejects
    /// ([`ColPredicate::and_into`] on the CPU's [`Kernel`]). On AVX-512 a
    /// comparison or an `IN` list tests the whole column, eight rows to a
    /// compare, and a column with NULLs then clears its null mask a word
    /// at a time; only `LIKE` tests the rows still set, one at a time.
    pub fn qualify_into<'a>(
        &self,
        preds: impl IntoIterator<Item = &'a ColPredicate>,
        bm: &mut Bitmap,
    ) {
        self.qualify_into_on(Kernel::dispatched(), preds, bm);
    }

    /// [`TableSample::qualify_into`] on `kernel`. Naming a kernel is for
    /// benchmarks and tests.
    ///
    /// # Panics
    /// Panics when the CPU lacks the kernel's instructions.
    pub fn qualify_into_on<'a>(
        &self,
        kernel: Kernel,
        preds: impl IntoIterator<Item = &'a ColPredicate>,
        bm: &mut Bitmap,
    ) {
        bm.reset(self.nominal_size, self.rows.num_rows());
        for p in preds {
            p.and_into(kernel, self.rows.column(p.col), bm);
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
    use crate::predicate::CmpOp;
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

    /// Value `code` of a sample cell or a literal: −2..12, so each
    /// predicate keeps some rows and drops others, or an end of `i64`.
    fn value(code: u32) -> i64 {
        match code % 16 {
            14 => i64::MIN,
            15 => i64::MAX,
            c => c as i64 - 2,
        }
    }

    /// Predicate `code` on column 0 (no NULLs) or 1 (a third NULL): a
    /// comparison, an `IN` list or a `LIKE` pattern, over [`value`]s.
    fn predicate(code: u32) -> ColPredicate {
        let col = (code % 2) as usize;
        let lit = value(code / 18);
        match code / 2 % 3 {
            0 => ColPredicate::new(col, CmpOp::ALL[(code / 6 % 3) as usize], lit),
            1 => ColPredicate::is_in(col, vec![lit, value(code / 18 + 3), value(code / 288)]),
            _ => ColPredicate::like(col, ["1%", "%3", "_", "-%"][(code / 6 % 4) as usize]),
        }
    }

    proptest! {
        /// On every kernel this CPU has, and dispatched, a conjunction
        /// equals `eval_row`'s over every row, so the AVX-512 compares and
        /// the portable oracle equal each other: row counts on both sides
        /// of a vector and a word, a nominal size beyond the rows, NULLs,
        /// and cells and literals at both ends of `i64`. One predicate
        /// alone over a prefix of the rows, as schema v2's per-predicate
        /// bitmap reads it, equals `eval_row` there too.
        #[test]
        fn qualify_into_is_the_conjunction_of_eval_row(
            cells in prop::collection::vec(0..16 * 16 * 3u32, 0..300),
            padding in 0..100usize,
            codes in prop::collection::vec(0..1_000_000u32, 0..5),
            prefix in 0..320usize,
        ) {
            static PRINTED: std::sync::Once = std::sync::Once::new();
            let ran: Vec<Kernel> = Kernel::ALL
                .into_iter()
                .filter(|k| k.is_available())
                .collect();
            PRINTED.call_once(|| println!("qualify_into kernels run: {ran:?}"));
            let rows = cells.len();
            let table = Table::new(
                "t",
                vec![
                    Column::new("a", cells.iter().map(|&c| value(c)).collect()),
                    Column::with_nulls(
                        "b",
                        cells.iter().map(|&c| value(c / 16)).collect(),
                        cells.iter().map(|&c| c / 256 == 0).collect(),
                    ),
                ],
            );
            let preds: Vec<ColPredicate> = codes.into_iter().map(predicate).collect();
            let want: Vec<usize> = (0..rows)
                .filter(|&row| preds.iter().all(|p| p.eval_row(table.column(p.col), row)))
                .collect();
            let sample = TableSample::from_parts(TableId(0), (0..rows as u32).collect(), table, rows + padding);
            let kernels = ran.iter().map(|&k| Some(k)).chain([None]);
            for kernel in kernels.clone() {
                let mut bm = Bitmap::all_set(7); // stale contents are replaced
                match kernel {
                    Some(kernel) => sample.qualify_into_on(kernel, &preds, &mut bm),
                    None => sample.qualify_into(&preds, &mut bm),
                }
                prop_assert_eq!(bm.len(), rows + padding);
                prop_assert_eq!(&bm.iter_ones().collect::<Vec<_>>(), &want, "{:?}", kernel);
                prop_assert_eq!(&bm, &Bitmap::from_words(bm.words().to_vec(), rows + padding));
            }
            for p in &preds {
                let col = sample.rows().column(p.col);
                let want: Vec<usize> = (0..rows.min(prefix)).filter(|&row| p.eval_row(col, row)).collect();
                // Over every row, and bits past the rows left as they
                // were: set, here.
                let every: Vec<usize> = (0..rows)
                    .filter(|&row| p.eval_row(col, row))
                    .chain(rows..rows + padding)
                    .collect();
                for kernel in &ran {
                    let mut bm = Bitmap::default();
                    bm.reset(prefix, rows.min(prefix));
                    p.and_into(*kernel, col, &mut bm);
                    prop_assert_eq!(&bm.iter_ones().collect::<Vec<_>>(), &want, "{:?} {:?}", kernel, p);
                    let mut bm = Bitmap::all_set(rows + padding);
                    p.and_into(*kernel, col, &mut bm);
                    prop_assert_eq!(&bm.iter_ones().collect::<Vec<_>>(), &every, "{:?} {:?}", kernel, p);
                }
            }
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
