//! Query featurization (§2 of the paper).
//!
//! "Based on the training data, we enumerate tables, columns, joins, and
//! predicate types (=, <, and >) and represent them as unique one-hot
//! vectors. We represent each literal as a value val ∈ [0, 1], normalized
//! using the minimum and maximum values of the respective column." In
//! addition, each table element carries the bitmap of sample tuples
//! qualifying the query's predicates on that table.
//!
//! A query becomes three *sets* of feature vectors:
//!
//! * table set: `one-hot(table) ++ sample-bitmap`
//! * join set: `one-hot(join)`
//! * predicate set: `one-hot(column) ++ one-hot(op) ++ [normalized literal]`
//!
//! A predicate element has one layout of three widths after its column:
//! operator slots, auxiliary scalar slots and per-predicate bitmap bits.
//! [`FeatureSchema::V1`], the paper's encoding, has 3 operator slots
//! (`=, <, >`) and neither of the others. [`FeatureSchema::V2`] has 5 (`IN`
//! and `LIKE` too), one aux slot (IN-list size, LIKE literal-character
//! fraction) and bitmap bits: the predicate evaluated alone against a
//! prefix of its table's sample, as MSCN+ does. An operator without a
//! slot (`IN`, `LIKE` under v1) gets no bit and a mid-scale literal.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use ds_nn::frozen::{BitRows, IndexSet};
use ds_nn::ops::Segments;
use ds_nn::sparse::Rows;
use ds_nn::tensor::Tensor;
use ds_query::query::Query;
use ds_storage::bitmap::Bitmap;
use ds_storage::catalog::{ColRef, Database};
use ds_storage::exec::JoinEdge;
use ds_storage::predicate::{ColPredicate, PredTest};
use ds_storage::sample::TableSample;

/// The benchmark's entries form of a query, at the path it compiles
/// against (`seam.rs`).
#[doc(hidden)]
pub use crate::seam::*;

/// The serialized name of a predicate element's operator and auxiliary
/// widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FeatureSchema {
    /// The paper's encoding: 3 operator slots, no auxiliary slot, no
    /// per-predicate bitmap.
    V1 = 1,
    /// 5 operator slots, one auxiliary slot and a per-predicate bitmap of
    /// any width.
    V2 = 2,
}

impl FeatureSchema {
    /// Stable wire tag (sketch serialization): the discriminant.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`FeatureSchema::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(FeatureSchema::V1),
            2 => Some(FeatureSchema::V2),
            _ => None,
        }
    }

    /// A predicate element's operator slots and auxiliary scalar slots.
    fn widths(self) -> (usize, usize) {
        match self {
            FeatureSchema::V1 => (3, 0),
            FeatureSchema::V2 => (5, 1),
        }
    }
}

/// IN-list length that saturates the auxiliary scalar of schema v2.
const IN_LIST_AUX_SCALE: f32 = 16.0;

/// The featurization vocabulary: stable one-hot ids for tables, joins, and
/// predicate columns, plus per-column normalization bounds. Serialized as
/// part of every Deep Sketch.
#[derive(Debug, Clone, PartialEq)]
pub struct Featurizer {
    num_tables: usize,
    sample_size: usize,
    /// Whether table features include the sample bitmap (ablation knob —
    /// this is MSCN's "with/without materialized samples" experiment).
    use_bitmaps: bool,
    /// Canonical join edge → one-hot id.
    joins: Vec<JoinEdge>,
    /// Predicate column → one-hot id (parallel to `col_bounds`).
    columns: Vec<ColRef>,
    /// Per predicate-column (min, max) for literal normalization.
    col_bounds: Vec<(f64, f64)>,
    /// The operator and auxiliary widths of a predicate element.
    schema: FeatureSchema,
    /// Per-predicate bitmap width (0 under schema v1): the predicate
    /// is evaluated alone against the first `pred_bitmap_bits` rows of its
    /// table's materialized sample.
    pred_bitmap_bits: usize,
    join_index: HashMap<JoinEdge, usize>,
    col_index: HashMap<ColRef, usize>,
}

impl Featurizer {
    /// Builds the vocabulary from the database schema: all PK/FK joins and
    /// the given predicate columns, with literal bounds from the data.
    pub fn build(db: &Database, predicate_columns: &[ColRef], sample_size: usize) -> Self {
        Self::build_with_options(db, predicate_columns, sample_size, true)
    }

    /// [`Featurizer::build`] with the bitmap ablation knob.
    pub fn build_with_options(
        db: &Database,
        predicate_columns: &[ColRef],
        sample_size: usize,
        use_bitmaps: bool,
    ) -> Self {
        let joins = db
            .foreign_keys()
            .iter()
            .map(|fk| JoinEdge::new(fk.from, fk.to).canonical())
            .collect();
        let col_bounds = predicate_columns
            .iter()
            .map(|cr| {
                let (lo, hi) = db
                    .table(cr.table)
                    .column(cr.col)
                    .min_max()
                    .unwrap_or((0, 1));
                (lo as f64, hi as f64)
            })
            .collect();
        Self::from_parts(
            db.num_tables(),
            sample_size,
            use_bitmaps,
            joins,
            predicate_columns.to_vec(),
            col_bounds,
            FeatureSchema::V1,
            0,
        )
    }

    /// Upgrades this vocabulary to schema v2 with the given per-predicate
    /// bitmap width (clamped to the sample size; 0 disables the bitmap
    /// tail but keeps the widened operator one-hot and aux scalar).
    pub fn with_schema_v2(mut self, pred_bitmap_bits: usize) -> Self {
        self.schema = FeatureSchema::V2;
        self.pred_bitmap_bits = pred_bitmap_bits.min(self.sample_size);
        self
    }

    /// Reassembles a featurizer from serialized parts.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        num_tables: usize,
        sample_size: usize,
        use_bitmaps: bool,
        joins: Vec<JoinEdge>,
        columns: Vec<ColRef>,
        col_bounds: Vec<(f64, f64)>,
        schema: FeatureSchema,
        pred_bitmap_bits: usize,
    ) -> Self {
        assert_eq!(columns.len(), col_bounds.len(), "bounds/columns mismatch");
        assert!(
            schema == FeatureSchema::V2 || pred_bitmap_bits == 0,
            "schema v1 has no per-predicate bitmap"
        );
        let join_index = joins.iter().enumerate().map(|(i, &j)| (j, i)).collect();
        let col_index = columns.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        Self {
            num_tables,
            sample_size,
            use_bitmaps,
            joins,
            columns,
            col_bounds,
            schema,
            pred_bitmap_bits,
            join_index,
            col_index,
        }
    }

    /// Width of a table-set element: `num_tables + sample_size` (bitmap on).
    pub fn table_dim(&self) -> usize {
        self.num_tables
            + if self.use_bitmaps {
                self.sample_size
            } else {
                0
            }
    }

    /// Width of a join-set element: one-hot over the schema's joins.
    pub fn join_dim(&self) -> usize {
        self.joins.len().max(1)
    }

    /// Width of a predicate-set element: columns, operator slots, the
    /// literal, auxiliary slots and bitmap bits.
    pub fn pred_dim(&self) -> usize {
        let (ops, aux) = self.schema.widths();
        self.columns.len() + ops + 1 + aux + self.pred_bitmap_bits
    }

    /// The serialized name of the predicate element's widths.
    pub fn schema(&self) -> FeatureSchema {
        self.schema
    }

    /// Per-predicate bitmap width (0 under schema v1).
    pub fn pred_bitmap_bits(&self) -> usize {
        self.pred_bitmap_bits
    }

    /// Nominal sample size (bitmap length).
    pub fn sample_size(&self) -> usize {
        self.sample_size
    }

    /// Whether sample bitmaps are part of table features.
    pub fn use_bitmaps(&self) -> bool {
        self.use_bitmaps
    }

    /// Number of tables in the vocabulary.
    pub fn num_tables(&self) -> usize {
        self.num_tables
    }

    /// Join vocabulary (canonical edges, in one-hot order).
    pub fn joins(&self) -> &[JoinEdge] {
        &self.joins
    }

    /// Predicate-column vocabulary (in one-hot order).
    pub fn columns(&self) -> &[ColRef] {
        &self.columns
    }

    /// Literal bounds per vocabulary column.
    pub fn col_bounds(&self) -> &[(f64, f64)] {
        &self.col_bounds
    }

    /// Normalizes a literal for vocabulary column `idx` into `[0, 1]`.
    pub fn normalize_literal(&self, idx: usize, literal: i64) -> f32 {
        let (lo, hi) = self.col_bounds[idx];
        if hi <= lo {
            return 0.5;
        }
        (((literal as f64) - lo) / (hi - lo)).clamp(0.0, 1.0) as f32
    }

    /// Scalar slots of one predicate: `(literal, aux)`. Comparison:
    /// normalized literal, aux 0. `IN`: mean normalized list value, aux =
    /// saturating list-size fraction. `LIKE`: mid-scale literal, aux =
    /// literal-character fraction of the pattern.
    fn scalars(&self, idx: Option<usize>, p: &ColPredicate) -> (f32, f32) {
        match &p.test {
            PredTest::Cmp(_, lit) => (idx.map_or(0.5, |i| self.normalize_literal(i, *lit)), 0.0),
            PredTest::In(vals) => {
                let primary = idx.map_or(0.5, |i| {
                    let sum: f32 = vals.iter().map(|&v| self.normalize_literal(i, v)).sum();
                    sum / vals.len() as f32
                });
                (primary, (vals.len() as f32 / IN_LIST_AUX_SCALE).min(1.0))
            }
            PredTest::Like(pat) => {
                let len = pat.as_str().len();
                let aux = if len == 0 {
                    0.0
                } else {
                    let literal_chars = pat
                        .as_str()
                        .bytes()
                        .filter(|&c| c != b'%' && c != b'_')
                        .count();
                    literal_chars as f32 / len as f32
                };
                (0.5, aux)
            }
        }
    }

    /// Invokes `f` with each set bit of the per-predicate sample bitmap:
    /// the predicate evaluated alone against the first
    /// `pred_bitmap_bits` materialized rows of its table's sample.
    fn for_each_pred_bitmap_bit(
        &self,
        samples: &[TableSample],
        table: usize,
        p: &ColPredicate,
        mut f: impl FnMut(usize),
    ) {
        if self.pred_bitmap_bits == 0 {
            return;
        }
        let Some(sample) = samples.get(table) else {
            return;
        };
        if p.col >= sample.rows().columns().len() {
            return;
        }
        let col = sample.rows().column(p.col);
        for row in 0..sample.len().min(self.pred_bitmap_bits) {
            if p.eval_row(col, row) {
                f(row);
            }
        }
    }

    /// Featurizes one query. `samples` must be the database-wide sample
    /// vector (indexed by table id) the sketch ships.
    pub fn featurize(&self, query: &Query, samples: &[TableSample]) -> QueryFeatures {
        // Table set.
        let mut table_rows = Vec::with_capacity(query.tables.len());
        for &t in &query.tables {
            let mut row = vec![0.0f32; self.table_dim()];
            if t.0 < self.num_tables {
                row[t.0] = 1.0;
            }
            if self.use_bitmaps {
                let bm = samples[t.0].qualifying_bitmap(query.preds_of(t));
                debug_assert_eq!(bm.len(), self.sample_size);
                for i in bm.iter_ones() {
                    row[self.num_tables + i] = 1.0;
                }
            }
            table_rows.push(row);
        }

        // Join set.
        let mut join_rows = Vec::with_capacity(query.joins.len());
        for j in &query.joins {
            let mut row = vec![0.0f32; self.join_dim()];
            if let Some(&idx) = self.join_index.get(&j.canonical()) {
                row[idx] = 1.0;
            }
            join_rows.push(row);
        }

        // Predicate set: one-hot(col), one-hot(op), the literal, the aux
        // slot and the per-predicate bitmap.
        let (ops, aux_slots) = self.schema.widths();
        let lit_slot = self.columns.len() + ops;
        let tail = lit_slot + 1 + aux_slots;
        let mut pred_rows = Vec::with_capacity(query.predicates.len());
        for (cr, p) in query.qualified_predicates() {
            let mut row = vec![0.0f32; self.pred_dim()];
            let idx = self.col_index.get(&cr).copied();
            if let Some(i) = idx {
                row[i] = 1.0;
            }
            let op = p.op_kind().index();
            let (literal, aux) = if op < ops {
                row[self.columns.len() + op] = 1.0;
                self.scalars(idx, p)
            } else {
                (0.5, 0.0)
            };
            row[lit_slot] = literal;
            if aux_slots > 0 {
                row[lit_slot + 1] = aux;
            }
            self.for_each_pred_bitmap_bit(samples, cr.table.0, p, |bit| {
                row[tail + bit] = 1.0;
            });
            pred_rows.push(row);
        }

        QueryFeatures {
            table_rows,
            join_rows,
            pred_rows,
        }
    }

    /// Appends the query's elements behind whatever `out` already holds,
    /// which is how a batch is laid out for the fused forward (every
    /// query's sets back to back). Returns how many `[table, join,
    /// predicate]` elements the query contributed.
    ///
    /// A table element goes to `out.tables` as its bitset over
    /// [`Featurizer::table_dim`] features: the table's one-hot bit, then
    /// the words of its qualifying-sample bitmap shifted by the number of
    /// tables. That is the one form a table element is kept in: the served
    /// forward looks it up in the element memo by those words, the
    /// [`FeaturePool`] interns it by them, and each expands an element
    /// into entries only where a kernel reads it
    /// ([`BitRows::expand_into`]). Join and predicate elements go to
    /// `out.joins` and `out.preds` as entries.
    pub fn append_indices(
        &self,
        query: &Query,
        samples: &[TableSample],
        out: &mut ServedFeatures,
    ) -> [u32; 3] {
        // Table set: one-hot(table) then the bitmap tail.
        let width = self.table_dim();
        for &t in &query.tables {
            let mut row = out.tables.push_clear(width);
            if t.0 < self.num_tables {
                row.set(t.0);
            }
            if self.use_bitmaps {
                samples[t.0].qualify_into(query.preds_of(t), &mut out.qualifying);
                debug_assert_eq!(out.qualifying.len(), self.sample_size);
                row.or_shifted(self.num_tables, out.qualifying.words());
            }
        }

        // Join set: a single one-hot, or an all-zero element for joins
        // outside the vocabulary.
        for j in &query.joins {
            let start = out.joins.begin_elem();
            if let Some(&idx) = self.join_index.get(&j.canonical()) {
                out.joins.push(idx as u32, 1.0);
            }
            out.joins.finish_elem(start);
        }

        // Predicate set, as `featurize` writes it, in ascending index
        // order. The aux slot holds an entry even at 0.0: the element memo
        // and the pool key an element by its entries.
        let (ops, aux_slots) = self.schema.widths();
        let lit_slot = self.columns.len() + ops;
        let tail = lit_slot + 1 + aux_slots;
        for (cr, p) in query.qualified_predicates() {
            let start = out.preds.begin_elem();
            let idx = self.col_index.get(&cr).copied();
            if let Some(i) = idx {
                out.preds.push(i as u32, 1.0);
            }
            let op = p.op_kind().index();
            let (literal, aux) = if op < ops {
                out.preds.push((self.columns.len() + op) as u32, 1.0);
                self.scalars(idx, p)
            } else {
                (0.5, 0.0)
            };
            out.preds.push(lit_slot as u32, literal);
            if aux_slots > 0 {
                out.preds.push(lit_slot as u32 + 1, aux);
            }
            self.for_each_pred_bitmap_bit(samples, cr.table.0, p, |bit| {
                out.preds.push((tail + bit) as u32, 1.0);
            });
            out.preds.finish_elem(start);
        }
        // One element per table, join and predicate, whatever it holds.
        [
            query.tables.len(),
            query.joins.len(),
            query.predicates.len(),
        ]
        .map(|n| n as u32)
    }

    /// Featurizes a whole workload once — what the training loop draws its
    /// batches from ([`FeaturePool::batch`]). The pool keeps what
    /// [`Featurizer::append_indices`] writes for serving, so training and
    /// serving see one featurization in one form.
    ///
    /// The pool holds each distinct element once, under a dense id: an
    /// element an earlier one equals takes that element's id. A workload's
    /// table elements repeat a few bitmaps (every predicate-free table's),
    /// and each is kept as its bitset (36 B at the benchmark's spec, where
    /// its entries take ≈ 1.2 kB).
    pub fn pool(&self, queries: &[Query], samples: &[TableSample]) -> FeaturePool {
        let mut served = ServedFeatures::default();
        let mut feats = ServedFeatures::default();
        let mut distinct: [Interned; 3] = Default::default();
        let mut ids: [Vec<u32>; 3] = Default::default();
        let mut first = Vec::with_capacity(queries.len() + 1);
        first.push([0; 3]);
        for q in queries {
            served.clear();
            self.append_indices(q, samples, &mut served);
            for r in 0..served.tables.len() {
                ids[0].push(distinct[0].bits(&mut feats.tables, &served.tables, r));
            }
            for (set, to, from) in [
                (1, &mut feats.joins, &served.joins),
                (2, &mut feats.preds, &served.preds),
            ] {
                for r in 0..from.elems.len() {
                    ids[set].push(distinct[set].entries(to, from.elem(r)));
                }
            }
            first.push(ids.each_ref().map(|ids| ids.len() as u32));
        }
        // Element spans address entries with `u32`s. Each buffer grew by
        // doubling; give the slack back.
        for set in [&mut feats.joins, &mut feats.preds] {
            assert!(
                u32::try_from(set.entries.len()).is_ok(),
                "workload too large for one feature pool"
            );
            set.entries.shrink_to_fit();
            set.elems.shrink_to_fit();
        }
        ids.iter_mut().for_each(Vec::shrink_to_fit);
        FeaturePool { feats, ids, first }
    }

    /// Assembles featurized queries into dense batched set matrices with
    /// segment descriptors for masked mean pooling — the input of the
    /// model's reference forward ([`crate::mscn::MscnModel::predict`]).
    pub fn batch(&self, feats: &[QueryFeatures]) -> FeatureBatch {
        let pack = |rows_of: &dyn Fn(&QueryFeatures) -> &Vec<Vec<f32>>, dim: usize| {
            let total: usize = feats.iter().map(|f| rows_of(f).len()).sum();
            let mut data = Vec::with_capacity(total * dim);
            let mut segs: Segments = Vec::with_capacity(feats.len());
            let mut start = 0;
            for f in feats {
                let rows = rows_of(f);
                for r in rows {
                    debug_assert_eq!(r.len(), dim);
                    data.extend_from_slice(r);
                }
                segs.push((start, rows.len()));
                start += rows.len();
            }
            (Tensor::from_vec(total, dim, data), segs)
        };
        let (tables, table_segs) = pack(&|f| &f.table_rows, self.table_dim());
        let (joins, join_segs) = pack(&|f| &f.join_rows, self.join_dim());
        let (preds, pred_segs) = pack(&|f| &f.pred_rows, self.pred_dim());
        FeatureBatch {
            tables,
            table_segs,
            joins,
            join_segs,
            preds,
            pred_segs,
        }
    }

    /// Convenience: featurize and batch a slice of queries in one call.
    pub fn batch_queries(&self, queries: &[Query], samples: &[TableSample]) -> FeatureBatch {
        let feats: Vec<QueryFeatures> =
            queries.iter().map(|q| self.featurize(q, samples)).collect();
        self.batch(&feats)
    }
}

/// Queries featurized as [`Featurizer::append_indices`] writes them,
/// [`ds_nn::frozen::FrozenModel::forward_batch`] reads them and a
/// [`FeaturePool`] keeps them: every query's sets back to back, table
/// elements as bitsets, join and predicate elements as `(index, value)`
/// entries.
#[derive(Debug, Default, Clone)]
pub struct ServedFeatures {
    /// Table-set elements as bitsets over [`Featurizer::table_dim`]
    /// features: one-hot(table), then the qualifying-sample bitmap.
    pub tables: BitRows,
    /// Join-set elements: at most one active index each.
    pub joins: IndexSet,
    /// Predicate-set elements: column, operator, and literal slots.
    pub preds: IndexSet,
    /// Scratch of [`Featurizer::append_indices`]: the qualifying-sample
    /// bitmap of the table it featurized last. Not a feature.
    qualifying: Bitmap,
}

impl ServedFeatures {
    /// Empties every set, keeping their allocations.
    pub fn clear(&mut self) {
        self.tables.clear();
        self.joins.clear();
        self.preds.clear();
    }
}

/// The distinct elements of one set of a [`FeaturePool`] being built,
/// keyed by [`fold_hash`]: the id of the first element that held each
/// hash. An element whose hash an unequal element took keeps an id of its
/// own.
#[derive(Default)]
struct Interned(HashMap<u64, u32, BuildHasherDefault<Prehashed>>);

impl Interned {
    /// The id of table element `r` of `from` among the distinct elements
    /// of `to`, where it is appended unless an equal one is there.
    fn bits(&mut self, to: &mut BitRows, from: &BitRows, r: usize) -> u32 {
        let words = from.elem(r);
        let hash = fold_hash(words.iter().map(|&w| u64::from(w)));
        let id = self.id(hash, to.len(), |id| to.elem(id) == words);
        if id as usize == to.len() {
            to.push_elem(from, r);
        }
        id
    }

    /// The id of the element `entries` among the distinct elements of
    /// `to`, where it is appended unless one of equal bits is there.
    fn entries(&mut self, to: &mut IndexSet, entries: &[(u32, f32)]) -> u32 {
        let id = self.id(entries_hash(entries), to.elems.len(), |id| {
            same_bits(to.elem(id), entries)
        });
        if id as usize == to.elems.len() {
            to.push_elem(entries);
        }
        id
    }

    /// The id of the first element that hashed to `hash` when `is` says
    /// it equals the new one, else `next`, the new element's.
    fn id(&mut self, hash: u64, next: usize, is: impl FnOnce(usize) -> bool) -> u32 {
        match self.0.entry(hash) {
            Entry::Occupied(seen) if is(*seen.get() as usize) => *seen.get(),
            Entry::Occupied(_) => next as u32,
            Entry::Vacant(slot) => *slot.insert(next as u32),
        }
    }
}

/// An element's entries hashed in place, one multiply per entry.
fn entries_hash(entries: &[(u32, f32)]) -> u64 {
    fold_hash(
        entries
            .iter()
            .map(|&(i, v)| (u64::from(i) << 32) | u64::from(v.to_bits())),
    )
}

/// Words hashed one multiply each, seeded by how many there are.
fn fold_hash(words: impl ExactSizeIterator<Item = u64>) -> u64 {
    let seed = words.len() as u64;
    words.fold(seed, |h, word| {
        (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

/// Equal indices and equal value bits, entry by entry.
fn same_bits(a: &[(u32, f32)], b: &[(u32, f32)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// The [`Hasher`] of keys that are hashes already: it passes them through.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) | u64::from(b);
        }
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
}

/// A workload featurized once ([`Featurizer::pool`]): each set's distinct
/// elements, every query's elements back to back as ids of those, and
/// where each query's begin. A repeated element is stored once and named
/// by each of its repeats.
#[derive(Debug, Clone)]
pub struct FeaturePool {
    /// Per set, the distinct elements in the form
    /// [`Featurizer::append_indices`] writes: element `id` of a set is its
    /// `id`-th bitset or span.
    feats: ServedFeatures,
    /// `ids[set]` holds every query's elements of `set`, as ids.
    ids: [Vec<u32>; 3],
    /// `first[q][set]` is query `q`'s first element in `ids[set]` (tables,
    /// joins, predicates); one row more than there are queries.
    first: Vec<[u32; 3]>,
}

impl FeaturePool {
    /// Number of queries in the pool.
    pub fn len(&self) -> usize {
        self.first.len() - 1
    }

    /// True for a pool of no queries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An empty batch over this pool, to be [`PoolBatch::fill`]ed.
    pub fn batch(&self) -> PoolBatch<'_> {
        let distinct = [
            self.feats.tables.len(),
            self.feats.joins.elems.len(),
            self.feats.preds.elems.len(),
        ];
        PoolBatch {
            pool: self,
            rows: Default::default(),
            index: Default::default(),
            segs: Default::default(),
            seen: distinct.map(|n| vec![(0, 0); n]),
            stamp: 0,
        }
    }

    /// The batch of queries `idx`, in `idx` order.
    pub fn batch_of(&self, idx: &[usize]) -> PoolBatch<'_> {
        let mut batch = self.batch();
        batch.fill(idx);
        batch
    }

    /// Appends distinct element `id` of `set` to `to` as entries.
    fn push_row(&self, set: usize, id: usize, to: &mut IndexSet) {
        match set {
            0 => self.feats.tables.expand_into(id, to),
            1 => to.push_elem(self.feats.joins.elem(id)),
            _ => to.push_elem(self.feats.preds.elem(id)),
        }
    }
}

/// Some queries of a [`FeaturePool`] as one model input: per set the
/// batch's distinct elements as sparse rows, every element of the chosen
/// queries as an index into those, and each query's segment of those. The
/// batch copies its distinct elements into entries of its own, table
/// elements expanded from their bitsets ([`BitRows::expand_into`]).
/// Refilled in place, so a training loop that keeps one batch allocates
/// nothing per step once its buffers have grown.
#[derive(Debug, Clone)]
pub struct PoolBatch<'a> {
    pool: &'a FeaturePool,
    /// Per set, the batch's distinct elements as entries.
    rows: [IndexSet; 3],
    index: [Vec<u32>; 3],
    segs: [Segments; 3],
    /// Per set and pool element id, the fill that last met it (`stamp`)
    /// and its row in `rows` then: a batch finds its distinct elements
    /// without hashing and without clearing anything between fills.
    seen: [Vec<(u32, u32)>; 3],
    stamp: u32,
}

/// One set of a [`PoolBatch`]: the batch's distinct elements as sparse
/// rows, each element of each query as one of those rows, and per-query
/// `(start, len)` segments of the elements for masked mean pooling.
#[derive(Debug, Clone, Copy)]
pub struct BatchSet<'a> {
    /// The batch's distinct elements, one sparse row each, in order of
    /// first occurrence.
    pub rows: Rows<'a>,
    /// Every element of every query of the batch, as its row in `rows`.
    pub index: &'a [u32],
    /// Per-query `(start, len)` into `index`.
    pub segs: &'a Segments,
}

impl<'a> PoolBatch<'a> {
    /// Replaces the batch with queries `idx` of the pool, in `idx` order.
    ///
    /// # Panics
    /// Panics when an index is not a query of the pool.
    pub fn fill(&mut self, idx: &[usize]) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Every stamp left in `seen` could be taken for this fill's.
            self.seen.iter_mut().for_each(|seen| seen.fill((0, 0)));
            self.stamp = 1;
        }
        let pool = self.pool;
        for set in 0..3 {
            let (index, segs) = (&mut self.index[set], &mut self.segs[set]);
            let rows = &mut self.rows[set];
            index.clear();
            segs.clear();
            rows.clear();
            for &q in idx {
                let (from, to) = (pool.first[q][set], pool.first[q + 1][set]);
                segs.push((index.len(), (to - from) as usize));
                for &id in &pool.ids[set][from as usize..to as usize] {
                    let (stamp, row) = &mut self.seen[set][id as usize];
                    if *stamp != self.stamp {
                        *stamp = self.stamp;
                        *row = rows.elems.len() as u32;
                        pool.push_row(set, id as usize, rows);
                    }
                    index.push(*row);
                }
            }
        }
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.segs[0].len()
    }

    /// True for a zero-query batch.
    pub fn is_empty(&self) -> bool {
        self.segs[0].is_empty()
    }

    /// The table set.
    pub fn tables(&self) -> BatchSet<'_> {
        self.set(0)
    }

    /// The join set.
    pub fn joins(&self) -> BatchSet<'_> {
        self.set(1)
    }

    /// The predicate set.
    pub fn preds(&self) -> BatchSet<'_> {
        self.set(2)
    }

    fn set(&self, set: usize) -> BatchSet<'_> {
        BatchSet {
            rows: self.rows[set].rows(),
            index: &self.index[set],
            segs: &self.segs[set],
        }
    }
}

/// The three feature-vector sets of one query, as dense rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryFeatures {
    /// One row per table: `one-hot(table) ++ bitmap`.
    pub table_rows: Vec<Vec<f32>>,
    /// One row per join: `one-hot(join)`.
    pub join_rows: Vec<Vec<f32>>,
    /// One row per predicate, in the layout the module docs describe.
    pub pred_rows: Vec<Vec<f32>>,
}

/// A batch of featurized queries as three flattened dense element matrices
/// plus per-query segments — the input of the model's reference forward.
#[derive(Debug, Clone)]
pub struct FeatureBatch {
    /// All table elements, stacked.
    pub tables: Tensor,
    /// Per-query (start, len) into `tables`.
    pub table_segs: Segments,
    /// All join elements, stacked.
    pub joins: Tensor,
    /// Per-query (start, len) into `joins`.
    pub join_segs: Segments,
    /// All predicate elements, stacked.
    pub preds: Tensor,
    /// Per-query (start, len) into `preds`.
    pub pred_segs: Segments,
}

impl FeatureBatch {
    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.table_segs.len()
    }

    /// True for a zero-query batch.
    pub fn is_empty(&self) -> bool {
        self.table_segs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_query::parser::parse_query;
    use ds_query::workloads::imdb_predicate_columns;
    use ds_storage::gen::{imdb_database, ImdbConfig};
    use ds_storage::predicate::CmpOp;
    use ds_storage::sample::sample_all;

    fn setup() -> (Database, Vec<TableSample>, Featurizer) {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let samples = sample_all(&db, 32, 7);
        let f = Featurizer::build(&db, &imdb_predicate_columns(&db), 32);
        (db, samples, f)
    }
    use ds_storage::catalog::Database;

    #[test]
    fn dims_reflect_vocabulary() {
        let (_db, _s, f) = setup();
        assert_eq!(f.table_dim(), 6 + 32);
        assert_eq!(f.join_dim(), 5);
        assert_eq!(f.pred_dim(), 9 + 3 + 1);
    }

    #[test]
    fn featurize_sets_expected_onehots() {
        let (db, samples, f) = setup();
        let q = parse_query(
            &db,
            "SELECT COUNT(*) FROM title, movie_keyword \
             WHERE movie_keyword.movie_id = title.id AND title.production_year > 2000",
        )
        .unwrap();
        let feats = f.featurize(&q, &samples);
        assert_eq!(feats.table_rows.len(), 2);
        assert_eq!(feats.join_rows.len(), 1);
        assert_eq!(feats.pred_rows.len(), 1);

        // Table one-hot for title (id 0) plus a non-empty bitmap tail.
        let title_row = &feats.table_rows[0];
        assert_eq!(title_row[0], 1.0);
        assert_eq!(title_row[1..6].iter().sum::<f32>(), 0.0);
        assert!(title_row[6..].iter().sum::<f32>() > 0.0, "bitmap empty");

        // Join one-hot sums to exactly 1.
        assert_eq!(feats.join_rows[0].iter().sum::<f32>(), 1.0);

        // Predicate row: one column, one op, literal in [0,1].
        let p = &feats.pred_rows[0];
        assert_eq!(p[..9].iter().sum::<f32>(), 1.0);
        assert_eq!(p[9 + CmpOp::Gt.index()], 1.0);
        let lit = p[12];
        assert!((0.0..=1.0).contains(&lit));
    }

    #[test]
    fn bitmap_reflects_predicates() {
        let (db, samples, f) = setup();
        let all = parse_query(&db, "SELECT COUNT(*) FROM title").unwrap();
        let none = parse_query(
            &db,
            "SELECT COUNT(*) FROM title WHERE title.production_year > 99999",
        )
        .unwrap();
        let f_all = f.featurize(&all, &samples);
        let f_none = f.featurize(&none, &samples);
        let ones = |row: &Vec<f32>| row[6..].iter().filter(|&&v| v == 1.0).count();
        assert_eq!(ones(&f_all.table_rows[0]), 32);
        assert_eq!(ones(&f_none.table_rows[0]), 0, "0-tuple bitmap");
    }

    #[test]
    fn bitmaps_can_be_disabled() {
        let db = imdb_database(&ImdbConfig::tiny(2));
        let samples = sample_all(&db, 16, 3);
        let f = Featurizer::build_with_options(&db, &imdb_predicate_columns(&db), 16, false);
        assert_eq!(f.table_dim(), 6);
        let q = parse_query(&db, "SELECT COUNT(*) FROM title").unwrap();
        let feats = f.featurize(&q, &samples);
        assert_eq!(feats.table_rows[0].len(), 6);
    }

    #[test]
    fn literal_normalization_bounds() {
        let (_db, _s, f) = setup();
        // production_year is vocabulary column 1.
        let idx = 1;
        let (lo, hi) = f.col_bounds()[idx];
        assert!(hi > lo);
        assert_eq!(f.normalize_literal(idx, lo as i64), 0.0);
        assert_eq!(f.normalize_literal(idx, hi as i64), 1.0);
        let mid = f.normalize_literal(idx, ((lo + hi) / 2.0) as i64);
        assert!(mid > 0.3 && mid < 0.7);
        // Out-of-range literals clamp.
        assert_eq!(f.normalize_literal(idx, i64::MAX), 1.0);
    }

    #[test]
    fn batch_segments_partition_rows() {
        let (db, samples, f) = setup();
        let q1 = parse_query(
            &db,
            "SELECT COUNT(*) FROM title, movie_keyword \
             WHERE movie_keyword.movie_id = title.id",
        )
        .unwrap();
        let q2 = parse_query(&db, "SELECT COUNT(*) FROM title WHERE title.kind_id = 1").unwrap();
        let batch = f.batch_queries(&[q1, q2], &samples);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.tables.rows(), 3);
        assert_eq!(batch.table_segs, vec![(0, 2), (2, 1)]);
        assert_eq!(batch.joins.rows(), 1);
        assert_eq!(batch.join_segs, vec![(0, 1), (1, 0)]); // q2 has no joins
        assert_eq!(batch.preds.rows(), 1);
        assert_eq!(batch.pred_segs, vec![(0, 0), (0, 1)]);
    }

    /// Three queries, then a repeat of the first and a query that shares
    /// single elements with the others: `movie_keyword`'s predicate-free
    /// table element and the join with the first, `title.kind_id = 1` with
    /// the second, `cast_info`'s table element with the third.
    const POOLED_SQL: [&str; 5] = [
        "SELECT COUNT(*) FROM title, movie_keyword WHERE movie_keyword.movie_id = title.id",
        "SELECT COUNT(*) FROM title WHERE title.kind_id = 1",
        "SELECT COUNT(*) FROM title, cast_info WHERE cast_info.movie_id = title.id \
         AND title.production_year > 2000 AND cast_info.role_id = 2",
        "SELECT COUNT(*) FROM title, movie_keyword WHERE movie_keyword.movie_id = title.id",
        "SELECT COUNT(*) FROM title, movie_keyword, cast_info \
         WHERE movie_keyword.movie_id = title.id AND cast_info.movie_id = title.id \
         AND title.kind_id = 1 AND cast_info.role_id = 2",
    ];

    #[test]
    fn pool_batches_are_the_dense_batch_of_the_same_queries() {
        let (db, samples, f) = setup();
        let queries: Vec<Query> = POOLED_SQL
            .iter()
            .map(|s| parse_query(&db, s).unwrap())
            .collect();
        let pool = f.pool(&queries, &samples);
        assert_eq!(pool.len(), 5);
        let mut batch = pool.batch();
        assert!(batch.is_empty());
        for (set, seen) in batch.seen.iter().enumerate() {
            let ids = &pool.ids[set];
            assert!(seen.len() < ids.len(), "set {set} shares nothing");
            let query =
                |q: usize| &ids[pool.first[q][set] as usize..pool.first[q + 1][set] as usize];
            assert_eq!(query(3), query(0), "set {set}: the repeated query");
        }
        // Any subset, any order, repeats included; refilled in place.
        for idx in [
            vec![0, 1, 2],
            vec![2, 0],
            vec![1],
            vec![1, 1, 2],
            vec![3, 4, 0],
            vec![4, 3, 2, 1, 0],
        ] {
            batch.fill(&idx);
            let chosen: Vec<Query> = idx.iter().map(|&i| queries[i].clone()).collect();
            assert_dense(&f, &batch, &chosen, &samples);
        }
    }

    #[test]
    fn a_repeated_workload_pools_to_the_entries_of_one_copy() {
        let (db, samples, f) = setup();
        let once: Vec<Query> = POOLED_SQL
            .iter()
            .map(|s| parse_query(&db, s).unwrap())
            .collect();
        let thrice: Vec<Query> = once.iter().cycle().take(3 * once.len()).cloned().collect();
        let (one, three) = (f.pool(&once, &samples), f.pool(&thrice, &samples));
        assert_eq!(three.len(), 3 * one.len());
        assert_eq!(three.feats.tables, one.feats.tables);
        assert_eq!(three.feats.joins, one.feats.joins);
        assert_eq!(three.feats.preds, one.feats.preds);
        for set in 0..3 {
            assert_eq!(three.ids[set], one.ids[set].repeat(3), "set {set}");
        }
    }

    #[test]
    fn elements_whose_hashes_collide_keep_their_own_entries() {
        // Two elements of two entries each with one hash: the second
        // element's last entry is solved for from the first's hash.
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let k_inverse = (0..5).fold(K, |x, _| {
            x.wrapping_mul(2u64.wrapping_sub(K.wrapping_mul(x)))
        });
        let a = [(0u32, 1.0f32), (1, 1.0)];
        let target = entries_hash(&a);
        let first =
            (2u64.rotate_left(5) ^ ((5u64 << 32) | u64::from(2.0f32.to_bits()))).wrapping_mul(K);
        let last = target.wrapping_mul(k_inverse) ^ first.rotate_left(5);
        let b = [
            (5u32, 2.0f32),
            ((last >> 32) as u32, f32::from_bits(last as u32)),
        ];
        assert_eq!(entries_hash(&b), target);
        assert!(!same_bits(&a, &b));

        let (mut set, mut interned) = (IndexSet::default(), Interned::default());
        let ids = [&a[..], &b, &a].map(|elem| interned.entries(&mut set, elem));
        assert_eq!(set.elems, vec![(0, 2), (2, 2)]);
        assert_eq!(ids, [0, 1, 0]);
        assert_eq!(set.entries, [a, b].concat());
    }

    /// `batch`, filled with `queries`, is their dense batch: every
    /// element of every set is its dense row entry for entry (a table
    /// element's entries are its row's ones), indices ascending, and the
    /// rows are the distinct elements in order of first occurrence, so
    /// equal elements, and only those, share a row and a pool id.
    fn assert_dense(f: &Featurizer, batch: &PoolBatch, queries: &[Query], samples: &[TableSample]) {
        assert_eq!(batch.len(), queries.len());
        let dense = f.batch_queries(queries, samples);
        for (ones, set, tensor, segs) in [
            (true, batch.tables(), &dense.tables, &dense.table_segs),
            (false, batch.joins(), &dense.joins, &dense.join_segs),
            (false, batch.preds(), &dense.preds, &dense.pred_segs),
        ] {
            assert_eq!((set.segs, set.index.len()), (segs, tensor.rows()));
            let mut row_of = HashMap::new();
            for (e, &r) in set.index.iter().enumerate() {
                let (start, len) = set.rows.spans[r as usize];
                let entries = &set.rows.entries[start as usize..(start + len) as usize];
                assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "ascending");
                assert!(!ones || entries.iter().all(|&(_, v)| v == 1.0));
                let mut row = vec![0.0f32; tensor.cols()];
                for &(i, v) in entries {
                    row[i as usize] = v;
                }
                assert_eq!(row, tensor.row(e), "element {e}");
                assert!(
                    r as usize <= row_of.len(),
                    "rows in order of first occurrence"
                );
                let bits: Vec<u32> = row.iter().map(|v| v.to_bits()).collect();
                assert_eq!(*row_of.entry(bits).or_insert(r), r, "element {e}");
            }
            assert_eq!(row_of.len(), set.rows.spans.len());
        }
    }

    /// [`assert_dense`] for the batch of every query of `f`'s pool.
    fn pool_dense(f: &Featurizer, queries: &[Query], samples: &[TableSample]) -> FeaturePool {
        let pool = f.pool(queries, samples);
        let all: Vec<usize> = (0..queries.len()).collect();
        assert_dense(f, &pool.batch_of(&all), queries, samples);
        pool
    }

    /// One v1 query, then schema v2 over generated queries with `IN` and
    /// `LIKE` predicates and per-predicate sample bitmaps.
    #[test]
    fn extended_ops_pool_to_the_dense_rows() {
        let (db, samples, f) = setup();
        let q = parse_query(
            &db,
            "SELECT COUNT(*) FROM title, movie_keyword \
             WHERE movie_keyword.movie_id = title.id AND title.production_year > 2000",
        )
        .unwrap();
        pool_dense(&f, &[q], &samples);
        let columns = imdb_predicate_columns(&db);
        let config = ds_query::GeneratorConfig::new(columns.clone(), 13).with_extended_ops();
        let extended = ds_query::QueryGenerator::new(&db, config).generate_batch(60);
        let kinds: std::collections::HashSet<_> = extended
            .iter()
            .flat_map(|q| q.predicates.iter().map(|(_, p)| p.op_kind().index()))
            .collect();
        assert_eq!(kinds.len(), 5, "=, <, >, IN and LIKE all appear");
        let v2 = Featurizer::build(&db, &columns, 32).with_schema_v2(16);
        let pool = pool_dense(&v2, &extended, &samples);
        let tail = (v2.columns().len() + 7) as u32;
        let preds = &pool.feats.preds.entries;
        assert!(preds.iter().any(|e| e.0 >= tail), "no predicate bitmap bit");
    }

    /// Over a generated workload and three edge queries, the pool's table
    /// elements are the dense rows. Sample size 100 puts the bitmap's
    /// words off the table bits' 32-bit words by `num_tables` and ends it
    /// inside a word; a vocabulary without the last table leaves that
    /// table's elements with no one-hot bit.
    #[test]
    fn pooled_table_elements_are_the_dense_rows() {
        let db = imdb_database(&ImdbConfig::tiny(3));
        let columns = imdb_predicate_columns(&db);
        let mut queries =
            ds_query::QueryGenerator::new(&db, ds_query::GeneratorConfig::new(columns.clone(), 11))
                .generate_batch(60);
        for sql in [
            "SELECT COUNT(*) FROM title WHERE title.production_year > 99999",
            "SELECT COUNT(*) FROM movie_info_idx",
            "SELECT COUNT(*) FROM title, movie_info_idx WHERE movie_info_idx.movie_id = title.id \
             AND movie_info_idx.info_type_id = 99999",
        ] {
            queries.push(parse_query(&db, sql).unwrap());
        }
        let last = db.num_tables() - 1;
        for sample_size in [256, 100] {
            let samples = sample_all(&db, sample_size, 5);
            let full = Featurizer::build(&db, &columns, sample_size);
            let without_last = Featurizer::from_parts(
                last,
                sample_size,
                true,
                full.joins().to_vec(),
                columns.clone(),
                full.col_bounds().to_vec(),
                FeatureSchema::V1,
                0,
            );
            let no_bitmaps = Featurizer::build_with_options(&db, &columns, sample_size, false);
            for f in [full, without_last, no_bitmaps] {
                let pool = pool_dense(&f, &queries, &samples);
                assert_eq!(pool.feats.tables.width(), f.table_dim());
                let dense = f.batch_queries(&queries, &samples).tables;
                let ones = |r: &[f32]| r.iter().filter(|&&v| v == 1.0).count();
                let rows = (0..dense.rows()).map(|e| dense.row(e));
                let (heads, tails): (Vec<_>, Vec<_>) = rows
                    .map(|row| row.split_at(f.num_tables()))
                    .map(|(head, tail)| (ones(head), ones(tail)))
                    .unzip();
                assert!(tails.contains(&0), "a zero-tuple bitmap");
                let outside = heads.contains(&0);
                assert_eq!(outside, f.num_tables() == last, "one-hots outside");
            }
        }
    }

    #[test]
    fn from_parts_roundtrip() {
        let (db, samples, f) = setup();
        let f2 = Featurizer::from_parts(
            f.num_tables(),
            f.sample_size(),
            f.use_bitmaps(),
            f.joins().to_vec(),
            f.columns().to_vec(),
            f.col_bounds().to_vec(),
            f.schema(),
            f.pred_bitmap_bits(),
        );
        let q = parse_query(
            &db,
            "SELECT COUNT(*) FROM title WHERE title.production_year > 2000",
        )
        .unwrap();
        assert_eq!(f.featurize(&q, &samples), f2.featurize(&q, &samples));
        assert_eq!(f, f2);
    }
}
