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
//! Two predicate-schema generations exist. [`FeatureSchema::V1`] is the
//! paper's encoding above, bit-identical to every sketch ever shipped.
//! [`FeatureSchema::V2`] widens the operator one-hot to the extended
//! vocabulary (`=, <, >, IN, LIKE`), adds an auxiliary scalar (IN-list
//! size / LIKE literal-character fraction), and appends a per-predicate
//! sampling bitmap (`NUM_BITMAP_SAMPLE`-style: the predicate evaluated
//! alone against a prefix of its table's materialized sample) — the
//! MSCN+ features that close the gap on correlated predicates.

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

/// Predicate-encoding generation of a [`Featurizer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureSchema {
    /// The paper's 3-operator encoding: `one-hot(col) ++ one-hot{=,<,>} ++
    /// [literal]`. `IN`/`LIKE` predicates degrade gracefully (zero op
    /// one-hot, mid-scale literal). Every pre-v2 sketch uses this.
    V1,
    /// Extended encoding: `one-hot(col) ++ one-hot{=,<,>,IN,LIKE} ++
    /// [literal, aux] ++ per-predicate sample bitmap`.
    V2,
}

impl FeatureSchema {
    /// Stable wire tag (sketch serialization).
    pub fn tag(self) -> u8 {
        match self {
            FeatureSchema::V1 => 1,
            FeatureSchema::V2 => 2,
        }
    }

    /// Inverse of [`FeatureSchema::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(FeatureSchema::V1),
            2 => Some(FeatureSchema::V2),
            _ => None,
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
    /// Predicate-encoding generation.
    schema: FeatureSchema,
    /// Per-predicate bitmap width of schema v2 (0 under v1): the predicate
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
        let joins: Vec<JoinEdge> = db
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
        let join_index = joins.iter().enumerate().map(|(i, &j)| (j, i)).collect();
        let col_index = predicate_columns
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i))
            .collect();
        Self {
            num_tables: db.num_tables(),
            sample_size,
            use_bitmaps,
            joins,
            columns: predicate_columns.to_vec(),
            col_bounds,
            schema: FeatureSchema::V1,
            pred_bitmap_bits: 0,
            join_index,
            col_index,
        }
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

    /// Width of a predicate-set element. Schema v1: `columns + 3 ops +
    /// 1 literal`. Schema v2: `columns + 5 ops + 2 scalars + bitmap bits`.
    pub fn pred_dim(&self) -> usize {
        match self.schema {
            FeatureSchema::V1 => self.columns.len() + 3 + 1,
            FeatureSchema::V2 => self.columns.len() + 5 + 2 + self.pred_bitmap_bits,
        }
    }

    /// Predicate-encoding generation.
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

    /// Scalar slots of one predicate under schema v2: `(literal, aux)`.
    /// Comparison: normalized literal, aux 0. `IN`: mean normalized list
    /// value, aux = saturating list-size fraction. `LIKE`: mid-scale
    /// literal, aux = literal-character fraction of the pattern.
    fn v2_scalars(&self, idx: Option<usize>, p: &ColPredicate) -> (f32, f32) {
        match &p.test {
            PredTest::Cmp(_, lit) => (idx.map_or(0.5, |i| self.normalize_literal(i, *lit)), 0.0),
            PredTest::In(vals) => {
                let primary = match idx {
                    Some(i) => {
                        let sum: f32 = vals.iter().map(|&v| self.normalize_literal(i, v)).sum();
                        sum / vals.len() as f32
                    }
                    None => 0.5,
                };
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

        // Predicate set.
        let nc = self.columns.len();
        let mut pred_rows = Vec::with_capacity(query.predicates.len());
        for (cr, p) in query.qualified_predicates() {
            let mut row = vec![0.0f32; self.pred_dim()];
            let idx = self.col_index.get(&cr).copied();
            if let Some(i) = idx {
                row[i] = 1.0;
            }
            match self.schema {
                FeatureSchema::V1 => {
                    // Bit-identical to the original encoding for
                    // comparisons; IN/LIKE degrade to a zero op one-hot
                    // and a mid-scale literal.
                    match (&p.test, idx) {
                        (PredTest::Cmp(op, lit), Some(i)) => {
                            row[nc + op.index()] = 1.0;
                            row[nc + 3] = self.normalize_literal(i, *lit);
                        }
                        (PredTest::Cmp(op, _), None) => {
                            // Unknown column: op and a mid-scale literal
                            // still carry signal.
                            row[nc + op.index()] = 1.0;
                            row[nc + 3] = 0.5;
                        }
                        _ => row[nc + 3] = 0.5,
                    }
                }
                FeatureSchema::V2 => {
                    row[nc + p.op_kind().index()] = 1.0;
                    let (primary, aux) = self.v2_scalars(idx, p);
                    row[nc + 5] = primary;
                    row[nc + 6] = aux;
                    self.for_each_pred_bitmap_bit(samples, cr.table.0, p, |bit| {
                        row[nc + 7 + bit] = 1.0;
                    });
                }
            }
            pred_rows.push(row);
        }

        QueryFeatures {
            table_rows,
            join_rows,
            pred_rows,
        }
    }

    /// Featurizes one query as sparse index lists — the exact same active
    /// `(index, value)` pairs as [`Featurizer::featurize`], in ascending
    /// index order per element, without ever materializing the dense
    /// one-hot rows: [`Featurizer::append_indices`] into a cleared `out`,
    /// its table bitsets then expanded into `out.tables`. Reuses `out`'s
    /// buffers, so a loop over queries allocates nothing per query.
    pub fn featurize_indices(
        &self,
        query: &Query,
        samples: &[TableSample],
        out: &mut QueryIndexFeatures,
    ) {
        out.clear();
        self.append_indices(query, samples, out);
        out.expand_tables();
    }

    /// Appends the query's elements behind whatever `out` already holds,
    /// which is how a batch is laid out for the fused forward (every
    /// query's sets back to back). Returns how many `[table, join,
    /// predicate]` elements the query contributed.
    ///
    /// A table element goes to `out.table_bits` as its bitset over
    /// [`Featurizer::table_dim`] features: the table's one-hot bit, then
    /// the words of its qualifying-sample bitmap shifted by the number of
    /// tables. The served forward looks it up in the element memo by those
    /// words and expands only an element the memo misses into entries, so
    /// no per-bit entry is written for the elements it holds. Join and
    /// predicate elements go to `out.joins` and `out.preds` as entries.
    pub fn append_indices(
        &self,
        query: &Query,
        samples: &[TableSample],
        out: &mut QueryIndexFeatures,
    ) -> [u32; 3] {
        // Table set: one-hot(table) then the bitmap tail.
        let width = self.table_dim();
        for &t in &query.tables {
            let mut row = out.table_bits.push_clear(width);
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

        // Predicate set: one-hot(col), one-hot(op), scalar slots, and (v2)
        // the per-predicate bitmap tail — ascending index order.
        let nc = self.columns.len();
        for (cr, p) in query.qualified_predicates() {
            let start = out.preds.begin_elem();
            let idx = self.col_index.get(&cr).copied();
            if let Some(i) = idx {
                out.preds.push(i as u32, 1.0);
            }
            match self.schema {
                FeatureSchema::V1 => {
                    let lit_slot = (nc + 3) as u32;
                    match (&p.test, idx) {
                        (PredTest::Cmp(op, lit), Some(i)) => {
                            out.preds.push((nc + op.index()) as u32, 1.0);
                            out.preds.push(lit_slot, self.normalize_literal(i, *lit));
                        }
                        (PredTest::Cmp(op, _), None) => {
                            out.preds.push((nc + op.index()) as u32, 1.0);
                            out.preds.push(lit_slot, 0.5);
                        }
                        _ => out.preds.push(lit_slot, 0.5),
                    }
                }
                FeatureSchema::V2 => {
                    out.preds.push((nc + p.op_kind().index()) as u32, 1.0);
                    let (primary, aux) = self.v2_scalars(idx, p);
                    out.preds.push((nc + 5) as u32, primary);
                    out.preds.push((nc + 6) as u32, aux);
                    self.for_each_pred_bitmap_bit(samples, cr.table.0, p, |bit| {
                        out.preds.push((nc + 7 + bit) as u32, 1.0);
                    });
                }
            }
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

    /// Featurizes a whole workload once, as index lists — what the training
    /// loop draws its batches from ([`FeaturePool::batch`]). The same
    /// [`Featurizer::append_indices`] serving runs, its table bitsets
    /// expanded into entries, so training and serving see one
    /// featurization.
    ///
    /// The pool holds each distinct element once: an element whose entries
    /// an earlier one already holds takes that element's span. A workload's
    /// table elements repeat a few bitmaps (every predicate-free table's),
    /// so at the benchmark's spec this keeps 1.5 MB of 34.3 MB.
    pub fn pool(&self, queries: &[Query], samples: &[TableSample]) -> FeaturePool {
        let mut feats = QueryIndexFeatures::default();
        let mut distinct: [Interned; 3] = Default::default();
        let mut first = Vec::with_capacity(queries.len() + 1);
        first.push([0u32; 3]);
        for q in queries {
            let counts = self.append_indices(q, samples, &mut feats);
            feats.expand_tables();
            let at: [u32; 3] = *first.last().expect("starts with zeros");
            let sets = [&mut feats.tables, &mut feats.joins, &mut feats.preds];
            for ((set, distinct), from) in sets.into_iter().zip(&mut distinct).zip(at) {
                distinct.intern_from(set, from as usize);
            }
            first.push(std::array::from_fn(|set| at[set] + counts[set]));
        }
        // Element spans address entries with `u32`s. Each buffer grew by
        // doubling before its repeats were dropped; give the slack back.
        for set in [&mut feats.tables, &mut feats.joins, &mut feats.preds] {
            assert!(
                u32::try_from(set.entries.len()).is_ok(),
                "workload too large for one feature pool"
            );
            set.entries.shrink_to_fit();
        }
        FeaturePool { feats, first }
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

/// Sparse featurization of queries, the input of the fused frozen
/// forward. Holds the same information as [`QueryFeatures`] but as
/// `(index, value)` gather lists, and table elements as bitsets, instead
/// of dense rows.
///
/// The table set is in one of two forms: [`Featurizer::append_indices`]
/// writes it to `table_bits`, which the served forward reads, and
/// [`Featurizer::featurize_indices`] and [`Featurizer::pool`] expand that
/// into `tables`, which training reads and
/// [`ds_nn::frozen::FrozenModel::forward_query`] packs back into bitsets.
#[derive(Debug, Default, Clone)]
pub struct QueryIndexFeatures {
    /// Table-set elements as entries: one-hot(table) + sample-bitmap
    /// indices, each `1.0`. Filled by [`Featurizer::featurize_indices`];
    /// [`Featurizer::append_indices`] leaves it empty and writes
    /// `table_bits` instead.
    pub tables: IndexSet,
    /// Table-set elements as bitsets over [`Featurizer::table_dim`]
    /// features, not yet expanded into `tables`.
    pub table_bits: BitRows,
    /// Join-set elements: at most one active index each.
    pub joins: IndexSet,
    /// Predicate-set elements: column, operator, and literal slots.
    pub preds: IndexSet,
    /// Scratch of [`Featurizer::append_indices`]: the qualifying-sample
    /// bitmap of the table it featurized last. Not a feature.
    qualifying: Bitmap,
}

impl PartialEq for QueryIndexFeatures {
    fn eq(&self, other: &Self) -> bool {
        (&self.tables, &self.table_bits, &self.joins, &self.preds)
            == (&other.tables, &other.table_bits, &other.joins, &other.preds)
    }
}

impl QueryIndexFeatures {
    /// Empties every set, keeping their allocations.
    pub fn clear(&mut self) {
        self.tables.clear();
        self.table_bits.clear();
        self.joins.clear();
        self.preds.clear();
    }

    /// Moves the table elements in `table_bits` to the end of `tables`,
    /// each as `(index, 1.0)` per set bit, ascending.
    fn expand_tables(&mut self) {
        for r in 0..self.table_bits.len() {
            self.table_bits.expand_into(r, &mut self.tables);
        }
        self.table_bits.clear();
    }
}

/// The distinct elements of one set of a [`FeaturePool`] being built,
/// keyed by [`entries_hash`]: the first span that held each hash.
#[derive(Default)]
struct Interned(HashMap<u64, (u32, u32), BuildHasherDefault<Prehashed>>);

impl Interned {
    /// Interns the elements of `set` from index `from` on. An element whose
    /// entries an earlier element holds takes that element's span; the
    /// others' entries are packed down over what the repeats held. An
    /// element whose hash an unequal element took keeps its own entries.
    fn intern_from(&mut self, set: &mut IndexSet, from: usize) {
        let Some(&(mut end, _)) = set.elems.get(from) else {
            return;
        };
        let entries_of = |(start, len): (u32, u32)| start as usize..(start + len) as usize;
        for e in from..set.elems.len() {
            let span = set.elems[e];
            let entries = &set.entries[entries_of(span)];
            match self.0.entry(entries_hash(entries)) {
                Entry::Occupied(seen)
                    if same_bits(&set.entries[entries_of(*seen.get())], entries) =>
                {
                    set.elems[e] = *seen.get();
                }
                slot => {
                    set.entries.copy_within(entries_of(span), end as usize);
                    set.elems[e] = (end, span.1);
                    if let Entry::Vacant(slot) = slot {
                        slot.insert(set.elems[e]);
                    }
                    end += span.1;
                }
            }
        }
        set.entries.truncate(end as usize);
    }
}

/// An element's entries hashed in place, one multiply per entry.
fn entries_hash(entries: &[(u32, f32)]) -> u64 {
    entries.iter().fold(entries.len() as u64, |h, &(i, v)| {
        let entry = (u64::from(i) << 32) | u64::from(v.to_bits());
        (h.rotate_left(5) ^ entry).wrapping_mul(0x517c_c1b7_2722_0a95)
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

/// A workload featurized once as index lists ([`Featurizer::pool`]): every
/// query's set elements back to back, and where each query's begin. A
/// repeated element is stored once and spanned by each of its repeats.
#[derive(Debug, Clone)]
pub struct FeaturePool {
    feats: QueryIndexFeatures,
    /// `first[q][set]` is query `q`'s first element in `set` (tables,
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
        PoolBatch {
            pool: self,
            spans: Default::default(),
            segs: Default::default(),
        }
    }

    /// The batch of queries `idx`, in `idx` order.
    pub fn batch_of(&self, idx: &[usize]) -> PoolBatch<'_> {
        let mut batch = self.batch();
        batch.fill(idx);
        batch
    }

    fn set(&self, set: usize) -> &IndexSet {
        [&self.feats.tables, &self.feats.joins, &self.feats.preds][set]
    }
}

/// Some queries of a [`FeaturePool`] as one model input. A batch copies no
/// feature: per set it lists the chosen queries' element spans, which
/// point into the pool's entries, and each query's segment of them.
/// Refilled in place, so a training loop that keeps one batch allocates
/// nothing per step.
#[derive(Debug, Clone)]
pub struct PoolBatch<'a> {
    pool: &'a FeaturePool,
    spans: [Vec<(u32, u32)>; 3],
    segs: [Segments; 3],
}

/// One set of a [`PoolBatch`]: sparse element rows plus per-query
/// `(start, len)` segments for masked mean pooling.
#[derive(Debug, Clone, Copy)]
pub struct BatchSet<'a> {
    /// Every element of every query of the batch, one sparse row each.
    pub rows: Rows<'a>,
    /// Per-query `(start, len)` into the rows.
    pub segs: &'a Segments,
}

impl<'a> PoolBatch<'a> {
    /// Replaces the batch with queries `idx` of the pool, in `idx` order.
    ///
    /// # Panics
    /// Panics when an index is not a query of the pool.
    pub fn fill(&mut self, idx: &[usize]) {
        for set in 0..3 {
            let elems = &self.pool.set(set).elems;
            let (spans, segs) = (&mut self.spans[set], &mut self.segs[set]);
            spans.clear();
            segs.clear();
            for &q in idx {
                let (from, to) = (self.pool.first[q][set], self.pool.first[q + 1][set]);
                segs.push((spans.len(), (to - from) as usize));
                spans.extend_from_slice(&elems[from as usize..to as usize]);
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
            rows: Rows {
                entries: &self.pool.set(set).entries,
                spans: &self.spans[set],
            },
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
    /// One row per predicate: `one-hot(col) ++ one-hot(op) ++ [val]`.
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
        // Equal elements share one span, only equal ones do, and the
        // entries hold each distinct element once.
        for set in 0..3 {
            let IndexSet { entries, elems } = pool.set(set);
            let of = |(start, len): (u32, u32)| &entries[start as usize..(start + len) as usize];
            for &a in elems {
                for &b in elems {
                    assert_eq!(of(a) == of(b), a == b, "set {set}: {a:?} {b:?}");
                }
            }
            let distinct: std::collections::HashSet<_> = elems.iter().collect();
            assert!(distinct.len() < elems.len(), "set {set} shares nothing");
            let held: u32 = distinct.iter().map(|&&(_, len)| len).sum();
            assert_eq!(entries.len(), held as usize, "set {set}");
            let query =
                |q: usize| &elems[pool.first[q][set] as usize..pool.first[q + 1][set] as usize];
            assert_eq!(query(3), query(0), "set {set}: the repeated query");
        }
        let mut batch = pool.batch();
        assert!(batch.is_empty());
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
            assert_eq!(batch.len(), idx.len());
            let chosen: Vec<Query> = idx.iter().map(|&i| queries[i].clone()).collect();
            let dense = f.batch_queries(&chosen, &samples);
            for (set, tensor, segs) in [
                (batch.tables(), &dense.tables, &dense.table_segs),
                (batch.joins(), &dense.joins, &dense.join_segs),
                (batch.preds(), &dense.preds, &dense.pred_segs),
            ] {
                assert_eq!(set.segs, segs);
                assert_eq!(set.rows.spans.len(), tensor.rows());
                for (r, &(start, len)) in set.rows.spans.iter().enumerate() {
                    let mut row = vec![0.0f32; tensor.cols()];
                    for &(i, v) in &set.rows.entries[start as usize..(start + len) as usize] {
                        row[i as usize] = v;
                    }
                    assert_eq!(row, tensor.row(r), "{idx:?} row {r}");
                }
            }
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
        for set in 0..3 {
            let (one, three) = (one.set(set), three.set(set));
            assert_eq!(three.entries, one.entries, "set {set}");
            assert_eq!(three.elems, one.elems.repeat(3), "set {set}");
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

        let mut set = IndexSet::default();
        for elem in [&a[..], &b, &a] {
            let start = set.begin_elem();
            for &(i, v) in elem {
                set.push(i, v);
            }
            set.finish_elem(start);
        }
        Interned::default().intern_from(&mut set, 0);
        assert_eq!(set.elems, vec![(0, 2), (2, 2), (0, 2)]);
        assert_eq!(set.entries, [a, b].concat());
    }

    #[test]
    fn index_features_match_dense_rows_exactly() {
        let (db, samples, f) = setup();
        let q = parse_query(
            &db,
            "SELECT COUNT(*) FROM title, movie_keyword \
             WHERE movie_keyword.movie_id = title.id AND title.production_year > 2000",
        )
        .unwrap();
        let dense = f.featurize(&q, &samples);
        let mut sparse = QueryIndexFeatures::default();
        f.featurize_indices(&q, &samples, &mut sparse);
        let check = |rows: &Vec<Vec<f32>>, set: &IndexSet, dim: usize| {
            assert_eq!(rows.len(), set.elems.len());
            for (row, &(start, len)) in rows.iter().zip(&set.elems) {
                assert_eq!(row.len(), dim);
                let mut rebuilt = vec![0.0f32; dim];
                let mut last = -1i64;
                for &(i, v) in &set.entries[start as usize..(start + len) as usize] {
                    assert!(i as i64 > last, "indices not strictly ascending");
                    last = i as i64;
                    rebuilt[i as usize] = v;
                }
                assert_eq!(&rebuilt, row);
            }
        };
        check(&dense.table_rows, &sparse.tables, f.table_dim());
        check(&dense.join_rows, &sparse.joins, f.join_dim());
        check(&dense.pred_rows, &sparse.preds, f.pred_dim());
    }

    /// What `append_indices` writes for a table element — its bitset —
    /// expanded, is what `featurize_indices` gives and the dense row's
    /// ones, over a generated workload. Sample size 100 puts the bitmap's
    /// words off the table bits' 32-bit words by `num_tables` and ends it
    /// inside a word; a vocabulary without the last table leaves that
    /// table's elements with no one-hot bit.
    #[test]
    fn table_bitsets_expand_to_the_entries_and_the_dense_rows() {
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
                let mut bits = QueryIndexFeatures::default();
                let mut entries = QueryIndexFeatures::default();
                let (mut empty_bitmaps, mut outside) = (0, 0);
                for q in &queries {
                    bits.clear();
                    let counts = f.append_indices(q, &samples, &mut bits);
                    f.featurize_indices(q, &samples, &mut entries);
                    let QueryIndexFeatures {
                        tables, table_bits, ..
                    } = &bits;
                    assert!(tables.elems.is_empty(), "no per-bit entries");
                    assert_eq!(table_bits.len(), counts[0] as usize);
                    assert_eq!(table_bits.width(), f.table_dim());
                    let mut expanded = IndexSet::default();
                    for r in 0..table_bits.len() {
                        table_bits.expand_into(r, &mut expanded);
                    }
                    let bits_of = |set: &IndexSet| {
                        let of = |&(i, v): &(u32, f32)| (i, v.to_bits());
                        (
                            set.entries.iter().map(of).collect::<Vec<_>>(),
                            set.elems.clone(),
                        )
                    };
                    assert_eq!(bits_of(&expanded), bits_of(&entries.tables));
                    let dense = f.featurize(q, &samples);
                    assert_eq!(expanded.elems.len(), dense.table_rows.len());
                    for (&(start, len), row) in expanded.elems.iter().zip(&dense.table_rows) {
                        let mut rebuilt = vec![0.0f32; f.table_dim()];
                        for &(i, v) in &expanded.entries[start as usize..(start + len) as usize] {
                            rebuilt[i as usize] = v;
                        }
                        assert_eq!(&rebuilt, row);
                        let ones = |r: &[f32]| r.iter().filter(|&&v| v == 1.0).count();
                        let tail = &row[f.num_tables()..];
                        empty_bitmaps += usize::from(ones(tail) == 0);
                        outside += usize::from(ones(&row[..f.num_tables()]) == 0);
                    }
                    assert_eq!(bits_of(&bits.joins), bits_of(&entries.joins));
                    assert_eq!(bits_of(&bits.preds), bits_of(&entries.preds));
                }
                assert!(empty_bitmaps > 0, "a zero-tuple bitmap");
                assert_eq!(outside > 0, f.num_tables() == last, "one-hots outside");
            }
        }
    }

    /// The table rows the served forward computes — `append_indices`'
    /// bitsets, expanded — run the column-tile kernel of both table layers
    /// to the bits of the portable oracle, at hidden widths that end on
    /// every tile (see `frozen_properties`' ragged-widths test, whose table
    /// set is the entries form) and table widths 22 and 262.
    #[test]
    fn expanded_table_rows_run_the_kernel_to_the_portable_oracle() {
        use crate::mscn::{MscnConfig, MscnModel};
        let db = imdb_database(&ImdbConfig::tiny(1));
        let columns = imdb_predicate_columns(&db);
        let queries =
            ds_query::QueryGenerator::new(&db, ds_query::GeneratorConfig::new(columns.clone(), 77))
                .generate_batch(16);
        for sample_size in [16, 256] {
            let samples = sample_all(&db, sample_size, 7);
            let f = Featurizer::build(&db, &columns, sample_size);
            let mut feats = QueryIndexFeatures::default();
            for q in &queries {
                f.append_indices(q, &samples, &mut feats);
            }
            let mut tables = IndexSet::default();
            for r in 0..feats.table_bits.len() {
                feats.table_bits.expand_into(r, &mut tables);
            }
            let rows = tables.elems.len();
            assert!(rows >= queries.len() && tables.entries.len() > 2 * rows);
            for hidden in [8usize, 16, 96, 250, 256] {
                let case = (sample_size, hidden);
                let config = MscnConfig {
                    hidden,
                    seed: hidden as u64,
                };
                let model = MscnModel::new(f.table_dim(), f.join_dim(), f.pred_dim(), config);
                let frozen = model.freeze();
                let [t1, t2, ..] = frozen.layers();
                let mut fast = vec![f32::NAN; rows * hidden];
                let mut slow = fast.clone();
                t1.forward_rows(&tables, true, &mut fast);
                t1.forward_rows_portable(&tables, true, &mut slow);
                assert_eq!(fast, slow, "layer 1, (samples, hidden) {case:?}");
                let mut hidden_rows = IndexSet::default();
                hidden_rows.compress_rows(&fast, hidden);
                t2.forward_rows(&hidden_rows, false, &mut fast);
                t2.forward_rows_portable(&hidden_rows, false, &mut slow);
                assert_eq!(fast, slow, "layer 2, (samples, hidden) {case:?}");
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
