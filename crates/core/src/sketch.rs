//! The Deep Sketch itself: "essentially a wrapper for a (serialized) neural
//! network and a set of materialized samples". It consumes a SQL query and
//! returns a cardinality estimate (Figure 1b), fits in a few MiB, and
//! answers within milliseconds.
//!
//! ## One inference path
//!
//! A sketch's network is its frozen serving artifact
//! ([`ds_nn::frozen::FrozenModel`]): the trained model's f32 weights,
//! bit-exact, and the only copy of them the sketch keeps. Every estimate
//! — [`DeepSketch::estimate_one`], and the validating
//! [`CardinalityEstimator::estimate_into`] every other entry point goes
//! through, at any batch size and thread count — is one call of that
//! artifact's fused batched kernel over sparse index lists, from
//! per-thread scratch, and it answers bit for bit what the trained model
//! answered. The artifact is also what gets serialized: it encodes the
//! weights and decodes them straight back into serving layout.
//! The oracle every path is held to is the model's reference forward
//! ([`crate::mscn::MscnModel::predict`]: naive kernels over dense features,
//! on a training-layout copy thawed from the artifact), which the root
//! package's `one_answer` harness computes once per query.

use std::cell::RefCell;

use ds_est::{check_tables, CardinalityEstimator, EstimateError};
use ds_nn::frozen::{FrozenModel, FrozenScratch, MemoStats};
use ds_nn::loss::LabelNormalizer;
use ds_nn::serialize::{DecodeError, Decoder, Encoder};
use ds_obs::{HistogramSnapshot, PromText};
use ds_query::query::Query;
use ds_storage::bitmap::Bitmap;
use ds_storage::catalog::{ColRef, TableId};
use ds_storage::column::Column;
use ds_storage::exec::JoinEdge;
use ds_storage::sample::TableSample;
use ds_storage::table::Table;

use crate::cache::QueryCache;
use crate::featurize::{FeatureSchema, Featurizer, ServedFeatures};

const MAGIC: &[u8; 4] = b"DSKT";
/// The serialization version, and the only one [`DeepSketch::from_bytes`]
/// accepts: model weights, samples, the feature-schema generation with
/// its per-predicate bitmap width, the optional training-time q-error
/// baseline, and the frozen-section flag word. The flag is always `0`:
/// the weights stored before it are the serving artifact, decoded straight
/// into serving layout, so nothing more is stored. Older v4 writers set
/// it to `1` and stored a second copy after it;
/// [`DeepSketch::from_bytes`] refuses those blobs as corrupt.
const VERSION: u32 = 4;

/// Queries per call of the fused kernel. Bounds the activation scratch
/// (keeping it cache-resident beside the weights) and is the unit of work
/// spread across serving threads. Chunking never changes results: a
/// query's rows share no accumulator with any other query's.
const SERVE_CHUNK: usize = 64;

/// Per-thread scratch of the inference path: the batch's features and
/// per-query element counts, the kernel's activations, and its outputs.
/// Buffers grow to the largest chunk a thread has served and are reused,
/// so serving allocates nothing per call.
#[derive(Default)]
struct ServeScratch {
    feats: ServedFeatures,
    counts: Vec<[u32; 3]>,
    kernel: FrozenScratch,
    y: Vec<f32>,
}

thread_local! {
    static SCRATCH: RefCell<ServeScratch> = RefCell::new(ServeScratch::default());
}

/// Summary card of a trained sketch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchInfo {
    /// Source database name.
    pub database: String,
    /// Tables in the featurization vocabulary.
    pub tables: usize,
    /// Joins in the vocabulary.
    pub joins: usize,
    /// Predicate columns in the vocabulary.
    pub predicate_columns: usize,
    /// MSCN hidden width.
    pub hidden_units: usize,
    /// Scalar model parameters.
    pub model_params: usize,
    /// Nominal sample size per table.
    pub sample_size: usize,
    /// Total materialized sample rows across tables.
    pub sample_rows: usize,
    /// Serialized size in bytes.
    pub footprint_bytes: usize,
    /// Largest cardinality representable by the label normalizer.
    pub max_label: u64,
    /// What the serving artifact's element memo has done and holds.
    pub memo: MemoStats,
}

impl std::fmt::Display for SketchInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sketch[{}]: {} tables, {} joins, {} pred-cols; hidden {}, {} params; \
             {} sample rows ({}/table); {:.2} MiB; max label {}; \
             memo {} hits, {} misses, {} B",
            self.database,
            self.tables,
            self.joins,
            self.predicate_columns,
            self.hidden_units,
            self.model_params,
            self.sample_rows,
            self.sample_size,
            self.footprint_bytes as f64 / (1024.0 * 1024.0),
            self.max_label,
            self.memo.hits,
            self.memo.misses,
            self.memo.resident_bytes
        )
    }
}

/// A trained Deep Sketch: MSCN weights + featurization vocabulary +
/// materialized base-table samples + label normalizer. Self-contained: a
/// deserialized sketch estimates without access to the original database.
#[derive(Debug, Clone)]
pub struct DeepSketch {
    featurizer: Featurizer,
    samples: Vec<TableSample>,
    normalizer: LabelNormalizer,
    database_name: String,
    name: String,
    /// Serving threads for a batch ([`CardinalityEstimator::estimate_into`]).
    /// A runtime knob: never serialized, never affects results.
    threads: usize,
    /// Training-time holdout q-error distribution (scaled ×1000 into log₂
    /// buckets) — the accuracy the shipped weights actually achieved, and
    /// the reference the online drift monitor compares rolling feedback
    /// against. `None` for sketches trained without a validation split.
    baseline: Option<HistogramSnapshot>,
    /// The serving artifact every estimate runs through and the sketch's
    /// only copy of the trained weights, in gather-friendly layout. Its
    /// input widths are the featurizer's.
    frozen: FrozenModel,
    /// The server's cache of this model's healthy answers
    /// ([`crate::cache`]). Never serialized; empty in a clone, a load and
    /// after [`DeepSketch::freeze`].
    cache: QueryCache,
}

impl DeepSketch {
    /// Assembles a sketch from trained parts (used by
    /// [`crate::builder::SketchBuilder`]): the serving artifact a trained
    /// model froze into ([`crate::mscn::MscnModel::freeze`]), and what it
    /// was trained over.
    pub fn from_parts(
        frozen: FrozenModel,
        featurizer: Featurizer,
        samples: Vec<TableSample>,
        normalizer: LabelNormalizer,
        database_name: impl Into<String>,
    ) -> Self {
        let database_name = database_name.into();
        let name = format!("Deep Sketch ({database_name})");
        Self {
            frozen,
            featurizer,
            samples,
            normalizer,
            database_name,
            name,
            threads: 1,
            baseline: None,
            cache: QueryCache::default(),
        }
    }

    /// Sets the serving thread count for batches: every batch entry point
    /// ([`CardinalityEstimator::estimate_into`] and the helpers over it)
    /// spreads a batch of more than `SERVE_CHUNK` (64) queries across up to
    /// `threads` workers. A single query never leaves its caller's thread.
    /// Estimates are bit-identical at any value; this only affects speed.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Attaches the training-time q-error baseline (scaled ×1000, see
    /// [`crate::monitor::QERR_SCALE`]). Serialized with the sketch.
    pub fn set_baseline(&mut self, baseline: HistogramSnapshot) {
        self.baseline = Some(baseline);
    }

    /// The training-time q-error baseline, if the sketch carries one.
    pub fn baseline(&self) -> Option<&HistogramSnapshot> {
        self.baseline.as_ref()
    }

    /// The serving artifact: the sketch's frozen weights. Every sketch has
    /// one.
    pub fn artifact(&self) -> &FrozenModel {
        &self.frozen
    }

    /// Hits, misses, lock contention and resident bytes of the serving
    /// artifact's element memo ([`ds_nn::frozen`]). They start at zero
    /// with every artifact: a build, a load, a clone, a re-freeze.
    pub fn memo_stats(&self) -> MemoStats {
        self.frozen.memo_stats()
    }

    /// Renders [`DeepSketch::memo_stats`] for the sketch served as `name`.
    pub fn render_memo(&self, name: &str, p: &mut PromText) {
        let memo = self.memo_stats();
        p.counter(&format!("serve/memo/{name}/hits"), memo.hits)
            .counter(&format!("serve/memo/{name}/misses"), memo.misses)
            .counter(&format!("serve/memo/{name}/contended"), memo.contended)
            .gauge(&format!("serve/memo/{name}/entries"), memo.entries as f64)
            .gauge(
                &format!("serve/memo/{name}/bytes"),
                memo.resident_bytes as f64,
            );
    }

    /// The estimate cache the server keeps for this artifact: probed and
    /// filled by the server alone, never by the estimate paths.
    pub fn cache(&self) -> &QueryCache {
        &self.cache
    }

    /// Returns the serving artifact to its just-frozen state: the element
    /// memo and the estimate cache empty, the weights stay. Answers stay
    /// bit-identical.
    pub fn freeze(&mut self) {
        self.frozen.clear_memo();
        self.cache = QueryCache::default();
    }

    /// A normalized model output as a cardinality (≥ 1).
    fn denormalized(&self, y: f32) -> f64 {
        self.normalizer.denormalize(y).max(1.0)
    }

    /// The one inference path. Featurizes `queries` (a chunk: at most
    /// `out.len()` of them) back to back into this thread's scratch, runs
    /// the fused kernel once over all of them, and writes their estimates
    /// to the front of `out`.
    fn fused_estimates<'a>(&self, queries: impl Iterator<Item = &'a Query>, out: &mut [f64]) {
        SCRATCH.with(|cell| {
            let ServeScratch {
                feats,
                counts,
                kernel,
                y,
            } = &mut *cell.borrow_mut();
            feats.clear();
            counts.clear();
            for q in queries {
                counts.push(self.featurizer.append_indices(q, &self.samples, feats));
            }
            let n = counts.len();
            if n == 0 {
                return;
            }
            y.resize(n, 0.0);
            self.frozen
                .forward_batch(&feats.tables, &feats.joins, &feats.preds, counts, kernel, y);
            for (o, &y) in out[..n].iter_mut().zip(y.iter()) {
                *o = self.denormalized(y);
            }
        })
    }

    /// Estimated cardinality of one query (≥ 1): a batch of one through
    /// the fused kernel (bit-identical to the trained model).
    pub fn estimate_one(&self, query: &Query) -> f64 {
        let mut estimate = [0.0];
        self.fused_estimates(std::iter::once(query), &mut estimate);
        estimate[0]
    }

    /// [`CardinalityEstimator::estimate_batch`], callable without the
    /// trait in scope.
    pub fn estimate_batch(&self, queries: &[Query]) -> Vec<f64> {
        CardinalityEstimator::estimate_batch(self, queries)
    }

    /// Checks that every table and predicate column the query references
    /// exists in this sketch's vocabulary and shipped samples — the
    /// precondition for the estimate methods to be panic-free.
    /// Queries parsed against the database the sketch was trained over
    /// always pass; queries from a different (larger) schema may not.
    pub fn validate(&self, query: &Query) -> Result<(), EstimateError> {
        check_tables(query, self.samples.len())?;
        for (t, p) in &query.predicates {
            let cols = self.samples[t.0].rows().columns().len();
            if p.col >= cols {
                return Err(EstimateError::UnknownColumn {
                    table: t.0,
                    col: p.col,
                });
            }
        }
        Ok(())
    }

    /// The materialized samples shipped with the sketch.
    pub fn samples(&self) -> &[TableSample] {
        &self.samples
    }

    /// The featurization vocabulary.
    pub fn featurizer(&self) -> &Featurizer {
        &self.featurizer
    }

    /// The label normalizer.
    pub fn normalizer(&self) -> &LabelNormalizer {
        &self.normalizer
    }

    /// Name of the database the sketch was trained over.
    pub fn database_name(&self) -> &str {
        &self.database_name
    }

    /// Serialized size in bytes — the paper advertises "a few MiBs".
    pub fn footprint_bytes(&self) -> usize {
        self.to_bytes().len()
    }

    /// A human-readable summary of the sketch (the demo's sketch card).
    pub fn info(&self) -> SketchInfo {
        let sample_rows = self.samples.iter().map(TableSample::len).sum();
        SketchInfo {
            database: self.database_name.clone(),
            tables: self.featurizer.num_tables(),
            joins: self.featurizer.joins().len(),
            predicate_columns: self.featurizer.columns().len(),
            hidden_units: self.frozen.hidden(),
            model_params: self.frozen.num_params(),
            sample_size: self.featurizer.sample_size(),
            sample_rows,
            footprint_bytes: self.footprint_bytes(),
            max_label: self.normalizer.bounds().1.exp().round() as u64,
            memo: self.memo_stats(),
        }
    }

    /// Serializes the sketch to a self-contained byte blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.header(MAGIC, VERSION);
        e.string(&self.database_name);
        let (lo, hi) = self.normalizer.bounds();
        e.f64(lo);
        e.f64(hi);

        // Featurizer.
        e.u64(self.featurizer.num_tables() as u64);
        e.u64(self.featurizer.sample_size() as u64);
        e.u64(self.featurizer.use_bitmaps() as u64);
        // Feature schema (v4+): generation tag + per-predicate bitmap bits.
        e.u64(self.featurizer.schema().tag() as u64);
        e.u64(self.featurizer.pred_bitmap_bits() as u64);
        e.u64(self.featurizer.joins().len() as u64);
        for j in self.featurizer.joins() {
            e.u64(j.left.table.0 as u64);
            e.u64(j.left.col as u64);
            e.u64(j.right.table.0 as u64);
            e.u64(j.right.col as u64);
        }
        e.u64(self.featurizer.columns().len() as u64);
        for (c, &(lo, hi)) in self
            .featurizer
            .columns()
            .iter()
            .zip(self.featurizer.col_bounds())
        {
            e.u64(c.table.0 as u64);
            e.u64(c.col as u64);
            e.f64(lo);
            e.f64(hi);
        }

        // Samples.
        e.u64(self.samples.len() as u64);
        for s in &self.samples {
            e.u64(s.table_id().0 as u64);
            e.u64(s.nominal_size() as u64);
            e.u64_slice(&s.row_ids().iter().map(|&r| r as u64).collect::<Vec<_>>());
            let t = s.rows();
            e.string(t.name());
            e.u64(t.columns().len() as u64);
            for col in t.columns() {
                e.string(col.name());
                e.i64_slice(col.data());
                match col.null_mask() {
                    Some(bm) => {
                        e.u64(bm.len() as u64);
                        e.u64_slice(bm.words());
                    }
                    None => {
                        e.u64(0);
                        e.u64_slice(&[]);
                    }
                }
            }
        }

        // Model weights.
        self.frozen.encode(&mut e);

        // Accuracy baseline (v2+): optional flag + histogram words.
        match &self.baseline {
            Some(b) => {
                e.u64(1);
                e.u64_slice(&b.to_words());
            }
            None => e.u64(0),
        }

        // Frozen-section flag (v3+): always 0, "freeze the model on load".
        e.u64(0);
        e.finish()
    }

    /// Deserializes a sketch written by [`DeepSketch::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(bytes);
        let version = d.header(MAGIC)?;
        if version != VERSION {
            return Err(DecodeError::BadHeader(format!(
                "unsupported sketch version {version}"
            )));
        }
        let database_name = d.string()?;
        let lo = d.f64()?;
        let hi = d.f64()?;
        if hi <= lo {
            return Err(DecodeError::Corrupt("bad normalizer bounds".into()));
        }
        let normalizer = LabelNormalizer::from_bounds(lo, hi);

        // Featurizer.
        let num_tables = d.u64()? as usize;
        let sample_size = d.u64()? as usize;
        let use_bitmaps = d.flag()?;
        let tag = d.u64()?;
        let schema = u8::try_from(tag)
            .ok()
            .and_then(FeatureSchema::from_tag)
            .ok_or_else(|| DecodeError::Corrupt(format!("unknown feature schema tag {tag}")))?;
        let pred_bitmap_bits = d.u64()? as usize;
        if schema == FeatureSchema::V1 && pred_bitmap_bits != 0 {
            return Err(DecodeError::Corrupt(
                "schema v1 with per-predicate bitmap bits".into(),
            ));
        }
        if pred_bitmap_bits > sample_size {
            return Err(DecodeError::Corrupt(
                "per-predicate bitmap wider than sample".into(),
            ));
        }
        // Record counts are validated against the remaining input (a join
        // is 4 u64s, a column entry 2 u64s + 2 f64s, …) so a corrupt
        // length prefix fails typed instead of panicking in
        // `Vec::with_capacity` — found by the snapshot fuzz smoke.
        let n_joins = d.count(32)?;
        let mut joins = Vec::with_capacity(n_joins);
        for _ in 0..n_joins {
            let lt = d.u64()? as usize;
            let lc = d.u64()? as usize;
            let rt = d.u64()? as usize;
            let rc = d.u64()? as usize;
            joins.push(JoinEdge::new(
                ColRef::new(TableId(lt), lc),
                ColRef::new(TableId(rt), rc),
            ));
        }
        let n_cols = d.count(32)?;
        let mut columns = Vec::with_capacity(n_cols);
        let mut bounds = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let t = d.u64()? as usize;
            let c = d.u64()? as usize;
            columns.push(ColRef::new(TableId(t), c));
            bounds.push((d.f64()?, d.f64()?));
        }
        // Samples.
        let n_samples = d.count(40)?;
        let mut samples = Vec::with_capacity(n_samples);
        for _ in 0..n_samples {
            let table_id = TableId(d.u64()? as usize);
            let nominal = d.u64()? as usize;
            let row_ids: Vec<u32> = d
                .u64_vec()?
                .into_iter()
                .map(|r| {
                    u32::try_from(r).map_err(|_| DecodeError::Corrupt("row id overflow".into()))
                })
                .collect::<Result<_, _>>()?;
            let tname = d.string()?;
            let n_tcols = d.count(32)?;
            let mut cols = Vec::with_capacity(n_tcols);
            for _ in 0..n_tcols {
                let cname = d.string()?;
                let data = d.i64_vec()?;
                let bm_len = d.u64()? as usize;
                let words = d.u64_vec()?;
                // A mask the encoder could not have written — words without
                // a length, bits past the length — is corrupt, not tidied
                // up: accepted bytes re-encode to themselves.
                if bm_len == 0 {
                    if !words.is_empty() {
                        return Err(DecodeError::Corrupt("null mask without a length".into()));
                    }
                    cols.push(Column::new(cname, data));
                } else {
                    let stray = match bm_len % 64 {
                        0 => 0,
                        tail => words.last().map_or(0, |w| w >> tail),
                    };
                    if words.len() != bm_len.div_ceil(64) || data.len() != bm_len || stray != 0 {
                        return Err(DecodeError::Corrupt("null mask mismatch".into()));
                    }
                    cols.push(Column::with_nulls(
                        cname,
                        data,
                        Bitmap::from_words(words, bm_len),
                    ));
                }
            }
            // A table without columns has no rows, whatever `row_ids` says.
            if cols.iter().any(|c| c.len() != row_ids.len())
                || (cols.is_empty() && !row_ids.is_empty())
            {
                return Err(DecodeError::Corrupt("sample column length mismatch".into()));
            }
            if nominal < row_ids.len() {
                return Err(DecodeError::Corrupt("nominal sample size too small".into()));
            }
            let table = Table::new(tname, cols);
            samples.push(TableSample::from_parts(table_id, row_ids, table, nominal));
        }
        // The featurizer's index of a column is dense in the column's
        // position, so a column no sample has is corrupt, not a table of
        // that many slots.
        let sampled = |c: ColRef| {
            samples
                .get(c.table.0)
                .is_some_and(|s| c.col < s.rows().columns().len())
        };
        let ends = joins.iter().flat_map(|j| [j.left, j.right]);
        if !columns.iter().copied().chain(ends).all(sampled) {
            return Err(DecodeError::Corrupt(
                "feature column outside the samples".into(),
            ));
        }
        let featurizer = Featurizer::from_parts(
            num_tables,
            sample_size,
            use_bitmaps,
            joins,
            columns,
            bounds,
            schema,
            pred_bitmap_bits,
        );

        // Model weights. Their input widths must be the featurizer's, or
        // the first estimate reads past a feature row.
        let frozen = FrozenModel::decode(&mut d)?;
        let [t1, _, j1, _, p1, ..] = frozen.layers();
        let widths = [
            featurizer.table_dim(),
            featurizer.join_dim(),
            featurizer.pred_dim(),
        ];
        if [t1.in_dim(), j1.in_dim(), p1.in_dim()] != widths {
            return Err(DecodeError::Corrupt(
                "model input widths disagree with the featurizer".into(),
            ));
        }

        let baseline = if d.flag()? {
            let words = d.u64_vec()?;
            Some(
                HistogramSnapshot::from_words(&words)
                    .ok_or_else(|| DecodeError::Corrupt("bad baseline histogram".into()))?,
            )
        } else {
            None
        };

        // The weights above are the artifact. A set flag is an older v4
        // writer's second, stored artifact (an f32 copy, or int8 weights),
        // which this reader no longer decodes.
        if d.flag()? {
            return Err(DecodeError::Corrupt(
                "stored frozen artifact (an f32 copy or int8 weights) is no longer read".into(),
            ));
        }

        let mut sketch = Self::from_parts(frozen, featurizer, samples, normalizer, database_name);
        sketch.baseline = baseline;
        Ok(sketch)
    }
}

impl CardinalityEstimator for DeepSketch {
    fn name(&self) -> &str {
        &self.name
    }

    /// Validated estimation through the fused kernel: a query naming a
    /// table or column outside the sketch's vocabulary gets its typed
    /// error, the valid ones of each `SERVE_CHUNK`-query chunk share one
    /// kernel call, and chunks spread across the [`DeepSketch::set_threads`]
    /// workers (a single chunk never spawns one). Every answer is the bits
    /// [`DeepSketch::estimate_one`] gives.
    fn estimate_into(&self, queries: &[Query], out: &mut [Result<f64, EstimateError>]) {
        let serve = |queries: &[Query], out: &mut [Result<f64, EstimateError>]| {
            let mut estimates = [0.0f64; SERVE_CHUNK];
            for (qs, os) in queries.chunks(SERVE_CHUNK).zip(out.chunks_mut(SERVE_CHUNK)) {
                for (q, slot) in qs.iter().zip(os.iter_mut()) {
                    *slot = self.validate(q).map(|()| 0.0);
                }
                let valid = qs.iter().zip(os.iter()).filter(|(_, r)| r.is_ok());
                self.fused_estimates(valid.map(|(q, _)| q), &mut estimates);
                for (slot, &v) in os.iter_mut().flatten().zip(&estimates) {
                    *slot = v;
                }
            }
        };
        let n_chunks = queries.len().div_ceil(SERVE_CHUNK);
        let threads = self.threads.min(n_chunks);
        if threads <= 1 {
            serve(queries, out);
        } else {
            // Contiguous spans of whole chunks per worker; each worker owns
            // a disjoint slice of the output and its thread's own scratch.
            let span = n_chunks.div_ceil(threads) * SERVE_CHUNK;
            std::thread::scope(|s| {
                for (qs, os) in queries.chunks(span).zip(out.chunks_mut(span)) {
                    s.spawn(move || serve(qs, os));
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SketchBuilder;
    use crate::mscn::MscnModel;
    use ds_query::parser::parse_query;
    use ds_query::workloads::imdb_predicate_columns;
    use ds_storage::gen::{imdb_database, ImdbConfig};

    fn tiny_sketch() -> (ds_storage::catalog::Database, DeepSketch) {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let sketch = SketchBuilder::new(&db, imdb_predicate_columns(&db))
            .training_queries(200)
            .epochs(4)
            .sample_size(16)
            .hidden_units(16)
            .seed(3)
            .build()
            .expect("build sketch");
        (db, sketch)
    }

    #[test]
    fn estimates_are_positive_and_bounded() {
        let (db, sketch) = tiny_sketch();
        let q = parse_query(
            &db,
            "SELECT COUNT(*) FROM title, movie_keyword \
             WHERE movie_keyword.movie_id = title.id AND title.production_year > 2000",
        )
        .unwrap();
        let e = sketch.estimate(&q);
        assert!(e >= 1.0);
        // Bounded by the normalizer's max label.
        let (_, hi) = sketch.normalizer().bounds();
        assert!(e <= hi.exp() * 1.01);
    }

    /// Words the encoder never writes are corrupt, not read leniently: a
    /// flag other than 0/1 (`use_bitmaps` used to take any non-zero word and
    /// re-encode it as 1), a sample that counts rows but no columns
    /// (which used to reach `TableSample::from_parts`' assertion — CI's
    /// `FUZZ_ITERS=20000` budget of `fuzz_smoke` draws it), and a table
    /// count the model's input width disagrees with (which decoded, then
    /// panicked every estimate out of bounds).
    #[test]
    fn words_the_encoder_never_writes_are_corrupt() {
        let (_db, sketch) = tiny_sketch();
        let blob = sketch.to_bytes();
        let corrupt = |at: usize, word: u64| {
            let mut bytes = blob.clone();
            bytes[at..at + 8].copy_from_slice(&word.to_le_bytes());
            matches!(DeepSketch::from_bytes(&bytes), Err(DecodeError::Corrupt(_)))
        };
        // Header, database name, two normalizer bounds, table count, sample
        // size — then `use_bitmaps`.
        let use_bitmaps = 8 + (8 + sketch.database_name().len()) + 16 + 16;
        assert_eq!(blob[use_bitmaps..use_bitmaps + 8], 1u64.to_le_bytes());
        for word in [2, 0x80, u64::MAX] {
            assert!(corrupt(use_bitmaps, word), "use_bitmaps = {word:#x}");
        }
        let tables = use_bitmaps - 16;
        assert_eq!(blob[tables..tables + 8], 6u64.to_le_bytes());
        assert!(corrupt(tables, 7), "one table more than the model reads");
        // After the schema tag, the bitmap width and the join count: each
        // join's four words, then the column count and each column's table
        // and position. A column no sample has would size a dense index.
        let joins = use_bitmaps + 32;
        let columns = joins + 32 * sketch.featurizer().joins().len() + 8;
        let n_columns = sketch.featurizer().columns().len() as u64;
        assert_eq!(blob[columns - 8..columns], n_columns.to_le_bytes());
        for at in [joins + 8, joins + 24, columns, columns + 8] {
            assert!(corrupt(at, 1 << 40), "a feature column at word {at}");
        }
        // The baseline flag is followed by the histogram's words, and the
        // artifact flag ends the blob.
        let baseline_words = sketch.baseline().expect("built with one").to_words().len();
        let baseline = blob.len() - 8 - 8 * (baseline_words + 1) - 8;
        assert_eq!(blob[baseline..baseline + 8], 1u64.to_le_bytes());
        assert!(corrupt(baseline, 2) && corrupt(blob.len() - 8, 2));
        // The first sample's column count follows its table's name.
        let name = [&5u64.to_le_bytes()[..], b"title"].concat();
        let at = blob.windows(name.len()).position(|w| w == name).unwrap() + name.len();
        assert!(corrupt(at, 0), "a sample with row ids and no columns");
    }

    #[test]
    fn baseline_survives_serialization_and_older_versions_are_refused() {
        let (_db, mut sketch) = tiny_sketch();
        assert!(
            sketch.baseline().is_some(),
            "builder must attach the holdout baseline"
        );

        // Attach a known baseline and roundtrip it.
        let h = ds_obs::LogHistogram::new();
        for q in [1000u64, 1200, 1500, 3000, 9000] {
            h.record(q);
        }
        sketch.set_baseline(h.snapshot());
        let restored = DeepSketch::from_bytes(&sketch.to_bytes()).unwrap();
        assert_eq!(restored.baseline(), Some(&h.snapshot()));

        // Version 4 is the only layout: an older (or newer) header is a
        // typed refusal before any of the body is read.
        for version in [1u32, 2, 3, 5] {
            let mut blob = sketch.to_bytes();
            blob[4..8].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                DeepSketch::from_bytes(&blob).err(),
                Some(DecodeError::BadHeader(format!(
                    "unsupported sketch version {version}"
                )))
            );
        }

        // Older v4 writers set the frozen-section flag and stored an
        // artifact after it (an f32 copy, or int8 weights). The flag alone
        // is a typed refusal, whatever follows it.
        let blob = sketch.to_bytes();
        assert_eq!(blob[blob.len() - 8..], 0u64.to_le_bytes());
        for tail in [&[][..], &[0u8; 64][..]] {
            let mut old = blob.clone();
            old[blob.len() - 8..].copy_from_slice(&1u64.to_le_bytes());
            old.extend_from_slice(tail);
            assert_eq!(
                DeepSketch::from_bytes(&old).err(),
                Some(DecodeError::Corrupt(
                    "stored frozen artifact (an f32 copy or int8 weights) is no longer read".into()
                ))
            );
        }

        // A corrupt baseline payload is rejected, not silently zeroed.
        let mut bad = sketch.to_bytes();
        let n = bad.len();
        bad[n - 17] ^= 0xFF; // inside the last bucket word, before the frozen flag
        assert!(matches!(
            DeepSketch::from_bytes(&bad),
            Err(DecodeError::Corrupt(_))
        ));
    }

    /// A table id outside the vocabulary is the sketch's typed error and,
    /// behind a router none of whose members covers it, the router's
    /// `Unroutable`, alone and in a batch whose neighbours keep their
    /// answers. (That every path gives a query outside the vocabulary its
    /// one error, or `1.0`, is the root package's `one_answer` harness.)
    #[test]
    fn a_table_outside_the_vocabulary_is_an_error_never_a_panic() {
        use crate::router::SketchRouter;

        let (db, sketch) = tiny_sketch();
        let good = parse_query(&db, "SELECT COUNT(*) FROM title WHERE title.kind_id = 1").unwrap();
        let mut alien = good.clone();
        alien.tables.push(TableId(99));
        assert!(matches!(
            sketch.try_estimate(&alien),
            Err(EstimateError::UnknownTable { table: 99, .. })
        ));
        let every_table = (0..db.num_tables()).map(TableId).collect();
        let router = SketchRouter::new(vec![(every_table, sketch.clone())]);
        let unroutable = router.try_estimate(&alien);
        assert!(matches!(unroutable, Err(EstimateError::Unroutable { .. })));
        assert_eq!(router.estimate(&alien), 1.0);
        let want = sketch.try_estimate(&good);
        let batch = [good.clone(), alien, good];
        assert_eq!(
            router.try_estimate_batch(&batch),
            [want.clone(), unroutable, want]
        );
    }

    #[test]
    fn from_bytes_rejects_corruption() {
        let (_db, sketch) = tiny_sketch();
        let mut bytes = sketch.to_bytes();
        assert!(DeepSketch::from_bytes(&bytes[..10]).is_err());
        bytes[0] = b'X';
        assert!(matches!(
            DeepSketch::from_bytes(&bytes),
            Err(DecodeError::BadHeader(_))
        ));
    }

    #[test]
    fn info_summarizes_the_sketch() {
        let (_db, sketch) = tiny_sketch();
        let info = sketch.info();
        assert_eq!(info.database, "imdb");
        assert_eq!(info.tables, 6);
        assert_eq!(info.joins, 5);
        assert_eq!(info.predicate_columns, 9);
        assert_eq!(info.hidden_units, 16);
        let thawed = MscnModel::thaw(sketch.artifact());
        assert_eq!(info.model_params, thawed.num_params());
        assert_eq!(info.sample_size, 16);
        assert_eq!(info.sample_rows, 6 * 16);
        assert_eq!(info.footprint_bytes, sketch.footprint_bytes());
        let text = info.to_string();
        assert!(text.contains("imdb") && text.contains("6 tables"), "{text}");
    }

    /// A clone, a load and `freeze` start with an empty estimate cache, as
    /// with an empty memo, and the cache is no part of the footprint.
    #[test]
    fn a_clone_a_load_and_freeze_start_with_an_empty_cache() {
        let (db, mut sketch) = tiny_sketch();
        let footprint = sketch.footprint_bytes();
        let q = parse_query(&db, "SELECT COUNT(*) FROM title").unwrap();
        sketch.cache().insert(q.clone(), 2.0, 4);
        assert_eq!(sketch.cache().get(&q), Some(2.0));
        assert_eq!(sketch.footprint_bytes(), footprint);
        assert!(sketch.clone().cache().is_empty());
        let loaded = DeepSketch::from_bytes(&sketch.to_bytes()).unwrap();
        assert!(loaded.cache().is_empty());
        assert_eq!(sketch.cache().len(), 1);
        sketch.freeze();
        assert!(sketch.cache().is_empty());
    }

    #[test]
    fn footprint_is_compact() {
        let (_db, sketch) = tiny_sketch();
        // A tiny sketch should be well under a MiB; the paper's full-size
        // sketches are "a few MiBs".
        assert!(sketch.footprint_bytes() < 1 << 20);
    }
}
