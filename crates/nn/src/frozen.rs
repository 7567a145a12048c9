//! Frozen serving-only inference artifacts.
//!
//! Training wants transposable, gradient-carrying layers; serving wants
//! the opposite: immutable weights in exactly the layout the forward pass
//! reads and no gradient buffers. A [`FrozenModel`] is that artifact: the
//! eight MSCN layers copied once from the trained model into a flat,
//! line-aligned row-major `f32` layout, driven by one fused
//! featurize-and-forward entry point,
//! [`FrozenModel::forward_batch`], that serves every batch size (a single
//! query is a batch of one, [`FrozenModel::forward_query`]). It consumes
//! sparse *(index, value)* lists directly — the one-hot input layer is a
//! gather over weight rows, and the sparse feature tensor is never
//! materialized.
//!
//! ## One kernel
//!
//! Every layer is the crate's one product, sparse rows times a dense
//! matrix ([`crate::sparse`], shared with training): the input layers get
//! their rows from the featurizer, the dense layers get theirs from
//! [`IndexSet::compress_rows`], which drops the zeros ReLU left behind
//! (about half of every activation row), and a layer's weights are
//! streamed once per call however many rows — every element of a set,
//! every query of a batch — it has.
//!
//! ## Element memo
//!
//! MSCN embeds every set element — a table with its sample bitmap, a
//! join, a predicate — through its module's two layers *independently*
//! before pooling, and traffic repeats elements even when it never repeats
//! a query (every sub-join an optimizer asks about shares all of its
//! elements with the query it came from). The artifact therefore carries a
//! bounded, exact memo of element embeddings: key, the module and the
//! element's `(index, value)` list compared bit for bit; value, the
//! `hidden` floats after the module's second ReLU. A forward pass looks
//! its elements up, runs the two layers over the missing ones only, and
//! pools. The memo is part of the artifact's *identity-free* state: built
//! empty by [`FrozenModel::new`] and `clone`, ignored by `==`, never
//! serialized — so a re-freeze, a load or a hot-swap starts from an empty
//! memo and there is nothing to invalidate. It holds at most
//! [`MEMO_MAX_BYTES`] in 1 024 slots, four ways to a set, each set
//! evicting its least recently used element.
//!
//! The artifact itself is never serialized either: its weights are the
//! trained model's, bit for bit, so a loaded sketch freezes it again.
//!
//! ## Determinism contract
//!
//! The fused forward is **bit-identical** to the training forward pass,
//! which runs the same kernel over the same weights, and to the naive
//! [`crate::tensor::reference`] products the property tests pin both
//! against (see [`crate::sparse`] for why). A query's result does not
//! depend on what else is in its batch: rows never share an accumulator.
//! For the same reason an element's embedding does not depend on which
//! call computed it, so a memoized row is the row the kernel would produce
//! again, bit for bit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::linear::Linear;
use crate::ops::sigmoid_scalar;
use crate::sparse::{self, Finish, Rows};

pub use crate::sparse::IndexSet;

/// One frozen fully-connected layer: immutable weights in row-major
/// `(in_dim × out_dim)` layout — the forward pass walks *rows*, so both
/// the sparse gather and the dense matrix–vector product stream
/// contiguous memory.
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenLinear {
    in_dim: usize,
    out_dim: usize,
    /// `in_dim × out_dim` weights.
    w: LineAligned,
    b: Vec<f32>,
}

impl FrozenLinear {
    /// Converts a trained layer. The training layout is already
    /// `(in_dim × out_dim)` row-major, so freezing is a plain copy.
    pub fn from_linear(l: &Linear) -> Self {
        Self {
            in_dim: l.in_dim(),
            out_dim: l.out_dim(),
            w: LineAligned::new(l.weights().data()),
            b: l.bias().to_vec(),
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// One layer over many rows: `y[r, :] = act(rows[r] · W + b)`, where
    /// each element of `rows` is one sparse input row (ascending feature
    /// indices), `y` is `rows.elems.len() × out_dim` row-major, and `act`
    /// is ReLU when `relu` is set. Zero values are skipped — bit-neutral
    /// (see [`crate::sparse`]). Runtime-dispatched to the widest
    /// column-tile kernel the CPU has (AVX-512, else AVX2);
    /// [`FrozenLinear::forward_rows_portable`] is their oracle.
    ///
    /// # Panics
    /// Panics when `y` has the wrong length or an index is `>= in_dim`.
    pub fn forward_rows(&self, rows: &IndexSet, relu: bool, y: &mut [f32]) {
        self.forward(rows.rows(), relu, y);
    }

    /// [`FrozenLinear::forward_rows`] over borrowed rows, which may name
    /// any subset of an [`IndexSet`]'s elements.
    fn forward(&self, rows: Rows<'_>, relu: bool, y: &mut [f32]) {
        let finish = Finish::Bias {
            bias: &self.b,
            relu,
        };
        sparse::sparse_rows(&self.w, self.out_dim, rows, finish, y);
    }

    /// Portable [`FrozenLinear::forward_rows`] — the oracle the AVX-512 and
    /// AVX2 kernels are pinned against, and the fallback off x86-64.
    pub fn forward_rows_portable(&self, rows: &IndexSet, relu: bool, y: &mut [f32]) {
        assert_eq!(y.len(), rows.elems.len() * self.out_dim, "output shape");
        let finish = Finish::Bias {
            bias: &self.b,
            relu,
        };
        let cols = 0..self.out_dim;
        sparse::sparse_rows_portable(&self.w, self.out_dim, rows.rows(), finish, y, cols);
    }
}

/// `f32` weights that start on a 64-byte boundary. A row whose width is a
/// multiple of 16 — every hidden width the model uses — then starts a
/// cache line, so each of the AVX-512 kernel's 64-byte loads reads one
/// line instead of straddling two, and a 1 KB row reads its 16 lines once
/// (E27). Dereferences to the plain slice; `==` and `Debug` are the
/// slice's.
#[derive(Clone)]
struct LineAligned {
    lines: Vec<Line>,
    len: usize,
}

/// One cache line of `f32`s.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Line([f32; 16]);

impl LineAligned {
    fn new(values: &[f32]) -> Self {
        let mut lines = vec![Line([0.0; 16]); values.len().div_ceil(16)];
        for (line, chunk) in lines.iter_mut().zip(values.chunks(16)) {
            line.0[..chunk.len()].copy_from_slice(chunk);
        }
        Self {
            lines,
            len: values.len(),
        }
    }
}

impl std::ops::Deref for LineAligned {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        // SAFETY: `Line` is `repr(C)` around `[f32; 16]` — 64 bytes, no
        // padding — so `lines` is `16 · lines.len()` contiguous, initialized
        // `f32`s, of which `new` keeps `len` (never more), and the borrow of
        // `self` keeps them alive and unchanged.
        unsafe { std::slice::from_raw_parts(self.lines.as_ptr().cast::<f32>(), self.len) }
    }
}

impl PartialEq for LineAligned {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for LineAligned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// Slots of the element memo, in sets of [`MEMO_WAYS`]: an element's hash
/// names the one set it may occupy, and a newcomer takes the place of the
/// set's least recently used element.
const MEMO_SLOTS: usize = 1024;

/// Slots per set of the element memo.
const MEMO_WAYS: usize = 4;

/// The most bytes an artifact's element memo ever holds (slot table, keys
/// and embeddings together). An element is admitted only while the total
/// stays within this; one that would not fit is computed every time.
pub const MEMO_MAX_BYTES: usize = 4 << 20;

/// Counters of an artifact's element memo, read without its lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Set elements whose embedding was copied out of the memo.
    pub hits: u64,
    /// Set elements run through their module's two layers.
    pub misses: u64,
    /// Bytes the memo holds, at most [`MEMO_MAX_BYTES`].
    pub resident_bytes: u64,
}

/// Where an element may sit in the memo and what must match there.
#[derive(Debug, Clone, Copy)]
struct Probe {
    hash: u64,
    /// `module << 1 | all_ones`: the module the element belongs to and
    /// whether its key is stored as indices only.
    tag: u32,
}

impl Probe {
    /// Hashes one element of module `module`. Not keyed: elements crafted
    /// to share a set only evict each other, so the worst they can do is
    /// make every lookup miss, which costs what the memo-less forward cost.
    fn of(module: usize, entries: &[(u32, f32)]) -> Self {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut hash = (module as u64 + 1).wrapping_mul(K) ^ entries.len() as u64;
        let mut all_ones = true;
        for &(index, value) in entries {
            let bits = value.to_bits();
            all_ones &= bits == ONE_BITS;
            hash =
                (hash.rotate_left(5) ^ (u64::from(index) << 32 | u64::from(bits))).wrapping_mul(K);
        }
        hash ^= hash >> 29;
        Self {
            hash: hash.wrapping_mul(K),
            tag: (module as u32) << 1 | u32::from(all_ones),
        }
    }

    /// The slots of the set the element may occupy.
    fn set(self) -> std::ops::Range<usize> {
        let first = (self.hash >> 32) as usize % (MEMO_SLOTS / MEMO_WAYS) * MEMO_WAYS;
        first..first + MEMO_WAYS
    }

    fn all_ones(self) -> bool {
        self.tag & 1 == 1
    }
}

const ONE_BITS: u32 = 1.0f32.to_bits();

/// One memoized element. Vacant while `value` is empty.
#[derive(Debug, Default)]
struct MemoSlot {
    hash: u64,
    tag: u32,
    /// The element's entries: its indices when every value is `1.0` (one-hot
    /// and bitmap features: every table and join element), else
    /// `(index, value bits)` pairs.
    key: Vec<u32>,
    /// The embedding, `hidden` floats.
    value: Vec<f32>,
}

impl MemoSlot {
    /// Whether the slot holds exactly this element: same module, same
    /// entries, every value bit for bit.
    fn holds(&self, probe: Probe, entries: &[(u32, f32)]) -> bool {
        if self.hash != probe.hash || self.tag != probe.tag || self.value.is_empty() {
            return false;
        }
        if probe.all_ones() {
            self.key.len() == entries.len()
                && self.key.iter().zip(entries).all(|(&k, &(i, _))| k == i)
        } else {
            self.key.len() == 2 * entries.len()
                && self
                    .key
                    .chunks_exact(2)
                    .zip(entries)
                    .all(|(k, &(i, v))| k[0] == i && k[1] == v.to_bits())
        }
    }

    fn heap_words(&self) -> usize {
        self.key.capacity() + self.value.capacity()
    }
}

/// The slots behind the memo's lock, and the bytes they hold. Each set
/// keeps its slots in recency order, most recently used first, so its last
/// slot is the one a newcomer takes: a vacant one while the set has any.
#[derive(Debug, Default)]
struct MemoTable {
    /// Empty until the first insert, then `MEMO_SLOTS` long.
    slots: Vec<MemoSlot>,
    bytes: usize,
}

impl MemoTable {
    /// The element's embedding, if the memo holds it; a hit moves it to the
    /// front of its set.
    fn get(&mut self, probe: Probe, entries: &[(u32, f32)]) -> Option<&[f32]> {
        let set = self.slots.get_mut(probe.set())?;
        promote(set, probe, entries).then_some(&set[0].value[..])
    }

    /// Puts the element at the front of its set, in the least recently
    /// used slot and that slot's buffers, unless growing them to take it
    /// would carry the memo past [`MEMO_MAX_BYTES`]. An element the set
    /// already holds (one a batch carried twice) is only moved to the front.
    fn insert(&mut self, probe: Probe, entries: &[(u32, f32)], value: &[f32]) {
        if self.slots.is_empty() {
            self.slots.resize_with(MEMO_SLOTS, MemoSlot::default);
            self.bytes = MEMO_SLOTS * std::mem::size_of::<MemoSlot>();
        }
        let set = &mut self.slots[probe.set()];
        if promote(set, probe, entries) {
            return;
        }
        let slot = &mut set[MEMO_WAYS - 1];
        let key_words = entries.len() * if probe.all_ones() { 1 } else { 2 };
        let held = slot.heap_words();
        let grown = key_words.max(slot.key.capacity()) + value.len().max(slot.value.capacity());
        if self.bytes + (grown - held) * 4 > MEMO_MAX_BYTES {
            return;
        }
        slot.hash = probe.hash;
        slot.tag = probe.tag;
        slot.key.clear();
        slot.key.reserve_exact(key_words);
        if probe.all_ones() {
            slot.key.extend(entries.iter().map(|&(i, _)| i));
        } else {
            slot.key
                .extend(entries.iter().flat_map(|&(i, v)| [i, v.to_bits()]));
        }
        slot.value.clear();
        slot.value.reserve_exact(value.len());
        slot.value.extend_from_slice(value);
        self.bytes += (slot.heap_words() - held) * 4;
        set.rotate_right(1);
    }
}

/// Moves the slot of `set` that holds the element, if one does, to the
/// front of the set; returns whether one did.
fn promote(set: &mut [MemoSlot], probe: Probe, entries: &[(u32, f32)]) -> bool {
    let Some(way) = set.iter().position(|s| s.holds(probe, entries)) else {
        return false;
    };
    set[..=way].rotate_right(1);
    true
}

/// The artifact's element memo (see the module docs): the table behind a
/// lock no forward pass waits on, and counters beside it. Not part of the
/// artifact's identity — a clone starts empty and `==` ignores it.
#[derive(Debug, Default)]
struct ElementMemo {
    table: Mutex<MemoTable>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// `MemoTable::bytes`, mirrored so a scrape takes no lock.
    resident_bytes: AtomicU64,
}

impl Clone for ElementMemo {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for ElementMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// Reusable buffers of the fused forward pass. One scratch per thread
/// keeps the hot path allocation-free; buffers grow to the largest batch
/// seen and are then reused.
#[derive(Debug, Default, Clone)]
pub struct FrozenScratch {
    /// Element embeddings of one module, `rows × hidden`; then the output
    /// MLP's hidden layer.
    act: Vec<f32>,
    /// Memo probe of every element of the module, in element order.
    probes: Vec<Probe>,
    /// The elements the memo did not hold: their row in `act`, and their
    /// span in the set — the rows the two layers run over.
    missing: Vec<u32>,
    missing_spans: Vec<(u32, u32)>,
    /// The missing elements' embeddings, `missing × hidden`.
    fresh: Vec<f32>,
    /// The non-zeros of a layer's output, the next layer's input.
    sparse: IndexSet,
    /// Mean-pooled set representations, `batch × 3·hidden`.
    pooled: Vec<f32>,
}

impl FrozenScratch {
    /// An empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The frozen MSCN inference artifact: three set modules (two layers
/// each), the two output layers, all in serving layout. Built once from a
/// trained model, its weights immutable afterwards; the element memo
/// fills as it serves.
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenModel {
    tables1: FrozenLinear,
    tables2: FrozenLinear,
    joins1: FrozenLinear,
    joins2: FrozenLinear,
    preds1: FrozenLinear,
    preds2: FrozenLinear,
    out1: FrozenLinear,
    out2: FrozenLinear,
    hidden: usize,
    memo: ElementMemo,
}

impl FrozenModel {
    /// Assembles the artifact from the eight frozen layers, checking the
    /// MSCN wiring (set modules `in → hidden → hidden`, output MLP
    /// `3·hidden → hidden → 1`).
    ///
    /// # Panics
    /// Panics when the layer shapes do not form an MSCN — freezing a
    /// well-formed model cannot trip this.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        tables1: FrozenLinear,
        tables2: FrozenLinear,
        joins1: FrozenLinear,
        joins2: FrozenLinear,
        preds1: FrozenLinear,
        preds2: FrozenLinear,
        out1: FrozenLinear,
        out2: FrozenLinear,
    ) -> Self {
        let h = tables1.out_dim();
        assert!(h > 0, "mis-wired frozen model: zero hidden width");
        // Each layer's input width (`None`: the featurizer's, free) and
        // output width.
        for (name, l, want_in, want_out) in [
            ("tables1", &tables1, None, h),
            ("tables2", &tables2, Some(h), h),
            ("joins1", &joins1, None, h),
            ("joins2", &joins2, Some(h), h),
            ("preds1", &preds1, None, h),
            ("preds2", &preds2, Some(h), h),
            ("out1", &out1, Some(3 * h), h),
            ("out2", &out2, Some(h), 1),
        ] {
            assert!(
                want_in.is_none_or(|w| w == l.in_dim()) && l.out_dim() == want_out,
                "mis-wired frozen model: {name} shape breaks the MSCN wiring"
            );
        }
        Self {
            tables1,
            tables2,
            joins1,
            joins2,
            preds1,
            preds2,
            out1,
            out2,
            hidden: h,
            memo: ElementMemo::default(),
        }
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// The eight layers in order:
    /// `[t1, t2, j1, j2, p1, p2, out1, out2]`.
    pub fn layers(&self) -> [&FrozenLinear; 8] {
        [
            &self.tables1,
            &self.tables2,
            &self.joins1,
            &self.joins2,
            &self.preds1,
            &self.preds2,
            &self.out1,
            &self.out2,
        ]
    }

    /// What the element memo has done since this artifact was built,
    /// loaded or cloned, and what it holds now.
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats {
            hits: self.memo.hits.load(Ordering::Relaxed),
            misses: self.memo.misses.load(Ordering::Relaxed),
            resident_bytes: self.memo.resident_bytes.load(Ordering::Relaxed),
        }
    }

    /// Fused featurize-and-forward for one query — a batch of one
    /// through [`FrozenModel::forward_batch`]. Returns the normalized
    /// model output (pre-denormalization, post-sigmoid), bit-identical to
    /// the training-shape forward.
    pub fn forward_query(
        &self,
        tables: &IndexSet,
        joins: &IndexSet,
        preds: &IndexSet,
        scratch: &mut FrozenScratch,
    ) -> f32 {
        let counts = [[
            tables.elems.len() as u32,
            joins.elems.len() as u32,
            preds.elems.len() as u32,
        ]];
        let mut y = [0.0f32];
        self.forward_batch(tables, joins, preds, &counts, scratch, &mut y);
        y[0]
    }

    /// The fused forward over a batch of queries. Each set holds the
    /// elements of *all* queries back to back; `counts[q]` says how many
    /// elements of `[tables, joins, preds]` belong to query `q`, in
    /// order. Writes one normalized output per query into `out`. Each
    /// module looks its elements up in the memo, runs its two layers once
    /// over the ones it did not hold (see module docs), and pools; a
    /// query's output is bit-identical whatever batch it rides in and
    /// whatever the memo held.
    ///
    /// # Panics
    /// Panics when `out` and `counts` differ in length or the counts do
    /// not add up to the sets' element counts.
    pub fn forward_batch(
        &self,
        tables: &IndexSet,
        joins: &IndexSet,
        preds: &IndexSet,
        counts: &[[u32; 3]],
        scratch: &mut FrozenScratch,
        out: &mut [f32],
    ) {
        assert_eq!(out.len(), counts.len(), "one output per query");
        let (n, h) = (counts.len(), self.hidden);
        scratch.pooled.clear();
        scratch.pooled.resize(n * 3 * h, 0.0);
        let modules = [
            (&self.tables1, &self.tables2, tables),
            (&self.joins1, &self.joins2, joins),
            (&self.preds1, &self.preds2, preds),
        ];
        let (mut elements, mut misses) = (0, 0);
        for (slot, (l1, l2, set)) in modules.into_iter().enumerate() {
            let claimed: usize = counts.iter().map(|c| c[slot] as usize).sum();
            assert_eq!(
                claimed,
                set.elems.len(),
                "per-query counts must cover the set"
            );
            elements += set.elems.len();
            misses += self.embed_elements(slot, l1, l2, set, scratch);
            // Mean-pool per query: `relu(z2)[j] · (1/len)` with elements
            // ascending, as `segment_mean` does row-ascending. An empty
            // set stays the zero vector, like the masked mean.
            let mut rows = scratch.act.chunks_exact(h);
            for (q, c) in counts.iter().enumerate() {
                let len = c[slot] as usize;
                let inv = 1.0 / len as f32;
                let at = (q * 3 + slot) * h;
                for row in rows.by_ref().take(len) {
                    for (o, &v) in scratch.pooled[at..at + h].iter_mut().zip(row) {
                        *o += v * inv;
                    }
                }
            }
        }
        let hits = (elements - misses) as u64;
        self.memo.hits.fetch_add(hits, Ordering::Relaxed);
        self.memo.misses.fetch_add(misses as u64, Ordering::Relaxed);
        // Output MLP over the concatenated pooled representations.
        let FrozenScratch {
            act,
            sparse,
            pooled,
            ..
        } = scratch;
        let act = grown(act, n * h);
        sparse.compress_rows(pooled, 3 * h);
        self.out1.forward_rows(sparse, true, act);
        sparse.compress_rows(act, h);
        self.out2.forward_rows(sparse, false, out);
        for y in out.iter_mut() {
            *y = sigmoid_scalar(*y);
        }
    }

    /// The embeddings of every element of one module's set into the front
    /// of `scratch.act`, one `hidden`-wide row per element: memoized rows
    /// are copied out (and promoted in their sets) under the memo's lock,
    /// the rest go through
    /// gather → bias → ReLU → dense → bias → ReLU in one call of each layer
    /// and are then offered to the memo. The lock is only ever tried: a
    /// pass that finds it held (or poisoned) computes what it would have
    /// looked up and memoizes nothing, so no handler waits on another.
    /// Returns how many elements were computed.
    fn embed_elements(
        &self,
        module: usize,
        l1: &FrozenLinear,
        l2: &FrozenLinear,
        set: &IndexSet,
        scratch: &mut FrozenScratch,
    ) -> usize {
        let h = self.hidden;
        let FrozenScratch {
            act,
            probes,
            missing,
            missing_spans,
            fresh,
            sparse,
            ..
        } = scratch;
        let entries_of =
            |&(start, len): &(u32, u32)| &set.entries[start as usize..(start + len) as usize];
        let act = grown(act, set.elems.len() * h);
        probes.clear();
        probes.extend(set.elems.iter().map(|e| Probe::of(module, entries_of(e))));
        missing.clear();
        missing_spans.clear();
        {
            let mut table = self.memo.table.try_lock().ok();
            for (r, (span, &probe)) in set.elems.iter().zip(probes.iter()).enumerate() {
                match table.as_mut().and_then(|t| t.get(probe, entries_of(span))) {
                    Some(value) => act[r * h..(r + 1) * h].copy_from_slice(value),
                    None => {
                        missing.push(r as u32);
                        missing_spans.push(*span);
                    }
                }
            }
        }
        if missing.is_empty() {
            return 0;
        }
        let fresh = grown(fresh, missing.len() * h);
        let rows = Rows {
            entries: &set.entries,
            spans: missing_spans,
        };
        l1.forward(rows, true, fresh);
        sparse.compress_rows(fresh, h);
        l2.forward(sparse.rows(), true, fresh);
        let mut table = self.memo.table.try_lock().ok();
        for (&r, value) in missing.iter().zip(fresh.chunks_exact(h)) {
            let r = r as usize;
            act[r * h..(r + 1) * h].copy_from_slice(value);
            if let Some(table) = table.as_mut() {
                table.insert(probes[r], entries_of(&set.elems[r]), value);
            }
        }
        if let Some(table) = table {
            self.memo
                .resident_bytes
                .store(table.bytes as u64, Ordering::Relaxed);
        }
        missing.len()
    }
}

/// The first `len` slots of a scratch buffer that only ever grows.
fn grown(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    fn linear(in_dim: usize, out_dim: usize, seed: u64) -> Linear {
        let mut s = seed | 1;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        };
        let w = Tensor::from_vec(
            in_dim,
            out_dim,
            (0..in_dim * out_dim).map(|_| next()).collect(),
        );
        let b = (0..out_dim).map(|_| next()).collect();
        Linear::from_params(w, b)
    }

    /// A random sparse batch of `rows` rows over `in_dim` features, with
    /// an empty row and an explicit zero value in the mix.
    fn sparse_rows(rows: usize, in_dim: usize, seed: u64) -> IndexSet {
        let mut s = seed | 1;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 40) as u32
        };
        let mut set = IndexSet::default();
        for r in 0..rows {
            let e = set.begin_elem();
            if r != 1 {
                for idx in 0..in_dim as u32 {
                    match next() % 3 {
                        0 => set.push(idx, next() as f32 / (1u32 << 24) as f32 - 0.5),
                        1 if idx == 2 => set.push(idx, 0.0),
                        _ => {}
                    }
                }
            }
            set.finish_elem(e);
        }
        set
    }

    #[test]
    fn column_tile_kernel_matches_portable_oracle_on_ragged_widths() {
        // Through the dispatch, so only the CPU's widest kernel runs here
        // (`sparse::tests` pins each one): on AVX2, 250 = 3·64 + 32 + 16 +
        // 8 + 2 walks every tile width and the scalar remainder; on AVX-512
        // it is one tile whose last vector is masked to 10 lanes; 5 is
        // below one vector on both.
        for out_dim in [1usize, 5, 8, 16, 96, 250, 256] {
            let l = FrozenLinear::from_linear(&linear(37, out_dim, out_dim as u64));
            let rows = sparse_rows(7, 37, 0xC0 + out_dim as u64);
            for relu in [false, true] {
                let mut fast = vec![f32::NAN; 7 * out_dim];
                let mut slow = vec![f32::NAN; 7 * out_dim];
                l.forward_rows(&rows, relu, &mut fast);
                l.forward_rows_portable(&rows, relu, &mut slow);
                assert_eq!(fast, slow, "out_dim={out_dim} relu={relu}");
            }
        }
    }

    #[test]
    fn line_aligned_weights_start_a_cache_line_and_read_back_exactly() {
        for len in [0usize, 1, 15, 16, 17, 1000] {
            let values: Vec<f32> = (0..len).map(|i| i as f32 - 0.5).collect();
            let w = LineAligned::new(&values);
            for w in [&w, &w.clone()] {
                assert_eq!(**w, values[..], "len {len}");
                assert_eq!(w.as_ptr() as usize % 64, 0, "len {len}");
            }
        }
    }

    #[test]
    fn f32_freeze_preserves_weights_exactly() {
        let l = linear(5, 9, 0xF0);
        let f = FrozenLinear::from_linear(&l);
        assert_eq!(f.in_dim(), 5);
        assert_eq!(f.out_dim(), 9);
        assert_eq!(*f.w, *l.weights().data());
        assert_eq!(f.b, l.bias());
    }

    #[test]
    fn forward_rows_matches_manual_dot() {
        let l = linear(4, 3, 0x7);
        let f = FrozenLinear::from_linear(&l);
        let x = [0.5f32, 0.0, -1.25, 2.0];
        let mut rows = IndexSet::default();
        rows.compress_rows(&x, 4);
        let mut y = [0.0f32; 3];
        f.forward_rows(&rows, false, &mut y);
        for (j, &got) in y.iter().enumerate() {
            let mut want = 0.0f32;
            for (p, &xv) in x.iter().enumerate() {
                if xv != 0.0 {
                    want += xv * l.weights().get(p, j);
                }
            }
            want += l.bias()[j];
            assert_eq!(got, want, "j={j}");
        }
    }

    /// The forward pass as it was first written: one element at a time,
    /// one row-axpy per active feature into a memory-resident `y`. The
    /// batched column-tile path must reproduce it bit for bit.
    fn element_at_a_time(m: &FrozenModel, sets: [&IndexSet; 3]) -> f32 {
        fn layer(l: &FrozenLinear, x: &[(u32, f32)], relu: bool) -> Vec<f32> {
            let mut y = vec![0.0f32; l.out_dim];
            for &(p, xv) in x {
                if xv == 0.0 {
                    continue;
                }
                let at = p as usize * l.out_dim;
                for (j, o) in y.iter_mut().enumerate() {
                    *o += xv * l.w[at + j];
                }
            }
            for (o, &b) in y.iter_mut().zip(&l.b) {
                *o += b;
                if relu {
                    *o = o.max(0.0);
                }
            }
            y
        }
        let dense = |y: &[f32]| -> Vec<(u32, f32)> {
            y.iter().enumerate().map(|(j, &v)| (j as u32, v)).collect()
        };
        let mut pooled = Vec::new();
        for ((l1, l2), set) in [
            (&m.tables1, &m.tables2),
            (&m.joins1, &m.joins2),
            (&m.preds1, &m.preds2),
        ]
        .into_iter()
        .zip(sets)
        {
            let mut p = vec![0.0f32; m.hidden];
            let inv = 1.0 / set.elems.len() as f32;
            for &(start, len) in &set.elems {
                let z1 = layer(
                    l1,
                    &set.entries[start as usize..(start + len) as usize],
                    true,
                );
                let z2 = layer(l2, &dense(&z1), true);
                for (o, &v) in p.iter_mut().zip(&z2) {
                    *o += v * inv;
                }
            }
            pooled.extend(p);
        }
        let z3 = layer(&m.out1, &dense(&pooled), true);
        sigmoid_scalar(layer(&m.out2, &dense(&z3), false)[0])
    }

    #[test]
    fn batched_forward_is_the_element_at_a_time_forward_bit_for_bit() {
        let m = tiny_model();
        let (t, j, p) = demo_sets();
        let empty = IndexSet::default();
        let queries = [
            [&t, &j, &p],
            [&t, &empty, &p],
            [&t, &j, &empty],
            [&t, &j, &p],
        ];
        let mut scratch = FrozenScratch::new();
        let singles: Vec<f32> = queries
            .iter()
            .map(|&[t, j, p]| m.forward_query(t, j, p, &mut scratch))
            .collect();
        for (&q, got) in queries.iter().zip(&singles) {
            let want = element_at_a_time(&m, q);
            assert_eq!(got.to_bits(), want.to_bits());
        }
        // The same four queries as one batch: sets back to back.
        let concat = |slot: usize| {
            let mut all = IndexSet::default();
            for q in &queries {
                let set = q[slot];
                for &(start, len) in &set.elems {
                    let e = all.begin_elem();
                    for &(i, v) in &set.entries[start as usize..(start + len) as usize] {
                        all.push(i, v);
                    }
                    all.finish_elem(e);
                }
            }
            all
        };
        let (ts, js, ps) = (concat(0), concat(1), concat(2));
        let counts: Vec<[u32; 3]> = queries
            .iter()
            .map(|q| q.map(|s| s.elems.len() as u32))
            .collect();
        let mut out = vec![0.0f32; queries.len()];
        m.forward_batch(&ts, &js, &ps, &counts, &mut scratch, &mut out);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out), bits(&singles));
    }

    fn tiny_model() -> FrozenModel {
        let h = 6;
        FrozenModel::new(
            FrozenLinear::from_linear(&linear(10, h, 1)),
            FrozenLinear::from_linear(&linear(h, h, 2)),
            FrozenLinear::from_linear(&linear(4, h, 3)),
            FrozenLinear::from_linear(&linear(h, h, 4)),
            FrozenLinear::from_linear(&linear(7, h, 5)),
            FrozenLinear::from_linear(&linear(h, h, 6)),
            FrozenLinear::from_linear(&linear(3 * h, h, 7)),
            FrozenLinear::from_linear(&linear(h, 1, 8)),
        )
    }

    fn demo_sets() -> (IndexSet, IndexSet, IndexSet) {
        let mut tables = IndexSet::default();
        let e = tables.begin_elem();
        tables.push(1, 1.0);
        tables.push(4, 1.0);
        tables.finish_elem(e);
        let e = tables.begin_elem();
        tables.push(0, 1.0);
        tables.finish_elem(e);
        let mut joins = IndexSet::default();
        let e = joins.begin_elem();
        joins.push(2, 1.0);
        joins.finish_elem(e);
        let mut preds = IndexSet::default();
        let e = preds.begin_elem();
        preds.push(0, 1.0);
        preds.push(5, 1.0);
        preds.push(6, 0.625);
        preds.finish_elem(e);
        (tables, joins, preds)
    }

    /// One element of every module with index `2` active — valid input of
    /// all three — and `value` on it.
    fn one_entry(value: f32) -> IndexSet {
        let mut set = IndexSet::default();
        let e = set.begin_elem();
        set.push(2, value);
        set.finish_elem(e);
        set
    }

    /// A stream of queries over a pool of eight elements per module, so
    /// most elements repeat while few whole queries do; every fifth query
    /// has an empty table, join or predicate set. No query holds an
    /// element twice.
    fn repeating_stream(n: usize) -> Vec<[IndexSet; 3]> {
        let mut s = 0x5EEDu64;
        let mut next = move |below: u32| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 40) as u32 % below
        };
        (0..n)
            .map(|q| {
                let mut sets: [IndexSet; 3] = Default::default();
                for (slot, set) in sets.iter_mut().enumerate() {
                    let elems = if q % 5 == slot { 0 } else { 1 + next(3) };
                    let first = next(8);
                    for pick in (first..first + elems).map(|p| p % 8) {
                        let e = set.begin_elem();
                        if slot == 2 {
                            // A predicate: column one-hot and a literal.
                            set.push(pick % 5, 1.0);
                            set.push(6, pick as f32 / 8.0);
                        } else {
                            // One of the eight non-empty subsets of 0..4.
                            for i in (0..4).filter(|i| (pick + 1) >> i & 1 == 1) {
                                set.push(i, 1.0);
                            }
                        }
                        set.finish_elem(e);
                    }
                }
                sets
            })
            .collect()
    }

    fn forward(m: &FrozenModel, q: &[IndexSet; 3]) -> u32 {
        m.forward_query(&q[0], &q[1], &q[2], &mut FrozenScratch::new())
            .to_bits()
    }

    #[test]
    fn a_warm_memo_answers_what_a_fresh_artifact_answers() {
        let warm = tiny_model();
        let stream = repeating_stream(400);
        for q in &stream {
            let fresh = tiny_model();
            assert_eq!(forward(&warm, q), forward(&fresh, q));
            assert_eq!(
                fresh.memo_stats().hits,
                0,
                "a fresh artifact has seen nothing"
            );
        }
        let stats = warm.memo_stats();
        let elements: usize = stream.iter().flatten().map(|s| s.elems.len()).sum();
        assert_eq!(stats.hits + stats.misses, elements as u64);
        // 24 distinct elements, each computed once: no set of four ways
        // overflows here.
        assert_eq!(stats.misses, 24);
        assert!(0 < stats.resident_bytes && stats.resident_bytes <= MEMO_MAX_BYTES as u64);

        // The whole stream as one batch — the same element many times in
        // one call — against the memo it just filled and against none.
        let concat = |slot: usize| {
            let mut all = IndexSet::default();
            for set in stream.iter().map(|q| &q[slot]) {
                for &(start, len) in &set.elems {
                    let e = all.begin_elem();
                    all.entries
                        .extend_from_slice(&set.entries[start as usize..(start + len) as usize]);
                    all.finish_elem(e);
                }
            }
            all
        };
        let (ts, js, ps) = (concat(0), concat(1), concat(2));
        let counts: Vec<[u32; 3]> = stream
            .iter()
            .map(|q| [0, 1, 2].map(|s| q[s].elems.len() as u32))
            .collect();
        let singles: Vec<u32> = stream.iter().map(|q| forward(&warm, q)).collect();
        for m in [&warm, &tiny_model()] {
            let mut out = vec![0.0f32; stream.len()];
            m.forward_batch(&ts, &js, &ps, &counts, &mut FrozenScratch::new(), &mut out);
            let bits: Vec<u32> = out.iter().map(|y| y.to_bits()).collect();
            assert_eq!(bits, singles);
        }
    }

    #[test]
    fn keys_differing_in_one_value_bit_or_in_module_never_alias() {
        let next_after_half = f32::from_bits(0.5f32.to_bits() + 1);
        let pairs = [
            (one_entry(0.5), one_entry(next_after_half)),
            (one_entry(0.0), one_entry(-0.0)),
            (one_entry(1.0), one_entry(next_after_half)),
        ];
        for (a, b) in &pairs {
            let (pa, pb) = (Probe::of(2, &a.entries), Probe::of(2, &b.entries));
            let mut table = MemoTable::default();
            table.insert(pa, &a.entries, &[7.0]);
            assert_eq!(table.get(pa, &a.entries), Some(&[7.0][..]));
            assert_eq!(table.get(pb, &b.entries), None);
            // Even on a full hash collision the entries decide.
            let forged = Probe {
                hash: pa.hash,
                ..pb
            };
            assert_eq!(table.get(forged, &b.entries), None);
        }
        // The same entries in another module are another element, in both
        // key forms.
        for set in [one_entry(1.0), one_entry(0.25)] {
            let mut table = MemoTable::default();
            let own = Probe::of(0, &set.entries);
            table.insert(own, &set.entries, &[7.0]);
            for module in [1, 2] {
                let other = Probe::of(module, &set.entries);
                assert_eq!(table.get(other, &set.entries), None);
                let forged = Probe {
                    hash: own.hash,
                    ..other
                };
                assert_eq!(table.get(forged, &set.entries), None);
            }
        }
        // End to end: one artifact serving the near-identical elements in
        // every module, in turn, answers like a fresh one each time.
        let warm = tiny_model();
        let empty = IndexSet::default();
        for _ in 0..2 {
            for (a, b) in &pairs {
                for set in [a, b] {
                    for q in [
                        [set.clone(), empty.clone(), empty.clone()],
                        [empty.clone(), set.clone(), empty.clone()],
                        [empty.clone(), empty.clone(), set.clone()],
                    ] {
                        assert_eq!(forward(&warm, &q), forward(&tiny_model(), &q));
                    }
                }
            }
        }
    }

    #[test]
    fn a_set_keeps_four_elements_and_evicts_its_least_recently_used() {
        // Five single-entry elements whose hashes name one set.
        let mut by_set = vec![Vec::new(); MEMO_SLOTS / MEMO_WAYS];
        let five: Vec<[(u32, f32); 1]> = (0u32..)
            .find_map(|i| {
                let entries = [(i, 1.0)];
                let members = &mut by_set[Probe::of(0, &entries).set().start / MEMO_WAYS];
                members.push(entries);
                (members.len() == MEMO_WAYS + 1).then(|| members.clone())
            })
            .expect("pigeonhole");
        let probe = |e: &[(u32, f32)]| Probe::of(0, e);
        let value = |n: usize| [n as f32];
        let mut table = MemoTable::default();
        // 1 comes twice, as from a batch that carries it twice: the set
        // holds it once, so 0 keeps its way.
        for n in [0, 1, 1, 2, 3] {
            table.insert(probe(&five[n]), &five[n], &value(n));
        }
        for (n, e) in five[..4].iter().enumerate() {
            assert_eq!(table.get(probe(e), e), Some(&value(n)[..]), "way {n}");
        }
        // Looked up 0 to 3, so 0 is the least recent until a hit promotes
        // it, which leaves 1 to make room for the fifth.
        assert!(table.get(probe(&five[0]), &five[0]).is_some());
        table.insert(probe(&five[4]), &five[4], &value(4));
        assert_eq!(table.get(probe(&five[1]), &five[1]), None);
        for n in [0, 2, 3, 4] {
            let e = &five[n];
            assert_eq!(table.get(probe(e), e), Some(&value(n)[..]), "element {n}");
        }
    }

    #[test]
    fn clone_starts_empty_and_equality_ignores_the_memo() {
        let m = tiny_model();
        for q in &repeating_stream(50) {
            forward(&m, q);
        }
        assert!(m.memo_stats().hits > 0 && m.memo_stats().resident_bytes > 0);
        for other in [&m.clone(), &tiny_model()] {
            assert_eq!(other.memo_stats(), MemoStats::default());
            assert_eq!(other, &m, "the memo is not part of an artifact's identity");
        }
    }

    #[test]
    fn the_memo_never_holds_more_than_its_constant_bound() {
        let mut s = 0xB0B0u64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as u32
        };
        // 100k distinct elements, up to 600 entries of either key form and
        // 700-float embeddings: 1024 such slots would be ≈ 7 MB.
        let mut table = MemoTable::default();
        let value = vec![0.5f32; 700];
        let (mut refused, mut peak) = (0, 0);
        for n in 0..100_000u32 {
            let len = next() as usize % 600;
            let v = if n % 2 == 0 { 1.0 } else { 0.75 };
            let mut entries: Vec<(u32, f32)> = (0..len as u32).map(|i| (i, v)).collect();
            entries.push((1_000_000 + n, v));
            let probe = Probe::of(n as usize % 3, &entries);
            table.insert(probe, &entries, &value[..1 + next() as usize % 700]);
            refused += usize::from(table.get(probe, &entries).is_none());
            assert!(table.bytes <= MEMO_MAX_BYTES, "after {n} inserts");
            peak = peak.max(table.bytes);
        }
        let held: usize = table.slots.iter().map(|s| s.heap_words() * 4).sum();
        assert_eq!(
            table.bytes,
            held + MEMO_SLOTS * std::mem::size_of::<MemoSlot>(),
            "the running total is what the slots hold"
        );
        assert!(
            refused > 0 && peak > MEMO_MAX_BYTES * 9 / 10,
            "the bound was reached"
        );
    }

    #[test]
    fn threads_sharing_one_artifact_agree_and_a_poisoned_memo_only_computes() {
        let stream = repeating_stream(300);
        let want: Vec<u32> = stream.iter().map(|q| forward(&tiny_model(), q)).collect();
        let shared = tiny_model();
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let mut scratch = FrozenScratch::new();
                    barrier.wait();
                    for (q, &want) in stream.iter().zip(&want) {
                        let got = shared.forward_query(&q[0], &q[1], &q[2], &mut scratch);
                        assert_eq!(got.to_bits(), want);
                    }
                });
            }
        });
        let stats = shared.memo_stats();
        let elements: usize = stream.iter().flatten().map(|s| s.elems.len()).sum();
        assert_eq!(stats.hits + stats.misses, 8 * elements as u64);

        // A thread that dies holding the lock poisons it for good. Later
        // passes find it unavailable, like a held one: they compute.
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = shared.memo.table.lock().unwrap();
                panic!("poisoning the memo");
            })
            .join()
        });
        assert!(poisoner.is_err() && shared.memo.table.is_poisoned());
        for (q, &want) in stream.iter().zip(&want) {
            assert_eq!(forward(&shared, q), want);
        }
        let after = shared.memo_stats();
        assert_eq!(
            after.hits, stats.hits,
            "nothing is looked up in a poisoned memo"
        );
        assert_eq!(after.misses, stats.misses + elements as u64);
    }

    #[test]
    fn forward_query_is_deterministic_and_in_range() {
        let m = tiny_model();
        let (t, j, p) = demo_sets();
        let mut scratch = FrozenScratch::new();
        let a = m.forward_query(&t, &j, &p, &mut scratch);
        let b = m.forward_query(&t, &j, &p, &mut scratch);
        assert_eq!(a.to_bits(), b.to_bits(), "scratch reuse must not leak");
        assert!((0.0..=1.0).contains(&a));
    }

    #[test]
    fn empty_sets_pool_to_zero_like_the_masked_mean() {
        let m = tiny_model();
        let (t, _, p) = demo_sets();
        let empty = IndexSet::default();
        let mut scratch = FrozenScratch::new();
        // An all-empty query still produces a finite sigmoid output driven
        // purely by the output-MLP biases.
        let v = m.forward_query(&empty, &empty, &empty, &mut scratch);
        assert!(v.is_finite());
        // And an empty join set alongside populated sets is fine too.
        let v2 = m.forward_query(&t, &empty, &p, &mut scratch);
        assert!((0.0..=1.0).contains(&v2));
    }

    #[test]
    #[should_panic(expected = "out1 shape breaks the MSCN wiring")]
    fn a_mis_wired_model_is_refused() {
        let h = 6;
        let layer = |i, o| FrozenLinear::from_linear(&linear(i, o, 1));
        // `out1` takes two pooled sets, not three.
        FrozenModel::new(
            layer(10, h),
            layer(h, h),
            layer(4, h),
            layer(h, h),
            layer(7, h),
            layer(h, h),
            layer(2 * h, h),
            layer(h, 1),
        );
    }
}
