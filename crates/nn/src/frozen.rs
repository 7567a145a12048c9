//! Frozen serving-only inference artifacts.
//!
//! Training wants transposable layers beside their gradients and optimizer
//! state; serving wants the opposite: immutable weights in exactly the
//! layout the forward pass reads and nothing else. A [`FrozenModel`] is
//! that artifact: the eight MSCN layers copied once from the trained model
//! into a flat, line-aligned row-major `f32` layout, driven by one fused
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
//! element's `(index, value)` list compared bit for bit, written compactly
//! (an all-ones element as its indices or, when shorter, a bitset over the
//! module's input width); value, the `hidden` floats after the module's
//! second ReLU, stored sparse (a mask of the non-zero lanes and those
//! floats). A forward pass looks its elements up, runs the two layers over
//! the missing ones only, and pools; a stored row pools to the bits of the
//! dense one, because the zeros it drops add nothing to a pooled sum. The
//! memo is part of the artifact's *identity-free* state: built empty by
//! [`FrozenModel::new`] and `clone`, ignored by `==`, never serialized — so
//! a re-freeze, a load or a hot-swap starts from an empty memo and there is
//! nothing to invalidate. It holds at most [`MEMO_MAX_BYTES`] in 4 096
//! slots, four ways to a set, each set evicting its least recently used
//! element; on the benchmark's stream an element takes ≈ 0.57 KB (≈ 1.8 KB
//! dense).
//!
//! Outside training the artifact is the only copy of a model's weights:
//! [`FrozenModel::encode`] writes them and [`FrozenModel::decode`] reads
//! them straight back into serving layout, and a caller that wants to
//! train on from them thaws a training-layout copy
//! ([`FrozenLinear::thaw`]).
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
use crate::serialize::{DecodeError, Decoder, Encoder};
use crate::sparse::{self, Finish, Rows};
use crate::tensor::Tensor;

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
        let (w, b) = (l.weights().data(), l.bias().to_vec());
        Self::from_parts(l.in_dim(), l.out_dim(), w, b)
    }

    /// A layer from its row-major `in_dim × out_dim` weights and its bias
    /// (what [`crate::serialize::Decoder::linear`] read).
    pub(crate) fn from_parts(in_dim: usize, out_dim: usize, w: &[f32], b: Vec<f32>) -> Self {
        debug_assert_eq!(w.len(), in_dim * out_dim);
        debug_assert_eq!(b.len(), out_dim);
        Self {
            in_dim,
            out_dim,
            w: LineAligned::new(w),
            b,
        }
    }

    /// A training-layout copy of this layer, bit for bit — what
    /// [`FrozenLinear::from_linear`] undoes.
    pub fn thaw(&self) -> Linear {
        let w = Tensor::from_vec(self.in_dim, self.out_dim, self.w.to_vec());
        Linear::from_params(w, self.b.clone())
    }

    /// The `in_dim × out_dim` weights, row-major.
    pub(crate) fn weights(&self) -> &[f32] {
        &self.w
    }

    /// The bias.
    pub(crate) fn bias(&self) -> &[f32] {
        &self.b
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
const MEMO_SLOTS: usize = 4096;

/// Slots per set of the element memo.
const MEMO_WAYS: usize = 4;

/// The most bytes an artifact's element memo ever holds (slot table, keys
/// and embeddings together). An element is admitted only while the total
/// stays within this; one that would not fit is computed every time.
pub const MEMO_MAX_BYTES: usize = 4 << 20;

/// Counters of an artifact's element memo, read without its lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Set elements whose embedding the memo held.
    pub hits: u64,
    /// Set elements run through their module's two layers.
    pub misses: u64,
    /// Occupied slots, at most 4 096.
    pub entries: u64,
    /// Bytes the memo holds, at most [`MEMO_MAX_BYTES`].
    pub resident_bytes: u64,
}

/// How an element's entries are written as key words (see [`Probe::of`]).
const KEY_PAIRS: u32 = 0;
const KEY_INDICES: u32 = 1;
const KEY_BITSET: u32 = 2;

const ONE_BITS: u32 = 1.0f32.to_bits();

/// Where an element may sit in the memo and what must match there; its key
/// words sit in the caller's buffer.
#[derive(Debug, Clone, Copy)]
struct Probe {
    hash: u64,
    /// `module << 2 | form`: the module the element belongs to and how its
    /// key is written (`KEY_*`).
    tag: u32,
}

impl Probe {
    /// Appends the key of one element of module `module`, `width` features
    /// wide, to `key`, and hashes it. The key is the element's entries in
    /// the shortest of three exact forms: `(index, value bits)` pairs; the
    /// indices alone when every value is `1.0` (one-hot and bitmap
    /// features: every table and join element); or, when the indices also
    /// ascend strictly below `width` and that is shorter, a bitset over
    /// `width` — a table element with its 256-bit sample bitmap is 9 words
    /// instead of up to 257. The form is in the tag, so two keys are one
    /// element exactly when their tags and words are equal.
    ///
    /// Not keyed: elements crafted to share a set only evict each other, so
    /// the worst they can do is make every lookup miss, which costs what the
    /// memo-less forward cost.
    fn of(module: usize, width: usize, entries: &[(u32, f32)], key: &mut Vec<u32>) -> Self {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let start = key.len();
        let form = if entries.iter().any(|&(_, v)| v.to_bits() != ONE_BITS) {
            key.extend(entries.iter().flat_map(|&(i, v)| [i, v.to_bits()]));
            KEY_PAIRS
        } else if width.div_ceil(32) < entries.len() && push_bitset(entries, width, key) {
            KEY_BITSET
        } else {
            key.extend(entries.iter().map(|&(i, _)| i));
            KEY_INDICES
        };
        let tag = (module as u32) << 2 | form;
        let words = &key[start..];
        let mut hash = (u64::from(tag) + 1).wrapping_mul(K) ^ words.len() as u64;
        for &w in words {
            hash = (hash.rotate_left(5) ^ u64::from(w)).wrapping_mul(K);
        }
        hash ^= hash >> 29;
        Self {
            hash: hash.wrapping_mul(K),
            tag,
        }
    }

    /// The slots of the set the element may occupy.
    fn set(self) -> std::ops::Range<usize> {
        let first = (self.hash >> 32) as usize % (MEMO_SLOTS / MEMO_WAYS) * MEMO_WAYS;
        first..first + MEMO_WAYS
    }
}

/// Appends the bitset of `entries`' indices over `width` features to
/// `key`, one word at a time in a register; returns `false` and leaves
/// `key` as it was unless the indices ascend strictly below `width`.
/// `entries` is not empty.
fn push_bitset(entries: &[(u32, f32)], width: usize, key: &mut Vec<u32>) -> bool {
    let start = key.len();
    key.resize(start + width.div_ceil(32), 0);
    let (mut word, mut at, mut next) = (0u32, 0usize, 0usize);
    for &(i, _) in entries {
        let i = i as usize;
        if i < next || i >= width {
            key.truncate(start);
            return false;
        }
        next = i + 1;
        if i / 32 != at {
            key[start + at] = word;
            (word, at) = (0, i / 32);
        }
        word |= 1 << (i % 32);
    }
    key[start + at] = word;
    true
}

/// One memoized element. Vacant while `words` is empty (an embedding is at
/// least one mask word).
#[derive(Debug, Default)]
struct MemoSlot {
    hash: u64,
    tag: u32,
    /// How many of `words` are the key.
    key_len: u32,
    /// The element's key (see [`Probe::of`]), then its embedding stored
    /// sparse: a mask of `hidden` bits, one per float that is not zero, and
    /// those floats' bits in order — about 108 of 256 after the module's
    /// ReLU on the benchmark's stream.
    words: Vec<u32>,
}

impl MemoSlot {
    /// Whether the slot holds exactly this element: same module, same key
    /// form, same key words.
    fn holds(&self, probe: Probe, key: &[u32]) -> bool {
        self.hash == probe.hash
            && self.tag == probe.tag
            && !self.words.is_empty()
            && self.key_len as usize == key.len()
            && self.words[..key.len()] == *key
    }
}

/// Appends `value` to `words` sparse: its mask, then its `nonzeros`
/// non-zero floats. On AVX-512 a 16-lane compare and `vcompressps` per
/// vector; a lane at a time elsewhere.
fn store_sparse(value: &[f32], nonzeros: usize, words: &mut Vec<u32>) {
    let at = words.len();
    let mask_words = value.len().div_ceil(32);
    words.resize(at + mask_words + nonzeros, 0);
    let (mask, values) = words[at..].split_at_mut(mask_words);
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: AVX-512F support was just verified at runtime.
        return unsafe { x86::compress(value, mask, values) };
    }
    compress_portable(value, mask, values);
}

/// Writes the embedding [`store_sparse`] stored into `row`, `+0.0` where it
/// was zero. Pooling adds `v · inv` to a sum that starts at `+0.0` and only
/// ever holds ReLU outputs, so a `-0.0` it turned into `+0.0` pools to the
/// same bits. On AVX-512 one `vexpandps` per vector.
fn load_sparse(stored: &[u32], row: &mut [f32]) {
    let (mask, values) = stored.split_at(row.len().div_ceil(32));
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: AVX-512F support was just verified at runtime.
        return unsafe { x86::expand(mask, values, row) };
    }
    expand_portable(mask, values, row);
}

/// [`store_sparse`]'s mask bits and non-zeros, a lane at a time: the oracle
/// of the AVX-512 codec. `mask` starts zeroed and `values` has one word per
/// non-zero.
fn compress_portable(value: &[f32], mask: &mut [u32], values: &mut [u32]) {
    let mut values = values.iter_mut();
    for (j, &v) in value.iter().enumerate() {
        if v != 0.0 {
            mask[j / 32] |= 1 << (j % 32);
            *values.next().expect("a word per non-zero") = v.to_bits();
        }
    }
}

/// [`load_sparse`] a set mask bit at a time: the oracle of the AVX-512
/// codec.
fn expand_portable(mask: &[u32], values: &[u32], row: &mut [f32]) {
    row.fill(0.0);
    let mut values = values.iter();
    for (w, &bits) in mask.iter().enumerate() {
        let mut bits = bits;
        while bits != 0 {
            let j = w * 32 + bits.trailing_zeros() as usize;
            row[j] = f32::from_bits(*values.next().expect("a word per mask bit"));
            bits &= bits - 1;
        }
    }
}

/// The AVX-512 codec of a memoized embedding, 16 lanes at a time: two
/// vectors to a mask word, each vector's non-zeros moved by one compress or
/// expand.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __mmask16, _mm512_cmp_ps_mask, _mm512_mask_compressstoreu_ps, _mm512_mask_storeu_ps,
        _mm512_maskz_expandloadu_ps, _mm512_maskz_loadu_ps, _mm512_setzero_ps, _CMP_NEQ_UQ,
    };

    /// The first `len` (1 to 16) lanes of a vector.
    fn lanes(len: usize) -> __mmask16 {
        (u32::MAX >> (32 - len)) as __mmask16
    }

    /// [`super::compress_portable`]: the mask of each vector is its
    /// `v != 0.0` (`NEQ_UQ`: NaN is not zero, `-0.0` is), and its non-zeros
    /// are stored back to back.
    ///
    /// # Safety
    /// The CPU must support AVX-512F. Every load and store goes through a
    /// bounds-checked slice of exactly the lanes it touches: the chunk a
    /// masked load reads, the words a compress writes.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn compress(value: &[f32], mask: &mut [u32], values: &mut [u32]) {
        let mut k = 0;
        for (c, chunk) in value.chunks(16).enumerate() {
            let v = _mm512_maskz_loadu_ps(lanes(chunk.len()), chunk.as_ptr());
            let m = _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(v, _mm512_setzero_ps());
            mask[c / 2] |= u32::from(m) << (c % 2 * 16);
            let room = &mut values[k..k + m.count_ones() as usize];
            _mm512_mask_compressstoreu_ps(room.as_mut_ptr().cast(), m, v);
            k += room.len();
        }
        debug_assert_eq!(k, values.len(), "a word per non-zero");
    }

    /// [`super::expand_portable`]: each vector's lanes take the next of
    /// `values` where its mask bit is set and zero elsewhere.
    ///
    /// # Safety
    /// The CPU must support AVX-512F. Every load and store goes through a
    /// bounds-checked slice of exactly the lanes it touches: the words an
    /// expand reads, the chunk of `row` a masked store writes.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn expand(mask: &[u32], values: &[u32], row: &mut [f32]) {
        let mut k = 0;
        for (c, out) in row.chunks_mut(16).enumerate() {
            let m = (mask[c / 2] >> (c % 2 * 16)) as __mmask16 & lanes(out.len());
            let held = &values[k..k + m.count_ones() as usize];
            let v = _mm512_maskz_expandloadu_ps(m, held.as_ptr().cast());
            _mm512_mask_storeu_ps(out.as_mut_ptr(), lanes(out.len()), v);
            k += held.len();
        }
    }
}

/// The slots behind the memo's lock, and the bytes and elements they hold.
/// Each set keeps its slots in recency order, most recently used first, so
/// its last slot is the one a newcomer takes: a vacant one while the set
/// has any.
#[derive(Debug, Default)]
struct MemoTable {
    /// Empty until the first insert, then `MEMO_SLOTS` long.
    slots: Vec<MemoSlot>,
    bytes: usize,
    entries: usize,
}

impl MemoTable {
    /// Writes the element's embedding into `row` if the memo holds it, and
    /// moves it to the front of its set; returns whether it did.
    fn get(&mut self, probe: Probe, key: &[u32], row: &mut [f32]) -> bool {
        let Some(set) = self.slots.get_mut(probe.set()) else {
            return false;
        };
        if !promote(set, probe, key) {
            return false;
        }
        load_sparse(&set[0].words[key.len()..], row);
        true
    }

    /// Puts the element at the front of its set, in the least recently
    /// used slot and that slot's buffer, unless growing it to take the
    /// element would carry the memo past [`MEMO_MAX_BYTES`]. An element the
    /// set already holds (one a batch carried twice) is only moved to the
    /// front.
    fn insert(&mut self, probe: Probe, key: &[u32], value: &[f32]) {
        if self.slots.is_empty() {
            self.slots.resize_with(MEMO_SLOTS, MemoSlot::default);
            self.bytes = MEMO_SLOTS * std::mem::size_of::<MemoSlot>();
        }
        let set = &mut self.slots[probe.set()];
        if promote(set, probe, key) {
            return;
        }
        let slot = &mut set[MEMO_WAYS - 1];
        let nonzeros = value.iter().filter(|&&v| v != 0.0).count();
        let words = key.len() + value.len().div_ceil(32) + nonzeros;
        let held = slot.words.capacity();
        if self.bytes + (words.max(held) - held) * 4 > MEMO_MAX_BYTES {
            return;
        }
        self.entries += usize::from(slot.words.is_empty());
        slot.hash = probe.hash;
        slot.tag = probe.tag;
        slot.key_len = key.len() as u32;
        slot.words.clear();
        slot.words.reserve_exact(words);
        slot.words.extend_from_slice(key);
        store_sparse(value, nonzeros, &mut slot.words);
        self.bytes += (slot.words.capacity() - held) * 4;
        set.rotate_right(1);
    }
}

/// Moves the slot of `set` that holds the element, if one does, to the
/// front of the set; returns whether one did.
fn promote(set: &mut [MemoSlot], probe: Probe, key: &[u32]) -> bool {
    let Some(way) = set.iter().position(|s| s.holds(probe, key)) else {
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
    /// `MemoTable::entries` and `MemoTable::bytes`, mirrored so a scrape
    /// takes no lock.
    entries: AtomicU64,
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
    /// Memo probe of every element of the module, in element order, and
    /// where its key sits in `keys`.
    probes: Vec<(Probe, std::ops::Range<usize>)>,
    /// The elements' memo keys, back to back.
    keys: Vec<u32>,
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
    /// well-formed model cannot trip this; [`FrozenModel::decode`] refuses
    /// such layers as corrupt before it gets here.
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
        let layers = [
            &tables1, &tables2, &joins1, &joins2, &preds1, &preds2, &out1, &out2,
        ];
        let h = tables1.out_dim();
        if let Some(why) = miswiring(h, layers) {
            panic!("mis-wired frozen model: {why}");
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

    /// Scalar parameters: every layer's weights and bias.
    pub fn num_params(&self) -> usize {
        self.layers()
            .iter()
            .map(|l| (l.in_dim + 1) * l.out_dim)
            .sum()
    }

    /// Writes the weights: the `MSCN` header, the hidden width, then the
    /// eight layers in [`FrozenModel::layers`] order.
    pub fn encode(&self, e: &mut Encoder) {
        e.header(MAGIC, VERSION);
        e.u64(self.hidden as u64);
        for l in self.layers() {
            e.linear(l);
        }
    }

    /// Reads what [`FrozenModel::encode`] wrote. Layers off the MSCN
    /// wiring, or a hidden width they do not have, are
    /// [`DecodeError::Corrupt`]; the set modules' input widths are the
    /// featurizer's to check.
    pub fn decode(d: &mut Decoder) -> Result<Self, DecodeError> {
        let version = d.header(MAGIC)?;
        if version != VERSION {
            return Err(DecodeError::BadHeader(format!(
                "unsupported MSCN version {version}"
            )));
        }
        let hidden = usize::try_from(d.u64()?).unwrap_or(usize::MAX);
        let mut layer = || d.linear();
        let (t1, t2, j1, j2) = (layer()?, layer()?, layer()?, layer()?);
        let (p1, p2, o1, o2) = (layer()?, layer()?, layer()?, layer()?);
        if let Some(why) = miswiring(hidden, [&t1, &t2, &j1, &j2, &p1, &p2, &o1, &o2]) {
            return Err(DecodeError::Corrupt(format!(
                "inconsistent MSCN shapes: {why}"
            )));
        }
        Ok(Self::new(t1, t2, j1, j2, p1, p2, o1, o2))
    }

    /// Empties the element memo and zeroes its counters, as if the
    /// artifact had just been built; the weights are untouched.
    pub fn clear_memo(&mut self) {
        self.memo = ElementMemo::default();
    }

    /// What the element memo has done since this artifact was built,
    /// loaded, cloned or cleared, and what it holds now.
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats {
            hits: self.memo.hits.load(Ordering::Relaxed),
            misses: self.memo.misses.load(Ordering::Relaxed),
            entries: self.memo.entries.load(Ordering::Relaxed),
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
                    pool_into(&mut scratch.pooled[at..at + h], row, inv);
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
    /// are written out (and promoted in their sets) under the memo's lock,
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
            keys,
            missing,
            missing_spans,
            fresh,
            sparse,
            ..
        } = scratch;
        let act = grown(act, set.elems.len() * h);
        keys.clear();
        probes.clear();
        probes.extend(set.elems.iter().map(|&(start, len)| {
            let entries = &set.entries[start as usize..(start + len) as usize];
            let at = keys.len();
            (
                Probe::of(module, l1.in_dim(), entries, keys),
                at..keys.len(),
            )
        }));
        missing.clear();
        missing_spans.clear();
        {
            let mut table = self.memo.table.try_lock().ok();
            for (r, (span, (probe, key))) in set.elems.iter().zip(probes.iter()).enumerate() {
                let row = &mut act[r * h..(r + 1) * h];
                if !table
                    .as_mut()
                    .is_some_and(|t| t.get(*probe, &keys[key.clone()], row))
                {
                    missing.push(r as u32);
                    missing_spans.push(*span);
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
                let (probe, key) = &probes[r];
                table.insert(*probe, &keys[key.clone()], value);
            }
        }
        if let Some(table) = table {
            let memo = &self.memo;
            memo.entries.store(table.entries as u64, Ordering::Relaxed);
            memo.resident_bytes
                .store(table.bytes as u64, Ordering::Relaxed);
        }
        missing.len()
    }
}

/// Serialization magic and version of the weights.
const MAGIC: &[u8; 4] = b"MSCN";
const VERSION: u32 = 1;

/// Why layers in [`FrozenModel::layers`] order do not form an MSCN of
/// hidden width `h` — set modules `in → h → h`, output MLP `3·h → h → 1`
/// — or `None` when they do.
fn miswiring(h: usize, layers: [&FrozenLinear; 8]) -> Option<String> {
    if h == 0 {
        return Some("zero hidden width".into());
    }
    // Each layer's input width (`None`: the featurizer's, free) and
    // output width.
    let wiring = [
        ("tables1", None, h),
        ("tables2", Some(h), h),
        ("joins1", None, h),
        ("joins2", Some(h), h),
        ("preds1", None, h),
        ("preds2", Some(h), h),
        ("out1", Some(h.saturating_mul(3)), h),
        ("out2", Some(h), 1),
    ];
    wiring
        .into_iter()
        .zip(layers)
        .find(|((_, want_in, want_out), l)| {
            want_in.is_some_and(|w| w != l.in_dim()) || l.out_dim() != *want_out
        })
        .map(|((name, ..), _)| format!("{name} shape breaks the MSCN wiring"))
}

/// Adds one element's embedding, scaled by `inv`, to its query's pooled
/// sum: `relu(z2)[j] · (1/len)`, lane by lane.
fn pool_into(pooled: &mut [f32], row: &[f32], inv: f32) {
    for (o, &v) in pooled.iter_mut().zip(row) {
        *o += v * inv;
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
            let ((pa, ka), (pb, kb)) = (key_of(2, 7, &a.entries), key_of(2, 7, &b.entries));
            let mut table = MemoTable::default();
            table.insert(pa, &ka, &[7.0]);
            assert_eq!(looked_up(&mut table, pa, &ka, 1), Some(vec![7.0]));
            assert_eq!(looked_up(&mut table, pb, &kb, 1), None);
            // Even on a full hash collision the key decides.
            let forged = Probe {
                hash: pa.hash,
                ..pb
            };
            assert_eq!(looked_up(&mut table, forged, &kb, 1), None);
        }
        // The same entries in another module are another element, in every
        // key form: pairs, indices, bitset.
        let bitmap = |value: f32| -> Vec<(u32, f32)> { (0..40).map(|i| (i, value)).collect() };
        for entries in [one_entry(1.0).entries, one_entry(0.25).entries, bitmap(1.0)] {
            let mut table = MemoTable::default();
            let (own, key) = key_of(0, 40, &entries);
            table.insert(own, &key, &[7.0]);
            for module in [1, 2] {
                let (other, other_key) = key_of(module, 40, &entries);
                assert_eq!(other_key, key);
                assert_eq!(looked_up(&mut table, other, &key, 1), None);
                let forged = Probe {
                    hash: own.hash,
                    ..other
                };
                assert_eq!(looked_up(&mut table, forged, &key, 1), None);
            }
        }
        // Keys of one module whose words agree but whose forms differ are
        // other elements: the indices `[3]` and the bitset `{0, 1}` are
        // both the word 3 at width 32; the pairs of `[(3, 1.5)]` are the
        // indices `[3, 1.5 bits]`. Indices out of order sum in another
        // order, so they are never the bitset of the same set.
        let forms = [
            vec![(3, 1.0)],
            vec![(0, 1.0), (1, 1.0)],
            vec![(3, 1.5)],
            vec![(3, 1.0), (1.5f32.to_bits(), 1.0)],
            vec![(1, 1.0), (0, 1.0)],
        ];
        let keys: Vec<(Probe, Vec<u32>)> = forms.iter().map(|e| key_of(0, 32, e)).collect();
        assert_eq!((keys[0].1.clone(), keys[1].1.clone()), (vec![3], vec![3]));
        assert_eq!(keys[2].1, keys[3].1);
        for (n, (probe, key)) in keys.iter().enumerate() {
            let mut table = MemoTable::default();
            table.insert(*probe, key, &[7.0]);
            for (m, (other, other_key)) in keys.iter().enumerate() {
                let forged = Probe {
                    hash: probe.hash,
                    ..*other
                };
                let hit = looked_up(&mut table, forged, other_key, 1).is_some();
                assert_eq!(hit, n == m, "form {n} against form {m}");
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
        let five: Vec<(Probe, Vec<u32>)> = (0u32..)
            .find_map(|i| {
                let (probe, key) = key_of(0, 64, &[(i, 1.0)]);
                let members = &mut by_set[probe.set().start / MEMO_WAYS];
                members.push((probe, key));
                (members.len() == MEMO_WAYS + 1).then(|| members.clone())
            })
            .expect("pigeonhole");
        let value = |n: usize| vec![n as f32];
        let mut table = MemoTable::default();
        let get = |table: &mut MemoTable, n: usize| {
            let (probe, key) = &five[n];
            looked_up(table, *probe, key, 1)
        };
        // 1 comes twice, as from a batch that carries it twice: the set
        // holds it once, so 0 keeps its way.
        for n in [0, 1, 1, 2, 3] {
            let (probe, key) = &five[n];
            table.insert(*probe, key, &value(n));
        }
        assert_eq!(table.entries, MEMO_WAYS);
        for n in 0..4 {
            assert_eq!(get(&mut table, n), Some(value(n)), "way {n}");
        }
        // Looked up 0 to 3, so 0 is the least recent until a hit promotes
        // it, which leaves 1 to make room for the fifth.
        assert!(get(&mut table, 0).is_some());
        table.insert(five[4].0, &five[4].1, &value(4));
        assert_eq!(table.entries, MEMO_WAYS, "an eviction frees no slot");
        assert_eq!(get(&mut table, 1), None);
        for n in [0, 2, 3, 4] {
            assert_eq!(get(&mut table, n), Some(value(n)), "element {n}");
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
    fn a_cleared_memo_starts_over_and_answers_the_same_bits() {
        let mut m = tiny_model();
        let stream = repeating_stream(50);
        let warm: Vec<u32> = stream.iter().map(|q| forward(&m, q)).collect();
        assert!(m.memo_stats().hits > 0);
        m.clear_memo();
        assert_eq!(m.memo_stats(), MemoStats::default());
        let cold: Vec<u32> = stream.iter().map(|q| forward(&m, q)).collect();
        assert_eq!(cold, warm);
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
        // dense 700-float embeddings: 4 096 such slots would be ≈ 16 MB.
        let mut table = MemoTable::default();
        let value = vec![0.5f32; 700];
        let mut row = vec![0.0f32; 700];
        let (mut refused, mut peak) = (0, 0);
        for n in 0..100_000u32 {
            let len = next() as usize % 600;
            let v = if n % 2 == 0 { 1.0 } else { 0.75 };
            let mut entries: Vec<(u32, f32)> = (0..len as u32).map(|i| (i, v)).collect();
            entries.push((1_000_000 + n, v));
            let (probe, key) = key_of(n as usize % 3, 2_000_000, &entries);
            let width = 1 + next() as usize % 700;
            table.insert(probe, &key, &value[..width]);
            refused += usize::from(!table.get(probe, &key, &mut row[..width]));
            assert!(table.bytes <= MEMO_MAX_BYTES, "after {n} inserts");
            peak = peak.max(table.bytes);
        }
        let held: usize = table.slots.iter().map(|s| s.words.capacity() * 4).sum();
        assert_eq!(
            table.bytes,
            held + MEMO_SLOTS * std::mem::size_of::<MemoSlot>(),
            "the running total is what the slots hold"
        );
        let occupied = table.slots.iter().filter(|s| !s.words.is_empty()).count();
        assert_eq!(table.entries, occupied, "the count is what the slots hold");
        assert!(
            refused > 0 && peak > MEMO_MAX_BYTES * 9 / 10,
            "the bound was reached"
        );
    }

    /// Embeddings of hidden 256 after a ReLU, about half zeros, through
    /// their two module layers: bitmap-like table elements (a one-hot and a
    /// random half of a 256-bit sample bitmap) and predicate-like ones (a
    /// column and an operator one-hot and a literal). Of 3 200 distinct
    /// elements no more than four name any one set, so a memo that held
    /// its slots in its bytes computes each once over two passes.
    #[test]
    fn a_working_set_of_thousands_of_wide_elements_is_computed_once() {
        let h = 256;
        let m = FrozenModel::new(
            FrozenLinear::from_linear(&linear(6 + 256, h, 11)),
            FrozenLinear::from_linear(&linear(h, h, 12)),
            FrozenLinear::from_linear(&linear(4, h, 13)),
            FrozenLinear::from_linear(&linear(h, h, 14)),
            FrozenLinear::from_linear(&linear(12, h, 15)),
            FrozenLinear::from_linear(&linear(h, h, 16)),
            FrozenLinear::from_linear(&linear(3 * h, h, 17)),
            FrozenLinear::from_linear(&linear(h, 1, 18)),
        );
        let mut s = 0xE1E7u64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as u32
        };
        let mut per_set = vec![0; MEMO_SLOTS / MEMO_WAYS];
        let mut seen = std::collections::HashSet::new();
        let (mut tables, mut preds) = (IndexSet::default(), IndexSet::default());
        for _ in 0..20_000 {
            if seen.len() == 3_200 {
                break;
            }
            let mut entries = Vec::new();
            let (module, width) = if next() % 3 == 0 {
                entries.extend([(next() % 8, 1.0), (8 + next() % 3, 1.0)]);
                entries.push((11, (next() % 1000) as f32 / 1000.0));
                (2, 12)
            } else {
                entries.push((next() % 6, 1.0));
                entries.extend((0..256).filter(|_| next() % 2 == 0).map(|i| (6 + i, 1.0)));
                (0, 6 + 256)
            };
            let (probe, key) = key_of(module, width, &entries);
            let ways = &mut per_set[probe.set().start / MEMO_WAYS];
            if *ways < MEMO_WAYS && seen.insert((probe.tag, key)) {
                *ways += 1;
                let set = if module == 0 { &mut tables } else { &mut preds };
                let e = set.begin_elem();
                set.entries.extend_from_slice(&entries);
                set.finish_elem(e);
            }
        }
        let elements = seen.len() as u64;
        assert_eq!(elements, 3_200, "the sets have room for 3 200");
        let empty = IndexSet::default();
        let mut scratch = FrozenScratch::new();
        let mut answers = Vec::new();
        for _ in 0..2 {
            let counts = [[tables.elems.len() as u32, 0, preds.elems.len() as u32]];
            let mut y = [0.0f32];
            m.forward_batch(&tables, &empty, &preds, &counts, &mut scratch, &mut y);
            answers.push(y[0].to_bits());
        }
        assert_eq!(answers[0], answers[1]);
        let stats = m.memo_stats();
        assert_eq!(
            (stats.misses, stats.hits),
            (elements, elements),
            "{stats:?}"
        );
        assert_eq!(stats.entries, elements);
        assert!(stats.resident_bytes <= MEMO_MAX_BYTES as u64, "{stats:?}");
    }

    #[test]
    fn an_embedding_stored_sparse_pools_to_the_bits_of_the_dense_row() {
        // Exact zeros of both signs, a subnormal, and widths that end
        // inside, at and past a mask word.
        let tiny = f32::from_bits(1);
        for h in [1usize, 31, 32, 33, 256] {
            let dense: Vec<f32> = (0..h)
                .map(|j| match j % 5 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => tiny,
                    _ => j as f32 * 0.37,
                })
                .collect();
            let (probe, key) = key_of(0, 4, &[(1, 1.0)]);
            let mut table = MemoTable::default();
            table.insert(probe, &key, &dense);
            let stored = looked_up(&mut table, probe, &key, h).expect("held");
            let nonzeros = dense.iter().filter(|&&v| v != 0.0).count();
            assert_eq!(
                table.slots[probe.set().start].words.len(),
                1 + h.div_ceil(32) + nonzeros
            );
            for (j, (&got, &want)) in stored.iter().zip(&dense).enumerate() {
                let want = if want == 0.0 { 0.0 } else { want };
                assert_eq!(got.to_bits(), want.to_bits(), "h {h} lane {j}");
            }
            // Pooled among other elements, from a sum that starts at +0.0,
            // the stored row and the dense one give the same bits.
            let other: Vec<f32> = (0..h).map(|j| (j % 3) as f32 * 0.5).collect();
            let pool = |row: &[f32]| {
                let mut pooled = vec![0.0f32; h];
                for r in [row, &other[..], row] {
                    pool_into(&mut pooled, r, 1.0 / 3.0);
                }
                pooled.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(pool(&stored), pool(&dense), "h {h}");
        }
    }

    #[test]
    fn the_avx512_codec_stores_and_loads_what_the_portable_one_does() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            // Zeros of both signs, and NaN, a subnormal and infinity among
            // the non-zeros, at four shares of non-zero lanes.
            let odd = [f32::NAN, f32::from_bits(1), -1.5, f32::INFINITY];
            let mut s = 0xC0DEu64;
            for h in [1usize, 15, 16, 17, 31, 32, 33, 250, 256, 257] {
                for quarters in [0, 1, 2, 4] {
                    let value: Vec<f32> = (0..h)
                        .map(|j| {
                            s = s
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            let r = (s >> 33) as usize;
                            if r % 4 >= quarters {
                                [0.0, -0.0][r / 4 % 2]
                            } else if (r / 8).is_multiple_of(7) {
                                odd[r / 8 % 4]
                            } else {
                                j as f32 + 0.25
                            }
                        })
                        .collect();
                    let nonzeros = value.iter().filter(|&&v| v != 0.0).count();
                    let mask_words = h.div_ceil(32);
                    let (mut fast, mut slow) = (
                        vec![0u32; mask_words + nonzeros],
                        vec![0u32; mask_words + nonzeros],
                    );
                    let (fm, fv) = fast.split_at_mut(mask_words);
                    // SAFETY: AVX-512F support was just verified at runtime.
                    unsafe { x86::compress(&value, fm, fv) };
                    let (sm, sv) = slow.split_at_mut(mask_words);
                    compress_portable(&value, sm, sv);
                    assert_eq!(fast, slow, "compress h {h} quarters {quarters}");
                    let (mut fast_row, mut slow_row) = (vec![f32::NAN; h], vec![f32::NAN; h]);
                    let (mask, values) = slow.split_at(mask_words);
                    // SAFETY: as above.
                    unsafe { x86::expand(mask, values, &mut fast_row) };
                    expand_portable(mask, values, &mut slow_row);
                    let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&fast_row),
                        bits(&slow_row),
                        "expand h {h} quarters {quarters}"
                    );
                }
            }
            return;
        }
        println!("this CPU has no AVX-512F: only the portable codec runs");
    }

    /// An element's probe and key, as a forward pass makes them.
    fn key_of(module: usize, width: usize, entries: &[(u32, f32)]) -> (Probe, Vec<u32>) {
        let mut key = Vec::new();
        let probe = Probe::of(module, width, entries, &mut key);
        (probe, key)
    }

    /// The `width`-float embedding the table holds for the element, if any.
    fn looked_up(
        table: &mut MemoTable,
        probe: Probe,
        key: &[u32],
        width: usize,
    ) -> Option<Vec<f32>> {
        let mut row = vec![f32::NAN; width];
        table.get(probe, key, &mut row).then_some(row)
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
    fn the_weights_decode_to_the_artifact_that_encoded_them() {
        let m = tiny_model();
        let mut e = Encoder::new();
        m.encode(&mut e);
        let bytes = e.finish();
        let back = FrozenModel::decode(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.num_params(), m.num_params());
        let mut again = Encoder::new();
        back.encode(&mut again);
        assert_eq!(again.finish(), bytes);
        assert!(FrozenModel::decode(&mut Decoder::new(b"not a model")).is_err());
    }

    /// Layers a model could not have — one off the wiring, a hidden width
    /// word they do not have, no hidden width at all — decode to a typed
    /// error, never to [`FrozenModel::new`]'s panic.
    #[test]
    fn weights_off_the_mscn_wiring_are_corrupt() {
        let blob = |hidden: u64, shapes: [(usize, usize); 8]| {
            let mut e = Encoder::new();
            e.header(MAGIC, VERSION);
            e.u64(hidden);
            for (i, (rows, cols)) in shapes.into_iter().enumerate() {
                e.linear(&FrozenLinear::from_linear(&linear(rows, cols, i as u64)));
            }
            e.finish()
        };
        let wired = |t2_out| {
            [
                (5, 4),
                (4, t2_out),
                (3, 4),
                (4, 4),
                (6, 4),
                (4, 4),
                (12, 4),
                (4, 1),
            ]
        };
        let decode = |bytes: Vec<u8>| FrozenModel::decode(&mut Decoder::new(&bytes));
        assert!(decode(blob(4, wired(4))).is_ok());
        let zero = [
            (5, 0),
            (0, 0),
            (3, 0),
            (0, 0),
            (6, 0),
            (0, 0),
            (0, 0),
            (0, 1),
        ];
        for bad in [blob(4, wired(5)), blob(5, wired(4)), blob(0, zero)] {
            assert!(matches!(decode(bad), Err(DecodeError::Corrupt(_))));
        }
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
