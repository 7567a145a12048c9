//! Frozen serving-only inference artifacts.
//!
//! Training wants transposable layers beside their gradients and optimizer
//! state; serving wants the opposite: immutable weights in exactly the
//! layout the forward pass reads and nothing else. A [`FrozenModel`] is
//! that artifact: the eight MSCN layers copied once from the trained model
//! into a flat, line-aligned row-major `f32` layout, driven by one fused
//! featurize-and-forward entry point,
//! [`FrozenModel::forward_batch`], that serves every batch size (a single
//! query is a batch of one). It consumes
//! join and predicate elements as sparse *(index, value)* lists directly —
//! the one-hot input layer is a gather over weight rows, and the sparse
//! feature tensor is never materialized — and table elements, which are
//! all ones, as bitsets ([`BitRows`]).
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
//! element compared bit for bit in the one form its module takes; value,
//! the `hidden` floats after the module's second ReLU, stored sparse (a
//! mask of the non-zero lanes and those floats). A forward pass looks its
//! elements up, runs the two layers over the missing ones only, and pools;
//! a stored row pools to the bits of the dense one, because the zeros it
//! drops add nothing to a pooled sum.
//!
//! A table element — the table's one-hot bit and its sample bitmap — is
//! keyed by its bitset's words: on the benchmark's stream ≈ 146 set bits
//! in 9 words. Only an element the memo misses is expanded into
//! `(index, 1.0)` entries for the kernel, and ≈ 92 % of the stream's
//! elements hit. A join or predicate element is keyed by its
//! `(index, value bits)` pairs. The memo is part of the artifact's
//! *identity-free* state: built empty by [`FrozenModel::new`] and
//! `clone`, ignored by `==`, never serialized — so a re-freeze, a load or
//! a hot-swap starts from an empty memo and there is nothing to
//! invalidate. It is one log in a ring of [`MEMO_MAX_BYTES`], index
//! included, allocated whole on the first insert: any element may sit
//! anywhere, a newcomer is appended and the oldest entries leave to make
//! its room, and a hit moves nothing. A miss therefore never calls the
//! allocator and an eviction frees nothing. On the benchmark's stream an
//! element takes ≈ 0.5 KB (≈ 1.8 KB dense), and the ring holds ≈ 8 000 of
//! them.
//!
//! Outside training the artifact is the only holder of a model's weights:
//! [`FrozenModel::encode`] writes them and [`FrozenModel::decode`] reads
//! them straight back into serving layout, and a caller that wants to
//! train on from them thaws a training-layout copy
//! ([`FrozenLinear::thaw`]).
//!
//! ## One copy of the output layer per core
//!
//! Every estimate streams the output MLP's first layer (`3·hidden ×
//! hidden`, 768 KiB at hidden 256), and two cores streaming one block
//! read it slower than each streaming its own (E52). So the artifact
//! keeps, beside those *home* weights, up to one copy of them per CPU the
//! process may use: a forward pass asks the OS which CPU it runs on
//! (`sched_getcpu` on Linux; elsewhere it reads the home weights), and the
//! first pass on a CPU claims a slot for it, copying the weights there
//! from that CPU. The first CPU to claim a slot reads the home weights, so
//! with `available_parallelism()` slots there are at most that many
//! copies, home included, and at most `(cores − 1) × 3·hidden·hidden × 4`
//! bytes beside the weights. A CPU that finds every slot claimed by
//! others reads the home weights too. A copy holds the home weights' bits,
//! so which one a pass reads changes no output bit. Like the memo, the
//! copies are identity-free: built empty by [`FrozenModel::new`] and
//! `clone`, ignored by `==`, never serialized.
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

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::linear::Linear;
use crate::ops::sigmoid_scalar;
use crate::serialize::{DecodeError, Decoder, Encoder};
use crate::sparse::{self, set_bits, Finish, Kernel};
use crate::tensor::Tensor;

pub use crate::sparse::{BitRows, IndexSet};

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
        let w = l.weights().data().iter().copied();
        Self::from_parts(l.in_dim(), l.out_dim(), w, l.bias().to_vec())
    }

    /// A layer from its row-major `in_dim × out_dim` weights, written
    /// straight into their line-aligned storage as `w` yields them, and its
    /// bias. [`crate::serialize::Decoder::linear`] passes the floats it
    /// decodes, so a loaded layer is never held anywhere else.
    ///
    /// # Panics
    /// Panics when `w` yields another number of weights or `b` is not
    /// `out_dim` long.
    pub(crate) fn from_parts(
        in_dim: usize,
        out_dim: usize,
        w: impl IntoIterator<Item = f32>,
        b: Vec<f32>,
    ) -> Self {
        assert_eq!(b.len(), out_dim, "one bias per output");
        Self {
            in_dim,
            out_dim,
            w: LineAligned::collect(in_dim * out_dim, w),
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
        self.forward_rows_reading(&self.w, rows, relu, y);
    }

    /// [`FrozenLinear::forward_rows`] reading the weights from `w`, a copy
    /// of this layer's.
    fn forward_rows_reading(&self, w: &[f32], rows: &IndexSet, relu: bool, y: &mut [f32]) {
        debug_assert_eq!(w.len(), self.w.len(), "a copy of this layer's weights");
        let finish = Finish::Bias {
            bias: &self.b,
            relu,
        };
        sparse::sparse_rows(w, self.out_dim, rows.rows(), finish, y);
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
    /// The `len` floats `values` yields, in order.
    ///
    /// # Panics
    /// Panics when `values` yields another number of floats. Its callers
    /// cannot: [`FrozenLinear::from_linear`] passes a tensor of the
    /// layer's shape, and [`crate::serialize::Decoder::linear`] the floats
    /// of exactly the bytes that shape takes.
    fn collect(len: usize, values: impl IntoIterator<Item = f32>) -> Self {
        let mut lines = vec![Line([0.0; 16]); len.div_ceil(16)];
        let mut values = values.into_iter();
        let slots = lines.iter_mut().flat_map(|line| &mut line.0).take(len);
        let mut filled = 0;
        for (slot, v) in slots.zip(values.by_ref()) {
            *slot = v;
            filled += 1;
        }
        assert!(
            filled == len && values.next().is_none(),
            "{len} values, as many as the shape holds"
        );
        Self { lines, len }
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

/// The bytes of an artifact's element memo: its index and its ring of
/// entries together, allocated whole on the first insert. The memo's only
/// bound — an element is evicted when the entries after it need its room,
/// never because of where its hash points.
pub const MEMO_MAX_BYTES: usize = 4 << 20;

/// Counters of an artifact's element memo, read without its lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Set elements whose embedding the memo held.
    pub hits: u64,
    /// Set elements run through their module's two layers.
    pub misses: u64,
    /// Elements the memo holds now.
    pub entries: u64,
    /// Bytes the memo holds, at most [`MEMO_MAX_BYTES`].
    pub resident_bytes: u64,
    /// Times a pass found the memo's lock held (or poisoned) and went on
    /// without it: a lookup pass that then computed every element of all
    /// three sets and inserted none, or an insert it skipped.
    pub contended: u64,
}

/// What the memo finds an element by and what must match there; its key
/// words sit in the caller's buffer.
#[derive(Debug, Clone, Copy)]
struct Probe {
    hash: u64,
    /// The module the element belongs to.
    tag: u32,
}

impl Probe {
    /// Appends the key of one join or predicate element of module `module`
    /// to `key`, and hashes it: its entries as `(index, value bits)` pairs,
    /// so two keys of one module are one element exactly when their words
    /// are equal.
    ///
    /// Not keyed: of elements crafted to share a hash only the first is
    /// stored and the rest are computed every time, which costs what the
    /// memo-less forward cost.
    fn of(module: usize, entries: &[(u32, f32)], key: &mut Vec<u32>) -> Self {
        let start = key.len();
        key.extend(entries.iter().flat_map(|&(i, v)| [i, v.to_bits()]));
        Self::hashed(module, &key[start..])
    }

    /// [`Probe::of`] a table element given as its bitset `words` over the
    /// module's input width: the words are its key. Every table in one
    /// artifact has the same width, so two keys are one element exactly
    /// when their words are equal.
    fn of_bits(module: usize, words: &[u32], key: &mut Vec<u32>) -> Self {
        let start = key.len();
        key.extend_from_slice(words);
        Self::hashed(module, &key[start..])
    }

    /// The probe of a key of module `module`.
    fn hashed(module: usize, words: &[u32]) -> Self {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let tag = module as u32;
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
}

/// Writes `value` sparse into `words`, which are `value.len().div_ceil(32)`
/// mask words and then one word per non-zero float: the mask, a bit per
/// float that is not zero, and those floats' bits in order — about 108 of
/// 256 after the module's ReLU on the benchmark's stream. On AVX-512 a
/// 16-lane compare and `vcompressps` per vector; a lane at a time elsewhere.
fn store_sparse(value: &[f32], words: &mut [u32]) {
    let (mask, values) = words.split_at_mut(value.len().div_ceil(32));
    // The codecs set mask bits over what the words held before.
    mask.fill(0);
    #[cfg(target_arch = "x86_64")]
    if Kernel::Avx512.is_available() {
        // SAFETY: AVX-512F and POPCNT support was just verified at runtime.
        return unsafe { x86::compress(value, mask, values) };
    }
    compress_portable(value, mask, values);
}

/// Writes the embedding [`store_sparse`] stored into `row`, `+0.0` where it
/// was zero. Pooling adds `v · inv` to a sum that starts at `+0.0` and only
/// ever holds ReLU outputs, so a `-0.0` it turned into `+0.0` pools to the
/// same bits. On AVX-512 one `vexpandps` per vector; a lane at a time on
/// every other kernel.
fn load_sparse(kernel: Kernel, stored: &[u32], row: &mut [f32]) {
    let (mask, values) = stored.split_at(row.len().div_ceil(32));
    match kernel {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX-512F and POPCNT support is verified at runtime by
        // the guard.
        Kernel::Avx512 if kernel.is_available() => unsafe { x86::expand(mask, values, row) },
        _ => expand_portable(mask, values, row),
    }
}

/// [`store_sparse`]'s mask bits and non-zeros, a lane at a time: the oracle
/// of the AVX-512 codec. `mask` starts zeroed and `values` has one word per
/// non-zero.
fn compress_portable(value: &[f32], mask: &mut [u32], values: &mut [u32]) {
    let nonzeros = value.iter().enumerate().filter(|&(_, &v)| v != 0.0);
    for (j, _) in nonzeros.clone() {
        mask[j / 32] |= 1 << (j % 32);
    }
    for (word, (_, v)) in values.iter_mut().zip(nonzeros) {
        *word = v.to_bits();
    }
}

/// [`load_sparse`] a set mask bit at a time: the oracle of the AVX-512
/// codec.
fn expand_portable(mask: &[u32], values: &[u32], row: &mut [f32]) {
    row.fill(0.0);
    for (j, &v) in set_bits(mask).zip(values) {
        row[j as usize] = f32::from_bits(v);
    }
}

/// Adds one query's element embeddings, each scaled by `inv`, to its
/// pooled sum: `rows` holds them back to back, each as wide as `pooled`,
/// and lane `j` takes `relu(z2)[j] · (1/len)` of each in order, the product
/// rounded before the add (never fused), so every kernel writes the scalar
/// loop's bits. AVX-512 runs 16 lanes at a time and keeps each vector of
/// the sum in a register across the rows; every other kernel runs the
/// scalar loop, the oracle. The forward pass pools on
/// [`Kernel::dispatched`]; naming a kernel is for benchmarks and tests.
pub fn pool_into(kernel: Kernel, pooled: &mut [f32], rows: &[f32], inv: f32) {
    if pooled.is_empty() {
        return;
    }
    match kernel {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX-512F support is verified at runtime by the guard.
        Kernel::Avx512 if kernel.is_available() => unsafe { x86::pool(pooled, rows, inv) },
        _ => {
            for row in rows.chunks_exact(pooled.len()) {
                for (o, &v) in pooled.iter_mut().zip(row) {
                    *o += v * inv;
                }
            }
        }
    }
}

/// Asks the CPU to bring the cache line holding `at` close; a hint that
/// reads nothing the program sees. Nothing off x86-64.
#[inline]
fn prefetch<T>(at: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch cannot fault and changes no memory; SSE, which
    // has it, is part of x86-64.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((at as *const T).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = at;
}

/// The AVX-512 codec of a memoized embedding, 16 lanes at a time: two
/// vectors to a mask word, each vector's non-zeros moved by one compress or
/// expand; and pooling, 16 lanes at a time.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __mmask16, _mm512_add_ps, _mm512_cmp_ps_mask, _mm512_mask_compressstoreu_ps,
        _mm512_mask_storeu_ps, _mm512_maskz_expandloadu_ps, _mm512_maskz_loadu_ps, _mm512_mul_ps,
        _mm512_set1_ps, _mm512_setzero_ps, _CMP_NEQ_UQ,
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
    /// The CPU must support AVX-512F and POPCNT. Every load and store goes
    /// through a bounds-checked slice of exactly the lanes it touches: the
    /// chunk a masked load reads, the words a compress writes.
    #[target_feature(enable = "avx512f,popcnt")]
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
    /// The CPU must support AVX-512F and POPCNT. Every load and store goes
    /// through a bounds-checked slice of exactly the lanes it touches: the
    /// words an expand reads, the chunk of `row` a masked store writes.
    #[target_feature(enable = "avx512f,popcnt")]
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

    /// [`super::pool_into`], 16 lanes at a time: each vector of the sum
    /// is loaded once, takes every row's lanes in row order, a separate
    /// multiply and add each, and is stored once.
    ///
    /// # Safety
    /// The CPU must support AVX-512F. Every load and store goes through a
    /// bounds-checked slice of exactly the lanes its mask holds.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn pool(pooled: &mut [f32], rows: &[f32], inv: f32) {
        let width = pooled.len();
        let inv = _mm512_set1_ps(inv);
        for c in (0..width).step_by(16) {
            let m = lanes((width - c).min(16));
            let sum = &mut pooled[c..(c + 16).min(width)];
            let mut acc = _mm512_maskz_loadu_ps(m, sum.as_ptr());
            for row in rows.chunks_exact(width) {
                let v = _mm512_maskz_loadu_ps(m, row[c..c + sum.len()].as_ptr());
                acc = _mm512_add_ps(acc, _mm512_mul_ps(v, inv));
            }
            _mm512_mask_storeu_ps(sum.as_mut_ptr(), m, acc);
        }
    }
}

/// Words before an entry's key in the ring: the hash's low and high
/// halves, `tag << 24 | key_len`, and the entry's length in words.
const ENTRY_HEADER: usize = 4;

/// One slot of the memo's index: an element's place in the ring, found by
/// the high half of its hash, whose low bits are also where its probe run
/// starts.
#[derive(Debug, Clone, Copy, Default)]
struct Indexed {
    check: u32,
    /// One past the ring offset of the element's entry; 0 while vacant.
    at: u32,
}

/// The memo behind the lock: one log of entries in a ring, oldest at
/// `tail`, newest ending at `head`, and an open-addressed index over them.
/// Each entry is `[hash lo, hash hi, tag << 24 | key_len, len, key…,
/// mask…, non-zeros…]` — the key (see [`Probe::of`]) and the embedding
/// [`store_sparse`] writes. A newcomer is appended at `head` after the
/// oldest entries have left to make room; one that does not fit before the
/// ring's end leaves the words there unused and starts the ring over. A
/// hit moves nothing. Ring and index are allocated on the first insert,
/// [`MEMO_MAX_BYTES`] together, and never again.
#[derive(Debug, Default)]
struct MemoTable {
    ring: Vec<u32>,
    /// Linear probing over a power of two of slots, at most three quarters
    /// of them occupied: one slot per 256 bytes of the bound, so the
    /// entries' room binds before their count does while an element takes
    /// more than ≈ 330 bytes.
    index: Vec<Indexed>,
    tail: usize,
    head: usize,
    /// While the entries run past `head` (from `tail` to here, then from
    /// the ring's start to `head`), where those before the ring's end stop.
    wrapped_at: Option<usize>,
    /// The index's bytes and the ring words entries occupy.
    bytes: usize,
    entries: usize,
}

impl MemoTable {
    /// Writes the element's embedding into `row` with `kernel`'s codec if
    /// the memo holds it; returns whether it did.
    fn get(&self, kernel: Kernel, probe: Probe, key: &[u32], row: &mut [f32]) -> bool {
        let Ok(at) = self.find(probe) else {
            return false;
        };
        let entry = &self.ring[at..at + self.ring[at + 3] as usize];
        let held = entry[2] == (probe.tag << 24 | key.len() as u32)
            && entry[ENTRY_HEADER..ENTRY_HEADER + key.len()] == *key;
        if held {
            load_sparse(kernel, &entry[ENTRY_HEADER + key.len()..], row);
        }
        held
    }

    /// The index slot where the probe's run starts; `None` before the
    /// first insert.
    fn home(&self, probe: Probe) -> Option<usize> {
        let mask = self.index.len().checked_sub(1)?;
        Some((probe.hash >> 32) as usize & mask)
    }

    /// Asks for the index slot where the probe's run starts.
    fn prefetch_slot(&self, probe: Probe) {
        if let Some(slot) = self.home(probe) {
            prefetch(&self.index[slot]);
        }
    }

    /// Asks for the first `words` of the entry the probe's home slot names,
    /// if it names one: the element's own entry when it sits in its home
    /// slot, as most do, and a wasted hint when it does not.
    fn prefetch_entry(&self, probe: Probe, words: usize) {
        let Some(slot) = self.home(probe) else {
            return;
        };
        let Some(at) = (self.index[slot].at as usize).checked_sub(1) else {
            return;
        };
        let end = (at + words).min(self.ring.len());
        for w in (at..end).step_by(16).chain(end.checked_sub(1)) {
            prefetch(&self.ring[w]);
        }
    }

    /// Appends the element at the head, the oldest entries leaving until
    /// it fits. An element whose hash the memo has indexed already — the
    /// same element from a batch that carried it twice, or an unequal one
    /// — is not stored, nor is one larger than the ring.
    fn insert(&mut self, probe: Probe, key: &[u32], value: &[f32]) {
        if self.index.is_empty() {
            let slots = MEMO_MAX_BYTES / 256;
            let index_bytes = slots * std::mem::size_of::<Indexed>();
            self.index = vec![Indexed::default(); slots];
            self.ring = vec![0; (MEMO_MAX_BYTES - index_bytes) / 4];
            self.bytes = index_bytes;
        }
        if self.find(probe).is_ok() {
            return;
        }
        let nonzeros = value.iter().filter(|&&v| v != 0.0).count();
        let len = ENTRY_HEADER + key.len() + value.len().div_ceil(32) + nonzeros;
        if len > self.ring.len() {
            return;
        }
        self.make_room(len);
        // An eviction indexes nothing, so the element is still absent;
        // were it found, it would be held and there would be nothing to do.
        let Err(slot) = self.find(probe) else {
            return;
        };
        let at = self.head;
        self.index[slot] = Indexed {
            check: (probe.hash >> 32) as u32,
            at: at as u32 + 1,
        };
        let entry = &mut self.ring[at..at + len];
        entry[..ENTRY_HEADER].copy_from_slice(&[
            probe.hash as u32,
            (probe.hash >> 32) as u32,
            probe.tag << 24 | key.len() as u32,
            len as u32,
        ]);
        let (stored_key, stored_value) = entry[ENTRY_HEADER..].split_at_mut(key.len());
        stored_key.copy_from_slice(key);
        store_sparse(value, stored_value);
        self.head += len;
        self.entries += 1;
        self.bytes += len * 4;
    }

    /// Evicts the oldest entries until `len` words fit at `head` and the
    /// index has a slot to spare, starting the ring over when they do not
    /// fit before its end.
    fn make_room(&mut self, len: usize) {
        loop {
            if self.entries == 0 {
                (self.tail, self.head, self.wrapped_at) = (0, 0, None);
            }
            let free_to = self.wrapped_at.map_or(self.ring.len(), |_| self.tail);
            if self.head + len <= free_to && self.entries < self.index.len() / 4 * 3 {
                return;
            }
            if self.wrapped_at.is_none() && self.head + len > self.ring.len() {
                self.wrapped_at = Some(self.head);
                self.head = 0;
            } else {
                self.evict_oldest();
            }
        }
    }

    /// Drops the entry at `tail` from the index and the ring.
    fn evict_oldest(&mut self) {
        let at = self.tail;
        let len = self.ring[at + 3] as usize;
        let mask = self.index.len() - 1;
        let mut slot = self.ring[at + 1] as usize & mask;
        while self.index[slot].at as usize != at + 1 {
            slot = (slot + 1) & mask;
        }
        // Backward-shift deletion: each later slot of the run that may sit
        // in the hole (its run starts at or before the hole) moves into it.
        let mut hole = slot;
        loop {
            slot = (slot + 1) & mask;
            let next = self.index[slot];
            if next.at == 0 {
                break;
            }
            let start = next.check as usize & mask;
            if slot.wrapping_sub(start) & mask >= slot.wrapping_sub(hole) & mask {
                self.index[hole] = next;
                hole = slot;
            }
        }
        self.index[hole] = Indexed::default();
        self.tail += len;
        if self.wrapped_at == Some(self.tail) {
            (self.tail, self.wrapped_at) = (0, None);
        }
        self.entries -= 1;
        self.bytes -= len * 4;
    }

    /// `Ok` with the ring offset of the entry whose hash is the probe's, or
    /// `Err` with the index slot it would take.
    fn find(&self, probe: Probe) -> Result<usize, usize> {
        if self.index.is_empty() {
            return Err(0);
        }
        let mask = self.index.len() - 1;
        let check = (probe.hash >> 32) as u32;
        let mut slot = check as usize & mask;
        loop {
            let Indexed { check: held, at } = self.index[slot];
            if at == 0 {
                return Err(slot);
            }
            let at = at as usize - 1;
            if held == check && self.ring[at] == probe.hash as u32 {
                return Ok(at);
            }
            slot = (slot + 1) & mask;
        }
    }
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
    contended: AtomicU64,
}

impl ElementMemo {
    /// The table, unless another pass holds its lock or one died holding
    /// it; that is counted as contended.
    fn try_table(&self) -> Option<MutexGuard<'_, MemoTable>> {
        let table = self.table.try_lock().ok();
        if table.is_none() {
            self.contended.fetch_add(1, Ordering::Relaxed);
        }
        table
    }
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

/// The per-CPU copies of one layer's weights (see the module docs): slots
/// made on first use, one per CPU the process may use, each claimed by
/// the first CPU that probes it. Not part of the artifact's identity — a
/// clone starts with none and `==` ignores them.
#[derive(Default)]
struct CoreCopies {
    slots: OnceLock<Box<[OnceLock<CoreCopy>]>>,
    /// Whether a CPU reads the home weights through a slot already.
    home_claimed: AtomicBool,
}

/// A slot's CPU and what it reads: its own copy, or the home weights.
struct CoreCopy {
    cpu: usize,
    weights: Option<LineAligned>,
}

impl CoreCopies {
    /// `cores` empty slots.
    #[cfg(test)]
    fn with_slots(cores: usize) -> Self {
        let copies = Self::default();
        copies.slots.get_or_init(|| empty_slots(cores));
        copies
    }

    /// The weights a pass on `cpu` reads: the copy of `home` that `cpu`'s
    /// slot holds, made there on its first pass, or `home` itself — for
    /// the first CPU to claim a slot, for a CPU that finds every slot
    /// claimed by others, and when the CPU is unknown. A slot is probed
    /// from `cpu` modulo the slot count onward, so CPUs with neighbouring
    /// ids claim neighbouring slots.
    fn weights<'a>(&'a self, cpu: Option<usize>, home: &'a LineAligned) -> &'a [f32] {
        let Some(cpu) = cpu else {
            return home;
        };
        let slots = self.slots.get_or_init(|| {
            empty_slots(std::thread::available_parallelism().map_or(1, |n| n.get()))
        });
        for i in 0..slots.len() {
            let copy = slots[(cpu + i) % slots.len()].get_or_init(|| CoreCopy {
                cpu,
                // `Relaxed`: the flag guards no other data; the slot's
                // `OnceLock` publishes the copy.
                weights: self
                    .home_claimed
                    .swap(true, Ordering::Relaxed)
                    .then(|| home.clone()),
            });
            if copy.cpu == cpu {
                return copy.weights.as_ref().unwrap_or(home);
            }
        }
        home
    }

    /// How many copies the slots hold, the home weights not counted.
    fn made(&self) -> usize {
        self.slots.get().map_or(0, |slots| {
            let held = |s: &OnceLock<CoreCopy>| s.get().is_some_and(|c| c.weights.is_some());
            slots.iter().filter(|s| held(s)).count()
        })
    }
}

/// `cores` unclaimed slots.
fn empty_slots(cores: usize) -> Box<[OnceLock<CoreCopy>]> {
    (0..cores).map(|_| OnceLock::new()).collect()
}

impl Clone for CoreCopies {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for CoreCopies {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for CoreCopies {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CoreCopies({} made)", self.made())
    }
}

/// The CPU the calling thread runs on now, as the OS numbers it.
#[cfg(target_os = "linux")]
fn current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> std::os::raw::c_int;
    }
    // SAFETY: `sched_getcpu` takes no arguments and touches no memory of
    // ours; it returns the CPU's number, or -1 when it cannot tell.
    usize::try_from(unsafe { sched_getcpu() }).ok()
}

/// The CPU the calling thread runs on now: unknown off Linux, where every
/// pass reads the home weights.
#[cfg(not(target_os = "linux"))]
fn current_cpu() -> Option<usize> {
    None
}

/// Reusable buffers of the fused forward pass. One scratch per thread
/// keeps the hot path allocation-free; buffers grow to the largest batch
/// seen and are then reused.
#[derive(Debug, Default, Clone)]
pub struct FrozenScratch {
    /// Element embeddings of the three sets, back to back, `elements ×
    /// hidden`; then the output MLP's hidden layer.
    act: Vec<f32>,
    /// Memo probe of every element of the three sets, in row order, and
    /// where its key sits in `keys`.
    probes: Vec<(Probe, std::ops::Range<usize>)>,
    /// The elements' memo keys, back to back.
    keys: Vec<u32>,
    /// The rows of `act` the memo did not fill, ascending.
    missing: Vec<u32>,
    /// One module's missing elements as entries — the rows its two layers
    /// run over.
    expanded: IndexSet,
    /// One module's missing elements' embeddings, `missing × hidden`.
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

    /// What the last [`FrozenModel::forward_batch`] pooled, `batch ×
    /// 3·hidden`: the dense rows its output MLP compressed first.
    pub fn pooled(&self) -> &[f32] {
        &self.pooled
    }

    /// The last [`FrozenModel::forward_batch`]'s output-MLP hidden rows,
    /// `batch × hidden`: the dense rows it compressed last.
    pub fn hidden_rows(&self) -> &[f32] {
        &self.act[..self.pooled.len() / 3]
    }
}

/// One module's set elements as the fused forward takes them: a table
/// element as its bitset over the module's input width, a join or
/// predicate element as its `(index, value)` entries.
#[derive(Debug, Clone, Copy)]
enum Elements<'a> {
    Entries(&'a IndexSet),
    Bits(&'a BitRows),
}

impl Elements<'_> {
    fn len(self) -> usize {
        match self {
            Elements::Entries(set) => set.elems.len(),
            Elements::Bits(bits) => bits.len(),
        }
    }

    /// Element `r`'s memo probe; its key goes to the end of `key`.
    fn probe(self, r: usize, module: usize, key: &mut Vec<u32>) -> Probe {
        match self {
            Elements::Entries(set) => Probe::of(module, set.elem(r), key),
            Elements::Bits(bits) => Probe::of_bits(module, bits.elem(r), key),
        }
    }

    /// Appends element `r` to `set` as entries.
    fn expand_into(self, r: usize, set: &mut IndexSet) {
        match self {
            Elements::Entries(from) => {
                let start = set.begin_elem();
                set.entries.extend_from_slice(from.elem(r));
                set.finish_elem(start);
            }
            Elements::Bits(bits) => bits.expand_into(r, set),
        }
    }
}

/// The frozen MSCN inference artifact: three set modules (two layers
/// each), the two output layers, all in serving layout. Built once from a
/// trained model, its weights immutable afterwards; the element memo
/// fills as it serves, and each CPU it serves on gets its copy of `out1`.
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
    /// Per-CPU copies of `out1`'s weights.
    out1_copies: CoreCopies,
}

impl FrozenModel {
    /// Assembles the artifact from the eight frozen layers, checking the
    /// MSCN wiring (set modules `in → hidden → hidden`, output MLP
    /// `3·hidden → hidden → 1`).
    ///
    /// # Panics
    /// Panics when the layer shapes do not form an MSCN. Its callers
    /// cannot: freezing copies the layers of a trained MSCN, and
    /// [`FrozenModel::decode`] refuses layers off the wiring as corrupt
    /// before it gets here.
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
        let why = miswiring(h, layers);
        assert!(
            why.is_none(),
            "mis-wired frozen model: {}",
            why.as_deref().unwrap_or_default()
        );
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
            out1_copies: CoreCopies::default(),
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
            contended: self.memo.contended.load(Ordering::Relaxed),
        }
    }

    /// The fused forward over a batch of queries. Each set holds the
    /// elements of *all* queries back to back; `counts[q]` says how many
    /// elements of `[tables, joins, preds]` belong to query `q`, in
    /// order; a table element is its bitset over the table module's input
    /// width. Writes one normalized output per query (pre-denormalization,
    /// post-sigmoid, bit-identical to the training-shape forward) into
    /// `out`. One lookup pass finds what the memo holds of all three sets,
    /// each module runs its two layers once over the elements it did not
    /// hold, and the sets are pooled (see module docs); a query's output
    /// is bit-identical whatever batch it rides in and whatever the memo
    /// held.
    ///
    /// # Panics
    /// Panics when `out` and `counts` differ in length, the counts do not
    /// add up to the sets' element counts, or the table elements are not as
    /// wide as the table module's input.
    pub fn forward_batch(
        &self,
        tables: &BitRows,
        joins: &IndexSet,
        preds: &IndexSet,
        counts: &[[u32; 3]],
        scratch: &mut FrozenScratch,
        out: &mut [f32],
    ) {
        let cpu = current_cpu();
        self.forward_batch_on(cpu, tables, joins, preds, counts, scratch, out);
    }

    /// [`FrozenModel::forward_batch`] as a pass on `cpu` runs it: reading
    /// the copy of `out1` that CPU's slot holds.
    #[allow(clippy::too_many_arguments)]
    fn forward_batch_on(
        &self,
        cpu: Option<usize>,
        tables: &BitRows,
        joins: &IndexSet,
        preds: &IndexSet,
        counts: &[[u32; 3]],
        scratch: &mut FrozenScratch,
        out: &mut [f32],
    ) {
        assert_eq!(out.len(), counts.len(), "one output per query");
        let sets = self.sets(tables, joins, preds);
        for (slot, set) in sets.iter().enumerate() {
            let claimed: usize = counts.iter().map(|c| c[slot] as usize).sum();
            assert_eq!(claimed, set.len(), "per-query counts must cover the set");
        }
        let (n, h) = (counts.len(), self.hidden);
        let kernel = Kernel::dispatched(h);
        let locked = self.look_up(kernel, sets, scratch);
        let misses = self.embed_missing(sets, locked, scratch);
        let hits = (scratch.probes.len() - misses) as u64;
        self.memo.hits.fetch_add(hits, Ordering::Relaxed);
        self.memo.misses.fetch_add(misses as u64, Ordering::Relaxed);
        let FrozenScratch {
            act,
            sparse,
            pooled,
            ..
        } = scratch;
        // Mean-pool per query: `relu(z2)[j] · (1/len)` with elements
        // ascending, as `segment_mean` does row-ascending. An empty set
        // stays the zero vector, like the masked mean.
        pooled.clear();
        pooled.resize(n * 3 * h, 0.0);
        let mut first = 0;
        for slot in 0..3 {
            for (q, c) in counts.iter().enumerate() {
                let len = c[slot] as usize;
                let inv = 1.0 / len as f32;
                let at = (q * 3 + slot) * h;
                let rows = &act[first * h..(first + len) * h];
                pool_into(kernel, &mut pooled[at..at + h], rows, inv);
                first += len;
            }
        }
        // Output MLP over the concatenated pooled representations.
        let act = grown(act, n * h);
        sparse.compress_rows(pooled, 3 * h);
        let out1 = self.out1_copies.weights(cpu, &self.out1.w);
        self.out1.forward_rows_reading(out1, sparse, true, act);
        sparse.compress_rows(act, h);
        self.out2.forward_rows(sparse, false, out);
        for y in out.iter_mut() {
            *y = sigmoid_scalar(*y);
        }
    }

    /// The lookup pass of [`FrozenModel::forward_batch`] alone, its
    /// memoized rows copied with `kernel`'s codec: how many of the batch's
    /// elements the memo held. It counts no hit or miss (a lock it finds
    /// held counts as contended). Naming a kernel is for benchmarks and
    /// tests.
    ///
    /// # Panics
    /// Panics when the CPU lacks the kernel's instructions, or the table
    /// elements are not as wide as the table module's input.
    pub fn look_up_on(
        &self,
        kernel: Kernel,
        tables: &BitRows,
        joins: &IndexSet,
        preds: &IndexSet,
        scratch: &mut FrozenScratch,
    ) -> usize {
        assert!(kernel.is_available(), "this CPU cannot run {kernel:?}");
        self.look_up(kernel, self.sets(tables, joins, preds), scratch);
        scratch.probes.len() - scratch.missing.len()
    }

    /// The three sets as the modules take them, in module order.
    fn sets<'a>(
        &self,
        tables: &'a BitRows,
        joins: &'a IndexSet,
        preds: &'a IndexSet,
    ) -> [Elements<'a>; 3] {
        assert!(
            tables.is_empty() || tables.width() == self.tables1.in_dim(),
            "table elements must be the table module's width"
        );
        [
            Elements::Bits(tables),
            Elements::Entries(joins),
            Elements::Entries(preds),
        ]
    }

    /// The memo lookups of one pass: every element's probe and key, then,
    /// under one take of the memo's lock, a prefetch of every probe's index
    /// slot, then of the ring entry each slot names, and only then the
    /// copies of what the memo holds into `scratch.act`, the three sets'
    /// rows back to back. A hit's reads are then in flight together
    /// instead of one after another. `scratch.missing` gets the rows left
    /// unfilled. The lock is only ever tried: a pass that finds it held
    /// (or poisoned) counts it as contended, fills no row, and returns
    /// `false`, so that it inserts nothing either.
    fn look_up(
        &self,
        kernel: Kernel,
        sets: [Elements<'_>; 3],
        scratch: &mut FrozenScratch,
    ) -> bool {
        let h = self.hidden;
        let FrozenScratch {
            act,
            probes,
            keys,
            missing,
            ..
        } = scratch;
        keys.clear();
        probes.clear();
        missing.clear();
        for (module, set) in sets.into_iter().enumerate() {
            probes.extend((0..set.len()).map(|r| {
                let at = keys.len();
                (set.probe(r, module, keys), at..keys.len())
            }));
        }
        let act = grown(act, probes.len() * h);
        let Some(table) = self.memo.try_table() else {
            missing.extend(0..probes.len() as u32);
            return false;
        };
        for (probe, _) in probes.iter() {
            table.prefetch_slot(*probe);
        }
        // An entry's header and key, its mask and about half its lanes:
        // a ReLU output is about half zeros.
        let entry_words = ENTRY_HEADER + h.div_ceil(32) + h / 2;
        for (probe, key) in probes.iter() {
            table.prefetch_entry(*probe, entry_words + key.len());
        }
        for (r, ((probe, key), row)) in probes.iter().zip(act.chunks_exact_mut(h)).enumerate() {
            if !table.get(kernel, *probe, &keys[key.clone()], row) {
                missing.push(r as u32);
            }
        }
        true
    }

    /// The rows the lookup pass left unfilled, each module's through its
    /// two layers — gather → bias → ReLU → dense → bias → ReLU, one call of
    /// each layer — into their rows of `scratch.act`; then, when the lookup
    /// pass held the lock, all of them offered to the memo under one more
    /// take of it (skipped, and counted as contended, if it is held now).
    /// Returns how many elements were computed.
    fn embed_missing(
        &self,
        sets: [Elements<'_>; 3],
        locked: bool,
        scratch: &mut FrozenScratch,
    ) -> usize {
        let h = self.hidden;
        let FrozenScratch {
            act,
            probes,
            keys,
            missing,
            expanded,
            fresh,
            sparse,
            ..
        } = scratch;
        let layers = [
            (&self.tables1, &self.tables2),
            (&self.joins1, &self.joins2),
            (&self.preds1, &self.preds2),
        ];
        let (mut first, mut left) = (0, &missing[..]);
        for ((l1, l2), set) in layers.into_iter().zip(sets) {
            let end = first + set.len();
            let (mine, rest) = left.split_at(left.partition_point(|&r| (r as usize) < end));
            left = rest;
            if !mine.is_empty() {
                expanded.clear();
                for &r in mine {
                    set.expand_into(r as usize - first, expanded);
                }
                let fresh = grown(fresh, mine.len() * h);
                l1.forward_rows(expanded, true, fresh);
                sparse.compress_rows(fresh, h);
                l2.forward_rows(sparse, true, fresh);
                for (&r, value) in mine.iter().zip(fresh.chunks_exact(h)) {
                    act[r as usize * h..][..h].copy_from_slice(value);
                }
            }
            first = end;
        }
        if locked && !missing.is_empty() {
            if let Some(mut table) = self.memo.try_table() {
                for &r in missing.iter() {
                    let (probe, key) = &probes[r as usize];
                    let value = &act[r as usize * h..][..h];
                    table.insert(*probe, &keys[key.clone()], value);
                }
                let memo = &self.memo;
                memo.entries.store(table.entries as u64, Ordering::Relaxed);
                memo.resident_bytes
                    .store(table.bytes as u64, Ordering::Relaxed);
            }
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

/// The first `len` slots of a scratch buffer that only ever grows.
fn grown(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

#[cfg(test)]
pub(crate) mod tests {
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
            let w = LineAligned::collect(len, values.iter().copied());
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
            .map(|&[t, j, p]| forward_one(&m, t, j, p, &mut scratch))
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
        let (ts, js, ps) = (bits_of(&concat(0), 10), concat(1), concat(2));
        let counts: Vec<[u32; 3]> = queries
            .iter()
            .map(|q| q.map(|s| s.elems.len() as u32))
            .collect();
        let mut out = vec![0.0f32; queries.len()];
        m.forward_batch(&ts, &js, &ps, &counts, &mut scratch, &mut out);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out), bits(&singles));
    }

    /// `set`'s elements, all ones, as bitsets over `width` features.
    fn bits_of(set: &IndexSet, width: usize) -> BitRows {
        let mut bits = BitRows::default();
        for r in 0..set.elems.len() {
            let mut row = bits.push_clear(width);
            for &(i, v) in set.elem(r) {
                assert_eq!(v, 1.0, "a table entry is 1.0");
                row.set(i as usize);
            }
        }
        bits
    }

    /// One query, its table elements given as entries, as a batch of one.
    fn forward_one(
        m: &FrozenModel,
        tables: &IndexSet,
        joins: &IndexSet,
        preds: &IndexSet,
        scratch: &mut FrozenScratch,
    ) -> f32 {
        let tables_bits = bits_of(tables, m.tables1.in_dim());
        let counts = [[tables, joins, preds].map(|s| s.elems.len() as u32)];
        let mut y = [0.0f32];
        m.forward_batch(&tables_bits, joins, preds, &counts, scratch, &mut y);
        y[0]
    }

    pub(crate) fn tiny_model() -> FrozenModel {
        model_with_tables(10)
    }

    /// [`tiny_model`] with a table module `width` features wide.
    fn model_with_tables(width: usize) -> FrozenModel {
        let h = 6;
        FrozenModel::new(
            FrozenLinear::from_linear(&linear(width, h, 1)),
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
        forward_one(m, &q[0], &q[1], &q[2], &mut FrozenScratch::new()).to_bits()
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
        // 24 distinct elements, each computed once: the ring never fills
        // here.
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
        let (ts, js, ps) = (bits_of(&concat(0), 10), concat(1), concat(2));
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
            let ((pa, ka), (pb, kb)) = (key_of(2, &a.entries), key_of(2, &b.entries));
            let mut table = MemoTable::default();
            table.insert(pa, &ka, &[7.0]);
            assert_eq!(looked_up(&table, pa, &ka, 1), Some(vec![7.0]));
            assert_eq!(looked_up(&table, pb, &kb, 1), None);
            // Even on a full hash collision the key decides.
            let forged = Probe {
                hash: pa.hash,
                ..pb
            };
            assert_eq!(looked_up(&table, forged, &kb, 1), None);
        }
        // The same words in another module are another element, whether
        // they are a join's or a predicate's pairs or a table's bitset.
        for entries in [one_entry(1.0).entries, one_entry(0.25).entries] {
            let mut table = MemoTable::default();
            let (own, key) = key_of(1, &entries);
            table.insert(own, &key, &[7.0]);
            for module in [0, 2] {
                let (other, other_key) = if module == 0 {
                    let mut bits_key = Vec::new();
                    (Probe::of_bits(0, &key, &mut bits_key), bits_key)
                } else {
                    key_of(module, &entries)
                };
                assert_eq!(other_key, key);
                assert_eq!(looked_up(&table, other, &key, 1), None);
                let forged = Probe {
                    hash: own.hash,
                    ..other
                };
                assert_eq!(looked_up(&table, forged, &key, 1), None);
            }
        }
        // End to end: one artifact serving the near-identical elements as
        // joins and as predicates, in turn, answers like a fresh one each
        // time. A table element's values are all `1.0`.
        let warm = tiny_model();
        let empty = IndexSet::default();
        for _ in 0..2 {
            for (a, b) in &pairs {
                for set in [a, b] {
                    for q in [
                        [empty.clone(), set.clone(), empty.clone()],
                        [empty.clone(), empty.clone(), set.clone()],
                    ] {
                        assert_eq!(forward(&warm, &q), forward(&tiny_model(), &q));
                    }
                }
            }
        }
    }

    /// One element of `width` features with the bits `ones` set.
    fn bitset(width: usize, ones: &[u32]) -> BitRows {
        let mut bits = BitRows::default();
        let mut row = bits.push_clear(width);
        for &i in ones {
            row.set(i as usize);
        }
        bits
    }

    /// The answer of a query whose table set is `tables` and whose other
    /// sets are empty.
    fn forward_tables(m: &FrozenModel, tables: &BitRows) -> u32 {
        let empty = IndexSet::default();
        let mut y = [0.0f32];
        let counts = [[tables.len() as u32, 0, 0]];
        let mut scratch = FrozenScratch::new();
        m.forward_batch(tables, &empty, &empty, &counts, &mut scratch, &mut y);
        y[0].to_bits()
    }

    /// The probe and key [`Probe::of_bits`] gives the first element of
    /// `bits`.
    fn key_of_bits(module: usize, bits: &BitRows) -> (Probe, Vec<u32>) {
        let mut key = Vec::new();
        let probe = Probe::of_bits(module, bits.elem(0), &mut key);
        (probe, key)
    }

    #[test]
    fn bitsets_one_bit_apart_never_alias() {
        // 6 tables and 100 sample bits; a sparse and a dense element base.
        // Flipped: the one-hot bit, sample bit 0, the last sample bit, and
        // the bits either side of a word boundary.
        let width = 106;
        let dense: Vec<u32> = (0..106)
            .filter(|&i| i == 2 || (i >= 6 && i % 3 != 0))
            .collect();
        let flips = [2u32, 6, 105, 31, 32];
        let warm = model_with_tables(width);
        for base in [vec![2, 40], dense] {
            let bits = bitset(width, &base);
            let (probe, key) = key_of_bits(0, &bits);
            let mut table = MemoTable::default();
            table.insert(probe, &key, &[7.0]);
            for flip in flips {
                let mut ones: Vec<u32> = base.iter().copied().filter(|&i| i != flip).collect();
                if ones.len() == base.len() {
                    ones.push(flip);
                    ones.sort_unstable();
                }
                let other_bits = bitset(width, &ones);
                let (other, other_key) = key_of_bits(0, &other_bits);
                assert_ne!((other.tag, &other_key), (probe.tag, &key), "flip {flip}");
                assert_eq!(looked_up(&table, other, &other_key, 1), None);
                let forged = Probe {
                    hash: probe.hash,
                    ..other
                };
                assert_eq!(looked_up(&table, forged, &other_key, 1), None);
                // One artifact serving the base and then its neighbour
                // answers like a fresh artifact for each.
                for b in [&bits, &other_bits] {
                    let fresh = forward_tables(&model_with_tables(width), b);
                    assert_eq!(forward_tables(&warm, b), fresh, "flip {flip}");
                }
            }
        }
    }

    /// The probe and key of element `n` of the ring tests: module 1, its
    /// one entry `(n, 1.0)`.
    fn element(n: u32) -> (Probe, Vec<u32>) {
        key_of(1, &[(n, 1.0)])
    }

    #[test]
    fn the_oldest_element_is_evicted_first_and_a_hit_moves_nothing() {
        // 1 038-word entries: 978 fit in the ring, and 3 000 wrap it three
        // times. The oldest element is looked up before every insert; it
        // still leaves first, so what the memo holds is always the newest
        // elements, one after another.
        let value: Vec<f32> = (0..1000).map(|j| j as f32 + 1.0).collect();
        let len = ENTRY_HEADER + 2 + 1000usize.div_ceil(32) + 1000;
        let holds = |table: &MemoTable, n: u32| {
            let (probe, key) = element(n);
            looked_up(table, probe, &key, 1000).is_some_and(|row| row == value)
        };
        let mut table = MemoTable::default();
        let mut oldest = 0;
        for n in 0..3_000u32 {
            if n > 0 {
                assert!(holds(&table, oldest), "element {oldest} before {n}");
            }
            let (probe, key) = element(n);
            table.insert(probe, &key, &value);
            while !holds(&table, oldest) {
                oldest += 1;
            }
            assert_eq!(table.entries, (n + 1 - oldest) as usize, "after {n}");
            if n >= 978 {
                assert!(oldest > 0 && table.ring.len() - table.entries * len < 2 * len);
            }
        }
        assert!(oldest >= 2 * 978, "the ring wrapped twice");
    }

    #[test]
    fn an_element_the_memo_holds_is_never_stored_twice() {
        let (probe, key) = element(7);
        let mut table = MemoTable::default();
        table.insert(probe, &key, &[1.0, 0.0, 2.0]);
        let held = (table.entries, table.bytes, table.head);
        // Offered again — as from a batch that carries it twice — and again
        // after other elements, while it is still held.
        table.insert(probe, &key, &[1.0, 0.0, 2.0]);
        assert_eq!((table.entries, table.bytes, table.head), held);
        for n in 100..110 {
            let (other, other_key) = element(n);
            table.insert(other, &other_key, &[0.5; 3]);
        }
        let (entries, bytes) = (table.entries, table.bytes);
        table.insert(probe, &key, &[1.0, 0.0, 2.0]);
        assert_eq!((table.entries, table.bytes), (entries, bytes));
        assert_eq!(looked_up(&table, probe, &key, 3), Some(vec![1.0, 0.0, 2.0]));

        // End to end: one batch carrying an element twice stores it once.
        let m = tiny_model();
        let mut twice = bitset(10, &[2]);
        twice.push_clear(10).set(2);
        let empty = IndexSet::default();
        let mut y = [0.0f32];
        let mut scratch = FrozenScratch::new();
        m.forward_batch(&twice, &empty, &empty, &[[2, 0, 0]], &mut scratch, &mut y);
        let stats = m.memo_stats();
        assert_eq!((stats.misses, stats.entries), (2, 1), "{stats:?}");
    }

    #[test]
    fn two_unequal_elements_with_one_forged_hash_both_answer_exactly() {
        let (first, first_key) = element(1);
        let (second, second_key) = element(2);
        let forged = Probe {
            hash: first.hash,
            ..second
        };
        let mut table = MemoTable::default();
        table.insert(first, &first_key, &[1.0]);
        // The second element's hash is taken: it is computed every time,
        // never stored, and the first keeps answering its own embedding.
        for _ in 0..2 {
            assert_eq!(looked_up(&table, forged, &second_key, 1), None);
            table.insert(forged, &second_key, &[2.0]);
            assert_eq!(table.entries, 1);
            assert_eq!(looked_up(&table, first, &first_key, 1), Some(vec![1.0]));
        }
        // Once the first has left the ring the second may take the hash,
        // and then the first is the one computed.
        let wide = vec![0.5f32; 100_000];
        for n in 10..20 {
            let (other, other_key) = element(n);
            table.insert(other, &other_key, &wide);
        }
        assert_eq!(looked_up(&table, first, &first_key, 1), None);
        table.insert(forged, &second_key, &[2.0]);
        assert_eq!(looked_up(&table, forged, &second_key, 1), Some(vec![2.0]));
        assert_eq!(looked_up(&table, first, &first_key, 1), None);
    }

    /// A set of elements, each given as its `(index, value)` entries.
    fn set_of(elements: &[&[(u32, f32)]]) -> IndexSet {
        let mut set = IndexSet::default();
        for entries in elements {
            set.push_elem(entries);
        }
        set
    }

    #[test]
    fn an_element_repeated_across_the_queries_of_a_batch_is_stored_once() {
        // Each table, join and predicate element rides in two of the three
        // queries; the second predicate and join in one.
        let (ta, tb) = ([(1, 1.0), (4, 1.0)], [(0, 1.0)]);
        let (jx, jy) = ([(2, 1.0)], [(0, 1.0), (3, 1.0)]);
        let (pu, pv) = ([(0, 1.0), (6, 0.625)], [(5, 1.0)]);
        let queries = [
            [set_of(&[&ta]), set_of(&[&jx]), set_of(&[&pu])],
            [set_of(&[&ta, &tb]), set_of(&[]), set_of(&[&pu])],
            [set_of(&[&tb]), set_of(&[&jx, &jy]), set_of(&[&pv])],
        ];
        let singles: Vec<u32> = queries.iter().map(|q| forward(&tiny_model(), q)).collect();
        let all = |slot: usize| {
            let mut set = IndexSet::default();
            for q in &queries {
                for r in 0..q[slot].elems.len() {
                    set.push_elem(q[slot].elem(r));
                }
            }
            set
        };
        let (ts, js, ps) = (bits_of(&all(0), 10), all(1), all(2));
        let counts: Vec<[u32; 3]> = queries
            .iter()
            .map(|q| [0, 1, 2].map(|s| q[s].elems.len() as u32))
            .collect();
        let m = tiny_model();
        let mut scratch = FrozenScratch::new();
        for (pass, (hits, misses)) in [(0, 10), (10, 10)].into_iter().enumerate() {
            let mut out = vec![0.0f32; queries.len()];
            m.forward_batch(&ts, &js, &ps, &counts, &mut scratch, &mut out);
            let bits: Vec<u32> = out.iter().map(|y| y.to_bits()).collect();
            assert_eq!(bits, singles, "pass {pass}");
            // The first pass looks every element up before it inserts
            // any, so each occurrence misses; six distinct elements are
            // stored, and the second pass hits them all.
            let stats = m.memo_stats();
            assert_eq!((stats.hits, stats.misses), (hits, misses), "pass {pass}");
            assert_eq!((stats.entries, stats.contended), (6, 0), "pass {pass}");
        }
        // The lookup pass alone, on each codec: every row found, the same
        // rows on both (past the first three, which the forward's output
        // MLP wrote over, the rows it pooled), and no hit or miss counted.
        let stats = m.memo_stats();
        let h = m.hidden;
        for kernel in [Kernel::Avx512, Kernel::Portable] {
            if kernel.is_available() {
                let mut looked = FrozenScratch::new();
                assert_eq!(m.look_up_on(kernel, &ts, &js, &ps, &mut looked), 10);
                assert_eq!(looked.act[3 * h..10 * h], scratch.act[3 * h..10 * h]);
            }
        }
        assert_eq!(m.memo_stats(), stats);
    }

    #[test]
    fn a_lookup_pass_that_finds_the_lock_held_computes_all_three_sets_and_inserts_nothing() {
        let (t, j, p) = demo_sets();
        let q = [t, j, p];
        let want = forward(&tiny_model(), &q);
        let m = tiny_model();
        {
            // `try_lock` on a lock this thread holds finds it held.
            let _held = m.memo.table.lock().unwrap();
            assert_eq!(forward(&m, &q), want);
        }
        let stats = m.memo_stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.contended, stats.entries),
            (0, 4, 1, 0),
            "{stats:?}"
        );
        assert_eq!(m.memo.table.lock().unwrap().entries, 0, "nothing inserted");
        // With the lock free again, a pass stores the four, the next hits.
        for _ in 0..2 {
            assert_eq!(forward(&m, &q), want);
        }
        let stats = m.memo_stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.contended, stats.entries),
            (4, 8, 1, 4),
            "{stats:?}"
        );
    }

    #[test]
    fn the_avx512_pooling_adds_what_the_scalar_loop_adds() {
        if !Kernel::Avx512.is_available() {
            println!("this CPU has no AVX-512F: only the scalar pooling runs");
            return;
        }
        // Zeros of both signs, subnormals, infinities and ordinary values;
        // one to five rows, scaled by their mean's `1/len`, into sums that
        // start at zero or hold what earlier rows added; widths inside, at
        // and past a vector. All rows in one call, against the scalar loop
        // over all of them and one row at a time.
        let odd = [
            0.0,
            -0.0,
            f32::from_bits(1),
            f32::INFINITY,
            f32::NEG_INFINITY,
            1e-30,
        ];
        let mut s = 0xB001u64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as usize
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for h in [1usize, 15, 16, 17, 31, 33, 255, 256, 257] {
            let start: Vec<f32> = (0..h).map(|j| [0.0, 0.5, -0.0][j % 3]).collect();
            for len in 1..=5 {
                let inv = 1.0 / len as f32;
                let rows: Vec<f32> = (0..len * h)
                    .map(|_| match next() % 4 {
                        0 => odd[next() % odd.len()],
                        _ => next() as f32 / 3e5 - 3000.0,
                    })
                    .collect();
                let (mut fast, mut slow, mut one_by_one) =
                    (start.clone(), start.clone(), start.clone());
                pool_into(Kernel::Avx512, &mut fast, &rows, inv);
                pool_into(Kernel::Portable, &mut slow, &rows, inv);
                for row in rows.chunks_exact(h) {
                    pool_into(Kernel::Avx512, &mut one_by_one, row, inv);
                }
                assert_eq!(bits(&fast), bits(&slow), "h {h} len {len}");
                assert_eq!(
                    bits(&one_by_one),
                    bits(&slow),
                    "h {h} len {len}, a row a call"
                );
            }
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
        // 100k distinct elements, up to 600 entries and dense 700-float
        // embeddings: ≈ 7.7 KB each at most, ≈ 390 MB in all, so the ring
        // wraps over a hundred times.
        let mut table = MemoTable::default();
        let value = vec![0.5f32; 700];
        let mut row = vec![0.0f32; 700];
        let mut peak = 0;
        for n in 0..100_000u32 {
            let len = next() as usize % 600;
            let mut entries: Vec<(u32, f32)> = (0..len as u32).map(|i| (i, 0.75)).collect();
            entries.push((1_000_000 + n, 0.75));
            let (probe, key) = key_of(n as usize % 3, &entries);
            let width = 1 + next() as usize % 700;
            table.insert(probe, &key, &value[..width]);
            assert!(
                table.get(Kernel::dispatched(width), probe, &key, &mut row[..width]),
                "element {n}"
            );
            assert!(table.bytes <= MEMO_MAX_BYTES, "after {n} inserts");
            peak = peak.max(table.bytes);
            if n % 10_000 == 0 {
                assert_ring_is_what_the_counts_say(&table);
            }
        }
        assert_ring_is_what_the_counts_say(&table);
        assert!(peak > MEMO_MAX_BYTES * 9 / 10, "the bound was reached");
        // An element larger than the whole ring is computed every time.
        let huge: Vec<(u32, f32)> = (0..600_000).map(|i| (i, 0.75)).collect();
        let (probe, key) = key_of(2, &huge);
        table.insert(probe, &key, &value);
        assert!(!table.get(Kernel::dispatched(700), probe, &key, &mut row));
        assert_ring_is_what_the_counts_say(&table);
        // 32-byte elements: the index's count, not the ring's room, makes
        // the oldest leave, and the index never fills.
        for n in 0..40_000 {
            let (probe, key) = element(n);
            table.insert(probe, &key, &[1.0]);
            assert!(
                table.get(Kernel::dispatched(1), probe, &key, &mut row[..1]),
                "element {n}"
            );
        }
        assert_eq!(table.entries, table.index.len() / 4 * 3);
        assert_ring_is_what_the_counts_say(&table);
    }

    /// Walks the ring from `tail`: its entries are `entries` many, take
    /// `bytes` with the index, and each is where the index finds it.
    fn assert_ring_is_what_the_counts_say(table: &MemoTable) {
        let index_bytes = table.index.len() * std::mem::size_of::<Indexed>();
        assert_eq!(index_bytes + table.ring.len() * 4, MEMO_MAX_BYTES);
        let mut spans = vec![(table.tail, table.wrapped_at.unwrap_or(table.head))];
        spans.extend(table.wrapped_at.map(|_| (0, table.head)));
        let (mut entries, mut words) = (0, 0);
        for (mut at, end) in spans {
            while at < end {
                let entry = &table.ring[at..];
                let probe = Probe {
                    hash: u64::from(entry[0]) | u64::from(entry[1]) << 32,
                    tag: entry[2] >> 24,
                };
                assert_eq!(table.find(probe), Ok(at));
                let len = entry[3] as usize;
                (entries, words, at) = (entries + 1, words + len, at + len);
            }
            assert_eq!(at, end);
        }
        assert_eq!(table.entries, entries, "the count is what the ring holds");
        let indexed = table.index.iter().filter(|i| i.at != 0).count();
        assert_eq!(indexed, entries, "the index holds every entry once");
        assert_eq!(
            table.bytes,
            index_bytes + words * 4,
            "the running total is what the ring holds"
        );
    }

    /// Embeddings of hidden 256 after a ReLU, about half zeros, through
    /// their two module layers: bitmap-like table elements (a one-hot and a
    /// random half of a 256-bit sample bitmap) and predicate-like ones (a
    /// column and an operator one-hot and a literal). 3 200 distinct
    /// elements fit in the memo's bytes, so it computes each once over two
    /// passes.
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
        let mut seen = std::collections::HashSet::new();
        let (mut tables, mut preds) = (IndexSet::default(), IndexSet::default());
        for _ in 0..20_000 {
            if seen.len() == 3_200 {
                break;
            }
            let mut entries = Vec::new();
            let module = if next() % 3 == 0 {
                entries.extend([(next() % 8, 1.0), (8 + next() % 3, 1.0)]);
                entries.push((11, (next() % 1000) as f32 / 1000.0));
                2
            } else {
                entries.push((next() % 6, 1.0));
                entries.extend((0..256).filter(|_| next() % 2 == 0).map(|i| (6 + i, 1.0)));
                0
            };
            let (probe, key) = key_of(module, &entries);
            if seen.insert((probe.tag, key)) {
                let set = if module == 0 { &mut tables } else { &mut preds };
                let e = set.begin_elem();
                set.entries.extend_from_slice(&entries);
                set.finish_elem(e);
            }
        }
        let elements = seen.len() as u64;
        assert_eq!(elements, 3_200);
        let tables = bits_of(&tables, 6 + 256);
        let empty = IndexSet::default();
        let mut scratch = FrozenScratch::new();
        let mut answers = Vec::new();
        for _ in 0..2 {
            let counts = [[tables.len() as u32, 0, preds.elems.len() as u32]];
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
            let (probe, key) = key_of(0, &[(1, 1.0)]);
            let mut table = MemoTable::default();
            table.insert(probe, &key, &dense);
            let stored = looked_up(&table, probe, &key, h).expect("held");
            let nonzeros = dense.iter().filter(|&&v| v != 0.0).count();
            assert_eq!(
                table.ring[3] as usize,
                ENTRY_HEADER + key.len() + h.div_ceil(32) + nonzeros,
                "the first entry's length"
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
                    pool_into(Kernel::dispatched(h), &mut pooled, r, 1.0 / 3.0);
                }
                pooled.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(pool(&stored), pool(&dense), "h {h}");
        }
    }

    #[test]
    fn the_avx512_codec_stores_and_loads_what_the_portable_one_does() {
        #[cfg(target_arch = "x86_64")]
        if Kernel::Avx512.is_available() {
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
                    // SAFETY: AVX-512F and POPCNT support was just verified
                    // at runtime.
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

    /// A join or predicate element's probe and key, as a forward pass
    /// makes them.
    fn key_of(module: usize, entries: &[(u32, f32)]) -> (Probe, Vec<u32>) {
        let mut key = Vec::new();
        let probe = Probe::of(module, entries, &mut key);
        (probe, key)
    }

    /// The `width`-float embedding the table holds for the element, if any.
    fn looked_up(table: &MemoTable, probe: Probe, key: &[u32], width: usize) -> Option<Vec<f32>> {
        let mut row = vec![f32::NAN; width];
        table
            .get(Kernel::dispatched(width), probe, key, &mut row)
            .then_some(row)
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
                        let got = forward_one(&shared, &q[0], &q[1], &q[2], &mut scratch);
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

    /// `forward_batch` of one query as a pass on `cpu` runs it.
    fn forward_on(m: &FrozenModel, cpu: Option<usize>, q: &[IndexSet; 3]) -> u32 {
        let counts = [[0, 1, 2].map(|s| q[s].elems.len() as u32)];
        let mut y = [0.0f32];
        let tables = bits_of(&q[0], m.tables1.in_dim());
        let scratch = &mut FrozenScratch::new();
        m.forward_batch_on(cpu, &tables, &q[1], &q[2], &counts, scratch, &mut y);
        y[0].to_bits()
    }

    /// Where the weights a pass on `cpu` reads start.
    fn out1_read_by(m: &FrozenModel, cpu: usize) -> *const f32 {
        m.out1_copies.weights(Some(cpu), &m.out1.w).as_ptr()
    }

    #[test]
    fn passes_on_two_copy_slots_answer_the_home_bits() {
        // Three slots: CPU 0 claims the first and reads the home weights,
        // CPUs 4 and 1 (4 and 1 mod 3 = 1, then 2) get a copy each, and
        // CPU 7 finds every slot claimed and reads the home weights.
        let mut m = tiny_model();
        m.out1_copies = CoreCopies::with_slots(3);
        let empty = IndexSet::default();
        let mut stream = repeating_stream(60);
        // An all-empty query — every pooled row zero, so the output layers
        // run over empty rows — and explicit zeros in a join and a
        // predicate.
        stream.push([empty.clone(), empty.clone(), empty.clone()]);
        stream.push([empty.clone(), one_entry(0.0), one_entry(-0.0)]);
        let want: Vec<u32> = stream.iter().map(|q| forward(&tiny_model(), q)).collect();
        for cpu in [Some(0), Some(4), Some(1), Some(7), None, Some(4), Some(1)] {
            for (q, &want) in stream.iter().zip(&want) {
                assert_eq!(forward_on(&m, cpu, q), want, "cpu {cpu:?}");
            }
        }
        let home = m.out1.w.as_ptr();
        assert_eq!(out1_read_by(&m, 0), home);
        assert_eq!(out1_read_by(&m, 7), home);
        let (four, one) = (out1_read_by(&m, 4), out1_read_by(&m, 1));
        assert!(four != home && one != home && four != one, "two copies");
        assert_eq!(m.out1_copies.made(), 2);

        // Each copy holds the home bits: the layer over rows with an empty
        // row and explicit zeros reads the same from all three.
        let rows = sparse_rows(5, 3 * m.hidden, 0xC0DE);
        let mut outputs = Vec::new();
        for cpu in [0, 4, 1] {
            let w = m.out1_copies.weights(Some(cpu), &m.out1.w);
            let mut y = vec![f32::NAN; 5 * m.hidden];
            m.out1.forward_rows_reading(w, &rows, true, &mut y);
            outputs.push(y.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        }
        assert!(outputs.windows(2).all(|w| w[0] == w[1]));

        // And a pass on CPU 4 reads CPU 4's copy: spoiled, it answers
        // otherwise, while CPU 1 and the home weights do not.
        let slots = m.out1_copies.slots.get_mut().expect("slots made");
        let spoiled = slots
            .iter_mut()
            .filter_map(|s| s.get_mut())
            .find(|c| c.cpu == 4);
        let spoiled = spoiled
            .and_then(|c| c.weights.as_mut())
            .expect("CPU 4's copy");
        for w in spoiled.lines.iter_mut() {
            w.0 = [1.0; 16];
        }
        let q = &stream[0];
        assert_ne!(forward_on(&m, Some(4), q), want[0]);
        assert_eq!(forward_on(&m, Some(1), q), want[0]);
        assert_eq!(forward_on(&m, Some(0), q), want[0]);
    }

    #[test]
    fn the_copies_never_outnumber_the_cores_and_stay_out_of_identity() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let m = tiny_model();
        let q = &repeating_stream(1)[0];
        let want = forward(&tiny_model(), q);
        // CPU ids past the core count, as a process confined to some of a
        // host's CPUs sees them.
        for cpu in (0..4 * cores + 8).rev() {
            assert_eq!(forward_on(&m, Some(cpu), q), want, "cpu {cpu}");
        }
        assert_eq!(m.out1_copies.slots.get().map(|s| s.len()), Some(cores));
        assert_eq!(m.out1_copies.made(), cores - 1, "home is one of the copies");

        let clone = m.clone();
        assert_eq!(clone.out1_copies.made(), 0);
        assert_eq!(clone, m);
        assert_eq!(m, tiny_model());
        let bytes = |m: &FrozenModel| {
            let mut e = Encoder::new();
            m.encode(&mut e);
            e.finish()
        };
        assert_eq!(bytes(&m), bytes(&tiny_model()));
    }

    #[test]
    fn a_batch_of_one_is_deterministic_and_in_range() {
        let m = tiny_model();
        let (t, j, p) = demo_sets();
        let mut scratch = FrozenScratch::new();
        let a = forward_one(&m, &t, &j, &p, &mut scratch);
        let b = forward_one(&m, &t, &j, &p, &mut scratch);
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
        let v = forward_one(&m, &empty, &empty, &empty, &mut scratch);
        assert!(v.is_finite());
        // And an empty join set alongside populated sets is fine too.
        let v2 = forward_one(&m, &t, &empty, &p, &mut scratch);
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
    #[should_panic(expected = "table elements must be the table module's width")]
    fn table_bitsets_of_another_width_are_refused() {
        let m = tiny_model();
        forward_tables(&m, &bitset(11, &[2]));
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
