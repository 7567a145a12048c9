//! The one matrix kernel of this crate: sparse rows times a dense matrix.
//!
//! Every product the model runs — training or serving — has this shape.
//! The left operand is a set of rows given as *(index, value)* lists
//! ([`Rows`]), the right operand a dense row-major matrix, and row `r` of
//! the result is `Σ value · matrix[index]` over the row's entries:
//!
//! | product | rows | matrix |
//! |---|---|---|
//! | forward `x·W + b` | the featurizer's index lists, or the non-zeros ReLU left in the previous layer's output ([`IndexSet::compress_rows`]) | `W` |
//! | input gradient `g·Wᵀ` | the non-zeros of the ReLU-masked gradient | `Wᵀ` ([`crate::tensor::Tensor::transpose_into`]) |
//! | weight gradient `xᵀ·g` | the columns of `x` ([`IndexSet::transpose_of`]) | `g` |
//!
//! Zeros are never multiplied: one-hot and bitmap features arrive as index
//! lists, and about half of every post-ReLU activation and masked gradient
//! is exactly zero.
//!
//! ## Tiling
//!
//! A vector kernel keeps a tile of output columns in registers across a
//! row's whole reduction and walks *all* rows of the call through one
//! column tile before moving to the next, so the matrix is streamed once
//! per call however many rows there are, and partial sums are never
//! re-loaded or re-stored. [`sparse_rows`] picks the widest tile the CPU
//! has ([`Kernel`]):
//!
//! - **AVX-512F**: tiles of up to 16 registers, 256 columns, the last tile
//!   as wide as what is left, with its last vector masked. Up to 256
//!   columns — every hidden width the model uses — a row's whole output is
//!   one tile, so each weight row an entry names is read once, front to
//!   back. The frozen artifact starts its weights on a 64-byte boundary, so
//!   at those widths every load reads one cache line; at batch one the
//!   output layer's ≈ 420 rows then stream at 1.3–1.8× the AVX2 rate, half
//!   to two thirds of a sequential read from L2.
//! - **AVX2**: tiles of 64, 32, 16 and 8 columns, then scalar columns. At
//!   256 columns each weight row is read in four 256-byte pieces, one per
//!   pass over the rows; it runs only where AVX-512 does not.
//!
//! ## Lanes
//!
//! [`sparse_rows_pool`] is the kernel on a [`Team`]: when a helper lane is
//! idle it cuts the rows in two and joins the halves, each of which may
//! cut again while lanes remain. The cut falls where half of the
//! *entries* lie ([`entry_cut`]), not half of the rows: a row costs what
//! its entries cost, and the rows of one call are far from uniform (a
//! weight gradient's rows are feature columns — a table's one-hot column
//! is hit by every element of the batch, a rare bitmap bit by none). A
//! call too small to repay a fork runs whole on the calling lane; a large
//! one issued while every helper is busy with a module of its own runs
//! its first half and asks again, so whichever lane finishes first takes
//! a share of what the other still has to do.
//!
//! ## Determinism contract
//!
//! Each output element is owned by one lane of one tile and starts at
//! `+0.0`; it takes one separately rounded multiply and one separately
//! rounded add per entry, in entry order (never a fused `vfmadd`), and is
//! then finished by [`Finish`]. Tiling, masking and lanes only partition
//! the output, so the AVX-512 and AVX2 kernels, the portable kernel
//! ([`sparse_rows_portable`], the oracle and the fallback off x86-64) and
//! the naive [`crate::tensor::reference`] products agree to the last bit
//! at any lane count, wherever the cuts fall; a masked lane is never
//! stored. Skipping an entry whose value is `±0.0` is bit-neutral for
//! finite matrices: the product is `±0.0`, and adding that to a sum that
//! started at `+0.0` cannot change its bits. A row's result does not
//! depend on what other rows are in the call.

use std::ops::Range;

use crate::pool::Team;

/// Sparse rows, borrowed: flat *(index, value)* entries plus one
/// `(start, len)` span into them per row. Rows may share, skip or reorder
/// the entries they point into.
#[derive(Debug, Clone, Copy)]
pub struct Rows<'a> {
    /// `(index, value)` pairs; within a row, indices ascend.
    pub entries: &'a [(u32, f32)],
    /// `(start, len)` into `entries`, one per row.
    pub spans: &'a [(u32, u32)],
}

impl Rows<'_> {
    /// Entries the rows hold together — the multiply-adds per output
    /// column.
    fn len(&self) -> usize {
        self.spans.iter().map(|&(_, len)| len as usize).sum()
    }
}

/// One set of a fused query, or any other owned batch of sparse rows:
/// flat *(feature index, value)* pairs plus one `(start, len)` span per
/// element. Within each element the indices must be ascending — that is
/// what makes the gather bit-identical to a dense row-ascending product.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct IndexSet {
    /// Flat `(feature index, value)` pairs of all elements.
    pub entries: Vec<(u32, f32)>,
    /// `(start, len)` spans into `entries`, one per set element.
    pub elems: Vec<(u32, u32)>,
}

impl IndexSet {
    /// Empties both buffers, keeping their allocations.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.elems.clear();
    }

    /// Opens a new element; returns a guard index for [`IndexSet::finish_elem`].
    pub fn begin_elem(&mut self) -> usize {
        self.entries.len()
    }

    /// Closes the element opened at `start` (as returned by
    /// [`IndexSet::begin_elem`]).
    pub fn finish_elem(&mut self, start: usize) {
        self.elems
            .push((start as u32, (self.entries.len() - start) as u32));
    }

    /// Appends one active feature to the current element.
    #[inline]
    pub fn push(&mut self, index: u32, value: f32) {
        self.entries.push((index, value));
    }

    /// The set as kernel input.
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            entries: &self.entries,
            spans: &self.elems,
        }
    }

    /// The non-zeros of a dense row-major matrix of `width` columns, one
    /// element per row ([`IndexSet::compress_rows`] into a fresh set).
    pub fn of_dense(dense: &[f32], width: usize) -> Self {
        let mut set = Self::default();
        set.compress_rows(dense, width);
        set
    }

    /// Replaces the contents with the non-zero entries of a dense
    /// row-major matrix of `width` columns, one element per row — how a
    /// layer's (post-ReLU, about half zero) output becomes the next
    /// layer's input. Branch-free per value: every slot of a
    /// row-sized reservation is written and the cursor only advances past
    /// non-zeros, so the unpredictable zero pattern costs no mispredicts.
    pub fn compress_rows(&mut self, dense: &[f32], width: usize) {
        self.clear();
        for row in dense.chunks_exact(width.max(1)) {
            let start = self.entries.len();
            self.entries.resize(start + width, (0, 0.0));
            let slots = &mut self.entries[start..];
            let mut kept = 0;
            for (j, &v) in row.iter().enumerate() {
                slots[kept] = (j as u32, v);
                kept += usize::from(v != 0.0);
            }
            self.entries.truncate(start + kept);
            self.elems.push((start as u32, kept as u32));
        }
    }

    /// Replaces the contents with the transpose of `rows`, a matrix of
    /// `width` columns: element `p` lists `(r, value)` for every entry
    /// `(p, value)` of row `r`, rows ascending — the left operand of a
    /// weight gradient `xᵀ·g`, whose reduction then runs row-ascending
    /// like the dense product's. A counting sort: two passes over the
    /// entries, no other scratch.
    ///
    /// # Panics
    /// Panics when an index is `>= width`.
    pub fn transpose_of(&mut self, rows: Rows<'_>, width: usize) {
        let total = rows.len();
        assert!(
            u32::try_from(total).is_ok(),
            "more entries than spans address"
        );
        let entries_of = |&(start, len): &(u32, u32)| {
            &rows.entries[start as usize..start as usize + len as usize]
        };
        // Count each column into its span's length, turn the counts into
        // starts, then scatter with the lengths as cursors.
        self.elems.clear();
        self.elems.resize(width, (0, 0));
        for &(p, _) in rows.spans.iter().flat_map(entries_of) {
            self.elems[p as usize].1 += 1;
        }
        let mut start = 0;
        for span in &mut self.elems {
            let count = std::mem::take(&mut span.1);
            span.0 = start;
            start += count;
        }
        // Every one of the `total` slots is written below; no need to clear.
        self.entries.resize(total, (0, 0.0));
        for (r, span) in rows.spans.iter().enumerate() {
            for &(p, v) in entries_of(span) {
                let (start, filled) = &mut self.elems[p as usize];
                self.entries[(*start + *filled) as usize] = (r as u32, v);
                *filled += 1;
            }
        }
    }
}

/// What becomes of a finished accumulator `acc` and the output slot `y`.
#[derive(Clone, Copy)]
pub enum Finish<'a> {
    /// `y = acc + bias[j]`, clamped at zero when `relu` — a layer's forward.
    Bias {
        /// One value per output column.
        bias: &'a [f32],
        /// Apply ReLU after the bias.
        relu: bool,
    },
    /// `y = acc` — a plain product.
    Store,
    /// `y = y + acc` — gradient accumulation.
    Accumulate,
}

/// `y[r, :] = finish(rows[r] · w)` for every row, `w` being the dense
/// right operand, `(rows × out_dim)` row-major, and `y`
/// `rows.spans.len() × out_dim` row-major. Runtime-dispatched to the
/// widest column-tile kernel the CPU has ([`Kernel::dispatched`]);
/// [`sparse_rows_portable`] is their oracle.
///
/// # Panics
/// Panics when `y` has the wrong length or an index is out of the
/// matrix's range.
pub fn sparse_rows(w: &[f32], out_dim: usize, rows: Rows<'_>, finish: Finish<'_>, y: &mut [f32]) {
    Kernel::dispatched(out_dim).run(w, out_dim, rows, finish, y);
}

/// The instruction-set variants of [`sparse_rows`]. All compute the same
/// bits; they differ in how many output columns one register tile holds.
/// Every product of the model goes through [`sparse_rows`], which picks one
/// from the CPU alone; naming one is for benchmarks and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// AVX-512F: tiles of up to 256 columns (16 registers), the last one
    /// masked, so up to that width every weight row is read once, whole.
    Avx512,
    /// AVX2: tiles of 64, 32, 16 and 8 columns, then scalar columns.
    Avx2,
    /// Scalar accumulators ([`sparse_rows_portable`]): the oracle, and the
    /// fallback off x86-64.
    Portable,
}

impl Kernel {
    /// Every variant, widest first.
    pub const ALL: [Kernel; 3] = [Kernel::Avx512, Kernel::Avx2, Kernel::Portable];

    /// Whether this CPU can run the kernel.
    pub fn is_available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Avx512 | Kernel::Avx2 => false,
            Kernel::Portable => true,
        }
    }

    /// The kernel [`sparse_rows`] runs for `out_dim` output columns on this
    /// CPU: AVX-512 whenever it is there (its masked tile takes any width),
    /// else AVX2 from one full vector up, else portable.
    pub fn dispatched(out_dim: usize) -> Kernel {
        if Kernel::Avx512.is_available() {
            Kernel::Avx512
        } else if out_dim >= 8 && Kernel::Avx2.is_available() {
            Kernel::Avx2
        } else {
            Kernel::Portable
        }
    }

    /// [`sparse_rows`] on this kernel.
    ///
    /// # Panics
    /// Panics when the CPU lacks the kernel's instructions, when `y` has
    /// the wrong length, or when an index is out of the matrix's range.
    pub fn run(self, w: &[f32], out_dim: usize, rows: Rows<'_>, finish: Finish<'_>, y: &mut [f32]) {
        assert_eq!(y.len(), rows.spans.len() * out_dim, "output shape");
        assert!(self.is_available(), "this CPU cannot run {self:?}");
        match self {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: AVX-512F support was just verified at runtime.
            Kernel::Avx512 => unsafe { x86::sparse_rows_avx512(w, out_dim, rows, finish, y) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: AVX2 support was just verified at runtime.
            Kernel::Avx2 => unsafe { x86::sparse_rows_avx2(w, out_dim, rows, finish, y) },
            _ => sparse_rows_portable(w, out_dim, rows, finish, y, 0..out_dim),
        }
    }
}

/// Multiply-adds below which [`sparse_rows_pool`] does not fork: at the
/// AVX-512 kernel's ≈ 15 per nanosecond on a batched hidden layer (AVX2:
/// ≈ 13; `nn_kernels` stage [1]) a half of this is ≈ 9 µs, several times
/// what a join with a polling helper costs (≈ 1.3 µs). Measured per epoch
/// on the benchmark's build, 2¹⁷ and 2¹⁹ read the same as this value.
const FORK_MIN_MACS: usize = 1 << 18;

/// [`sparse_rows`] across the team's idle lanes: contiguous row ranges cut
/// by [`entry_cut`], one per lane. Bit-identical at any lane count: every
/// output element is computed by exactly one lane, in the same order.
pub fn sparse_rows_pool(
    w: &[f32],
    out_dim: usize,
    rows: Rows<'_>,
    finish: Finish<'_>,
    team: &Team,
    y: &mut [f32],
) {
    assert_eq!(y.len(), rows.spans.len() * out_dim, "output shape");
    fork(w, out_dim, rows, finish, team, team.lanes(), y);
}

/// Multiply-adds from which a call that finds every helper busy runs its
/// first half and asks again for the rest, instead of running whole: a
/// helper is busy with a module of its own for about a millisecond, the
/// largest products take as long, and the lane that finishes first would
/// otherwise idle until the other is through. Each piece streams the
/// matrix again, so pieces stay above ≈ 35 µs at the rate above; measured
/// per epoch on the benchmark's build, asking again from 2²⁰ bought 7 % of
/// a quiet epoch with the AVX2 kernel, and with the AVX-512 one 2¹⁹, 2²⁰
/// and 2²¹ read the same.
const ASK_AGAIN_MACS: usize = 4 * FORK_MIN_MACS;

/// [`sparse_rows_pool`] with at most `lanes` lanes left to use.
fn fork(
    w: &[f32],
    out_dim: usize,
    rows: Rows<'_>,
    finish: Finish<'_>,
    team: &Team,
    lanes: usize,
    y: &mut [f32],
) {
    let macs = if lanes > 1 { rows.len() * out_dim } else { 0 };
    let idle = macs >= FORK_MIN_MACS && team.has_idle();
    if idle || macs >= ASK_AGAIN_MACS {
        // With a helper at hand, its share of the lanes' work; without,
        // half for now.
        let (near, of) = if idle {
            (lanes.div_ceil(2), lanes)
        } else {
            (1, 2)
        };
        let cut = entry_cut(rows.spans, near, of);
        if 0 < cut && cut < rows.spans.len() {
            let (spans_a, spans_b) = rows.spans.split_at(cut);
            let (y_a, y_b) = y.split_at_mut(cut * out_dim);
            let part = |spans| Rows { spans, ..rows };
            if idle {
                team.join(
                    || fork(w, out_dim, part(spans_a), finish, team, near, y_a),
                    || fork(w, out_dim, part(spans_b), finish, team, lanes - near, y_b),
                );
            } else {
                sparse_rows(w, out_dim, part(spans_a), finish, y_a);
                fork(w, out_dim, part(spans_b), finish, team, lanes, y_b);
            }
            return;
        }
    }
    sparse_rows(w, out_dim, rows, finish, y);
}

/// The fewest leading rows that hold at least `num / den` of all entries
/// the spans address — where [`sparse_rows_pool`] cuts a call so that
/// lanes get equal work rather than equal row counts. `0` when there are
/// no entries; `spans.len()` when the share is only reached by the last
/// row (either way there is nothing to cut).
pub fn entry_cut(spans: &[(u32, u32)], num: usize, den: usize) -> usize {
    let total: usize = spans.iter().map(|&(_, len)| len as usize).sum();
    let want = (total * num).div_ceil(den.max(1));
    let mut seen = 0;
    spans
        .iter()
        .take_while(|&&(_, len)| {
            let before = seen;
            seen += len as usize;
            before < want
        })
        .count()
}

/// Columns `cols` of [`sparse_rows`] with plain scalar accumulators, 64
/// columns at a time: the oracle for the AVX2 variant, the fallback
/// without it, and the remainder columns beside it.
pub fn sparse_rows_portable(
    w: &[f32],
    out_dim: usize,
    rows: Rows<'_>,
    finish: Finish<'_>,
    y: &mut [f32],
    cols: Range<usize>,
) {
    const TILE: usize = 64;
    for c0 in cols.clone().step_by(TILE) {
        let c1 = cols.end.min(c0 + TILE);
        for (r, &(start, len)) in rows.spans.iter().enumerate() {
            let mut tile = [0.0f32; TILE];
            let acc = &mut tile[..c1 - c0];
            for &(idx, val) in &rows.entries[start as usize..start as usize + len as usize] {
                if val == 0.0 {
                    continue;
                }
                let at = idx as usize * out_dim;
                for (a, &wv) in acc.iter_mut().zip(&w[at + c0..at + c1]) {
                    *a += val * wv;
                }
            }
            let out = &mut y[r * out_dim + c0..r * out_dim + c1];
            match finish {
                Finish::Bias { bias, relu } => {
                    for ((o, &a), &bv) in out.iter_mut().zip(&*acc).zip(&bias[c0..c1]) {
                        *o = a + bv;
                        if relu {
                            *o = o.max(0.0);
                        }
                    }
                }
                Finish::Store => out.copy_from_slice(acc),
                Finish::Accumulate => {
                    for (o, &a) in out.iter_mut().zip(&*acc) {
                        *o += a;
                    }
                }
            }
        }
    }
}

/// The AVX-512 and AVX2 column-tile kernels. One output column per lane,
/// separate multiply and add (never `vfmadd`): they round exactly like the
/// portable kernel.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m512, __mmask16, _mm256_add_ps, _mm256_loadu_ps, _mm256_max_ps, _mm256_mul_ps,
        _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps, _mm512_add_ps, _mm512_mask_storeu_ps,
        _mm512_maskz_loadu_ps, _mm512_max_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
    };

    use super::{sparse_rows_portable, Finish, Rows};

    /// AVX-512 vector width: one 16-lane f32 register.
    const LANES_512: usize = 16;

    /// Registers in the widest AVX-512 tile: 16 accumulators (256 columns,
    /// a hidden-256 layer's whole output) leave half of the 32 registers
    /// for the broadcast value and the loads.
    const MAX_TILE_512: usize = 16;

    /// AVX-512 [`super::sparse_rows`]: output columns are cut into tiles of
    /// 256 and one last tile of what is left, whose last vector is masked,
    /// and every row is reduced into one tile before the next tile starts.
    /// Up to 256 columns the whole output is one tile, so each weight row
    /// an entry names is read once, front to back.
    ///
    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn sparse_rows_avx512(
        w: &[f32],
        out_dim: usize,
        rows: Rows<'_>,
        finish: Finish<'_>,
        y: &mut [f32],
    ) {
        macro_rules! tile_of {
            ($width:expr, $j0:expr; $($nv:literal)*) => {
                match $width.div_ceil(LANES_512) {
                    $($nv => tile_512::<$nv>(w, out_dim, rows, finish, y, $j0, $width),)*
                    _ => unreachable!("a tile holds at most {MAX_TILE_512} vectors"),
                }
            };
        }
        let mut j0 = 0;
        while j0 < out_dim {
            let width = (out_dim - j0).min(MAX_TILE_512 * LANES_512);
            tile_of!(width, j0; 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16);
            j0 += width;
        }
    }

    /// One tile of `NV` vectors — `width` output columns from `j0`, the
    /// last vector holding the `width − 16·(NV − 1)` that remain — for every
    /// row: the accumulators stay in registers across the row's whole
    /// reduction, entries in order.
    ///
    /// # Safety
    /// The CPU must support AVX-512F. Every access goes through a
    /// bounds-checked slice of exactly the tile's width, and the last
    /// vector's loads and stores are masked to the lanes that slice holds.
    #[target_feature(enable = "avx512f")]
    unsafe fn tile_512<const NV: usize>(
        w: &[f32],
        out_dim: usize,
        rows: Rows<'_>,
        finish: Finish<'_>,
        y: &mut [f32],
        j0: usize,
        width: usize,
    ) {
        // The masks cover exactly the slices' lanes only in this range.
        assert!(LANES_512 * (NV - 1) < width && width <= LANES_512 * NV);
        let mask = |v: usize| lane_mask::<NV>(v, width);
        let zero = _mm512_setzero_ps();
        for (r, &(start, len)) in rows.spans.iter().enumerate() {
            let entries = &rows.entries[start as usize..start as usize + len as usize];
            let acc = reduce::<NV>(w, out_dim, j0, width, entries);
            let out = &mut y[r * out_dim + j0..r * out_dim + j0 + width];
            let out = out.as_mut_ptr();
            match finish {
                Finish::Bias { bias, relu } => {
                    let bias = &bias[j0..j0 + width];
                    for (v, a) in acc.iter().enumerate() {
                        let bv = _mm512_maskz_loadu_ps(mask(v), bias.as_ptr().add(v * LANES_512));
                        let mut o = _mm512_add_ps(*a, bv);
                        if relu {
                            o = _mm512_max_ps(o, zero);
                        }
                        _mm512_mask_storeu_ps(out.add(v * LANES_512), mask(v), o);
                    }
                }
                Finish::Store => {
                    for (v, a) in acc.iter().enumerate() {
                        _mm512_mask_storeu_ps(out.add(v * LANES_512), mask(v), *a);
                    }
                }
                Finish::Accumulate => {
                    for (v, a) in acc.iter().enumerate() {
                        let at = out.add(v * LANES_512);
                        let sum = _mm512_add_ps(_mm512_maskz_loadu_ps(mask(v), at), *a);
                        _mm512_mask_storeu_ps(at, mask(v), sum);
                    }
                }
            }
        }
    }

    /// The lanes of vector `v` of an `NV`-vector tile `width` columns wide
    /// that are columns of the tile: all but in the last vector.
    #[inline]
    fn lane_mask<const NV: usize>(v: usize, width: usize) -> __mmask16 {
        if v + 1 < NV {
            u16::MAX
        } else {
            u16::MAX >> (LANES_512 * NV - width)
        }
    }

    /// One row of a tile: `Σ val · W[idx][j0..j0 + width]` over the
    /// entries, in order, in `NV` registers. Each weight row is read front
    /// to back; the reduction calls nothing, so the accumulators never
    /// leave their registers.
    ///
    /// # Safety
    /// The CPU must support AVX-512F, and `16·(NV − 1) < width ≤ 16·NV`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn reduce<const NV: usize>(
        w: &[f32],
        out_dim: usize,
        j0: usize,
        width: usize,
        entries: &[(u32, f32)],
    ) -> [__m512; NV] {
        let mut acc = [_mm512_setzero_ps(); NV];
        for &(idx, val) in entries {
            if val == 0.0 {
                continue;
            }
            let at = idx as usize * out_dim + j0;
            let row = &w[at..at + width];
            let cv = _mm512_set1_ps(val);
            for (v, a) in acc.iter_mut().enumerate() {
                let mask = lane_mask::<NV>(v, width);
                let wv = _mm512_maskz_loadu_ps(mask, row.as_ptr().add(v * LANES_512));
                *a = _mm512_add_ps(*a, _mm512_mul_ps(cv, wv));
            }
        }
        acc
    }

    /// AVX2 vector width: one 8-lane f32 register.
    const LANES: usize = 8;

    /// AVX2 [`super::sparse_rows`]: output columns are cut into tiles of
    /// 64 (then 32, 16, 8, then scalar columns), and every row is reduced
    /// into one tile before the next tile starts, so the matrix is
    /// streamed once per call.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sparse_rows_avx2(
        w: &[f32],
        out_dim: usize,
        rows: Rows<'_>,
        finish: Finish<'_>,
        y: &mut [f32],
    ) {
        let mut j0 = 0;
        while j0 + 8 * LANES <= out_dim {
            tile::<8>(w, out_dim, rows, finish, y, j0);
            j0 += 8 * LANES;
        }
        if j0 + 4 * LANES <= out_dim {
            tile::<4>(w, out_dim, rows, finish, y, j0);
            j0 += 4 * LANES;
        }
        if j0 + 2 * LANES <= out_dim {
            tile::<2>(w, out_dim, rows, finish, y, j0);
            j0 += 2 * LANES;
        }
        if j0 + LANES <= out_dim {
            tile::<1>(w, out_dim, rows, finish, y, j0);
            j0 += LANES;
        }
        if j0 < out_dim {
            sparse_rows_portable(w, out_dim, rows, finish, y, j0..out_dim);
        }
    }

    /// One tile of `NV` vectors (`8·NV` output columns from `j0`) for
    /// every row: the accumulators stay in registers across the row's
    /// whole reduction, entries in order.
    ///
    /// # Safety
    /// The CPU must support AVX2. Every access goes through a
    /// bounds-checked slice of exactly the tile's width.
    #[target_feature(enable = "avx2")]
    unsafe fn tile<const NV: usize>(
        w: &[f32],
        out_dim: usize,
        rows: Rows<'_>,
        finish: Finish<'_>,
        y: &mut [f32],
        j0: usize,
    ) {
        let width = NV * LANES;
        let zero = _mm256_setzero_ps();
        for (r, &(start, len)) in rows.spans.iter().enumerate() {
            let mut acc = [zero; NV];
            for &(idx, val) in &rows.entries[start as usize..start as usize + len as usize] {
                if val == 0.0 {
                    continue;
                }
                let at = idx as usize * out_dim + j0;
                let row = &w[at..at + width];
                let cv = _mm256_set1_ps(val);
                for (v, a) in acc.iter_mut().enumerate() {
                    let wv = _mm256_loadu_ps(row.as_ptr().add(v * LANES));
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(cv, wv));
                }
            }
            let out = &mut y[r * out_dim + j0..r * out_dim + j0 + width];
            match finish {
                Finish::Bias { bias, relu } => {
                    let bias = &bias[j0..j0 + width];
                    for (v, a) in acc.iter().enumerate() {
                        let bv = _mm256_loadu_ps(bias.as_ptr().add(v * LANES));
                        let mut o = _mm256_add_ps(*a, bv);
                        if relu {
                            o = _mm256_max_ps(o, zero);
                        }
                        _mm256_storeu_ps(out.as_mut_ptr().add(v * LANES), o);
                    }
                }
                Finish::Store => {
                    for (v, a) in acc.iter().enumerate() {
                        _mm256_storeu_ps(out.as_mut_ptr().add(v * LANES), *a);
                    }
                }
                Finish::Accumulate => {
                    for (v, a) in acc.iter().enumerate() {
                        let at = out.as_mut_ptr().add(v * LANES);
                        _mm256_storeu_ps(at, _mm256_add_ps(_mm256_loadu_ps(at), *a));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compress_rows_keeps_exactly_the_non_zeros_in_order() {
        let dense = [
            0.0f32, 1.5, -0.0, 2.0, 0.0, 0.0, 0.0, 0.0, -3.0, 0.0, 0.0, 4.0,
        ];
        let mut set = IndexSet::default();
        set.push(9, 9.0); // stale contents are replaced
        set.compress_rows(&dense, 4);
        assert_eq!(set.elems, vec![(0, 2), (2, 0), (2, 2)]);
        assert_eq!(set.entries, vec![(1, 1.5), (3, 2.0), (0, -3.0), (3, 4.0)]);
    }

    #[test]
    fn transpose_of_lists_each_column_rows_ascending() {
        // Rows over 4 columns; row 1 is empty, row 2 points at the same
        // entries as row 0 (a batch may repeat an element).
        let entries = [(0u32, 1.0f32), (3, 2.0), (1, 5.0), (3, 6.0)];
        let spans = [(0u32, 2u32), (2, 0), (0, 2), (2, 2)];
        let rows = Rows {
            entries: &entries,
            spans: &spans,
        };
        let mut t = IndexSet::default();
        t.push(7, 7.0); // stale contents are replaced
        t.transpose_of(rows, 4);
        assert_eq!(t.elems, vec![(0, 2), (2, 1), (3, 0), (3, 3)]);
        assert_eq!(
            t.entries,
            vec![(0, 1.0), (2, 1.0), (3, 5.0), (0, 2.0), (2, 2.0), (3, 6.0)]
        );
        // Transposing back restores the rows (as owned, unshared spans).
        let mut back = IndexSet::default();
        back.transpose_of(t.rows(), 4);
        assert_eq!(back.elems, vec![(0, 2), (2, 0), (2, 2), (4, 2)]);
        assert_eq!(
            back.entries,
            vec![(0, 1.0), (3, 2.0), (0, 1.0), (3, 2.0), (1, 5.0), (3, 6.0)]
        );
    }

    /// Every kernel this CPU has, each on its own, against the portable
    /// oracle: widths on both sides of every AVX2 tile and of the AVX-512
    /// masked tail (1, 5, 15, 17, 250, 257, 262) and at whole tiles (8, 16,
    /// 96, 256, 768), every finish, with `-0.0` and
    /// subnormals among the weights and the entries (the latter next to a
    /// `+0.0` entry and an empty row). Equal as `f32` (the oracle's ReLU may
    /// keep a `-0.0` that `vmaxps` turns into `+0.0`); the vector kernels
    /// also agree with each other bit for bit. A kernel the CPU lacks is
    /// reported as skipped, so a log shows which ran.
    #[test]
    fn each_isa_kernel_matches_the_portable_oracle() {
        const K: usize = 23;
        const ROWS: usize = 6;
        let edge = [-0.0f32, f32::from_bits(1), -f32::from_bits(0x007f_ffff)];
        let mut s = 0x5EED_u64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 40) as u32
        };
        let mut x = IndexSet::default();
        for r in 0..ROWS {
            let e = x.begin_elem();
            for idx in 0..K as u32 {
                if r == 1 || next() % 3 == 0 {
                    continue;
                }
                let v = match next() % 8 {
                    0 => edge[(idx % 3) as usize],
                    1 => 0.0,
                    _ => next() as f32 / (1u32 << 24) as f32 - 0.5,
                };
                x.push(idx, v);
            }
            x.finish_elem(e);
        }
        let ran: Vec<Kernel> = Kernel::ALL
            .into_iter()
            .filter(|k| k.is_available())
            .collect();
        for kernel in Kernel::ALL {
            let verdict = if ran.contains(&kernel) {
                "ran"
            } else {
                "skipped: this CPU lacks it"
            };
            println!("sparse_rows kernel {kernel:?}: {verdict}");
        }
        for out_dim in [1usize, 5, 8, 15, 16, 17, 96, 250, 256, 257, 262, 768] {
            let mut wf: Vec<f32> = (0..K * out_dim)
                .map(|_| next() as f32 / (1u32 << 23) as f32 - 1.0)
                .collect();
            for (i, &v) in edge.iter().cycle().take(wf.len().min(24)).enumerate() {
                wf[(i * 37) % (K * out_dim)] = v;
            }
            let bias: Vec<f32> = (0..out_dim).map(|j| j as f32 * 0.03 - 1.0).collect();
            let finishes = [
                (
                    "bias",
                    Finish::Bias {
                        bias: &bias,
                        relu: false,
                    },
                ),
                (
                    "bias+relu",
                    Finish::Bias {
                        bias: &bias,
                        relu: true,
                    },
                ),
                ("store", Finish::Store),
                ("accumulate", Finish::Accumulate),
            ];
            for (how, finish) in finishes {
                let start: Vec<f32> = (0..ROWS * out_dim).map(|i| i as f32 * 0.25 - 7.0).collect();
                let mut want = start.clone();
                sparse_rows_portable(&wf, out_dim, x.rows(), finish, &mut want, 0..out_dim);
                let mut vector_bits: Option<Vec<u32>> = None;
                for &kernel in &ran {
                    let mut got = start.clone();
                    kernel.run(&wf, out_dim, x.rows(), finish, &mut got);
                    assert_eq!(got, want, "{kernel:?} width {out_dim} {how}");
                    if kernel != Kernel::Portable {
                        let bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                        let first = vector_bits.get_or_insert_with(|| bits.clone());
                        assert_eq!(&bits, first, "{kernel:?} width {out_dim} {how} bits");
                    }
                }
            }
        }
    }

    #[test]
    fn finishes_store_add_bias_and_accumulate() {
        // 2 rows over a 3×9 matrix: 9 columns walk one AVX2 vector and a
        // scalar remainder, or one AVX-512 vector masked to 9 lanes.
        let w: Vec<f32> = (0..27).map(|i| i as f32 * 0.5 - 3.0).collect();
        let mut x = IndexSet::default();
        x.compress_rows(&[1.0, 0.0, -2.0, 0.0, 0.0, 0.0], 3);
        let want: Vec<f32> = (0..9)
            .map(|j| 1.0 * w[j] + -2.0 * w[18 + j])
            .chain(std::iter::repeat_n(0.0, 9))
            .collect();
        let mut y = vec![f32::NAN; 18];
        sparse_rows(&w, 9, x.rows(), Finish::Store, &mut y);
        assert_eq!(y, want);
        sparse_rows(&w, 9, x.rows(), Finish::Accumulate, &mut y);
        let doubled: Vec<f32> = want.iter().map(|v| v + v).collect();
        assert_eq!(y, doubled);
        let bias: Vec<f32> = (0..9).map(|j| j as f32 - 4.0).collect();
        for relu in [false, true] {
            let finish = Finish::Bias { bias: &bias, relu };
            sparse_rows(&w, 9, x.rows(), finish, &mut y);
            for (i, (&got, &acc)) in y.iter().zip(&want).enumerate() {
                let z = acc + bias[i % 9];
                assert_eq!(got, if relu { z.max(0.0) } else { z }, "relu={relu} i={i}");
            }
        }
    }
}
