//! A dense bitmap used for null masks, row selections, and the
//! qualifying-sample bitmaps that are part of every Deep Sketch.

/// A fixed-length dense bitmap backed by `u64` words.
///
/// Bit `i` set means "row `i` is selected / qualifies".
///
/// ```
/// use ds_storage::bitmap::Bitmap;
/// let mut bm = Bitmap::new(100);
/// bm.set(3);
/// bm.set(64);
/// assert_eq!(bm.count_ones(), 2);
/// assert_eq!(bm.iter_ones().collect::<Vec<_>>(), vec![3, 64]);
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

/// The instruction-set variants of a column test
/// ([`crate::predicate::ColPredicate::and_into`]). Both compute the same
/// bits; a bitmap is a set of rows, so only how many rows one instruction
/// tests differs. Every test dispatches from the CPU alone
/// ([`Kernel::dispatched`]); naming one is for benchmarks and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// AVX-512F: one 8-lane `i64` compare per eight rows, its mask bits
    /// gathered into the bitmap's words.
    Avx512,
    /// A comparison on a column without NULLs 64 outcomes to a word,
    /// anything else a set row at a time: the oracle, and the fallback
    /// without AVX-512.
    Portable,
}

impl Kernel {
    /// Every variant, widest first.
    pub const ALL: [Kernel; 2] = [Kernel::Avx512, Kernel::Portable];

    /// Whether this CPU can run the kernel.
    pub fn is_available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Avx512 => false,
            Kernel::Portable => true,
        }
    }

    /// The kernel a column test runs on this CPU: AVX-512 whenever it is
    /// there.
    pub fn dispatched() -> Kernel {
        if Kernel::Avx512.is_available() {
            Kernel::Avx512
        } else {
            Kernel::Portable
        }
    }
}

impl Bitmap {
    /// Creates a bitmap of `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a bitmap of `len` bits, all set.
    pub fn all_set(len: usize) -> Self {
        let mut bm = Self {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        bm.clear_tail();
        bm
    }

    /// Makes this a bitmap of `len` bits, the first `ones` set and the rest
    /// clear, reusing its allocation.
    ///
    /// # Panics
    /// Panics if `ones > len`.
    pub fn reset(&mut self, len: usize, ones: usize) {
        assert!(ones <= len, "{ones} set bits of {len}");
        self.len = len;
        self.words.clear();
        self.words.resize(ones / 64, u64::MAX);
        self.words.resize(len.div_ceil(64), 0);
        if !ones.is_multiple_of(64) {
            self.words[ones / 64] = (1 << (ones % 64)) - 1;
        }
    }

    /// Clears every set bit `i` for which `keep(i)` is false; clear bits
    /// are not visited.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for (wi, word) in self.words.iter_mut().enumerate() {
            let mut left = *word;
            while left != 0 {
                let bit = left.trailing_zeros() as usize;
                left &= left - 1;
                if !keep(wi * 64 + bit) {
                    *word &= !(1 << bit);
                }
            }
        }
    }

    /// Clears bit `i` for every `i < values.len()` for which
    /// `keep(values[i])` is false; bits from `values.len()` on are left
    /// alone. Column at a time and branch-free: every value is tested, set
    /// bit or not, and 64 outcomes become one word that is ANDed in, so an
    /// unpredictable predicate costs no mispredicts. The portable oracle
    /// of [`Kernel::Avx512`]'s lane compares, and the fallback without it.
    ///
    /// # Panics
    /// Panics if `values` is longer than the bitmap.
    pub(crate) fn and_where<T: Copy>(&mut self, values: &[T], keep: impl Fn(T) -> bool) {
        assert!(
            values.len() <= self.len,
            "{} values for {} bits",
            values.len(),
            self.len
        );
        let word_of = |chunk: &[T]| {
            chunk
                .iter()
                .enumerate()
                .fold(0u64, |word, (bit, &v)| word | u64::from(keep(v)) << bit)
        };
        let chunks = values.chunks_exact(64);
        let tail = chunks.remainder();
        let mut words = self.words.iter_mut();
        // Chunks first: `zip` stops on them without taking the tail's word.
        for (chunk, word) in chunks.zip(words.by_ref()) {
            *word &= word_of(chunk);
        }
        if let (false, Some(word)) = (tail.is_empty(), words.next()) {
            *word &= word_of(tail) | u64::MAX << tail.len();
        }
    }

    /// Clears every bit that is set in `mask`, one AND-NOT per word; bits
    /// past `mask`'s length are left alone, and so are `mask`'s words past
    /// this bitmap's.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn and_not(&mut self, mask: &Bitmap) {
        for (word, &m) in self.words.iter_mut().zip(&mask.words) {
            *word &= !m;
        }
    }

    /// The words, for the AVX-512 compares to AND into: an AND sets no
    /// bit, so the bits past the length stay clear.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Number of bits in the bitmap.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no bit is set (the paper's "0-tuple situation" when this is
    /// a qualifying-sample bitmap).
    pub fn is_all_clear(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterator over the indices of set bits, in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }

    /// Raw little-endian words (tail bits beyond `len` are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a bitmap from raw words and a bit length.
    ///
    /// # Panics
    /// Panics if `words` is not exactly `len.div_ceil(64)` long.
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert_eq!(words.len(), len.div_ceil(64), "word count mismatch");
        let mut bm = Self { words, len };
        bm.clear_tail();
        bm
    }

    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1 << tail) - 1;
            }
        }
    }
}

impl FromIterator<bool> for Bitmap {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        let mut bm = Bitmap::new(bits.len());
        for (i, b) in bits.iter().enumerate() {
            if *b {
                bm.set(i);
            }
        }
        bm
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use std::arch::x86_64::*;

    /// ANDs into `words[i / 64]` bit `i % 64` of `test` over `values[i]`,
    /// for every `i < values.len()`, eight values to one `test`: each call
    /// gets eight values (a short last group zero-filled) and returns the
    /// lanes that pass. Bits of words past the values, and past them in
    /// the last word, are left alone, whatever `test` says of a filler.
    /// `words` holds a word for each 64 values, as the bitmap the values
    /// are rows of does.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(crate) fn and_lanes(words: &mut [u64], values: &[i64], test: impl Fn(__m512i) -> __mmask8) {
        debug_assert!(words.len() >= values.len().div_ceil(64));
        for (word, chunk) in words.iter_mut().zip(values.chunks(64)) {
            let (groups, tail) = chunk.as_chunks::<8>();
            let mut passed = 0u64;
            for (g, group) in groups.iter().enumerate() {
                // SAFETY: `group` is eight `i64`s, one unaligned load.
                let v = unsafe { _mm512_loadu_epi64(group.as_ptr()) };
                passed |= u64::from(test(v)) << (8 * g);
            }
            if !tail.is_empty() {
                let lanes = (0xff >> (8 - tail.len())) as __mmask8;
                // SAFETY: the mask loads only the `tail.len()` values the
                // slice holds; masked-off lanes read nothing and are 0.
                let v = unsafe { _mm512_maskz_loadu_epi64(lanes, tail.as_ptr()) };
                passed |= u64::from(test(v)) << (8 * groups.len());
            }
            // Bits past the values keep theirs: a short chunk is the last,
            // and its fillers' outcomes are overwritten with ones.
            *word &= passed | u64::MAX.checked_shl(chunk.len() as u32).unwrap_or(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_resizes_in_place_to_a_prefix_of_ones() {
        let mut bm = Bitmap::all_set(300);
        for (len, ones) in [(130, 70), (64, 64), (65, 0), (200, 128), (0, 0), (10, 10)] {
            bm.reset(len, ones);
            assert_eq!(bm.len(), len);
            assert_eq!(
                bm.iter_ones().collect::<Vec<_>>(),
                (0..ones).collect::<Vec<_>>()
            );
            assert_eq!(bm, Bitmap::from_words(bm.words().to_vec(), len));
        }
    }

    #[test]
    fn retain_visits_only_set_bits_and_clears_the_rejected() {
        let mut bm = Bitmap::new(200);
        for i in [0, 5, 63, 64, 130, 199] {
            bm.set(i);
        }
        let mut visited = Vec::new();
        bm.retain(|i| {
            visited.push(i);
            i % 5 != 0
        });
        assert_eq!(visited, vec![0, 5, 63, 64, 130, 199]);
        assert_eq!(bm.iter_ones().collect::<Vec<_>>(), vec![63, 64, 199]);
    }

    #[test]
    fn and_where_clears_the_rejected_and_leaves_bits_past_the_values() {
        for n in [0, 1, 63, 64, 65, 130] {
            let mut bm: Bitmap = (0..200).map(|i| i != 0).collect();
            let values: Vec<usize> = (0..n).collect();
            bm.and_where(&values, |v| v % 3 != 1);
            let want: Vec<usize> = (1..200).filter(|&i| i >= n || i % 3 != 1).collect();
            assert_eq!(bm.iter_ones().collect::<Vec<_>>(), want, "n={n}");
        }
    }

    #[test]
    fn new_is_all_clear() {
        let bm = Bitmap::new(130);
        assert_eq!(bm.len(), 130);
        assert_eq!(bm.count_ones(), 0);
        assert!(bm.is_all_clear());
    }

    #[test]
    fn all_set_counts_every_bit() {
        for len in [0, 1, 63, 64, 65, 128, 130] {
            let bm = Bitmap::all_set(len);
            assert_eq!(bm.count_ones(), len, "len={len}");
        }
    }

    #[test]
    fn set_get_roundtrip() {
        let mut bm = Bitmap::new(100);
        bm.set(0);
        bm.set(63);
        bm.set(64);
        bm.set(99);
        assert!(bm.get(0) && bm.get(63) && bm.get(64) && bm.get(99));
        assert!(!bm.get(1) && !bm.get(62) && !bm.get(65));
        assert_eq!(bm.count_ones(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        Bitmap::new(10).get(10);
    }

    #[test]
    fn iter_ones_crosses_word_boundaries() {
        let mut bm = Bitmap::new(200);
        let idx = [0usize, 5, 63, 64, 127, 128, 199];
        for &i in &idx {
            bm.set(i);
        }
        assert_eq!(bm.iter_ones().collect::<Vec<_>>(), idx);
    }

    #[test]
    fn words_roundtrip() {
        let mut bm = Bitmap::new(70);
        bm.set(3);
        bm.set(69);
        let rebuilt = Bitmap::from_words(bm.words().to_vec(), 70);
        assert_eq!(rebuilt, bm);
    }

    #[test]
    fn from_iter_collects() {
        let bm: Bitmap = (0..10).map(|i| i % 2 == 0).collect();
        assert_eq!(bm.count_ones(), 5);
        assert!(bm.get(0) && !bm.get(1));
    }
}
