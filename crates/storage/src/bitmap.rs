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
    /// unpredictable predicate costs no mispredicts.
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
