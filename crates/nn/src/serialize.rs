//! A small, versioned binary codec for model weights and sketch state.
//!
//! A Deep Sketch is "a wrapper for a (serialized) neural network and a set
//! of materialized samples"; this module provides the byte-level format.
//! The codec is hand-rolled on std's `to_le_bytes`/`from_le_bytes`.
//!
//! Layout: all integers little-endian; `f32`/`f64` as IEEE-754 bits;
//! vectors as `u64` length + elements; strings as `u64` length + UTF-8.

use crate::frozen::FrozenLinear;

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the structure was complete.
    UnexpectedEof,
    /// Magic bytes or version did not match.
    BadHeader(String),
    /// A length prefix was implausibly large or a string was not UTF-8.
    Corrupt(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "unexpected end of input"),
            DecodeError::BadHeader(m) => write!(f, "bad header: {m}"),
            DecodeError::Corrupt(m) => write!(f, "corrupt payload: {m}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Sanity cap on decoded vector lengths (1 GiB of f32s) to fail fast on
/// corrupt length prefixes instead of attempting huge allocations.
const MAX_VEC_LEN: u64 = 1 << 28;

/// Writes length-prefixed primitives into a growing buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the 4-byte magic and a format version.
    pub fn header(&mut self, magic: &[u8; 4], version: u32) {
        self.buf.extend_from_slice(magic);
        self.buf.extend_from_slice(&version.to_le_bytes());
    }

    /// Writes a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64`.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a length-prefixed `f32` slice.
    pub fn f32_slice(&mut self, v: &[f32]) {
        self.u64(v.len() as u64);
        self.buf.extend(v.iter().flat_map(|x| x.to_le_bytes()));
    }

    /// Writes a length-prefixed `u64` slice.
    pub fn u64_slice(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        self.buf.extend(v.iter().flat_map(|x| x.to_le_bytes()));
    }

    /// Writes a length-prefixed `i64` slice.
    pub fn i64_slice(&mut self, v: &[i64]) {
        self.u64(v.len() as u64);
        self.buf.extend(v.iter().flat_map(|x| x.to_le_bytes()));
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Writes a length-prefixed raw byte slice (an embedded blob).
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Writes a linear layer: its weights as a tensor, then its bias.
    pub fn linear(&mut self, l: &FrozenLinear) {
        self.matrix(l.in_dim(), l.out_dim(), l.weights());
        self.f32_slice(l.bias());
    }

    /// Writes a row-major `rows × cols` matrix: its shape, then its
    /// floats.
    fn matrix(&mut self, rows: usize, cols: usize, data: &[f32]) {
        self.u64(rows as u64);
        self.u64(cols as u64);
        self.buf.extend(data.iter().flat_map(|x| x.to_le_bytes()));
    }

    /// Finishes and returns the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Reads values written by [`Encoder`], validating lengths.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Reads the next `N` bytes.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut bytes = [0; N];
        bytes.copy_from_slice(self.take(N)?);
        Ok(bytes)
    }

    /// Reads a length prefix, then that many `N`-byte words.
    fn words<const N: usize>(&mut self) -> Result<impl Iterator<Item = [u8; N]> + 'a, DecodeError> {
        let n = self.len_prefix()?;
        Ok(self.take(n * N)?.as_chunks().0.iter().copied())
    }

    /// Reads and validates the header, returning the version.
    pub fn header(&mut self, magic: &[u8; 4]) -> Result<u32, DecodeError> {
        let [a, b, c, d, version @ ..] = self.array::<8>()?;
        let got = [a, b, c, d];
        if &got != magic {
            return Err(DecodeError::BadHeader(format!(
                "magic mismatch: expected {magic:?}, got {got:?}"
            )));
        }
        Ok(u32::from_le_bytes(version))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a `u64` that holds a boolean. The encoders write 0 or 1; any
    /// other word is corrupt, because reading it as "non-zero" would accept
    /// bytes that re-encode differently.
    pub fn flag(&mut self) -> Result<bool, DecodeError> {
        match self.u64()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError::Corrupt(format!(
                "flag word {other} is not 0/1"
            ))),
        }
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// Reads an `f64`.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    fn len_prefix(&mut self) -> Result<usize, DecodeError> {
        let n = self.u64()?;
        if n > MAX_VEC_LEN {
            return Err(DecodeError::Corrupt(format!("length {n} too large")));
        }
        Ok(n as usize)
    }

    /// Reads a length prefix that counts variable-size records, validating
    /// it against the bytes actually remaining: each record occupies at
    /// least `min_record_bytes`, so a count promising more records than
    /// the buffer could possibly hold is corrupt. Callers may then
    /// `Vec::with_capacity(count)` without an allocation-bomb risk from
    /// untrusted input.
    pub fn count(&mut self, min_record_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.u64()?;
        let fits = n
            .checked_mul(min_record_bytes.max(1) as u64)
            .is_some_and(|need| need <= self.buf.len() as u64);
        if !fits {
            return Err(DecodeError::Corrupt(format!(
                "record count {n} exceeds remaining input"
            )));
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed `f32` vector.
    pub fn f32_vec(&mut self) -> Result<Vec<f32>, DecodeError> {
        Ok(self.words()?.map(f32::from_le_bytes).collect())
    }

    /// Reads a length-prefixed `u64` vector.
    pub fn u64_vec(&mut self) -> Result<Vec<u64>, DecodeError> {
        Ok(self.words()?.map(u64::from_le_bytes).collect())
    }

    /// Reads a length-prefixed `i64` vector.
    pub fn i64_vec(&mut self) -> Result<Vec<i64>, DecodeError> {
        Ok(self.words()?.map(i64::from_le_bytes).collect())
    }

    /// Reads `n` raw bytes, no length prefix — for a caller that read the
    /// prefix itself to hold it to a cap of its own before it allocates.
    /// Every read goes through here, so a short input is
    /// [`DecodeError::UnexpectedEof`], never a panic.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let (head, rest) = self
            .buf
            .split_at_checked(n)
            .ok_or(DecodeError::UnexpectedEof)?;
        self.buf = rest;
        Ok(head)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, DecodeError> {
        let n = self.len_prefix()?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|e| DecodeError::Corrupt(e.to_string()))
    }

    /// Reads a linear layer, into serving layout: each weight is decoded
    /// straight into the layer's line-aligned storage.
    pub fn linear(&mut self) -> Result<FrozenLinear, DecodeError> {
        let (rows, cols, w) = self.matrix()?;
        let b = self.f32_vec()?;
        if b.len() != cols {
            return Err(DecodeError::Corrupt("bias length mismatch".into()));
        }
        Ok(FrozenLinear::from_parts(rows, cols, w, b))
    }

    /// Reads the shape and the bytes of a matrix `Encoder::matrix` wrote;
    /// returns its shape and its floats, decoded as they are read.
    fn matrix(&mut self) -> Result<(usize, usize, impl Iterator<Item = f32> + 'a), DecodeError> {
        let rows = self.u64()? as usize;
        let cols = self.u64()? as usize;
        let n = rows
            .checked_mul(cols)
            .filter(|&n| (n as u64) <= MAX_VEC_LEN)
            .ok_or_else(|| DecodeError::Corrupt("tensor too large".into()))?;
        let (words, _) = self.take(n * 4)?.as_chunks();
        Ok((rows, cols, words.iter().map(|&w| f32::from_le_bytes(w))))
    }

    /// True when all bytes are consumed.
    pub fn is_done(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;
    use crate::tensor::Tensor;

    #[test]
    fn linear_roundtrip_preserves_forward() {
        let l = Linear::new(5, 3, 77);
        let mut e = Encoder::new();
        e.linear(&FrozenLinear::from_linear(&l));
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        let l2 = d.linear().unwrap().thaw();
        let x = Tensor::from_vec(2, 5, (0..10).map(|i| i as f32 * 0.1).collect());
        assert_eq!(l.forward(&x), l2.forward(&x));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut e = Encoder::new();
        e.header(b"GOOD", 1);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.header(b"EVIL"), Err(DecodeError::BadHeader(_))));
    }

    /// A record holding each primitive decodes to what was written, and
    /// every strict prefix of it to `UnexpectedEof`, whichever read it
    /// ends in; none panics.
    #[test]
    fn truncated_input_is_eof() {
        let layer = FrozenLinear::from_linear(&Linear::new(3, 2, 5));
        let mut e = Encoder::new();
        e.header(b"TEST", 3);
        e.u64(42);
        e.i64(-7);
        e.f64(2.5);
        e.u64(1);
        e.string("hello");
        e.bytes(&[0x80, 0x7F, 0x00]);
        e.f32_slice(&[1.0, -2.0]);
        e.u64_slice(&[9, 10]);
        e.i64_slice(&[-1, 0, 1]);
        e.linear(&layer);
        let bytes = e.finish();
        let decode = |bytes| -> Result<FrozenLinear, DecodeError> {
            let mut d = Decoder::new(bytes);
            assert_eq!(d.header(b"TEST")?, 3);
            assert_eq!(d.u64()?, 42);
            assert_eq!(d.i64()?, -7);
            assert_eq!(d.f64()?, 2.5);
            assert!(d.flag()?);
            assert_eq!(d.string()?, "hello");
            let n = d.u64()? as usize;
            assert_eq!(d.take(n)?, [0x80, 0x7F, 0x00]);
            assert_eq!(d.f32_vec()?, [1.0, -2.0]);
            assert_eq!(d.u64_vec()?, [9, 10]);
            assert_eq!(d.i64_vec()?, [-1, 0, 1]);
            let layer = d.linear()?;
            assert!(d.is_done());
            Ok(layer)
        };
        assert_eq!(decode(&bytes), Ok(layer));
        for len in 0..bytes.len() {
            assert_eq!(
                decode(&bytes[..len]),
                Err(DecodeError::UnexpectedEof),
                "prefix of {len} bytes"
            );
        }
    }

    #[test]
    fn record_counts_are_bounded_by_remaining_input() {
        let mut e = Encoder::new();
        e.u64(3); // 3 records claimed…
        e.u64(0);
        e.u64(0);
        e.u64(0); // …and 24 bytes present: fits at 8 bytes/record.
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.count(8).unwrap(), 3);
        // The same prefix with a larger minimum record size cannot fit.
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.count(9), Err(DecodeError::Corrupt(_))));
        // An absurd count (the allocation-bomb shape) fails fast, even
        // when `count * min_bytes` would overflow.
        let mut e = Encoder::new();
        e.u64(u64::MAX);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.count(32), Err(DecodeError::Corrupt(_))));
    }

    #[test]
    fn corrupt_length_rejected_without_huge_alloc() {
        let mut e = Encoder::new();
        e.u64(u64::MAX); // absurd length prefix
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.f32_vec(), Err(DecodeError::Corrupt(_))));
    }

    #[test]
    fn corrupt_bias_rejected() {
        let l = Linear::new(2, 2, 1);
        let mut e = Encoder::new();
        e.matrix(2, 2, l.weights().data());
        e.f32_slice(&[0.0; 5]); // wrong bias length
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.linear(), Err(DecodeError::Corrupt(_))));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut e = Encoder::new();
        e.u64(2);
        let mut bytes = e.finish();
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.string(), Err(DecodeError::Corrupt(_))));
    }
}
