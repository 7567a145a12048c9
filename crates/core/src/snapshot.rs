//! Crash-safe snapshot persistence for served sketches.
//!
//! A trained sketch is the paper's durable artifact — "a wrapper for a
//! (serialized) neural network and a set of materialized samples" — but a
//! serving process also accumulates state worth surviving a crash: the
//! training-time q-error baseline travels inside the sketch bytes, and the
//! rolling [`crate::monitor::QErrorMonitor`] windows carry the online
//! drift signal. A snapshot freezes all of it into one self-validating
//! file.
//!
//! ## On-disk format (`DSNP` version 1)
//!
//! The body is written with [`ds_nn::serialize::Encoder`] — all integers
//! little-endian, strings and vectors behind a `u64` length — inside the
//! envelope [`seal`] and [`open`] own, which the harvest sets of
//! [`crate::lifecycle`] (`DSHV`) share:
//!
//! ```text
//! magic "DSNP" | version u32
//! name          : u64 length + UTF-8 bytes
//! generation    : u64
//! sketch blob   : u64 length + DeepSketch::to_bytes payload
//! monitor flag  : u64 (0 = absent, 1 = present)
//! [ overall window : u64 count + words
//!   template count : u64
//!   per template   : name string + u64 count + words ]
//! checksum      : FNV-1a 64 over every preceding byte
//! ```
//!
//! The trailing checksum covers the entire body, so any truncation or
//! bit-flip anywhere in the file fails validation — there is no padding or
//! ignored region an undetected corruption could hide in.
//!
//! ## Write protocol
//!
//! [`write_snapshot_bytes`] is atomic against crashes: the payload goes to
//! `<name>.<generation>.tmp`, is fsynced, renamed over the final
//! `<name>.<generation>.snap`, and the directory is fsynced. A crash at
//! any point leaves either the previous generation intact or both the
//! previous generation and a temp/corrupt file that recovery discards —
//! never a torn "latest" file that silently decodes.
//!
//! The writer takes no fault parameter. A test injects a fault by writing
//! what the fault would have left behind: truncated or bit-flipped bytes
//! through [`write_snapshot_bytes`], or a `.tmp` file by hand.
//!
//! Whatever recovery or a `SYNC` refuses is kept by [`quarantine`] under
//! `<dir>/quarantine/`, the one writer of that directory.

use std::fs::{self, File};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};

use ds_nn::serialize::{DecodeError, Decoder, Encoder};

use crate::monitor::MonitorState;
use crate::sketch::DeepSketch;

/// Magic bytes of a snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"DSNP";

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// File extension of durable snapshots (`<name>.<generation>.snap`).
pub const SNAPSHOT_EXT: &str = "snap";

/// File extension of in-flight temp files, never considered durable.
pub const SNAPSHOT_TMP_EXT: &str = "tmp";

/// Sanity caps on decoded lengths so corrupt prefixes fail fast instead of
/// attempting huge allocations.
const MAX_NAME_LEN: u64 = 256;
const MAX_SKETCH_LEN: u64 = 1 << 31;
const MAX_WORDS_LEN: u64 = 1 << 24;
const MAX_TEMPLATES: u64 = 1 << 20;

/// Typed failures of snapshot encode/decode/IO. Every corruption mode a
/// truncation or bit-flip can produce maps here — the decoder never
/// panics on untrusted bytes.
#[derive(Debug)]
pub enum SnapshotError {
    /// Disk I/O failed.
    Io(std::io::Error),
    /// The file is too short to even hold the header and checksum.
    Truncated,
    /// The magic bytes are not `DSNP` — not a snapshot file.
    BadMagic,
    /// A snapshot from an unknown (future) format version.
    BadVersion(u32),
    /// The trailing checksum does not match the body.
    ChecksumMismatch {
        /// Checksum stored in the file trailer.
        stored: u64,
        /// Checksum recomputed over the body.
        actual: u64,
    },
    /// A structural invariant inside the body failed.
    Corrupt(String),
    /// The embedded sketch blob failed to decode.
    Sketch(DecodeError),
    /// The sketch name is not usable as a snapshot filename.
    InvalidName(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Truncated => write!(f, "snapshot file truncated"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::ChecksumMismatch { stored, actual } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
            ),
            SnapshotError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
            SnapshotError::Sketch(e) => write!(f, "snapshot sketch payload: {e}"),
            SnapshotError::InvalidName(n) => write!(f, "invalid sketch name for snapshot: '{n}'"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// FNV-1a 64-bit checksum — fast, dependency-free, and plenty to detect
/// the accidental corruption (torn writes, bit rot) snapshots defend
/// against. Not a cryptographic integrity guarantee.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hex-encodes snapshot bytes for wire shipping: a single whitespace-free
/// token that survives the serving layer's one-line text protocol
/// (`SNAPSHOT`/`SYNC`). Lowercase, two digits per byte.
pub fn encode_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0x0f) as usize] as char);
    }
    out
}

/// Decodes [`encode_hex`] output back into bytes. `None` on odd length or
/// any non-hex character — a garbled transfer fails here before the
/// checksummed body is even looked at.
pub fn decode_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let digit = |c: u8| -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            b'A'..=b'F' => Some(c - b'A' + 10),
            _ => None,
        }
    };
    s.as_bytes()
        .chunks_exact(2)
        .map(|pair| Some(digit(pair[0])? << 4 | digit(pair[1])?))
        .collect()
}

/// True when `name` can appear in a snapshot filename: non-empty, at most
/// 128 bytes, and limited to `[A-Za-z0-9._-]` without leading dots (no
/// path separators, no hidden files, round-trips through the
/// `<name>.<generation>.snap` filename scheme).
pub fn valid_snapshot_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

/// The durable path of `name`'s snapshot at `generation`. Generations are
/// zero-padded so lexical directory order equals generation order.
pub fn snapshot_path(dir: &Path, name: &str, generation: u64) -> PathBuf {
    dir.join(format!("{name}.{generation:020}.{SNAPSHOT_EXT}"))
}

/// Parses `<name>.<generation>.snap` back into `(name, generation)`.
/// Returns `None` for temp files, quarantined debris, and anything else.
pub fn parse_snapshot_filename(file_name: &str) -> Option<(String, u64)> {
    let stem = file_name.strip_suffix(&format!(".{SNAPSHOT_EXT}"))?;
    let (name, generation) = stem.rsplit_once('.')?;
    // Zero-padded fixed-width generations only; rejects e.g. "a.1.snap"
    // debris that this writer never produced.
    if generation.len() != 20 || !generation.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let generation: u64 = generation.parse().ok()?;
    if !valid_snapshot_name(name) {
        return None;
    }
    Some((name.to_string(), generation))
}

/// A decoded snapshot: everything needed to resume serving a sketch where
/// the crashed process left off.
#[derive(Debug)]
pub struct SketchSnapshot {
    /// Store name the sketch was registered under.
    pub name: String,
    /// Store generation the snapshot captured.
    pub generation: u64,
    /// The sketch itself (model, samples, q-error baseline).
    pub sketch: DeepSketch,
    /// Rolling q-error monitor windows, when the sketch had feedback.
    pub monitor: Option<MonitorState>,
}

/// Seals a body into the envelope every checksummed blob of this crate
/// shares: `magic | u32 version | body | FNV-1a-64 of all before it`.
pub fn seal(magic: &[u8; 4], version: u32, body: impl FnOnce(&mut Encoder)) -> Vec<u8> {
    let mut e = Encoder::new();
    e.header(magic, version);
    body(&mut e);
    let mut bytes = e.finish();
    let sum = checksum(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

/// Checks the envelope [`seal`] wrote — length, magic, a version between 1
/// and `version`, checksum, in that order — and returns a decoder over the
/// body.
pub fn open<'a>(
    bytes: &'a [u8],
    magic: &[u8; 4],
    version: u32,
) -> Result<Decoder<'a>, SnapshotError> {
    // Header + checksum trailer are the minimum plausible blob.
    let (Some((&[m0, m1, m2, m3, v0, v1, v2, v3], _)), Some((body, trailer)), true) = (
        bytes.split_first_chunk::<8>(),
        bytes.split_last_chunk::<8>(),
        bytes.len() >= 4 + 4 + 8,
    ) else {
        return Err(SnapshotError::Truncated);
    };
    if [m0, m1, m2, m3] != *magic {
        return Err(SnapshotError::BadMagic);
    }
    let found = u32::from_le_bytes([v0, v1, v2, v3]);
    if found == 0 || found > version {
        return Err(SnapshotError::BadVersion(found));
    }
    let stored = u64::from_le_bytes(*trailer);
    let actual = checksum(body);
    if stored != actual {
        return Err(SnapshotError::ChecksumMismatch { stored, actual });
    }
    Ok(Decoder::new(&body[8..]))
}

/// A body ends where the decoder says it does: running out of bytes is
/// truncation, anything else it objects to is corruption.
pub(crate) fn body_error(e: DecodeError) -> SnapshotError {
    match e {
        DecodeError::UnexpectedEof => SnapshotError::Truncated,
        DecodeError::BadHeader(m) | DecodeError::Corrupt(m) => SnapshotError::Corrupt(m),
    }
}

/// Reads a length prefix and holds it to `cap` before anything is
/// allocated for it.
pub(crate) fn bounded_len(d: &mut Decoder, cap: u64, what: &str) -> Result<usize, SnapshotError> {
    let n = d.u64().map_err(body_error)?;
    if n > cap {
        return Err(SnapshotError::Corrupt(format!(
            "{what} length {n} too large"
        )));
    }
    Ok(n as usize)
}

/// Reads a string of at most `cap` bytes.
pub(crate) fn bounded_string(
    d: &mut Decoder,
    cap: u64,
    what: &str,
) -> Result<String, SnapshotError> {
    let n = bounded_len(d, cap, what)?;
    String::from_utf8(d.take(n).map_err(body_error)?.to_vec())
        .map_err(|_| SnapshotError::Corrupt(format!("{what} is not UTF-8")))
}

fn bounded_words(d: &mut Decoder, what: &str) -> Result<Vec<u64>, SnapshotError> {
    let n = bounded_len(d, MAX_WORDS_LEN, what)?;
    let (words, _) = d.take(n * 8).map_err(body_error)?.as_chunks::<8>();
    Ok(words.iter().map(|w| u64::from_le_bytes(*w)).collect())
}

/// Serializes one sketch (plus optional monitor state) into the checksummed
/// `DSNP` byte layout described in the module docs.
pub fn encode_snapshot(
    name: &str,
    generation: u64,
    sketch: &DeepSketch,
    monitor: Option<&MonitorState>,
) -> Vec<u8> {
    seal(&SNAPSHOT_MAGIC, SNAPSHOT_VERSION, |e| {
        e.string(name);
        e.u64(generation);
        e.bytes(&sketch.to_bytes());
        match monitor {
            None => e.u64(0),
            Some(state) => {
                e.u64(1);
                e.u64_slice(&state.overall);
                e.u64(state.templates.len() as u64);
                for (template, words) in &state.templates {
                    e.string(template);
                    e.u64_slice(words);
                }
            }
        }
    })
}

/// Decodes and fully validates a snapshot. Corruption anywhere — header,
/// body, checksum trailer — returns a typed [`SnapshotError`]; this
/// function never panics on arbitrary input.
pub fn decode_snapshot(bytes: &[u8]) -> Result<SketchSnapshot, SnapshotError> {
    let mut d = open(bytes, &SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?;
    let name = bounded_string(&mut d, MAX_NAME_LEN, "sketch name")?;
    if !valid_snapshot_name(&name) {
        return Err(SnapshotError::Corrupt(format!(
            "invalid sketch name '{name}'"
        )));
    }
    let generation = d.u64().map_err(body_error)?;
    let sketch_len = bounded_len(&mut d, MAX_SKETCH_LEN, "sketch blob")?;
    let sketch_bytes = d.take(sketch_len).map_err(body_error)?;
    let sketch = DeepSketch::from_bytes(sketch_bytes).map_err(SnapshotError::Sketch)?;
    let monitor = match d.u64().map_err(body_error)? {
        0 => None,
        1 => {
            let overall = bounded_words(&mut d, "overall window")?;
            let n = bounded_len(&mut d, MAX_TEMPLATES, "template count")?;
            let mut templates = Vec::with_capacity(n);
            for _ in 0..n {
                let template = bounded_string(&mut d, MAX_NAME_LEN, "template name")?;
                let words = bounded_words(&mut d, "template window")?;
                templates.push((template, words));
            }
            Some(MonitorState { overall, templates })
        }
        other => {
            return Err(SnapshotError::Corrupt(format!("bad monitor flag {other}")));
        }
    };
    if !d.is_done() {
        return Err(SnapshotError::Corrupt(
            "trailing bytes after snapshot body".to_string(),
        ));
    }
    Ok(SketchSnapshot {
        name,
        generation,
        sketch,
        monitor,
    })
}

/// Atomically publishes pre-encoded snapshot bytes as
/// `<dir>/<name>.<generation>.snap` using the write-temp → fsync → rename
/// → fsync-dir protocol. Returns the durable path.
pub fn write_snapshot_bytes(
    dir: &Path,
    name: &str,
    generation: u64,
    bytes: &[u8],
) -> Result<PathBuf, SnapshotError> {
    if !valid_snapshot_name(name) {
        return Err(SnapshotError::InvalidName(name.to_string()));
    }
    let tmp = dir.join(format!("{name}.{generation:020}.{SNAPSHOT_TMP_EXT}"));
    publish(dir, tmp, snapshot_path(dir, name, generation), bytes)
}

/// The one way bytes become durable in this crate: written to `tmp`,
/// fsynced, renamed over `path`, and the directory fsynced, so a crash
/// leaves the old file or the new one and never a torn mix. Returns `path`.
pub(crate) fn publish(
    dir: &Path,
    tmp: PathBuf,
    path: PathBuf,
    payload: &[u8],
) -> Result<PathBuf, SnapshotError> {
    fs::create_dir_all(dir)?;
    {
        let mut f = File::create(&tmp)?;
        f.write_all(payload)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, &path)?;
    // Make the rename itself durable: fsync the containing directory.
    File::open(dir)?.sync_all()?;
    Ok(path)
}

/// Keeps refused bytes for a post-mortem as `<dir>/quarantine/<file_name>`,
/// or, when a file of that name is already there, as the first free
/// `<file_name>.<n>`: no copy kept earlier, by this process or another, is
/// ever overwritten. Returns where the bytes went.
pub fn quarantine(dir: &Path, file_name: &str, bytes: &[u8]) -> std::io::Result<PathBuf> {
    let qdir = dir.join("quarantine");
    fs::create_dir_all(&qdir)?;
    for n in 0u32.. {
        let path = match n {
            0 => qdir.join(file_name),
            n => qdir.join(format!("{file_name}.{n}")),
        };
        match File::create_new(&path) {
            Ok(mut file) => return file.write_all(bytes).map(|()| path),
            Err(e) if e.kind() == ErrorKind::AlreadyExists => {}
            Err(e) => return Err(e),
        }
    }
    Err(ErrorKind::AlreadyExists.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_stable_and_sensitive() {
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
        let a = checksum(b"deep sketch");
        assert_eq!(a, checksum(b"deep sketch"), "deterministic");
        assert_ne!(a, checksum(b"deep sketcH"));
        assert_ne!(a, checksum(b"deep sketc"));
    }

    #[test]
    fn hex_roundtrips_and_rejects_garble() {
        let bytes: Vec<u8> = (0..=255u8).collect();
        let hex = encode_hex(&bytes);
        assert_eq!(hex.len(), 512);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(decode_hex(&hex).unwrap(), bytes);
        assert_eq!(decode_hex(&hex.to_ascii_uppercase()).unwrap(), bytes);
        assert_eq!(decode_hex(""), Some(Vec::new()));
        assert_eq!(decode_hex("abc"), None, "odd length");
        assert_eq!(decode_hex("zz"), None, "non-hex digit");
        assert_eq!(decode_hex("a b1"), None, "embedded space");
    }

    #[test]
    fn filenames_roundtrip_and_reject_debris() {
        let p = snapshot_path(Path::new("/x"), "imdb", 42);
        let file = p.file_name().unwrap().to_str().unwrap();
        assert_eq!(parse_snapshot_filename(file), Some(("imdb".into(), 42)));
        // Lexical order equals generation order thanks to zero padding.
        let older = snapshot_path(Path::new("/x"), "imdb", 9);
        assert!(older.file_name().unwrap() < p.file_name().unwrap());
        for bad in [
            "imdb.42.snap",                   // unpadded
            "imdb.00000000000000000042.tmp",  // temp file
            "imdb.00000000000000000042",      // no extension
            ".00000000000000000042.snap",     // empty name
            "a/b.00000000000000000042.snap",  // path separator
            "imdb.0000000000000000004x.snap", // non-digit generation
            "quarantine",                     // directory debris
        ] {
            assert_eq!(parse_snapshot_filename(bad), None, "{bad}");
        }
    }

    #[test]
    fn name_validation_blocks_path_tricks() {
        assert!(valid_snapshot_name("imdb"));
        assert!(valid_snapshot_name("imdb-v2.full_01"));
        for bad in [
            "",
            ".hidden",
            "a/b",
            "a\\b",
            "a b",
            "a\nb",
            &"x".repeat(129),
        ] {
            assert!(!valid_snapshot_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn decoder_rejects_headers_without_panicking() {
        assert!(matches!(
            decode_snapshot(b""),
            Err(SnapshotError::Truncated)
        ));
        assert!(matches!(
            decode_snapshot(b"NOPE00000000000000000000"),
            Err(SnapshotError::BadMagic)
        ));
        let mut future = Vec::new();
        future.extend_from_slice(&SNAPSHOT_MAGIC);
        future.extend_from_slice(&999u32.to_le_bytes());
        future.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            decode_snapshot(&future),
            Err(SnapshotError::BadVersion(999))
        ));
        // Valid header, garbage checksum trailer.
        let mut bad_sum = Vec::new();
        bad_sum.extend_from_slice(&SNAPSHOT_MAGIC);
        bad_sum.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        bad_sum.extend_from_slice(&[7u8; 16]);
        assert!(matches!(
            decode_snapshot(&bad_sum),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn writes_publish_durably_and_quarantine_keeps_every_copy() {
        let dir = std::env::temp_dir().join(format!("ds_snap_write_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let bytes: Vec<u8> = (0..64u8).collect();

        // A write publishes the final file and leaves no temp behind.
        let path = write_snapshot_bytes(&dir, "s", 1, &bytes).unwrap();
        assert_eq!(path, snapshot_path(&dir, "s", 1));
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        assert!(!dir.join("s.00000000000000000001.tmp").exists());
        assert!(matches!(
            write_snapshot_bytes(&dir, "../evil", 1, &bytes),
            Err(SnapshotError::InvalidName(_))
        ));

        // The same name quarantined three times keeps three copies.
        let kept: Vec<PathBuf> = (0..3u8)
            .map(|i| quarantine(&dir, "s.snap", &[i]).unwrap())
            .collect();
        let names: Vec<_> = kept.iter().map(|p| p.file_name().unwrap()).collect();
        assert_eq!(names, ["s.snap", "s.snap.1", "s.snap.2"]);
        for (i, path) in kept.iter().enumerate() {
            assert_eq!(std::fs::read(path).unwrap(), [i as u8]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
