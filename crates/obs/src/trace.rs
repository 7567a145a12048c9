//! Cross-process trace propagation: a compact context carried on the
//! wire so one request can be followed across the client → shard
//! boundary.
//!
//! A [`TraceContext`] is a 128-bit trace id plus the 64-bit span id of
//! the sender — the minimum needed to stitch per-process
//! `RequestTimeline` exemplars into one causal tree. On the line
//! protocol it travels as an optional trailing token on `ESTIMATE` /
//! `FEEDBACK` requests:
//!
//! ```text
//! trace=<32 lowercase hex chars>.<16 lowercase hex chars>
//! ```
//!
//! The format is fixed-width and strictly validated: exactly 32 hex
//! digits, a `.`, exactly 16 hex digits, and neither id zero (zero is
//! the in-memory "untraced" sentinel). Parsing and formatting are exact
//! inverses, which the protocol fuzz harness relies on.
//!
//! Ids are minted by an [`IdSource`] — a seeded splitmix64 mixer over a
//! monotone counter, following the workspace's deterministic-PRNG idiom.
//! No wall clock is read on any minting path; the only entropy is taken
//! once at construction (see [`IdSource::from_entropy`]).

use std::sync::atomic::{AtomicU64, Ordering};

/// Width of the trace-id half of the wire token, in hex digits.
const TRACE_HEX: usize = 32;
/// Width of the span-id half of the wire token, in hex digits.
const SPAN_HEX: usize = 16;

/// A propagated trace identity: which end-to-end request this work
/// belongs to (`trace_id`) and which span caused it (`span_id`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// 128-bit id shared by every span of one end-to-end request. Never
    /// zero on a valid context.
    pub trace_id: u128,
    /// 64-bit id of the span that sent this request — the parent of
    /// whatever span the receiver opens. Never zero on a valid context.
    pub span_id: u64,
}

impl TraceContext {
    /// Renders the wire token *value* (without the `trace=` key):
    /// `<32 hex>.<16 hex>`, zero-padded lowercase.
    pub fn to_token(&self) -> String {
        format!("{:032x}.{:016x}", self.trace_id, self.span_id)
    }

    /// Parses a token rendered by [`TraceContext::to_token`]. Strict:
    /// fixed widths, lowercase-or-uppercase hex only, both ids nonzero.
    /// Returns `None` on anything else — the protocol layer maps that to
    /// a typed `ERR`, never a panic.
    pub fn parse_token(s: &str) -> Option<Self> {
        let bytes = s.as_bytes();
        if bytes.len() != TRACE_HEX + 1 + SPAN_HEX || bytes[TRACE_HEX] != b'.' {
            return None;
        }
        let (trace_hex, rest) = s.split_at(TRACE_HEX);
        let span_hex = &rest[1..];
        if !trace_hex.bytes().all(|b| b.is_ascii_hexdigit())
            || !span_hex.bytes().all(|b| b.is_ascii_hexdigit())
        {
            return None;
        }
        let trace_id = u128::from_str_radix(trace_hex, 16).ok()?;
        let span_id = u64::from_str_radix(span_hex, 16).ok()?;
        if trace_id == 0 || span_id == 0 {
            return None;
        }
        Some(Self { trace_id, span_id })
    }
}

/// splitmix64: a full-period 64-bit mixer. Statistically strong enough
/// for ids, trivially cheap, and deterministic for a given seed.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A lock-free id minter: a seeded monotone counter scrambled through
/// splitmix64. One `fetch_add` per id — safe to share across the
/// serving threads without contention worth measuring.
#[derive(Debug)]
pub struct IdSource {
    seed: u64,
    ctr: AtomicU64,
}

impl IdSource {
    /// A deterministic source: the id sequence is a pure function of
    /// `seed`. Tests use this; servers and clients use
    /// [`IdSource::from_entropy`].
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ctr: AtomicU64::new(0),
        }
    }

    /// A source seeded from cheap per-process entropy (pid + ASLR), read
    /// once at construction — minting itself never touches a clock.
    pub fn from_entropy() -> Self {
        let aslr = {
            let probe = Box::new(0u8);
            std::ptr::from_ref(&*probe) as u64
        };
        Self::new(splitmix64(u64::from(std::process::id())) ^ splitmix64(aslr.rotate_left(17)))
    }

    fn draw(&self) -> u64 {
        let n = self.ctr.fetch_add(1, Ordering::Relaxed);
        self.seed ^ splitmix64(n.wrapping_add(self.seed))
    }

    /// Mints a nonzero 64-bit span id.
    pub fn next_span(&self) -> u64 {
        loop {
            let id = self.draw();
            if id != 0 {
                return id;
            }
        }
    }

    /// Mints a nonzero 128-bit trace id from two draws.
    pub fn next_trace(&self) -> u128 {
        loop {
            let id = (u128::from(self.draw()) << 64) | u128::from(self.draw());
            if id != 0 {
                return id;
            }
        }
    }

    /// Mints a fresh root context: new trace id, new root span id.
    pub fn mint(&self) -> TraceContext {
        TraceContext {
            trace_id: self.next_trace(),
            span_id: self.next_span(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_roundtrip_exactly() {
        let src = IdSource::new(7);
        for _ in 0..100 {
            let ctx = src.mint();
            let tok = ctx.to_token();
            assert_eq!(tok.len(), TRACE_HEX + 1 + SPAN_HEX);
            assert_eq!(TraceContext::parse_token(&tok), Some(ctx));
            // Formatting the reparse reproduces the token byte for byte —
            // the fixed point the protocol fuzzer checks.
            assert_eq!(TraceContext::parse_token(&tok).unwrap().to_token(), tok);
        }
    }

    #[test]
    fn malformed_tokens_are_rejected() {
        let good = IdSource::new(3).mint().to_token();
        for bad in [
            "",
            "xyz",
            &good[1..],                                          // too short
            &format!("{good}0"),                                 // too long
            &good.replace('.', ":"),                             // wrong separator
            &format!("{}g{}", &good[..10], &good[11..]) as &str, // non-hex digit
            &format!("{:032x}.{:016x}", 0u128, 5u64),            // zero trace id
            &format!("{:032x}.{:016x}", 5u128, 0u64),            // zero span id
        ] {
            assert_eq!(TraceContext::parse_token(bad), None, "accepted {bad:?}");
        }
    }

    #[test]
    fn id_sources_are_deterministic_per_seed_and_never_zero() {
        let a = IdSource::new(42);
        let b = IdSource::new(42);
        let seq_a: Vec<u64> = (0..64).map(|_| a.next_span()).collect();
        let seq_b: Vec<u64> = (0..64).map(|_| b.next_span()).collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().all(|&id| id != 0));
        let uniq: std::collections::HashSet<_> = seq_a.iter().collect();
        assert_eq!(uniq.len(), seq_a.len(), "span ids must not repeat");
    }
}
