//! The wire protocol: one request line in, one response line out.
//!
//! Requests (keywords case-insensitive, arguments case-sensitive):
//!
//! ```text
//! HELLO <version>              check that both peers speak this protocol:
//!                              `OK HELLO 3`, or a typed
//!                              `ERR version-mismatch`
//! ESTIMATE <sketch> <sql…> [trace=<id>.<span>]
//!                              estimate one query with a named sketch;
//!                              the optional trailing token carries a
//!                              propagated [`TraceContext`]
//! FEEDBACK <sketch> <actual> <sql…> [trace=<id>.<span>]
//!                              estimate AND record the observed true
//!                              cardinality into the drift monitor
//! INFO <sketch>                the sketch's summary card
//! LIST                         every sketch name, sorted
//! SNAPSHOT <sketch>            export the sketch as a hex-encoded `DSNP`
//!                              blob: `OK SNAPSHOT <name> <gen> <len> <hex>`
//! SYNC <name> <gen> <len> <hex>
//!                              offer a `DSNP` blob for adoption
//!                              (newest-wins): `OK SYNC <name> <gen>
//!                              adopted|stale`, or `ERR decode` when the
//!                              transfer fails checksum validation
//! LIFECYCLE <sketch>           the retrain-and-hot-swap lifecycle status
//!                              of a sketch: phase, harvested count,
//!                              paired shadow ratio, swap/rollback counters
//! STATS                        Prometheus-style text exposition of every
//!                              counter, gauge, and histogram (newlines
//!                              escaped as literal `\n` on the wire)
//! TRACE                        recent slow-request exemplars with their
//!                              per-stage latency decomposition
//! QUIT                         close the connection
//! ```
//!
//! ## Versioning
//!
//! There is one version, [`PROTOCOL_VERSION`], and every build speaks all
//! of it. `HELLO` is the check that a peer does too: [`hello_response`]
//! answers `OK HELLO 3` to version 3 and a typed
//! [`ErrorCode::VersionMismatch`] to any other, so a peer from another
//! build fails at connect instead of garbling later lines. Tokens after
//! the version are read past, so a peer that still lists features after
//! it connects all the same. A connection need not send `HELLO` at all.
//!
//! Responses (always exactly one line, `\n`-terminated):
//!
//! ```text
//! OK <payload>                 success; payload depends on the request
//! ERR <code> <message>         typed failure (codes in [`ErrorCode`])
//! BUSY <message>               connection limit reached — shed, retry later
//! BYE                          answer to QUIT
//! ```
//!
//! Everything is UTF-8 text. Embedded newlines in payloads are replaced by
//! spaces so the one-line invariant holds unconditionally.

use ds_core::store::StoreError;
use ds_est::EstimateError;
use ds_obs::TraceContext;

/// The wire protocol version, the only one this build speaks.
pub const PROTOCOL_VERSION: u32 = 3;

/// A parsed client request. Its text arguments are `String`s wherever a
/// request is built or kept; the server's handlers read `Request<&str>`,
/// whose arguments are slices of the request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request<S = String> {
    /// `HELLO <version>` — check that both peers speak this protocol.
    Hello {
        /// The sender's protocol version.
        version: u32,
    },
    /// `ESTIMATE <sketch> <sql> [trace=…]` — estimate `sql` with the
    /// named sketch.
    Estimate {
        /// Sketch name in the store.
        sketch: S,
        /// The `SELECT COUNT(*)` query text.
        sql: S,
        /// Propagated trace identity from the optional trailing
        /// `trace=` token; `None` for an untraced request.
        trace: Option<TraceContext>,
    },
    /// `FEEDBACK <sketch> <actual> <sql> [trace=…]` — estimate `sql`
    /// exactly like `ESTIMATE` (same batcher path, bit-identical
    /// result), then record the q-error against the observed true
    /// cardinality `actual` into the sketch's rolling accuracy monitor.
    Feedback {
        /// Sketch name in the store.
        sketch: S,
        /// The true cardinality the system observed for this query.
        actual: u64,
        /// The `SELECT COUNT(*)` query text.
        sql: S,
        /// Propagated trace identity from the optional trailing
        /// `trace=` token; `None` for an untraced request.
        trace: Option<TraceContext>,
    },
    /// `INFO <sketch>` — summary card of the named sketch.
    Info {
        /// Sketch name in the store.
        sketch: S,
    },
    /// `LIST` — every sketch name, sorted.
    List,
    /// `SNAPSHOT <sketch>` — export the named sketch as a hex-encoded,
    /// checksum-authenticated `DSNP` blob at its current generation.
    Snapshot {
        /// Sketch name in the store.
        sketch: S,
    },
    /// `SYNC <name> <generation> <len> <hex>` — offer a `DSNP` blob for
    /// newest-wins adoption. `len` is the decoded byte length, a cheap
    /// transfer-level guard in front of the blob's own checksum trailer.
    Sync {
        /// Sketch name the sender claims the blob carries.
        name: S,
        /// Generation the sender claims the blob captures.
        generation: u64,
        /// Decoded byte length of the blob.
        len: u64,
        /// The hex-encoded `DSNP` bytes.
        hex: S,
    },
    /// `LIFECYCLE <sketch>` — the retrain-and-hot-swap lifecycle status of
    /// a sketch (phase, harvest size, paired shadow ratio, swap/rollback
    /// counters).
    Lifecycle {
        /// Sketch name in the store.
        sketch: S,
    },
    /// `STATS` — full Prometheus-style exposition.
    Stats,
    /// `TRACE` — recent slow-request exemplars.
    Trace,
    /// `QUIT` — close the connection.
    Quit,
}

impl<S> Request<S> {
    /// The same request with every text argument passed through `f`.
    fn map<T>(self, f: impl Fn(S) -> T) -> Request<T> {
        match self {
            Request::Hello { version } => Request::Hello { version },
            Request::Estimate { sketch, sql, trace } => Request::Estimate {
                sketch: f(sketch),
                sql: f(sql),
                trace,
            },
            Request::Feedback {
                sketch,
                actual,
                sql,
                trace,
            } => Request::Feedback {
                sketch: f(sketch),
                actual,
                sql: f(sql),
                trace,
            },
            Request::Info { sketch } => Request::Info { sketch: f(sketch) },
            Request::List => Request::List,
            Request::Snapshot { sketch } => Request::Snapshot { sketch: f(sketch) },
            Request::Sync {
                name,
                generation,
                len,
                hex,
            } => Request::Sync {
                name: f(name),
                generation,
                len,
                hex: f(hex),
            },
            Request::Lifecycle { sketch } => Request::Lifecycle { sketch: f(sketch) },
            Request::Stats => Request::Stats,
            Request::Trace => Request::Trace,
            Request::Quit => Request::Quit,
        }
    }
}

/// Machine-readable failure categories carried in `ERR` responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line itself is malformed.
    Proto,
    /// The SQL failed to parse.
    Parse,
    /// No sketch with that name.
    UnknownSketch,
    /// The sketch exists but cannot answer now: its circuit breaker is
    /// open with no fallback, or its estimator is unavailable.
    NotReady,
    /// The query references tables/columns outside the sketch.
    Vocabulary,
    /// No fleet member covers the query.
    Unroutable,
    /// A persisted model failed to decode.
    Decode,
    /// The request exceeded its deadline.
    Timeout,
    /// The peer speaks another protocol version than
    /// [`PROTOCOL_VERSION`].
    VersionMismatch,
    /// Internal estimation failure.
    Internal,
}

impl ErrorCode {
    /// Stable wire token of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Proto => "proto",
            ErrorCode::Parse => "parse",
            ErrorCode::UnknownSketch => "unknown-sketch",
            ErrorCode::NotReady => "not-ready",
            ErrorCode::Vocabulary => "vocabulary",
            ErrorCode::Unroutable => "unroutable",
            ErrorCode::Decode => "decode",
            ErrorCode::Timeout => "timeout",
            ErrorCode::VersionMismatch => "version-mismatch",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses a wire token back into a code (client side).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "proto" => ErrorCode::Proto,
            "parse" => ErrorCode::Parse,
            "unknown-sketch" => ErrorCode::UnknownSketch,
            "not-ready" => ErrorCode::NotReady,
            "vocabulary" => ErrorCode::Vocabulary,
            "unroutable" => ErrorCode::Unroutable,
            "decode" => ErrorCode::Decode,
            "timeout" => ErrorCode::Timeout,
            "version-mismatch" => ErrorCode::VersionMismatch,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `OK <estimate>` — the estimated cardinality.
    Estimate(f64),
    /// `OK <estimate> degraded` — an estimate answered by the fallback
    /// estimator because the requested sketch is unhealthy (poisoned model,
    /// open circuit breaker). The value is real but comes from a coarser
    /// model; clients that ignore the flag still parse the number.
    Degraded(f64),
    /// `OK <text>` — free-form single-line payload (INFO, LIST, STATS).
    Text(String),
    /// `ERR <code> <message>`.
    Error {
        /// Failure category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// `BUSY <message>` — connection shed at the connection limit.
    Busy(String),
    /// `BYE` — connection closing.
    Bye,
}

/// Splits an optional trailing `trace=<token>` off a request's SQL tail.
/// A last token that *claims* to be a trace (`trace=` prefix) but fails
/// the strict [`TraceContext::parse_token`] validation is a protocol
/// error — it is never silently passed through as SQL.
fn split_trace(tail: &str) -> Result<(&str, Option<TraceContext>), Response> {
    let (head, last) = match tail.rsplit_once(char::is_whitespace) {
        Some((head, last)) => (head, last),
        None => ("", tail),
    };
    let Some(token) = last.strip_prefix("trace=") else {
        return Ok((tail, None));
    };
    match TraceContext::parse_token(token) {
        Some(ctx) => Ok((head.trim_end(), Some(ctx))),
        None => Err(Response::Error {
            code: ErrorCode::Proto,
            message: format!("malformed trace token '{last}'"),
        }),
    }
}

/// The argument `rest` starts with and what follows its delimiter — one
/// white-space character, so a doubled one reads as an empty argument.
/// Whoever takes the remainder as the last argument trims it.
fn next_arg(rest: &str) -> (&str, &str) {
    rest.split_once(char::is_whitespace).unwrap_or((rest, ""))
}

/// Parses one request line. Returns a [`Response::Error`] (proto code) on
/// malformed input so callers can echo it straight back.
pub fn parse_request(line: &str) -> Result<Request, Response> {
    split_request(line).map(|request| request.map(str::to_string))
}

/// [`parse_request`] without the copies — the one request grammar: the verb
/// is matched and the arguments are validated and returned as slices of
/// `line`.
pub(crate) fn split_request(line: &str) -> Result<Request<&str>, Response> {
    let (verb, rest) = next_arg(line.trim());
    let rest = rest.trim();
    let is = |name: &str| verb.eq_ignore_ascii_case(name);
    let usage = |usage: &str| Response::Error {
        code: ErrorCode::Proto,
        message: format!("usage: {usage}"),
    };
    if is("ESTIMATE") {
        let (sketch, tail) = next_arg(rest);
        let (sql, trace) = split_trace(tail.trim())?;
        if sketch.is_empty() || sql.is_empty() {
            return Err(usage("ESTIMATE <sketch> <sql> [trace=<id>.<span>]"));
        }
        Ok(Request::Estimate { sketch, sql, trace })
    } else if is("FEEDBACK") {
        let usage = || usage("FEEDBACK <sketch> <actual-cardinality> <sql> [trace=<id>.<span>]");
        let (sketch, rest) = next_arg(rest);
        let (actual, tail) = next_arg(rest);
        let (sql, trace) = split_trace(tail.trim())?;
        if sketch.is_empty() || sql.is_empty() {
            return Err(usage());
        }
        let actual: u64 = actual.parse().map_err(|_| usage())?;
        Ok(Request::Feedback {
            sketch,
            actual,
            sql,
            trace,
        })
    } else if is("HELLO") {
        // Whatever follows the version (the feature list older builds
        // sent) is read past.
        let (version, _) = next_arg(rest);
        let version = version.parse().map_err(|_| usage("HELLO <version>"))?;
        Ok(Request::Hello { version })
    } else if is("SNAPSHOT") {
        if rest.is_empty() || rest.contains(char::is_whitespace) {
            return Err(usage("SNAPSHOT <sketch>"));
        }
        Ok(Request::Snapshot { sketch: rest })
    } else if is("SYNC") {
        let usage = || usage("SYNC <name> <generation> <len> <hex>");
        let (name, rest) = next_arg(rest);
        let (generation, rest) = next_arg(rest);
        let (len, hex) = next_arg(rest);
        let hex = hex.trim();
        if name.is_empty() || hex.is_empty() {
            return Err(usage());
        }
        let generation: u64 = generation.parse().map_err(|_| usage())?;
        let len: u64 = len.parse().map_err(|_| usage())?;
        Ok(Request::Sync {
            name,
            generation,
            len,
            hex,
        })
    } else if is("INFO") {
        if rest.is_empty() {
            return Err(usage("INFO <sketch>"));
        }
        Ok(Request::Info { sketch: rest })
    } else if is("LIFECYCLE") {
        if rest.is_empty() || rest.contains(char::is_whitespace) {
            return Err(usage("LIFECYCLE <sketch>"));
        }
        Ok(Request::Lifecycle { sketch: rest })
    } else if is("LIST") {
        Ok(Request::List)
    } else if is("STATS") {
        Ok(Request::Stats)
    } else if is("TRACE") {
        Ok(Request::Trace)
    } else if is("QUIT") || is("EXIT") {
        Ok(Request::Quit)
    } else {
        Err(Response::Error {
            code: ErrorCode::Proto,
            message: format!("unknown command '{}'", verb.to_ascii_uppercase()),
        })
    }
}

/// Formats a request for the wire (client side).
pub fn format_request(req: &Request) -> String {
    match req {
        Request::Hello { version } => format!("HELLO {version}"),
        Request::Snapshot { sketch } => format!("SNAPSHOT {sketch}"),
        Request::Sync {
            name,
            generation,
            len,
            hex,
        } => format!("SYNC {name} {generation} {len} {hex}"),
        Request::Estimate { sketch, sql, trace } => match trace {
            Some(t) => format!("ESTIMATE {sketch} {sql} trace={}", t.to_token()),
            None => format!("ESTIMATE {sketch} {sql}"),
        },
        Request::Feedback {
            sketch,
            actual,
            sql,
            trace,
        } => match trace {
            Some(t) => format!("FEEDBACK {sketch} {actual} {sql} trace={}", t.to_token()),
            None => format!("FEEDBACK {sketch} {actual} {sql}"),
        },
        Request::Info { sketch } => format!("INFO {sketch}"),
        Request::Lifecycle { sketch } => format!("LIFECYCLE {sketch}"),
        Request::List => "LIST".to_string(),
        Request::Stats => "STATS".to_string(),
        Request::Trace => "TRACE".to_string(),
        Request::Quit => "QUIT".to_string(),
    }
}

/// Formats a response as its single wire line (no trailing newline).
pub fn format_response(resp: &Response) -> String {
    let mut line = String::new();
    write_response(&mut line, resp);
    line
}

/// Appends a response's single wire line (no trailing newline) to `out` —
/// [`format_response`] into a buffer the caller reuses.
pub fn write_response(out: &mut String, resp: &Response) {
    use std::fmt::Write as _;
    let one_line = |s: &str| s.replace(['\n', '\r'], " ");
    // Writing into a `String` cannot fail.
    let _ = match resp {
        // `{:?}`-style shortest-roundtrip float formatting: the client
        // reparses to the bit-identical f64. The degraded form only
        // *appends* a token, so the non-degraded line stays byte-identical
        // to what it was before degradation existed.
        Response::Estimate(v) => write!(out, "OK {v:?}"),
        Response::Degraded(v) => write!(out, "OK {v:?} degraded"),
        Response::Text(t) => write!(out, "OK {}", one_line(t)),
        Response::Error { code, message } => {
            write!(out, "ERR {} {}", code.as_str(), one_line(message))
        }
        Response::Busy(m) => write!(out, "BUSY {}", one_line(m)),
        Response::Bye => write!(out, "BYE"),
    };
}

/// Parses a response line (client side). `estimate` selects whether an
/// `OK` payload is interpreted as a number or as text.
pub fn parse_response(line: &str, estimate: bool) -> Result<Response, String> {
    let line = line.trim_end_matches(['\n', '\r']);
    if let Some(rest) = line.strip_prefix("OK ") {
        if estimate {
            let payload = rest.trim();
            let (number, degraded) = match payload.strip_suffix(" degraded") {
                Some(n) => (n.trim_end(), true),
                None => (payload, false),
            };
            return number
                .parse::<f64>()
                .map(if degraded {
                    Response::Degraded
                } else {
                    Response::Estimate
                })
                .map_err(|e| format!("bad estimate payload '{rest}': {e}"));
        }
        return Ok(Response::Text(rest.to_string()));
    }
    if let Some(rest) = line.strip_prefix("ERR ") {
        let mut parts = rest.splitn(2, ' ');
        let code = parts.next().unwrap_or("");
        let message = parts.next().unwrap_or("").to_string();
        let code = ErrorCode::parse(code).ok_or_else(|| format!("bad error code '{code}'"))?;
        return Ok(Response::Error { code, message });
    }
    if let Some(rest) = line.strip_prefix("BUSY") {
        return Ok(Response::Busy(rest.trim().to_string()));
    }
    if line == "BYE" {
        return Ok(Response::Bye);
    }
    Err(format!("unparseable response line: '{line}'"))
}

/// The answer to `HELLO <version>`, on every server that speaks this
/// protocol: `OK HELLO 3` when `version` is [`PROTOCOL_VERSION`], a typed
/// [`ErrorCode::VersionMismatch`] otherwise.
pub fn hello_response(version: u32) -> Response {
    if version == PROTOCOL_VERSION {
        Response::Text(format!("HELLO {PROTOCOL_VERSION}"))
    } else {
        Response::Error {
            code: ErrorCode::VersionMismatch,
            message: format!("this peer speaks protocol {PROTOCOL_VERSION}, not {version}"),
        }
    }
}

/// Maps an estimation failure to its wire error.
pub fn estimate_error_response(e: &EstimateError) -> Response {
    let code = match e {
        EstimateError::UnknownTable { .. } | EstimateError::UnknownColumn { .. } => {
            ErrorCode::Vocabulary
        }
        EstimateError::Unroutable { .. } => ErrorCode::Unroutable,
        EstimateError::Decode(_) => ErrorCode::Decode,
        EstimateError::Unavailable(_) => ErrorCode::NotReady,
        EstimateError::Execution(_) => ErrorCode::Internal,
    };
    Response::Error {
        code,
        message: e.to_string(),
    }
}

/// Maps a store failure to its wire error.
pub fn store_error_response(e: &StoreError) -> Response {
    let code = match e {
        StoreError::UnknownSketch(_) => ErrorCode::UnknownSketch,
        _ => ErrorCode::Internal,
    };
    Response::Error {
        code,
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip_through_the_wire_format() {
        let reqs = [
            Request::Hello { version: 3 },
            Request::Hello { version: 0 },
            Request::Snapshot {
                sketch: "imdb".into(),
            },
            Request::Sync {
                name: "imdb".into(),
                generation: 7,
                len: 4,
                hex: "deadbeef".into(),
            },
            Request::Estimate {
                sketch: "imdb".into(),
                sql: "SELECT COUNT(*) FROM title WHERE title.kind_id = 1".into(),
                trace: None,
            },
            Request::Estimate {
                sketch: "imdb".into(),
                sql: "SELECT COUNT(*) FROM title WHERE title.kind_id = 1".into(),
                trace: Some(TraceContext {
                    trace_id: 0xdead_beef_cafe_f00d_1234_5678_9abc_def0,
                    span_id: 0x0fed_cba9_8765_4321,
                }),
            },
            Request::Feedback {
                sketch: "imdb".into(),
                actual: 4321,
                sql: "SELECT COUNT(*) FROM title WHERE title.kind_id = 1".into(),
                trace: None,
            },
            Request::Feedback {
                sketch: "imdb".into(),
                actual: 4321,
                sql: "SELECT COUNT(*) FROM title WHERE title.kind_id = 1".into(),
                trace: Some(TraceContext {
                    trace_id: 7,
                    span_id: 9,
                }),
            },
            Request::Info {
                sketch: "imdb".into(),
            },
            Request::Lifecycle {
                sketch: "imdb".into(),
            },
            Request::List,
            Request::Stats,
            Request::Trace,
            Request::Quit,
        ];
        for req in reqs {
            let line = format_request(&req);
            assert_eq!(parse_request(&line).unwrap(), req, "line: {line}");
        }
    }

    #[test]
    fn request_keywords_are_case_insensitive() {
        assert_eq!(
            parse_request("estimate s SELECT COUNT(*) FROM t").unwrap(),
            Request::Estimate {
                sketch: "s".into(),
                sql: "SELECT COUNT(*) FROM t".into(),
                trace: None,
            }
        );
        assert_eq!(parse_request("list").unwrap(), Request::List);
        assert_eq!(parse_request("exit").unwrap(), Request::Quit);
    }

    #[test]
    fn malformed_requests_get_proto_errors() {
        for bad in [
            "",
            "ESTIMATE",
            "ESTIMATE name-only",
            "INFO",
            "FROBNICATE x",
            // A retired verb is an unknown verb: `STATS` carries its counters.
            "METRICS",
            "FEEDBACK",
            "FEEDBACK s",
            "FEEDBACK s 12",
            "FEEDBACK s not-a-number SELECT COUNT(*) FROM t",
            "FEEDBACK s -3 SELECT COUNT(*) FROM t",
            "HELLO",
            "HELLO two",
            "SNAPSHOT",
            "SNAPSHOT two names",
            "LIFECYCLE",
            "LIFECYCLE two names",
            "SYNC",
            "SYNC s",
            "SYNC s 1",
            "SYNC s 1 2",
            "SYNC s one 2 abcd",
            "SYNC s 1 two abcd",
            // Trailing tokens that claim to be traces must validate
            // strictly — a typed proto error, never SQL passthrough.
            "ESTIMATE s SELECT COUNT(*) FROM t trace=",
            "ESTIMATE s SELECT COUNT(*) FROM t trace=xyz",
            "ESTIMATE s SELECT COUNT(*) FROM t trace=00000000000000000000000000000007.zzzzzzzzzzzzzzzz",
            "ESTIMATE s SELECT COUNT(*) FROM t trace=00000000000000000000000000000000.0000000000000009",
            "ESTIMATE s SELECT COUNT(*) FROM t trace=00000000000000000000000000000007,0000000000000009",
            // A lone valid trace token leaves no SQL behind.
            "ESTIMATE s trace=00000000000000000000000000000007.0000000000000009",
            "FEEDBACK s 12 trace=00000000000000000000000000000007.0000000000000009",
            "FEEDBACK s 12 SELECT COUNT(*) FROM t trace=tooshort",
        ] {
            match parse_request(bad) {
                Err(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Proto, "{bad}"),
                other => panic!("expected proto error for '{bad}', got {other:?}"),
            }
        }
    }

    #[test]
    fn trace_tokens_ride_the_tail_of_both_verbs() {
        let tok = "000102030405060708090a0b0c0d0e0f.1122334455667788";
        let want = TraceContext {
            trace_id: 0x0001_0203_0405_0607_0809_0a0b_0c0d_0e0f,
            span_id: 0x1122_3344_5566_7788,
        };
        match parse_request(&format!("ESTIMATE s SELECT COUNT(*) FROM t trace={tok}")).unwrap() {
            Request::Estimate { sql, trace, .. } => {
                assert_eq!(sql, "SELECT COUNT(*) FROM t");
                assert_eq!(trace, Some(want));
            }
            other => panic!("{other:?}"),
        }
        match parse_request(&format!("FEEDBACK s 42 SELECT COUNT(*) FROM t trace={tok}")).unwrap() {
            Request::Feedback { actual, trace, .. } => {
                assert_eq!(actual, 42);
                assert_eq!(trace, Some(want));
            }
            other => panic!("{other:?}"),
        }
        // Uppercase hex is tolerated on parse and canonicalized on format
        // — the parse→format→parse fixed point the fuzzer checks.
        let upper = format!(
            "ESTIMATE s SELECT COUNT(*) FROM t trace={}",
            tok.to_uppercase()
        );
        let parsed = parse_request(&upper).unwrap();
        let canonical = format_request(&parsed);
        assert_eq!(parse_request(&canonical).unwrap(), parsed);
        assert!(canonical.ends_with(&format!("trace={tok}")));
        // A `trace=` in the middle of the SQL is not a trailing token and
        // passes through untouched.
        match parse_request("ESTIMATE s SELECT trace=x FROM t").unwrap() {
            Request::Estimate { sql, trace, .. } => {
                assert_eq!(sql, "SELECT trace=x FROM t");
                assert_eq!(trace, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn responses_roundtrip_including_exact_floats() {
        // The estimate payload must survive the wire bit-for-bit — the
        // wire-equals-`estimate_one` guarantee is checked through this format.
        for v in [1.0, 1234.5678, 1.0000000000000002, f64::MAX / 3.0] {
            let line = format_response(&Response::Estimate(v));
            match parse_response(&line, true).unwrap() {
                Response::Estimate(parsed) => assert_eq!(parsed.to_bits(), v.to_bits()),
                other => panic!("{other:?}"),
            }
            // The degraded form carries the same bit-exact value and is
            // the non-degraded line plus one trailing token.
            let degraded_line = format_response(&Response::Degraded(v));
            assert_eq!(degraded_line, format!("{line} degraded"));
            match parse_response(&degraded_line, true).unwrap() {
                Response::Degraded(parsed) => assert_eq!(parsed.to_bits(), v.to_bits()),
                other => panic!("{other:?}"),
            }
        }
        let err = Response::Error {
            code: ErrorCode::UnknownSketch,
            message: "unknown sketch 'x'".into(),
        };
        assert_eq!(parse_response(&format_response(&err), true).unwrap(), err);
        let mismatch = Response::Error {
            code: ErrorCode::VersionMismatch,
            message: "this peer speaks protocol 3, not 9".into(),
        };
        assert_eq!(
            parse_response(&format_response(&mismatch), false).unwrap(),
            mismatch
        );
        let busy = Response::Busy("connection limit 256 reached".into());
        assert_eq!(parse_response(&format_response(&busy), true).unwrap(), busy);
        assert_eq!(
            parse_response(&format_response(&Response::Bye), false).unwrap(),
            Response::Bye
        );
        let text = Response::Text("a=1;b=2".into());
        assert_eq!(
            parse_response(&format_response(&text), false).unwrap(),
            text
        );
    }

    #[test]
    fn payloads_are_always_one_line() {
        let resp = Response::Error {
            code: ErrorCode::Parse,
            message: "line one\nline two\r\nthree".into(),
        };
        assert!(!format_response(&resp).contains('\n'));
        assert!(!format_response(&Response::Text("a\nb".into())).contains('\n'));
    }

    #[test]
    fn error_mapping_covers_every_estimate_error() {
        let cases = [
            (
                EstimateError::UnknownTable {
                    table: 9,
                    known_tables: 6,
                },
                ErrorCode::Vocabulary,
            ),
            (
                EstimateError::UnknownColumn { table: 1, col: 99 },
                ErrorCode::Vocabulary,
            ),
            (
                EstimateError::Unroutable { tables: vec![0, 1] },
                ErrorCode::Unroutable,
            ),
            (EstimateError::Decode("x".into()), ErrorCode::Decode),
            (EstimateError::Unavailable("x".into()), ErrorCode::NotReady),
            (EstimateError::Execution("x".into()), ErrorCode::Internal),
        ];
        for (err, code) in cases {
            match estimate_error_response(&err) {
                Response::Error { code: got, .. } => assert_eq!(got, code, "{err:?}"),
                other => panic!("{other:?}"),
            }
        }
    }
}
