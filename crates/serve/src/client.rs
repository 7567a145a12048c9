//! The client: one TCP connection speaking the line protocol.
//!
//! [`Client`] owns the wire framing — format a [`Request`], write one
//! line, read one line, parse the [`Response`] — plus the `HELLO`
//! version check, snapshot shipping (`SNAPSHOT`/`SYNC`) and typed accessors
//! over the text payloads (`INFO`, `STATS`, `TRACE`). Routing, retries and
//! failover live a layer up in [`crate::fleet::FleetClient`], which holds
//! one `Client` per shard.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use ds_core::snapshot::{decode_hex, encode_hex};
use ds_obs::{PromFamily, PromSample};

use crate::metrics::RequestTimeline;
use crate::protocol::{
    format_request, format_response, parse_response, ErrorCode, Request, Response, PROTOCOL_VERSION,
};

/// A replica's answer to a `SYNC` offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncAck {
    /// The shipped generation won and now serves on the replica.
    Adopted(u64),
    /// The replica already serves a generation at least as new.
    Stale(u64),
}

/// The `INFO` summary card parsed back into fields (client side).
#[derive(Debug, Clone, PartialEq)]
pub struct InfoCard {
    /// Source database name.
    pub database: String,
    /// Tables in the featurization vocabulary.
    pub tables: u64,
    /// Joins in the vocabulary.
    pub joins: u64,
    /// Predicate columns in the vocabulary.
    pub predicate_columns: u64,
    /// MSCN hidden width.
    pub hidden_units: u64,
    /// Scalar model parameters.
    pub model_params: u64,
    /// Total materialized sample rows across tables.
    pub sample_rows: u64,
    /// Nominal sample size per table.
    pub sample_size: u64,
    /// Serialized size in MiB (two-decimal precision on the wire).
    pub footprint_mib: f64,
    /// Largest cardinality representable by the label normalizer.
    pub max_label: u64,
    /// Set elements the serving artifact's memo answered.
    pub memo_hits: u64,
    /// Set elements the serving artifact computed.
    pub memo_misses: u64,
    /// Bytes the memo holds.
    pub memo_bytes: u64,
}

impl InfoCard {
    /// Parses the `INFO` wire line (the `SketchInfo` display form):
    /// `sketch[<db>]: <t> tables, <j> joins, … ; max label <n>; memo <h>
    /// hits, <m> misses, <b> B`.
    pub fn from_wire(s: &str) -> Option<Self> {
        let rest = s.strip_prefix("sketch[")?;
        let (database, rest) = rest.split_once("]:")?;
        // All remaining numbers appear in a fixed order; pull out every
        // maximal digit/dot run and map positionally.
        let mut nums = Vec::new();
        let mut cur = String::new();
        for c in rest.chars().chain(std::iter::once(' ')) {
            if c.is_ascii_digit() || c == '.' {
                cur.push(c);
            } else if !cur.is_empty() {
                nums.push(std::mem::take(&mut cur).parse::<f64>().ok()?);
            }
        }
        if nums.len() != 12 {
            return None;
        }
        Some(Self {
            database: database.to_string(),
            tables: nums[0] as u64,
            joins: nums[1] as u64,
            predicate_columns: nums[2] as u64,
            hidden_units: nums[3] as u64,
            model_params: nums[4] as u64,
            sample_rows: nums[5] as u64,
            sample_size: nums[6] as u64,
            footprint_mib: nums[7],
            max_label: nums[8] as u64,
            memo_hits: nums[9] as u64,
            memo_misses: nums[10] as u64,
            memo_bytes: nums[11] as u64,
        })
    }
}

/// One blocking connection to a sketch server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream)
    }

    /// Connects with a connect + read deadline, so callers never hang on a
    /// wedged server.
    pub fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> std::io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        Self::from_stream(stream)
    }

    /// Wraps an already-connected stream.
    pub fn from_stream(stream: TcpStream) -> std::io::Result<Self> {
        // One-line request/response roundtrips die under Nagle + delayed ACK.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request and reads its one-line response. An `OK` payload
    /// parses as a number for the two estimating verbs and as text for
    /// every other.
    pub fn roundtrip(&mut self, req: &Request) -> std::io::Result<Response> {
        let estimate = matches!(req, Request::Estimate { .. } | Request::Feedback { .. });
        let line = self.exchange(format_request(req))?;
        parse_response(&line, estimate)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Sends a raw line (possibly malformed — for protocol tests) and
    /// returns the raw response line.
    pub fn send_raw(&mut self, line: &str) -> std::io::Result<String> {
        Ok(self.exchange(line.to_string())?.trim_end().to_string())
    }

    /// Writes `request` and its newline with one `write_all` — the stream
    /// is unbuffered and `TCP_NODELAY`, so two writes would be two
    /// segments the server can see a stall between — then reads one line.
    fn exchange(&mut self, mut request: String) -> std::io::Result<String> {
        request.push('\n');
        self.writer.write_all(request.as_bytes())?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line)
    }

    /// Sends a request whose `OK` payload is text and returns that text;
    /// any other response becomes an `InvalidData` error carrying its
    /// wire line.
    fn text(&mut self, req: &Request) -> std::io::Result<String> {
        match self.roundtrip(req)? {
            Response::Text(t) => Ok(t),
            other => Err(invalid_payload(&other)),
        }
    }

    /// Checks that the server speaks this build's protocol: sends
    /// `HELLO` with [`PROTOCOL_VERSION`] and expects `HELLO` and that
    /// version back (tokens after them, which older builds sent, are read
    /// past). A [`ErrorCode::VersionMismatch`] reply, or another `OK`
    /// answer, becomes an `Unsupported` io error — the caller knows the
    /// peer speaks another protocol rather than guessing from garbled
    /// lines.
    pub fn hello(&mut self) -> std::io::Result<()> {
        let want = format!("HELLO {PROTOCOL_VERSION}");
        let unsupported = |m| std::io::Error::new(std::io::ErrorKind::Unsupported, m);
        match self.roundtrip(&Request::Hello {
            version: PROTOCOL_VERSION,
        })? {
            Response::Text(t) if t.split_whitespace().take(2).eq(want.split(' ')) => Ok(()),
            Response::Error {
                code: ErrorCode::VersionMismatch,
                message,
            } => Err(unsupported(message)),
            Response::Text(t) => Err(unsupported(format!("answered '{t}', not '{want}'"))),
            other => Err(invalid_payload(&other)),
        }
    }

    /// Sends `ESTIMATE` and returns the raw response ([`Response::Estimate`]
    /// on success, or the typed `ERR`/`BUSY`).
    pub fn estimate(&mut self, sketch: &str, sql: &str) -> std::io::Result<Response> {
        self.roundtrip(&Request::Estimate {
            sketch: sketch.to_string(),
            sql: sql.to_string(),
            trace: None,
        })
    }

    /// `ESTIMATE` and unwrap the value; any non-`OK` response becomes an
    /// `InvalidData` error carrying its wire line. Degraded answers
    /// (fallback-served) unwrap like healthy ones — use
    /// [`Client::estimate_flagged`] to observe the flag.
    pub fn estimate_value(&mut self, sketch: &str, sql: &str) -> std::io::Result<f64> {
        self.estimate_flagged(sketch, sql).map(|(v, _)| v)
    }

    /// `ESTIMATE` and unwrap the value together with the `degraded` flag:
    /// `true` when the fallback estimator answered because the sketch is
    /// unhealthy (open circuit breaker, poisoned model).
    pub fn estimate_flagged(&mut self, sketch: &str, sql: &str) -> std::io::Result<(f64, bool)> {
        match self.estimate(sketch, sql)? {
            Response::Estimate(v) => Ok((v, false)),
            Response::Degraded(v) => Ok((v, true)),
            other => Err(invalid_payload(&other)),
        }
    }

    /// Sends `FEEDBACK`: estimates `sql` (bit-identical to `ESTIMATE`) and
    /// records its q-error against the observed true cardinality `actual`
    /// in the server's drift monitor. Returns the raw response.
    pub fn feedback(&mut self, sketch: &str, actual: u64, sql: &str) -> std::io::Result<Response> {
        self.roundtrip(&Request::Feedback {
            sketch: sketch.to_string(),
            actual,
            sql: sql.to_string(),
            trace: None,
        })
    }

    /// [`Client::feedback`] and unwrap the estimate value (degraded
    /// answers included — the server skips monitor recording for them).
    pub fn feedback_value(&mut self, sketch: &str, actual: u64, sql: &str) -> std::io::Result<f64> {
        match self.feedback(sketch, actual, sql)? {
            Response::Estimate(v) | Response::Degraded(v) => Ok(v),
            other => Err(invalid_payload(&other)),
        }
    }

    /// Sends `INFO <sketch>`.
    pub fn info(&mut self, sketch: &str) -> std::io::Result<Response> {
        self.roundtrip(&Request::Info {
            sketch: sketch.to_string(),
        })
    }

    /// Sends `INFO` and parses the payload into a typed card.
    pub fn info_card(&mut self, sketch: &str) -> std::io::Result<InfoCard> {
        let t = self.text(&Request::Info {
            sketch: sketch.to_string(),
        })?;
        InfoCard::from_wire(&t).ok_or_else(|| invalid_data(format!("bad INFO payload '{t}'")))
    }

    /// Sends `LIST`.
    pub fn list(&mut self) -> std::io::Result<Response> {
        self.roundtrip(&Request::List)
    }

    /// Sends `LIFECYCLE <sketch>` — the retrain-and-hot-swap lifecycle
    /// status line for one sketch.
    pub fn lifecycle(&mut self, sketch: &str) -> std::io::Result<Response> {
        self.roundtrip(&Request::Lifecycle {
            sketch: sketch.to_string(),
        })
    }

    /// Sends `STATS` and returns the Prometheus exposition as a real
    /// document: the server escapes newlines as literal `\n` to fit the
    /// one-line wire, and this is the one place that reverses it.
    fn stats_document(&mut self) -> std::io::Result<String> {
        Ok(self.text(&Request::Stats)?.replace("\\n", "\n"))
    }

    /// Sends `STATS` and parses the exposition into flat samples.
    pub fn stats(&mut self) -> std::io::Result<Vec<PromSample>> {
        let doc = self.stats_document()?;
        ds_obs::prom::parse_text(&doc)
            .ok_or_else(|| invalid_data(format!("bad STATS payload '{doc}'")))
    }

    /// Sends `STATS` and parses the exposition into typed metric
    /// families — counters, gauges, summaries, histograms — via
    /// [`ds_obs::parse_families`]. Prefer this over grepping the raw
    /// text: `families.iter().find(|f| f.name == "ds_serve_requests")`
    /// then [`PromFamily::scalar`]/[`PromFamily::suffixed`].
    pub fn stats_families(&mut self) -> std::io::Result<Vec<PromFamily>> {
        let doc = self.stats_document()?;
        ds_obs::parse_families(&doc)
            .ok_or_else(|| invalid_data(format!("bad STATS payload '{doc}'")))
    }

    /// Sends `TRACE` and parses the slow-request exemplars, oldest first.
    pub fn trace(&mut self) -> std::io::Result<Vec<RequestTimeline>> {
        let t = self.text(&Request::Trace)?;
        if t.trim() == "(none)" {
            return Ok(Vec::new());
        }
        t.split(';')
            .map(|rec| {
                RequestTimeline::from_wire(rec)
                    .ok_or_else(|| invalid_data(format!("bad TRACE record '{rec}'")))
            })
            .collect()
    }

    /// Fetches the named sketch as a DSNP blob: `(generation, bytes)`. The
    /// bytes are exactly what the server's `save_snapshot` writes to disk.
    pub fn fetch_snapshot(&mut self, sketch: &str) -> std::io::Result<(u64, Vec<u8>)> {
        let t = self.text(&Request::Snapshot {
            sketch: sketch.to_string(),
        })?;
        let mut parts = t.split_whitespace();
        let tag = parts.next();
        let name = parts.next().unwrap_or("");
        let generation: Option<u64> = parts.next().and_then(|v| v.parse().ok());
        let len: Option<u64> = parts.next().and_then(|v| v.parse().ok());
        let hex = parts.next().unwrap_or("");
        let (Some(generation), Some(len)) = (generation, len) else {
            return Err(invalid_data(format!("bad SNAPSHOT payload '{t}'")));
        };
        if tag != Some("SNAPSHOT") || name != sketch {
            return Err(invalid_data(format!("bad SNAPSHOT payload '{t}'")));
        }
        let bytes =
            decode_hex(hex).ok_or_else(|| invalid_data(format!("SNAPSHOT {sketch}: bad hex")))?;
        if bytes.len() as u64 != len {
            return Err(invalid_data(format!(
                "SNAPSHOT {sketch}: announced {len} bytes, got {}",
                bytes.len()
            )));
        }
        Ok((generation, bytes))
    }

    /// Offers a DSNP blob to the server for newest-wins adoption. A
    /// corrupt transfer comes back as a typed `ERR decode` (surfaced here
    /// as `InvalidData`); the server quarantines the bytes instead of
    /// adopting them.
    pub fn sync_snapshot(
        &mut self,
        name: &str,
        generation: u64,
        bytes: &[u8],
    ) -> std::io::Result<SyncAck> {
        let t = self.text(&Request::Sync {
            name: name.to_string(),
            generation,
            len: bytes.len() as u64,
            hex: encode_hex(bytes),
        })?;
        let mut parts = t.split_whitespace();
        let tag = parts.next();
        let got_name = parts.next().unwrap_or("");
        let gen: Option<u64> = parts.next().and_then(|v| v.parse().ok());
        let verdict = parts.next();
        match (tag, gen, verdict) {
            (Some("SYNC"), Some(g), Some("adopted")) if got_name == name => Ok(SyncAck::Adopted(g)),
            (Some("SYNC"), Some(g), Some("stale")) if got_name == name => Ok(SyncAck::Stale(g)),
            _ => Err(invalid_data(format!("bad SYNC payload '{t}'"))),
        }
    }

    /// Sends `QUIT` and consumes the client.
    pub fn quit(mut self) -> std::io::Result<()> {
        match self.roundtrip(&Request::Quit)? {
            Response::Bye => Ok(()),
            other => Err(invalid_data(format!("expected BYE, got {other:?}"))),
        }
    }
}

fn invalid_data(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

fn invalid_payload(resp: &Response) -> std::io::Error {
    invalid_data(format_response(resp))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn info_card_parses_the_sketch_info_display_form() {
        // Build the wire line from the real Display impl so the parser
        // can never drift away from the server's format.
        let info = ds_core::sketch::SketchInfo {
            database: "imdb_v2".to_string(),
            tables: 6,
            joins: 5,
            predicate_columns: 9,
            hidden_units: 64,
            model_params: 12345,
            sample_size: 16,
            sample_rows: 96,
            footprint_bytes: 125_829, // 0.12 MiB
            max_label: 987654,
            memo: ds_core::MemoStats {
                hits: 31,
                misses: 11,
                entries: 5,
                resident_bytes: 70_000,
                contended: 0,
            },
        };
        let card = InfoCard::from_wire(&info.to_string()).expect("parse");
        assert_eq!(card.database, "imdb_v2");
        assert_eq!(card.tables, 6);
        assert_eq!(card.joins, 5);
        assert_eq!(card.predicate_columns, 9);
        assert_eq!(card.hidden_units, 64);
        assert_eq!(card.model_params, 12345);
        assert_eq!(card.sample_rows, 96);
        assert_eq!(card.sample_size, 16);
        assert!((card.footprint_mib - 0.12).abs() < 1e-9);
        assert_eq!(card.max_label, 987654);
        assert_eq!(
            (card.memo_hits, card.memo_misses, card.memo_bytes),
            (31, 11, 70_000)
        );
        assert!(InfoCard::from_wire("not a card").is_none());
        assert!(InfoCard::from_wire("sketch[x]: truncated").is_none());
    }
}
