//! The low-level client layer: one TCP connection speaking the line
//! protocol, nothing more.
//!
//! [`Connection`] owns wire framing only — format a [`Request`], write one
//! line, read one line, parse the [`Response`]. Routing, retries, and
//! failover live a layer up in [`crate::fleet::FleetClient`]; the
//! single-node convenience accessors live in [`crate::Client`], a thin
//! wrapper over this type. Splitting the layers means the fleet client
//! composes connections without inheriting single-node assumptions, and
//! the protocol tests can drive raw lines without a routing policy in the
//! way.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use ds_core::snapshot::{decode_hex, encode_hex};

use crate::protocol::{
    format_request, parse_response, ErrorCode, Request, Response, PROTOCOL_VERSION,
    SUPPORTED_FEATURES,
};

/// The outcome of a `HELLO` negotiation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Handshake {
    /// The protocol version both sides speak: `min(client, server)`.
    pub version: u32,
    /// Feature flags the server advertises (`cache`, `degraded-token`,
    /// `fleet`).
    pub features: Vec<String>,
}

impl Handshake {
    /// Whether the server advertised `feature`.
    pub fn has_feature(&self, feature: &str) -> bool {
        self.features.iter().any(|f| f == feature)
    }
}

/// A replica's answer to a `SYNC` offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncAck {
    /// The shipped generation won and now serves on the replica.
    Adopted(u64),
    /// The replica already serves a generation at least as new.
    Stale(u64),
}

/// One blocking connection to a sketch server: wire framing only.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    peer: SocketAddr,
    handshake: Option<Handshake>,
}

impl Connection {
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
        let peer = stream.peer_addr()?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            peer,
            handshake: None,
        })
    }

    /// The server's address.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }

    /// The negotiated handshake, when [`Connection::hello`] has run. A
    /// connection that never sends `HELLO` speaks protocol v1.
    pub fn handshake(&self) -> Option<&Handshake> {
        self.handshake.as_ref()
    }

    /// Sends one request and reads its one-line response. `estimate`
    /// selects whether an `OK` payload parses as a number or as text.
    pub fn roundtrip(&mut self, req: &Request, estimate: bool) -> std::io::Result<Response> {
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

    /// Negotiates the protocol: sends `HELLO` with this build's version and
    /// features, records and returns the server's answer. A
    /// [`ErrorCode::VersionMismatch`] reply becomes an `Unsupported` io
    /// error — the caller knows negotiation failed rather than guessing
    /// from garbled lines.
    pub fn hello(&mut self) -> std::io::Result<Handshake> {
        let req = Request::Hello {
            version: PROTOCOL_VERSION,
            features: SUPPORTED_FEATURES.iter().map(|s| s.to_string()).collect(),
        };
        match self.roundtrip(&req, false)? {
            Response::Text(t) => {
                let mut parts = t.split_whitespace();
                let (tag, version) = (parts.next(), parts.next());
                if tag != Some("HELLO") {
                    return Err(invalid_data(format!("bad HELLO payload '{t}'")));
                }
                let version: u32 = version
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| invalid_data(format!("bad HELLO version in '{t}'")))?;
                let features = parts
                    .next()
                    .unwrap_or("")
                    .split(',')
                    .filter(|f| !f.is_empty())
                    .map(str::to_string)
                    .collect();
                let hs = Handshake { version, features };
                self.handshake = Some(hs.clone());
                Ok(hs)
            }
            Response::Error {
                code: ErrorCode::VersionMismatch,
                message,
            } => Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                message,
            )),
            other => Err(invalid_payload(&other)),
        }
    }

    /// Fetches the named sketch as a DSNP blob: `(generation, bytes)`. The
    /// bytes are exactly what the server's `save_snapshot` writes to disk.
    pub fn fetch_snapshot(&mut self, sketch: &str) -> std::io::Result<(u64, Vec<u8>)> {
        let req = Request::Snapshot {
            sketch: sketch.to_string(),
        };
        match self.roundtrip(&req, false)? {
            Response::Text(t) => {
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
                let bytes = decode_hex(hex)
                    .ok_or_else(|| invalid_data(format!("SNAPSHOT {sketch}: bad hex")))?;
                if bytes.len() as u64 != len {
                    return Err(invalid_data(format!(
                        "SNAPSHOT {sketch}: announced {len} bytes, got {}",
                        bytes.len()
                    )));
                }
                Ok((generation, bytes))
            }
            other => Err(invalid_payload(&other)),
        }
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
        let req = Request::Sync {
            name: name.to_string(),
            generation,
            len: bytes.len() as u64,
            hex: encode_hex(bytes),
        };
        match self.roundtrip(&req, false)? {
            Response::Text(t) => {
                let mut parts = t.split_whitespace();
                let tag = parts.next();
                let got_name = parts.next().unwrap_or("");
                let gen: Option<u64> = parts.next().and_then(|v| v.parse().ok());
                let verdict = parts.next();
                match (tag, gen, verdict) {
                    (Some("SYNC"), Some(g), Some("adopted")) if got_name == name => {
                        Ok(SyncAck::Adopted(g))
                    }
                    (Some("SYNC"), Some(g), Some("stale")) if got_name == name => {
                        Ok(SyncAck::Stale(g))
                    }
                    _ => Err(invalid_data(format!("bad SYNC payload '{t}'"))),
                }
            }
            other => Err(invalid_payload(&other)),
        }
    }

    /// Sends `QUIT` and consumes the connection.
    pub fn quit(mut self) -> std::io::Result<()> {
        match self.roundtrip(&Request::Quit, false)? {
            Response::Bye => Ok(()),
            other => Err(invalid_data(format!("expected BYE, got {other:?}"))),
        }
    }
}

pub(crate) fn invalid_data(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

pub(crate) fn invalid_payload(resp: &Response) -> std::io::Error {
    invalid_data(crate::protocol::format_response(resp))
}
