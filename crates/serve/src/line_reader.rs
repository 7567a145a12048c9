//! The server side of one connection: complete request lines in, one
//! write per response out. The sketch server's handlers and the
//! `ds_fleetmon` aggregator's both loop over a [`LineReader`], so the
//! policy lives here once:
//!
//! * reads wake every 50 ms to look at the shutdown flag, and a request
//!   that has only partly arrived by then stays buffered: a client that
//!   stalls mid-line, or whose request was split across two segments, loses
//!   nothing;
//! * a request line is bounded by [`MAX_REQUEST_LINE`] — a peer that keeps
//!   sending without a newline is answered `ERR proto` and disconnected
//!   instead of growing the buffer for as long as it cares to send;
//! * a response and its newline leave in one `write_all`, because under
//!   `TCP_NODELAY` a separate write of the newline would be a second
//!   segment and a second wake-up for the client.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use crate::protocol::{write_response, ErrorCode, Response};

/// How often blocked reads wake up to check the shutdown flag.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Longest request line accepted, newline included. The largest line this
/// repository produces is the hex `SYNC` of the default 1.9 MB sketch,
/// about 3.9 MB.
pub const MAX_REQUEST_LINE: usize = 64 << 20;

/// One accepted connection, read a request line at a time.
pub struct LineReader<'a> {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Both buffers live as long as the connection: a request is read into
    /// `line` and its response formatted into `reply` without allocating.
    line: Vec<u8>,
    reply: String,
    shutting_down: &'a AtomicBool,
}

impl<'a> LineReader<'a> {
    /// Takes over an accepted stream. `shutting_down` is polled between
    /// reads; once it is set the connection ends at the next poll.
    pub fn new(stream: TcpStream, shutting_down: &'a AtomicBool) -> std::io::Result<Self> {
        stream.set_read_timeout(Some(POLL_INTERVAL))?;
        // One-line request/response roundtrips die under Nagle + delayed ACK.
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            line: Vec::new(),
            reply: String::new(),
            shutting_down,
        })
    }

    /// The next non-blank request line, or `None` when the connection is
    /// over: the peer closed it, the shutdown flag was raised, the socket
    /// failed, the bytes were not UTF-8, or the line outgrew
    /// [`MAX_REQUEST_LINE`] (the peer has been told so).
    pub fn next_line(&mut self) -> Option<&str> {
        self.next_request().map(|(line, _)| line)
    }

    /// [`LineReader::next_line`] beside the connection's write half, so a
    /// handler can keep what it borrowed from the line until after its
    /// reply is written.
    pub(crate) fn next_request(&mut self) -> Option<(&str, Reply<'_>)> {
        loop {
            self.read_raw_line()?;
            let blank = std::str::from_utf8(&self.line).ok()?.trim().is_empty();
            if !blank {
                break;
            }
        }
        let reply = Reply {
            writer: &mut self.writer,
            reply: &mut self.reply,
        };
        Some((std::str::from_utf8(&self.line).ok()?, reply))
    }

    /// Replaces `line` with the next newline- or EOF-terminated run of
    /// bytes; `None` when the connection is over.
    fn read_raw_line(&mut self) -> Option<()> {
        self.line.clear();
        loop {
            if self.shutting_down.load(Ordering::SeqCst) {
                return None;
            }
            let room = (MAX_REQUEST_LINE - self.line.len()) as u64;
            match self
                .reader
                .by_ref()
                .take(room)
                .read_until(b'\n', &mut self.line)
            {
                // EOF: the end of the connection, or of its last line when
                // part of one arrived before a poll.
                Ok(0) if self.line.is_empty() => return None,
                Ok(_) => break,
                // The timeout only exists to poll the shutdown flag.
                // Whatever part of a request arrived before it stays in
                // `line`, and the next read continues it.
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(_) => return None,
            }
        }
        if self.line.len() == MAX_REQUEST_LINE && !self.line.ends_with(b"\n") {
            let _ = self.respond(&Response::Error {
                code: ErrorCode::Proto,
                message: format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
            });
            return None;
        }
        Some(())
    }

    /// Writes one response line with a single `write(2)`.
    pub fn respond(&mut self, response: &Response) -> std::io::Result<()> {
        Reply {
            writer: &mut self.writer,
            reply: &mut self.reply,
        }
        .send(response)
    }
}

/// The write half of a [`LineReader`], lent with the line it read.
pub(crate) struct Reply<'a> {
    writer: &'a mut TcpStream,
    reply: &'a mut String,
}

impl Reply<'_> {
    /// Formats `response` into the connection's buffer and writes it and
    /// its newline with a single `write(2)`.
    pub(crate) fn send(self, response: &Response) -> std::io::Result<()> {
        self.reply.clear();
        write_response(self.reply, response);
        self.reply.push('\n');
        self.writer.write_all(self.reply.as_bytes())
    }
}
