//! [`LineReader`] over a loopback pair: the read policy the sketch server
//! and the `ds_fleetmon` aggregator share, without either of them.

use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::time::Duration;

use ds_serve::{LineReader, MAX_REQUEST_LINE};

/// A connected loopback pair: the peer's end and the accepted end.
fn pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (accepted, _) = listener.accept().unwrap();
    (peer, accepted)
}

#[test]
fn a_stalled_line_arrives_whole_and_blank_lines_are_skipped() {
    let (mut peer, accepted) = pair();
    let flag = AtomicBool::new(false);
    let mut lines = LineReader::new(accepted, &flag).unwrap();
    let writer = std::thread::spawn(move || {
        peer.write_all(b"\r\n  \nSTA").unwrap();
        std::thread::sleep(Duration::from_millis(150)); // 3 × the read poll
        peer.write_all(b"TS\nQUIT").unwrap();
        // Dropping `peer` ends the stream inside an unterminated line.
    });
    assert_eq!(lines.next_line(), Some("STATS\n"));
    writer.join().unwrap();
    assert_eq!(lines.next_line(), Some("QUIT"));
    assert_eq!(lines.next_line(), None);
}

/// A request without a newline whose bytes arrive before a poll wakes the
/// reader, and whose peer only then half-closes, is still an EOF-terminated
/// line. The reader used to drop it: the bytes were already in its buffer
/// when the read that saw EOF returned nothing.
#[test]
fn an_unterminated_line_that_outlives_a_poll_is_answered_at_eof() {
    let (mut peer, accepted) = pair();
    let flag = AtomicBool::new(false);
    let mut lines = LineReader::new(accepted, &flag).unwrap();
    let writer = std::thread::spawn(move || {
        peer.write_all(b"STATS").unwrap();
        std::thread::sleep(Duration::from_millis(120)); // 2.4 × the read poll
        peer.shutdown(Shutdown::Write).unwrap();
        peer
    });
    assert_eq!(lines.next_line(), Some("STATS"));
    assert_eq!(lines.next_line(), None);
    drop(writer.join().unwrap());
}

/// Exactly the bound and still no newline: the reader gives up there,
/// without waiting for (or buffering) a byte more. It used to append for
/// as long as the peer kept sending.
#[test]
fn an_oversized_line_is_refused_at_the_bound_and_the_connection_ends() {
    let (mut peer, accepted) = pair();
    let flag = AtomicBool::new(false);
    let mut lines = LineReader::new(accepted, &flag).unwrap();
    let writer = std::thread::spawn(move || {
        let chunk = vec![b'x'; 1 << 20];
        for _ in 0..MAX_REQUEST_LINE / chunk.len() {
            peer.write_all(&chunk).unwrap();
        }
        let mut answer = String::new();
        BufReader::new(peer).read_to_string(&mut answer).unwrap();
        answer
    });
    assert_eq!(lines.next_line(), None);
    drop(lines);
    assert_eq!(
        writer.join().unwrap(),
        format!("ERR proto request line exceeds {MAX_REQUEST_LINE} bytes\n")
    );
}
