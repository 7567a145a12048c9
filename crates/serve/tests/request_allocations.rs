//! A cached `ESTIMATE` allocates nothing: the handler splits the request
//! line in place, parses the SQL over tokens borrowed from it straight into
//! the connection's query, probes the artifact's cache and formats the
//! reply into the connection's buffer. Pinned under a counting global
//! allocator over a real socket against the default
//! configuration (cache and request timeline on) with one change: no request
//! is slow enough to be kept as a `TRACE` exemplar, because an exemplar owns
//! two strings and a request the host descheduled for the default 1 ms
//! would become one (one run in ten, on a shared host). Before PR 19 the
//! same request performed 92 allocations (4 405 B).
//!
//! A cold `ESTIMATE` is held to what it reads, 4.01 allocations (383 B): a
//! miss lends its query to the forward pass (its vectors stay with the
//! connection), clones the query once into the artifact's cache (the map
//! and the eviction ring share it) and evicts, as it should. While the key
//! also held the sketch's name (a server-wide cache), it read 5.06 (422 B).
//! So is a cold `ESTIMATE` of a template the server has never seen: no
//! plain `ESTIMATE` renders or interns its template (only a `FEEDBACK` and
//! a kept exemplar read one), so a stream of ad-hoc shapes allocates what a
//! stream of one shape does (3.96 allocations, 435 B; 4.97 with the name). Before the template
//! moved to its readers, the 2 000 never-seen shapes below read 40.60
//! allocations (2 164 B) each.
//!
//! This file holds one test on purpose: the counter is process-wide, so it
//! sees the server's threads and would see a neighbouring test's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use ds_query::generator::{GeneratorConfig, QueryGenerator};
use ds_query::sqlgen::to_sql;
use ds_query::workloads::imdb_predicate_columns;
use ds_serve::{EstimateKey, ServeConfig};
use ds_storage::catalog::Database;

mod common;

/// The system allocator, counting every call that hands out memory and
/// every byte handed out.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are a side effect that
// touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this layout, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Three tables, two joins, two comparison predicates; `year` is the literal
/// the cold stream varies.
fn request(year: usize) -> Vec<u8> {
    format!(
        "ESTIMATE imdb SELECT COUNT(*) FROM title t, movie_keyword mk, movie_companies mc \
         WHERE mk.movie_id = t.id AND mc.movie_id = t.id \
         AND t.production_year > {year} AND mk.keyword_id = 7\n"
    )
    .into_bytes()
}

/// `n` generated `ESTIMATE` lines, each of a template no line before it
/// has.
fn distinct_templates(db: &Database, n: usize) -> Vec<Vec<u8>> {
    let mut cfg = GeneratorConfig::new(imdb_predicate_columns(db), 3);
    cfg.max_tables = 5;
    cfg.max_predicates = 4;
    let mut generator = QueryGenerator::new(db, cfg);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let query = generator.generate();
        if seen.insert(EstimateKey::new("imdb", 0, &query).shape().to_vec()) {
            out.push(format!("ESTIMATE imdb {}\n", to_sql(db, &query)).into_bytes());
        }
    }
    out
}

/// One round trip through buffers the caller owns, so the client side of the
/// measurement allocates nothing.
fn roundtrip(stream: &mut TcpStream, request: &[u8], reply: &mut [u8; 256]) {
    stream.write_all(request).expect("request written");
    let mut len = 0;
    while !reply[..len].contains(&b'\n') {
        let n = stream.read(&mut reply[len..]).expect("reply read");
        assert!(n > 0, "the server closed the connection");
        len += n;
    }
    assert!(
        reply.starts_with(b"OK "),
        "unexpected reply {:?}",
        String::from_utf8_lossy(&reply[..len])
    );
}

/// Allocator calls and bytes per request over `requests`, process-wide.
fn measure(stream: &mut TcpStream, requests: &[Vec<u8>], reply: &mut [u8; 256]) -> (f64, f64) {
    let (calls, bytes) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    for request in requests {
        roundtrip(stream, request, reply);
    }
    let n = requests.len() as f64;
    (
        (CALLS.load(Ordering::Relaxed) - calls) as f64 / n,
        (BYTES.load(Ordering::Relaxed) - bytes) as f64 / n,
    )
}

#[test]
fn a_cached_estimate_allocates_nothing() {
    const WARM_UP: usize = 200;
    const MEASURED: usize = 2_000;
    let cfg = ServeConfig::builder().slow_threshold(Duration::from_secs(60));
    let (server, db, _) = common::start(cfg.build().expect("valid config"));
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reply = [0u8; 256];

    // The first request misses and fills the cache; the rest of the warm-up
    // grows every per-connection buffer to its steady size.
    let hot = vec![request(2000); MEASURED];
    for request in &hot[..WARM_UP] {
        roundtrip(&mut stream, request, &mut reply);
    }
    let (calls, bytes) = measure(&mut stream, &hot, &mut reply);
    println!("cached ESTIMATE: {calls:.2} allocations, {bytes:.0} B per request");

    // What a request that runs a forward pass allocates (distinct
    // literals, so every one misses).
    let cold: Vec<Vec<u8>> = (0..MEASURED).map(|i| request(10_000 + i)).collect();
    let (cold_calls, cold_bytes) = measure(&mut stream, &cold, &mut reply);
    println!("cold ESTIMATE: {cold_calls:.2} allocations, {cold_bytes:.0} B per request");

    // A cold request whose template the server has never seen.
    let adhoc = distinct_templates(&db, MEASURED);
    let (adhoc_calls, adhoc_bytes) = measure(&mut stream, &adhoc, &mut reply);
    println!("never-seen template: {adhoc_calls:.2} allocations, {adhoc_bytes:.0} B per request");

    let metrics = server.shutdown();
    assert!(
        metrics.ok >= (WARM_UP + 2 * MEASURED) as u64,
        "every request was answered: {metrics:?}"
    );
    assert_eq!(
        calls, 0.0,
        "a cached ESTIMATE allocated ({bytes:.0} B per request)"
    );
    assert!(
        cold_calls < 5.0,
        "a cold ESTIMATE allocated {cold_calls:.2} times ({cold_bytes:.0} B per request)"
    );
    assert!(
        adhoc_calls < 5.0,
        "a cold ESTIMATE of a never-seen template allocated {adhoc_calls:.2} times \
         ({adhoc_bytes:.0} B per request)"
    );
}
