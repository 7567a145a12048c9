//! Hot-swap integration tests: a live server whose sketch is atomically
//! replaced via [`SketchStore::swap`] mid-traffic, proving that
//!
//! * `ESTIMATE` lines for an unchanged template are byte-identical across
//!   the swap when the incoming model carries the same weights — the swap
//!   machinery itself perturbs nothing;
//! * the estimate cache is invalidated structurally by the generation
//!   bump: the first post-swap request is a counted miss, never a stale
//!   hit from the previous generation;
//! * a storm of concurrent clients hammering across repeated swaps sees
//!   zero dropped and zero incorrect responses.

use std::sync::Arc;
use std::time::Duration;

use ds_query::parser::parse_query;
use ds_serve::{Client, ServeConfig};

mod common;
use common::start;

const SQL: &str = "SELECT COUNT(*) FROM title WHERE title.kind_id = 1";

fn stat(c: &mut Client, name: &str) -> f64 {
    c.stats()
        .unwrap()
        .iter()
        .find(|s| s.name == name)
        .map(|s| s.value)
        .unwrap_or_else(|| panic!("missing sample {name}"))
}

/// Swapping in a model with identical weights must be invisible in the
/// answer bytes — and visible in the cache counters: the generation bump
/// turns the first post-swap request into a miss, never a stale hit.
#[test]
fn estimates_stay_bit_identical_across_swap_and_cache_invalidates() {
    let (server, db, store) = start(
        ServeConfig::builder()
            .request_timeout(Duration::from_secs(30))
            .build()
            .unwrap(),
    );
    let expected = store
        .get("imdb")
        .unwrap()
        .estimate_one(&parse_query(&db, SQL).unwrap());
    let mut c = Client::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();

    let cold = c.send_raw(&format!("ESTIMATE imdb {SQL}")).unwrap();
    assert_eq!(cold, format!("OK {expected:?}"), "cold line");
    let warm = c.send_raw(&format!("ESTIMATE imdb {SQL}")).unwrap();
    assert_eq!(warm, cold, "warm (cached) line");
    assert_eq!(stat(&mut c, "ds_serve_cache_misses"), 1.0);
    assert_eq!(stat(&mut c, "ds_serve_cache_hits"), 1.0);

    // Hot-swap in a clone with the same weights: answers must not move by
    // a single bit, but the cache entry keyed to the old generation is
    // structurally dead.
    let clone = store.get("imdb").unwrap().as_ref().clone();
    let outcome = store.swap("imdb", Arc::new(clone)).unwrap();
    assert!(outcome.generation > outcome.previous_generation);
    let post = c.send_raw(&format!("ESTIMATE imdb {SQL}")).unwrap();
    assert_eq!(post, cold, "post-swap line must be byte-identical");
    assert_eq!(
        stat(&mut c, "ds_serve_cache_misses"),
        2.0,
        "the generation bump must force a fresh miss"
    );
    let rewarm = c.send_raw(&format!("ESTIMATE imdb {SQL}")).unwrap();
    assert_eq!(rewarm, cold);
    assert_eq!(
        stat(&mut c, "ds_serve_cache_hits"),
        2.0,
        "the new generation re-warms normally"
    );

    c.quit().unwrap();
    server.shutdown();
}

/// Concurrent clients hammering one template across repeated hot swaps:
/// every single response arrives and carries the expected bits — no
/// drops, no mixed-generation garbage, no errors.
#[test]
fn concurrent_hammer_sees_zero_dropped_or_incorrect_responses() {
    let (server, db, store) = start(
        ServeConfig::builder()
            .request_timeout(Duration::from_secs(30))
            .build()
            .unwrap(),
    );
    let expected = store
        .get("imdb")
        .unwrap()
        .estimate_one(&parse_query(&db, SQL).unwrap());
    let expected_line = format!("OK {expected:?}");
    let addr = server.local_addr();

    const CLIENTS: usize = 4;
    const REQUESTS: usize = 50;
    let hammers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let expected_line = expected_line.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect_timeout(addr, Duration::from_secs(30)).unwrap();
                for i in 0..REQUESTS {
                    let line = c.send_raw(&format!("ESTIMATE imdb {SQL}")).unwrap();
                    assert_eq!(line, expected_line, "request {i}");
                }
                c.quit().unwrap();
                REQUESTS
            })
        })
        .collect();

    // Swap continuously while the hammer runs; identical weights keep the
    // correct answer constant, so any mixed-up response is detectable.
    let swapper = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            for _ in 0..20 {
                let clone = store.get("imdb").unwrap().as_ref().clone();
                store.swap("imdb", Arc::new(clone)).unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    let mut answered = 0;
    for h in hammers {
        answered += h.join().expect("hammer thread");
    }
    swapper.join().expect("swapper thread");
    assert_eq!(answered, CLIENTS * REQUESTS, "every request answered");

    let m = server.shutdown();
    assert_eq!(m.errors, 0, "zero errors during swaps");
    assert_eq!(m.ok, (CLIENTS * REQUESTS) as u64);
}
