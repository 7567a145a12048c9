//! Hot-swap integration tests: a live server whose sketch is atomically
//! replaced via [`SketchStore::swap`] mid-traffic, proving that
//!
//! * the element memo goes with the artifact it belongs to: a generation
//!   swapped in behind a warm one starts from an empty memo and answers
//!   what a process that never served the old generation answers;
//! * a storm of concurrent clients hammering across repeated swaps sees
//!   zero dropped and zero incorrect responses.
//!
//! That a clone swapped in, and the original swapped back, answer every
//! line byte for byte, each generation from a counted miss, is checked by
//! the root package's `one_answer` harness.

use std::sync::Arc;
use std::time::Duration;

use ds_query::parser::parse_query;
use ds_serve::{Client, ServeConfig};

mod common;
use common::{start, stat, tiny_sketch};

const SQL: &str = "SELECT COUNT(*) FROM title WHERE title.kind_id = 1";

/// The old generation has served a stream, so its memo holds every element
/// the stream is made of; the generation swapped in has other weights. Its
/// first answers to the same stream — the same element keys — are the ones
/// a sketch that never shared a process with the old generation gives, and
/// its memo counters start from zero.
#[test]
fn a_warm_memo_does_not_outlive_its_generation() {
    const STREAM: [&str; 4] = [
        "SELECT COUNT(*) FROM title WHERE title.kind_id = 1",
        "SELECT COUNT(*) FROM title, movie_keyword WHERE movie_keyword.movie_id = title.id \
         AND title.kind_id = 1",
        "SELECT COUNT(*) FROM title, movie_keyword WHERE movie_keyword.movie_id = title.id \
         AND title.production_year > 1990",
        "SELECT COUNT(*) FROM title WHERE title.production_year > 1990",
    ];
    // No estimate cache: every request reaches the artifact.
    let (server, db, store) = start(
        ServeConfig::builder()
            .cache_capacity(0)
            .request_timeout(Duration::from_secs(30))
            .build()
            .unwrap(),
    );
    let mut c = Client::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();
    let ask = |c: &mut Client| -> Vec<String> {
        STREAM
            .iter()
            .map(|sql| c.send_raw(&format!("ESTIMATE imdb {sql}")).unwrap())
            .collect()
    };
    // What a sketch answers from an empty memo, every query on its own
    // clone (a clone starts empty).
    let cold_lines = |sketch: &ds_core::sketch::DeepSketch| -> Vec<String> {
        STREAM
            .iter()
            .map(|sql| {
                let v = sketch.clone().estimate_one(&parse_query(&db, sql).unwrap());
                format!("OK {v:?}")
            })
            .collect()
    };

    let old = store.get("imdb").unwrap();
    let old_cold = cold_lines(&old);
    assert_eq!(ask(&mut c), old_cold);
    assert_eq!(ask(&mut c), old_cold, "answered from the warm memo");
    // A pass is 6 table, 2 join and 4 predicate elements, 6 of them
    // distinct: title under either predicate, movie_keyword, the join, the
    // two predicates.
    let warm = old.memo_stats();
    assert_eq!((warm.hits, warm.misses), (2 * 12 - 6, 6));
    assert_eq!(stat(&mut c, "ds_serve_memo_imdb_misses"), 6.0);
    assert_eq!(
        (warm.entries, stat(&mut c, "ds_serve_memo_imdb_entries")),
        (6, 6.0)
    );
    assert_eq!(c.info_card("imdb").unwrap().memo_hits, warm.hits);

    let next = tiny_sketch(&db, 8);
    let next_cold = cold_lines(&next);
    assert_ne!(next_cold, old_cold, "other weights answer differently");
    store.swap("imdb", Arc::new(next)).unwrap();
    assert_eq!(
        ask(&mut c),
        next_cold,
        "the first answers of the new generation"
    );
    let swapped = store.get("imdb").unwrap().memo_stats();
    assert_eq!((swapped.hits, swapped.misses), (6, 6), "counted from zero");
    assert_eq!(stat(&mut c, "ds_serve_memo_imdb_hits"), 6.0);
    assert_eq!(stat(&mut c, "ds_serve_memo_imdb_entries"), 6.0);
    assert!(stat(&mut c, "ds_serve_memo_imdb_bytes") > 0.0);
    // The displaced generation still answers in-flight work from its own.
    assert_eq!(old.memo_stats(), warm);

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
