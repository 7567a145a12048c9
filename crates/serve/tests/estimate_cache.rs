//! Estimate-cache integration tests: a real server with the default cache,
//! one per served artifact, keyed by the parsed query, proving that
//!
//! * two clause orders of one query, which the model can answer with
//!   different bits, are two entries, each answered with its own bits;
//! * a sketch swap (remove + re-insert) serves another artifact, so the
//!   old model's entries can never answer;
//! * the displaced artifact's entries leave `serve/cache/len` with it, on
//!   a swap, a remove and re-insert, and a remove alone;
//! * sustained `FEEDBACK`-reported accuracy drift drops no entry: the same
//!   model keeps answering with the same bits, from the cache;
//! * degraded responses are never cached, and a warm cache never masks an
//!   unhealthy sketch (fault-dependent, so `debug_assertions`-only).
//!
//! That a hit answers the cold line byte for byte, that a miss and a hit
//! are counted and that `cache_capacity(0)` exports no cache counters is
//! checked by the root package's `one_answer` harness.

use std::collections::HashSet;
use std::time::Duration;

use ds_query::generator::{GeneratorConfig, QueryGenerator};
use ds_query::parser::parse_query;
use ds_query::query::Query;
use ds_query::sqlgen::to_sql;
use ds_query::workloads::imdb_predicate_columns;
use ds_serve::{Client, ServeConfig};

mod common;
use common::{start, stat, tiny_sketch};

const SQL: &str = "SELECT COUNT(*) FROM title WHERE title.kind_id = 1";

/// The model pools each set's elements in clause order, so reversing a
/// query's tables, joins and predicates can change its estimate's bits.
/// Each order is its own cache entry: over one connection, with the default
/// cache, every text is answered with its own cold bits, whichever order
/// came first, and again from the cache.
#[test]
fn a_reordered_query_is_answered_with_its_own_bits() {
    let (server, db, store) = start(ServeConfig::default());
    let sketch = store.get("imdb").unwrap();
    // Each text with the bits `estimate_one` gives the query it parses to.
    let cold = |q: &Query| {
        let sql = to_sql(&db, q);
        let v = sketch.estimate_one(&parse_query(&db, &sql).unwrap());
        (sql, v.to_bits())
    };
    let columns = imdb_predicate_columns(&db);
    let mut generator = QueryGenerator::new(&db, GeneratorConfig::new(columns, 5));
    let mut seen = HashSet::new();
    let pairs: Vec<_> = (0..2_000)
        .map(|_| {
            let mut q = generator.generate();
            let a = cold(&q);
            q.tables.reverse();
            q.joins.reverse();
            q.predicates.reverse();
            (a, cold(&q))
        })
        .filter(|((a, a_bits), (b, b_bits))| {
            a_bits != b_bits && seen.insert(a.clone()) && seen.insert(b.clone())
        })
        .take(8)
        .collect();
    assert!(
        pairs.len() >= 2,
        "too few reorderings change bits: {pairs:?}"
    );

    let mut c = Client::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();
    for (i, (a, b)) in pairs.iter().enumerate() {
        let (first, second) = if i % 2 == 0 { (a, b) } else { (b, a) };
        for (sql, bits) in [first, second, first, second] {
            let got = c.estimate_value("imdb", sql).unwrap();
            assert_eq!(got.to_bits(), *bits, "pair {i}: {sql}");
        }
    }
    let n = pairs.len() as f64;
    assert_eq!(stat(&mut c, "ds_serve_cache_misses"), 2.0 * n);
    assert_eq!(stat(&mut c, "ds_serve_cache_hits"), 2.0 * n);
    c.quit().unwrap();
    server.shutdown();
}

/// Removing and re-inserting a sketch serves a new artifact; the next
/// answer comes from the new model, never the old model's entry.
#[test]
fn swap_invalidates_stale_generations() {
    let (server, db, store) = start(
        ServeConfig::builder()
            .request_timeout(Duration::from_secs(30))
            .build()
            .unwrap(),
    );
    let query = parse_query(&db, SQL).unwrap();
    let old_expected = store.get("imdb").unwrap().estimate_one(&query);
    let replacement = tiny_sketch(&db, 21);
    let new_expected = replacement.estimate_one(&query);
    assert_ne!(
        old_expected.to_bits(),
        new_expected.to_bits(),
        "fixture must distinguish the two models"
    );
    let mut c = Client::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();

    // Warm the cache against the original model.
    for _ in 0..2 {
        assert_eq!(
            c.estimate_value("imdb", SQL).unwrap().to_bits(),
            old_expected.to_bits()
        );
    }
    assert_eq!(stat(&mut c, "ds_serve_cache_hits"), 1.0);

    // Swap: the live server resolves by name, the artifact changes.
    assert!(store.remove("imdb"));
    store.insert("imdb", replacement).unwrap();
    assert_eq!(
        c.estimate_value("imdb", SQL).unwrap().to_bits(),
        new_expected.to_bits(),
        "post-swap answer must come from the new model, not the cache"
    );
    // The new artifact caches in its own cache.
    assert_eq!(
        c.estimate_value("imdb", SQL).unwrap().to_bits(),
        new_expected.to_bits()
    );
    assert_eq!(stat(&mut c, "ds_serve_cache_hits"), 2.0);
    c.quit().unwrap();
    server.shutdown();
}

/// The cache counts only what the store serves: a displaced artifact's
/// entries leave `serve/cache/len` on a swap, on a remove and re-insert,
/// and on a remove alone, while the hit and miss counters stay monotone.
#[test]
fn a_displaced_artifact_takes_its_entries_with_it() {
    let (server, db, store) = start(
        ServeConfig::builder()
            .request_timeout(Duration::from_secs(30))
            .build()
            .unwrap(),
    );
    let mut c = Client::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();
    let warm = |c: &mut Client| {
        for _ in 0..2 {
            c.estimate_value("imdb", SQL).unwrap();
        }
        stat(c, "ds_serve_cache_len")
    };
    assert_eq!(warm(&mut c), 1.0);

    store
        .swap("imdb", std::sync::Arc::new(tiny_sketch(&db, 21)))
        .unwrap();
    assert_eq!(warm(&mut c), 1.0, "after a swap");

    assert!(store.remove("imdb"));
    store.insert("imdb", tiny_sketch(&db, 22)).unwrap();
    assert_eq!(warm(&mut c), 1.0, "after a remove and a re-insert");
    assert_eq!(stat(&mut c, "ds_serve_cache_misses"), 3.0);
    assert_eq!(stat(&mut c, "ds_serve_cache_hits"), 3.0);

    assert!(store.remove("imdb"));
    assert_eq!(stat(&mut c, "ds_serve_cache_len"), 0.0, "after a remove");
    c.quit().unwrap();
    server.shutdown();
}

/// Sustained terrible feedback for one template drops nothing: drift is a
/// retraining signal, and until a retrain swaps a new generation in, the
/// cached answer is the one the serving model recomputes, bit for bit.
#[test]
fn feedback_drift_keeps_the_cached_answer() {
    let (server, _db, store) = start(
        ServeConfig::builder()
            .request_timeout(Duration::from_secs(30))
            .build()
            .unwrap(),
    );
    assert!(
        store.get("imdb").unwrap().baseline().is_some(),
        "drift is measured against the training-time baseline"
    );
    let mut c = Client::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();

    let v = c.estimate_value("imdb", SQL).unwrap();
    // Report a true cardinality ~10⁶× off: the rolling q-error dwarfs the
    // training baseline once the min-sample gate (50) is met.
    let actual = (v * 1e6).max(1e6) as u64;
    for _ in 0..60 {
        let fb = c.feedback_value("imdb", actual, SQL).unwrap();
        assert_eq!(fb.to_bits(), v.to_bits(), "feedback is served consistently");
    }
    assert_eq!(stat(&mut c, "ds_serve_cache_misses"), 1.0);
    assert_eq!(stat(&mut c, "ds_serve_cache_hits"), 60.0);
    let again = c.estimate_value("imdb", SQL).unwrap();
    assert_eq!(stat(&mut c, "ds_serve_cache_hits"), 61.0);
    assert_eq!(again.to_bits(), v.to_bits());
    c.quit().unwrap();
    server.shutdown();
}

#[cfg(debug_assertions)]
mod faulted {
    use super::*;
    use common::fixture;
    use ds_est::postgres::PostgresEstimator;
    use ds_est::CardinalityEstimator;
    use ds_serve::{BreakerConfig, FaultInjector, Server, SharedEstimator};
    use std::sync::Arc;

    /// A warm cache must never mask an unhealthy sketch, and degraded
    /// answers must never enter the cache.
    #[test]
    fn degraded_answers_are_never_cached_or_served_from_cache() {
        let (db, store) = fixture();
        let query = parse_query(&db, SQL).unwrap();
        let sketch_expected = store.get("imdb").unwrap().estimate_one(&query);
        let fallback_est = PostgresEstimator::build(&db);
        let fallback_expected = fallback_est.try_estimate(&query).unwrap();
        assert_ne!(sketch_expected.to_bits(), fallback_expected.to_bits());
        let faults = Arc::new(FaultInjector::new(42));
        let server = Server::start(
            Arc::clone(&db),
            store,
            ServeConfig::builder()
                .fallback(Some(Arc::new(fallback_est) as SharedEstimator))
                .breaker(BreakerConfig {
                    // Keep the breaker closed throughout: this test pins the
                    // cache's own behavior under faults, not the breaker's.
                    failure_threshold: 100,
                    cooldown: Duration::from_secs(300),
                })
                .faults(Some(Arc::clone(&faults)))
                .request_timeout(Duration::from_secs(30))
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut c = Client::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();

        // Warm the cache while healthy.
        for _ in 0..2 {
            let (v, degraded) = c.estimate_flagged("imdb", SQL).unwrap();
            assert!(!degraded);
            assert_eq!(v.to_bits(), sketch_expected.to_bits());
        }
        assert_eq!(stat(&mut c, "ds_serve_cache_hits"), 1.0);
        assert_eq!(stat(&mut c, "ds_serve_cache_len"), 1.0);

        // Poison the model: every answer degrades to the fallback even
        // though a warm, bit-correct entry sits in the cache.
        faults.poison("imdb");
        for i in 0..3 {
            let (v, degraded) = c.estimate_flagged("imdb", SQL).unwrap();
            assert!(degraded, "request {i} while poisoned must degrade");
            assert_eq!(v.to_bits(), fallback_expected.to_bits(), "request {i}");
        }
        assert_eq!(
            stat(&mut c, "ds_serve_cache_hits"),
            1.0,
            "poisoned requests must not read the cache"
        );
        assert_eq!(
            stat(&mut c, "ds_serve_cache_len"),
            1.0,
            "degraded answers must not be inserted"
        );

        // Healed: the healthy entry serves again, bit-identically.
        faults.heal("imdb");
        let (v, degraded) = c.estimate_flagged("imdb", SQL).unwrap();
        assert!(!degraded);
        assert_eq!(v.to_bits(), sketch_expected.to_bits());
        assert_eq!(stat(&mut c, "ds_serve_cache_hits"), 2.0);
        c.quit().unwrap();
        server.shutdown();
    }
}
