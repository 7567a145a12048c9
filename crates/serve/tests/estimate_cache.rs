//! Estimate-cache integration tests: a real server with the default
//! template-keyed cache, proving that
//!
//! * a sketch swap (remove + re-insert) serves under a new generation, so
//!   the old generation's entries can never answer;
//! * sustained `FEEDBACK`-reported accuracy drift drops no entry: the same
//!   model keeps answering with the same bits, from the cache;
//! * degraded responses are never cached, and a warm cache never masks an
//!   unhealthy sketch (fault-dependent, so `debug_assertions`-only).
//!
//! That a hit answers the cold line byte for byte, that a miss and a hit
//! are counted and that `cache_capacity(0)` exports no cache counters is
//! checked by the root package's `one_answer` harness.

use std::time::Duration;

use ds_query::parser::parse_query;
use ds_serve::{Client, ServeConfig};

mod common;
use common::{start, tiny_sketch};

const SQL: &str = "SELECT COUNT(*) FROM title WHERE title.kind_id = 1";

fn stat(c: &mut Client, name: &str) -> f64 {
    c.stats()
        .unwrap()
        .iter()
        .find(|s| s.name == name)
        .map(|s| s.value)
        .unwrap_or_else(|| panic!("missing sample {name}"))
}

/// Removing and re-inserting a sketch bumps its store generation; the next
/// answer comes from the new model, never the old generation's entry.
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

    // Swap: the live server resolves by name, the generation changes.
    assert!(store.remove("imdb"));
    store.insert("imdb", replacement).unwrap();
    assert_eq!(
        c.estimate_value("imdb", SQL).unwrap().to_bits(),
        new_expected.to_bits(),
        "post-swap answer must come from the new model, not the cache"
    );
    // The new generation caches independently.
    assert_eq!(
        c.estimate_value("imdb", SQL).unwrap().to_bits(),
        new_expected.to_bits()
    );
    assert_eq!(stat(&mut c, "ds_serve_cache_hits"), 2.0);
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
