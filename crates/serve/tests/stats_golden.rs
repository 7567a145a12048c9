//! The shard's `STATS` family set, pinned: one server with every metric
//! owner turned on (estimate cache, fallback, breaker, lifecycle daemon,
//! one SLO, a feedback monitor), the global tracer off, and a fixed
//! request mix. The sorted `(family, kind)` list and the deterministic
//! counters must not move when the exposition is reorganised; family order
//! is not pinned.

use std::sync::Arc;
use std::time::Duration;

use ds_core::lifecycle::LifecycleConfig;
use ds_est::postgres::PostgresEstimator;
use ds_obs::{FamilyKind, PromFamily};
use ds_serve::{BreakerConfig, Client, FaultInjector, Response, ServeConfig, ServeSlo, Server};

mod common;
use common::fixture;

const SQL_A: &str = "SELECT COUNT(*) FROM title WHERE title.kind_id = 1";
const SQL_B: &str = "SELECT COUNT(*) FROM title WHERE title.kind_id = 2";
const SQL_C: &str = "SELECT COUNT(*) FROM title WHERE title.kind_id = 3";

/// Every family the mix above leaves in `STATS`, sorted by name.
const FAMILIES: &[(&str, FamilyKind)] = &[
    ("ds_feedback_imdb_qerror_scaled", FamilyKind::Summary),
    ("ds_serve_active_connections", FamilyKind::Gauge),
    ("ds_serve_batches", FamilyKind::Counter),
    ("ds_serve_breaker_imdb_open", FamilyKind::Gauge),
    ("ds_serve_breaker_imdb_opened", FamilyKind::Counter),
    ("ds_serve_breaker_imdb_short_circuits", FamilyKind::Counter),
    ("ds_serve_cache_evictions", FamilyKind::Counter),
    ("ds_serve_cache_hits", FamilyKind::Counter),
    ("ds_serve_cache_len", FamilyKind::Gauge),
    ("ds_serve_cache_misses", FamilyKind::Counter),
    ("ds_serve_degraded", FamilyKind::Counter),
    ("ds_serve_errors", FamilyKind::Counter),
    ("ds_serve_latency_us", FamilyKind::Summary),
    ("ds_serve_latency_us_hist", FamilyKind::Histogram),
    ("ds_serve_latency_us_hist_max", FamilyKind::Gauge),
    ("ds_serve_latency_us_hist_min", FamilyKind::Gauge),
    ("ds_serve_lifecycle_gate_rejects", FamilyKind::Counter),
    ("ds_serve_lifecycle_harvested", FamilyKind::Counter),
    ("ds_serve_lifecycle_imdb_harvested", FamilyKind::Gauge),
    ("ds_serve_lifecycle_imdb_phase", FamilyKind::Gauge),
    ("ds_serve_lifecycle_imdb_shadow_delta", FamilyKind::Gauge),
    ("ds_serve_lifecycle_mirrored", FamilyKind::Counter),
    ("ds_serve_lifecycle_promotions", FamilyKind::Counter),
    ("ds_serve_lifecycle_retrains_failed", FamilyKind::Counter),
    ("ds_serve_lifecycle_retrains_started", FamilyKind::Counter),
    ("ds_serve_lifecycle_rollbacks", FamilyKind::Counter),
    ("ds_serve_lifecycle_shadow_dropped", FamilyKind::Counter),
    ("ds_serve_lifecycle_swaps", FamilyKind::Counter),
    ("ds_serve_memo_imdb_bytes", FamilyKind::Gauge),
    ("ds_serve_memo_imdb_contended", FamilyKind::Counter),
    ("ds_serve_memo_imdb_entries", FamilyKind::Gauge),
    ("ds_serve_memo_imdb_hits", FamilyKind::Counter),
    ("ds_serve_memo_imdb_misses", FamilyKind::Counter),
    ("ds_serve_ok", FamilyKind::Counter),
    ("ds_serve_requests", FamilyKind::Counter),
    ("ds_serve_shed", FamilyKind::Counter),
    ("ds_serve_snapshots_shipped", FamilyKind::Counter),
    ("ds_serve_stage_forward_us", FamilyKind::Summary),
    ("ds_serve_stage_parse_us", FamilyKind::Summary),
    ("ds_serve_stage_write_us", FamilyKind::Summary),
    ("ds_serve_sync_adopted", FamilyKind::Counter),
    ("ds_serve_sync_rejected", FamilyKind::Counter),
    ("ds_serve_sync_stale", FamilyKind::Counter),
    ("ds_serve_timeouts", FamilyKind::Counter),
    ("ds_serve_trace_dropped", FamilyKind::Counter),
    ("ds_serve_trace_kept", FamilyKind::Counter),
    ("ds_slo_avail_bad", FamilyKind::Counter),
    ("ds_slo_avail_burn_fast", FamilyKind::Gauge),
    ("ds_slo_avail_burn_slow", FamilyKind::Gauge),
    ("ds_slo_avail_firing", FamilyKind::Gauge),
    ("ds_slo_avail_good", FamilyKind::Counter),
];

#[test]
fn stats_family_set_and_counters_are_pinned() {
    assert!(
        !ds_obs::global().is_enabled(),
        "the global tracer stays off"
    );
    let (db, store) = fixture();
    let faults = Arc::new(FaultInjector::new(1));
    let server = Server::start(
        Arc::clone(&db),
        store,
        ServeConfig::builder()
            .fallback(Some(Arc::new(PostgresEstimator::build(&db))))
            .breaker(BreakerConfig {
                failure_threshold: 1,
                cooldown: Duration::from_secs(300),
            })
            .faults(Some(Arc::clone(&faults)))
            .lifecycle(Some(LifecycleConfig::default()))
            .slos(vec![ServeSlo::errors("avail", 0.99)])
            .request_timeout(Duration::from_secs(30))
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut c = Client::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();

    // Misses, a hit, a graded FEEDBACK (a hit too), and one error.
    for sql in [SQL_A, SQL_A, SQL_B] {
        assert!(matches!(
            c.estimate("imdb", sql).unwrap(),
            Response::Estimate(_)
        ));
    }
    let line = c.send_raw(&format!("FEEDBACK imdb 100 {SQL_A}")).unwrap();
    assert!(line.starts_with("OK "), "{line}");
    let line = c.send_raw(&format!("ESTIMATE nosuch {SQL_A}")).unwrap();
    assert!(line.starts_with("ERR "), "{line}");
    // A poisoned sketch answers through the fallback, flagged, and opens
    // its breaker; release builds disarm the injector and run a miss.
    faults.poison("imdb");
    let (_, degraded) = c.estimate_flagged("imdb", SQL_C).unwrap();
    let debug = FaultInjector::armed();
    assert_eq!(degraded, debug);

    let families = c.stats_families().unwrap();
    let mut kinds: Vec<(&str, FamilyKind)> =
        families.iter().map(|f| (f.name.as_str(), f.kind)).collect();
    kinds.sort_unstable_by(|a, b| a.0.cmp(b.0));
    assert_eq!(kinds, FAMILIES);

    let family = |name: &str| -> &PromFamily {
        families
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("no family {name}"))
    };
    let scalar = |name: &str| family(name).scalar().unwrap();
    let count = |name: &str| family(name).suffixed("count").unwrap();
    let (ok, degraded) = (5.0, f64::from(u8::from(debug)));
    // Five ESTIMATEs, the FEEDBACK and the STATS itself.
    assert_eq!(scalar("ds_serve_requests"), 7.0);
    assert_eq!(scalar("ds_serve_ok"), ok);
    assert_eq!(scalar("ds_serve_errors"), 1.0);
    assert_eq!(scalar("ds_serve_degraded"), degraded);
    assert_eq!(scalar("ds_serve_cache_hits"), 2.0);
    assert_eq!(scalar("ds_serve_cache_misses"), 3.0 - degraded);
    assert_eq!(scalar("ds_serve_breaker_imdb_opened"), degraded);
    assert_eq!(scalar("ds_slo_avail_good"), ok);
    assert_eq!(scalar("ds_slo_avail_bad"), 1.0);
    assert_eq!(count("ds_serve_latency_us"), ok);
    assert_eq!(count("ds_serve_latency_us_hist"), ok);
    // A degraded answer records no stage timeline.
    for stage in ["parse", "forward", "write"] {
        assert_eq!(count(&format!("ds_serve_stage_{stage}_us")), ok - degraded);
    }
    c.quit().unwrap();
    server.shutdown();
}
