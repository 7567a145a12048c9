//! Fleet observability end to end: three real `ds_shard` processes plus a
//! real `ds_fleetmon` aggregator process.
//!
//! A [`FleetClient`] routes traced `ESTIMATE`s (v3 `trace=` tokens) into
//! the fleet, one replica is SIGKILLed so a traced request fails over
//! across process boundaries, and the aggregator's merged views are then
//! checked against ground truth scraped shard-by-shard:
//!
//! * `TRACE` — the failover request's exemplar stitches into a single
//!   causal tree under the client's root span (client span → server
//!   span), exemplars from *different* shards appear in one payload
//!   grouped by trace id, and every traced exemplar's three stages
//!   decompose its wall time within 5%;
//! * `STATS` — merged counters equal the per-shard sums and the merged
//!   latency histogram equals the bucket-wise sum of the per-shard
//!   histograms (the `LogHistogram::merge` identity), with the
//!   aggregator's own `fleet/…` scrape counters folded into the same
//!   document.

use std::io::{BufRead, BufReader};
use std::time::{Duration, Instant};

use ds_core::snapshot::encode_snapshot;
use ds_obs::{FamilyKind, PromFamily, TraceContext};
use ds_query::parser::parse_query;
use ds_serve::{FleetClient, FleetTopology, RequestTimeline, SyncAck};

mod common;
use common::{connect, tiny_db, tiny_sketch, Proc};

const SQL: &str = "SELECT COUNT(*) FROM title WHERE title.kind_id = 1";

/// The single scalar sample of a counter/gauge family, or 0 when the
/// family is absent from this exposition.
fn scalar(families: &[PromFamily], name: &str) -> f64 {
    families
        .iter()
        .find(|f| f.name == name)
        .and_then(|f| f.scalar())
        .unwrap_or(0.0)
}

/// The `(le, cumulative-count)` buckets of a histogram family, in
/// emission (ascending-`le`) order; `+Inf` parses as `u64::MAX`.
fn buckets(families: &[PromFamily], name: &str) -> Vec<(u64, f64)> {
    let fam = families
        .iter()
        .find(|f| f.name == name && f.kind == FamilyKind::Histogram)
        .unwrap_or_else(|| panic!("missing histogram family {name}"));
    fam.samples
        .iter()
        .filter(|s| s.name.ends_with("_bucket"))
        .map(|s| {
            let le = s
                .labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| v.as_str())
                .expect("bucket has le label");
            let le = if le == "+Inf" {
                u64::MAX
            } else {
                le.parse().expect("numeric le")
            };
            (le, s.value)
        })
        .collect()
}

/// Cumulative count at `le` of a sparse cumulative bucket list: the value
/// of the last emitted bucket at or below `le` (0 before the first one).
/// Exact because every exposition places its boundaries on the same
/// power-of-two grid — it merely skips the empty ones.
fn cumulative_at(buckets: &[(u64, f64)], le: u64) -> f64 {
    buckets
        .iter()
        .take_while(|(b, _)| *b <= le)
        .last()
        .map_or(0.0, |(_, v)| *v)
}

/// Stage spans decompose the exemplar's wall time within 5% (plus sub-µs
/// truncation slack per stage) — the PR 4 invariant, now asserted on
/// timelines that crossed a process boundary through the aggregator.
fn assert_decomposes(t: &RequestTimeline) {
    let diff = t.stage_sum_us().abs_diff(t.total_us) as f64;
    assert!(
        diff <= 3.0 + t.total_us as f64 * 0.05,
        "stages {} vs total {} for {}",
        t.stage_sum_us(),
        t.total_us,
        t.template
    );
}

#[test]
fn fleetmon_stitches_traces_and_merges_stats_across_processes() {
    let db = tiny_db(42);
    let sketch = tiny_sketch(&db, 7);
    let expected = sketch.estimate_one(&parse_query(&db, SQL).unwrap());
    let blob = encode_snapshot("imdb", 1, &sketch, None);

    let mut shards: Vec<Proc> = (0..3)
        .map(|_| Proc::spawn(env!("CARGO_BIN_EXE_ds_shard"), &[]))
        .collect();
    let topology = FleetTopology::new(shards.iter().map(|s| s.addr).collect(), 2);
    let replicas = topology.replicas("imdb");
    assert_eq!(replicas.len(), 2);
    let bystander = (0..3).find(|s| !replicas.contains(s)).expect("third shard");

    // Seed every shard (the bystander too — it gets direct traced
    // traffic below so the aggregator has exemplars from two live
    // shards to group).
    for shard in &shards {
        let mut conn = connect(shard.addr);
        assert_eq!(
            conn.sync_snapshot("imdb", 1, &blob).expect("SYNC"),
            SyncAck::Adopted(1)
        );
    }

    // Routed, traced estimates. The first success pins affinity, so all
    // three land on the same replica.
    let mut fleet = FleetClient::new(topology.clone());
    for _ in 0..3 {
        let (v, degraded) = fleet.estimate("imdb", SQL).expect("routed estimate");
        assert!(!degraded);
        assert_eq!(v.to_bits(), expected.to_bits());
    }
    assert!(fleet.last_trace().is_some(), "client mints a root trace");

    // SIGKILL the affinity replica, then route one more traced request:
    // it must fail over to the surviving replica, carrying the same root
    // trace across both process attempts.
    let victim = fleet.candidates("imdb")[0];
    assert!(replicas.contains(&victim));
    let survivor = replicas.iter().copied().find(|&r| r != victim).unwrap();
    shards[victim].kill();
    let deadline = Instant::now() + Duration::from_secs(60);
    let (v, _) = fleet
        .estimate_with_deadline("imdb", SQL, deadline)
        .expect("failover estimate");
    assert_eq!(v.to_bits(), expected.to_bits());
    assert!(fleet.counters().failovers.get() >= 1);
    let root = fleet.last_trace().expect("root trace of the failover");

    // A second live shard contributes its own traced exemplar, so the
    // aggregator has cross-shard timelines to group by trace id.
    let side_trace = TraceContext {
        trace_id: root.trace_id ^ 0x5eed,
        span_id: root.span_id,
    };
    let resp = connect(shards[bystander].addr)
        .roundtrip(&ds_serve::Request::Estimate {
            sketch: "imdb".to_string(),
            sql: SQL.to_string(),
            trace: Some(side_trace),
        })
        .expect("direct traced estimate");
    assert!(matches!(resp, ds_serve::Response::Estimate(_)), "{resp:?}");

    // Ground truth, shard by shard, after all traffic has stopped.
    let live = [survivor, bystander];
    let mut shard_families: Vec<Vec<PromFamily>> = Vec::new();
    let mut shard_timelines: Vec<RequestTimeline> = Vec::new();
    for &s in &live {
        let mut c = connect(shards[s].addr);
        shard_families.push(c.stats_families().expect("shard STATS"));
        shard_timelines.extend(c.trace().expect("shard TRACE"));
        c.quit().ok();
    }

    // Now the aggregator: scraping two live shards and one corpse.
    let mut args: Vec<String> = Vec::new();
    for shard in &shards {
        args.push("--shard".to_string());
        args.push(shard.addr.to_string());
    }
    args.push("--interval-ms".to_string());
    args.push("200".to_string());
    let fleetmon = Proc::spawn(env!("CARGO_BIN_EXE_ds_fleetmon"), &args);

    let mut mon = connect(fleetmon.addr);
    // The aggregator checks the version as every shard does.
    let refused = mon.send_raw("HELLO 0").expect("fleetmon HELLO 0");
    assert!(refused.starts_with("ERR version-mismatch "), "{refused}");
    mon.hello().expect("fleetmon HELLO");
    let merged = mon.stats_families().expect("fleetmon STATS");
    let stitched = mon.trace().expect("fleetmon TRACE");
    mon.quit().ok();

    // Counters merge by summation. `serve/ok` is driven only by the
    // estimate traffic above, so the identity is exact no matter when
    // each side scraped.
    let ok_sum: f64 = shard_families
        .iter()
        .map(|f| scalar(f, "ds_serve_ok"))
        .sum();
    // The failover landed on the survivor, the direct request on the
    // bystander; the three affinity-pinned estimates died with the victim.
    assert!(ok_sum >= 2.0, "both live shards answered estimates");
    assert_eq!(scalar(&merged, "ds_serve_ok"), ok_sum);

    // Histograms merge bucket-wise — cumulative counts add, which is
    // exactly `LogHistogram::merge` after exposition. Expositions skip
    // empty buckets, so each shard emits its own sparse layout; the
    // identity is checked per boundary via the cumulative reading, at
    // every boundary any shard emitted. Then the _count and _sum series
    // must equal the per-shard sums.
    let shard_buckets: Vec<_> = shard_families
        .iter()
        .map(|f| buckets(f, "ds_serve_latency_us_hist"))
        .collect();
    let merged_buckets = buckets(&merged, "ds_serve_latency_us_hist");
    for le in shard_buckets
        .iter()
        .flatten()
        .map(|(le, _)| *le)
        .chain(merged_buckets.iter().map(|(le, _)| *le))
    {
        let sum: f64 = shard_buckets.iter().map(|b| cumulative_at(b, le)).sum();
        assert_eq!(cumulative_at(&merged_buckets, le), sum, "bucket le={le}");
    }
    fn hist(fams: &[PromFamily]) -> &PromFamily {
        fams.iter()
            .find(|f| f.name == "ds_serve_latency_us_hist")
            .expect("latency histogram family")
    }
    for suffix in ["count", "sum"] {
        let sum: f64 = shard_families
            .iter()
            .map(|f| hist(f).suffixed(suffix).expect("histogram series"))
            .sum();
        assert_eq!(
            hist(&merged).suffixed(suffix).expect("merged series"),
            sum,
            "_{suffix}"
        );
    }

    // The aggregator folds its own scrape counters into the same document:
    // it swept three shards and found one corpse.
    assert!(scalar(&merged, "ds_fleetmon_scrapes") >= 1.0);
    assert!(scalar(&merged, "ds_fleetmon_scrape_failures") >= 1.0);

    // The stitched TRACE covers every live shard's exemplars...
    assert_eq!(stitched.len(), shard_timelines.len());
    assert!(
        stitched.iter().any(|t| t.trace_id == side_trace.trace_id),
        "bystander shard's exemplar made it into the stitched view"
    );
    // ...grouped by trace id so each tree's records are adjacent.
    let ids: Vec<u128> = stitched.iter().map(|t| t.trace_id).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted, "stitched output groups records by trace id");

    // The failover request is a single stitched tree: every record of its
    // trace parents directly under the client's root span. The victim died
    // mid-sweep, so the tree's server spans all come from the survivor —
    // exactly one answered.
    let tree: Vec<_> = stitched
        .iter()
        .filter(|t| t.trace_id == root.trace_id)
        .collect();
    assert_eq!(tree.len(), 1, "one answered span for the failover trace");
    for t in &tree {
        assert_eq!(t.parent_span, root.span_id, "parented under the client");
        assert_ne!(t.span_id, 0, "server minted its own span");
    }
    // Every traced exemplar that crossed the aggregator still decomposes.
    for t in stitched.iter().filter(|t| t.trace_id != 0) {
        assert_decomposes(t);
    }
}

/// A request split by a client stall longer than the read poll (50 ms) is
/// one request to the aggregator too: it reads through the same
/// `LineReader` as the shards. (Its own copy of the loop used to clear the
/// buffer on every poll and answer `ERR proto unknown command 'TS'`.)
#[test]
fn fleetmon_answers_a_request_split_by_a_client_stall() {
    use std::io::Write;

    let shard = Proc::spawn(env!("CARGO_BIN_EXE_ds_shard"), &[]);
    let fleetmon = Proc::spawn(
        env!("CARGO_BIN_EXE_ds_fleetmon"),
        &["--shard".to_string(), shard.addr.to_string()],
    );
    let mut stream = std::net::TcpStream::connect(fleetmon.addr).expect("connect to fleetmon");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(b"STA").unwrap();
    std::thread::sleep(Duration::from_millis(150)); // 3 × the read poll
    stream.write_all(b"TS\n").unwrap();
    let mut reply = String::new();
    BufReader::new(&stream).read_line(&mut reply).unwrap();
    assert!(reply.starts_with("OK "), "split STATS answered {reply:?}");
    assert!(reply.contains("ds_fleetmon_scrapes"), "{reply:?}");
}
