//! Absolute ceilings, in nanoseconds, on what five serving-path extras add
//! to one request, each set from readings on the reference host (2-vCPU
//! shared VM): a lock, an allocation or a model copy crosses one.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ds_bench::BENCH_SEED;
use ds_core::builder::SketchBuilder;
use ds_core::featurize::{Featurizer, ServedFeatures};
use ds_core::lifecycle::{LifecycleConfig, LifecycleManager};
use ds_core::store::SketchStore;
use ds_obs::{IdSource, TraceContext};
use ds_query::query::Query;
use ds_query::workloads::imdb_predicate_columns;
use ds_query::{GeneratorConfig, QueryGenerator};
use ds_serve::TemplateInterner;
use ds_serve::{EstimateKey, Metrics, RequestTimeline};
use ds_storage::gen::{imdb_database, ImdbConfig};
use ds_storage::sample::sample_all;

/// [`SketchStore::swap`], a pointer publish on the promote path: read
/// 47–74 ns over sixteen runs.
const SWAP_CEILING_NS: f64 = 500.0;

/// The `shadowing` check, the query clone and the `try_send` to the
/// draining thread. The send's futex wake-up is bimodal, 118–1 197 ns over
/// sixteen runs (140–1 900 before); twice the slowest reading.
const MIRROR_CEILING_NS: f64 = 4_000.0;

/// 2 % of a 78.125 µs request, for trace propagation (read 530–987 ns over
/// sixteen runs), v2 featurization's extra over v1 (258–1 242 ns) and the
/// timeline instrumentation (352–538 ns).
const ALLOWANCE_NS: f64 = 1_562.0;

/// Nanoseconds per call of `f`, the fastest of five rounds of `iters` calls.
fn ns_per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    (0..5)
        .map(|_| {
            let t = Instant::now();
            (0..iters).for_each(&mut f);
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// One test, so no two timings run side by side.
#[test]
#[cfg_attr(debug_assertions, ignore = "times optimized code; run with --release")]
fn the_serving_path_extras_stay_under_their_ceilings() {
    let db = imdb_database(&ImdbConfig::tiny(42));
    let cols = imdb_predicate_columns(&db);
    let sketch = SketchBuilder::new(&db, cols.clone())
        .training_queries(120)
        .epochs(2)
        .sample_size(8)
        .hidden_units(8)
        .build()
        .expect("tiny sketch");
    let mut gen_cfg = GeneratorConfig::new(cols.clone(), BENCH_SEED ^ 42).with_extended_ops();
    gen_cfg.max_in_list = 6;
    let queries = QueryGenerator::new(&db, gen_cfg).generate_batch(64);
    let query = |i: usize| &queries[i % queries.len()];

    let store = SketchStore::new();
    store.insert("imdb", sketch.clone()).expect("fresh store");
    let candidate = Arc::new(sketch.clone());
    let swap = ns_per_call(256, |_| {
        store.swap("imdb", Arc::clone(&candidate)).expect("swap");
    });

    let manager = LifecycleManager::new(LifecycleConfig::default()).expect("lifecycle");
    manager.install_candidate("imdb", sketch);
    assert!(manager.shadowing("imdb"), "the candidate must shadow");
    let (tx, rx) = std::sync::mpsc::sync_channel::<(String, Query, f64, Option<u64>)>(1024);
    let drain = std::thread::spawn(move || rx.iter().count());
    let mirror = ns_per_call(20_000, |i| {
        if manager.shadowing("imdb") {
            let _ = tx.try_send(("imdb".to_string(), query(i).clone(), 1234.5, None));
        }
    });
    drop(tx);
    assert!(drain.join().expect("drain") > 0, "no mirror was sent");

    let (client_ids, server_ids) = (IdSource::from_entropy(), IdSource::from_entropy());
    let propagation = ns_per_call(20_000, |_| {
        let token = client_ids.mint().to_token();
        let parsed = TraceContext::parse_token(&token).expect("token round-trip");
        std::hint::black_box(format!(
            " trace_id={:032x} span_id={:016x} parent_span={:016x}",
            parsed.trace_id,
            server_ids.next_span(),
            parsed.span_id
        ));
    });

    let samples = sample_all(&db, 256, BENCH_SEED ^ 41);
    let mut feats = ServedFeatures::default();
    let mut featurize = |fz: Featurizer| {
        ns_per_call(queries.len() * 5, |i| {
            feats.clear();
            fz.append_indices(query(i), &samples, &mut feats);
        })
    };
    let v1 = featurize(Featurizer::build(&db, &cols, 256));
    let v2_extra = featurize(Featurizer::build(&db, &cols, 256).with_schema_v2(64)) - v1;

    // The timeline the server books for a request kept as an exemplar.
    let (interner, metrics) = (TemplateInterner::new(), Metrics::new());
    let keys: Vec<_> = queries
        .iter()
        .map(|q| EstimateKey::new("imdb", 1, q))
        .collect();
    let us = |d: Duration| d.as_micros() as u64;
    let timeline = ns_per_call(20_000, |i| {
        let t0 = Instant::now();
        let template = interner.get(&db, query(i), keys[i % keys.len()].shape());
        let (forward_start, forward_end, done) = (Instant::now(), Instant::now(), Instant::now());
        let (parse_us, forward_us) = (us(forward_start - t0), us(forward_end - forward_start));
        let write_us = us(done - forward_end);
        metrics.record_stages(parse_us, forward_us, write_us);
        metrics.slow.push(RequestTimeline {
            sketch: "imdb".to_string(),
            template: template.as_ref().to_string(),
            total_us: us(done - t0),
            parse_us,
            forward_us,
            write_us,
            trace_id: 0,
            span_id: 0,
            parent_span: 0,
        });
    });

    let readings = [
        ("store swap", swap, SWAP_CEILING_NS),
        ("shadow mirror", mirror, MIRROR_CEILING_NS),
        ("trace propagation", propagation, ALLOWANCE_NS),
        ("v2 featurization extra", v2_extra, ALLOWANCE_NS),
        ("timeline instrumentation", timeline, ALLOWANCE_NS),
    ];
    for (name, ns, ceiling) in readings {
        println!("{name:<26} {ns:>7.0} ns (ceiling {ceiling:.0})");
    }
    let over: Vec<_> = readings.iter().filter(|(_, ns, c)| ns >= c).collect();
    assert!(over.is_empty(), "over their ceilings: {over:?}");
}
