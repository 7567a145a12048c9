//! Tracing must only ever *measure*: building the same sketch with the
//! global tracer enabled and disabled has to produce bit-identical weights
//! and bit-identical estimates. This test lives alone in its own binary so
//! toggling the process-global tracer cannot race other tests.

use ds_core::builder::SketchBuilder;
use ds_query::workloads::imdb_predicate_columns;
use ds_storage::gen::{imdb_database, ImdbConfig};

fn build_bytes(db: &ds_storage::catalog::Database, threads: usize) -> Vec<u8> {
    SketchBuilder::new(db, imdb_predicate_columns(db))
        .training_queries(200)
        .epochs(3)
        .sample_size(32)
        .hidden_units(16)
        .threads(threads)
        .seed(0x0B5)
        .build()
        .expect("build sketch")
        .to_bytes()
}

#[test]
fn traced_and_untraced_training_are_bit_identical() {
    let db = imdb_database(&ImdbConfig::tiny(7));
    let obs = ds_obs::global();
    assert!(!obs.is_enabled(), "tracer must start disabled");

    // Spans a helper lane closes at two threads: the join and predicate
    // modules' layers, forward and backward.
    let on_a_helper = [
        "build/train/epoch/forward/joins/linear_fwd",
        "build/train/epoch/forward/preds/linear_fwd",
        "build/train/epoch/backward/joins/linear_bwd_grads",
        "build/train/epoch/backward/preds/linear_bwd_input",
    ];
    let mut serial_counts = Vec::new();
    for threads in [1, 2] {
        let untraced = build_bytes(&db, threads);

        obs.reset();
        obs.enable();
        let traced = build_bytes(&db, threads);
        obs.disable();

        assert_eq!(
            untraced, traced,
            "tracing perturbed the trained sketch at {threads} thread(s)"
        );

        // A lane inherits the path of the join that started it: the
        // per-module breakdown has the serial build's rows and counts.
        let counts: Vec<u64> = on_a_helper
            .iter()
            .map(|path| obs.span_stat(path).map_or(0, |s| s.count))
            .collect();
        assert!(
            counts.iter().all(|&c| c > 0),
            "{threads} thread(s): {counts:?}"
        );
        if threads == 1 {
            serial_counts = counts;
        } else {
            assert_eq!(counts, serial_counts, "a lane's spans left the hierarchy");
            assert!(
                obs.span_stat("joins").is_none() && obs.span_stat("linear_fwd").is_none(),
                "a lane rooted a hierarchy of its own"
            );
        }
    }

    // The traced runs must actually have recorded the lifecycle spans —
    // otherwise this test would pass vacuously with instrumentation dead.
    for path in ["build", "build/train", "build/train/epoch"] {
        let stat = obs
            .span_stat(path)
            .unwrap_or_else(|| panic!("span {path} missing"));
        assert!(stat.count > 0, "span {path} never completed");
    }
    assert!(
        obs.counter_value("build/queries_generated") >= 200,
        "builder counters missing"
    );
}
