//! No thread outlives `train`: the run's helper lanes are spawned inside
//! it and joined before it returns. One test on purpose — the thread count
//! is the process's, and a test running beside this one would move it.

use std::time::{Duration, Instant};

use ds_core::featurize::Featurizer;
use ds_core::mscn::{MscnConfig, MscnModel};
use ds_core::train::{train_with_callback, TrainConfig};
use ds_nn::loss::LabelNormalizer;
use ds_query::workloads::imdb_predicate_columns;
use ds_query::{GeneratorConfig, QueryGenerator};
use ds_storage::gen::{imdb_database, ImdbConfig};
use ds_storage::sample::sample_all;

/// `Threads:` of `/proc/self/status`; `None` off Linux.
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line["Threads:".len()..].trim().parse().ok()
}

/// [`os_threads`] once it reads `want`, polled for up to 2 s: a joined
/// helper can still be counted while it runs its kernel exit path.
fn os_threads_settled(want: usize) -> Option<usize> {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let now = os_threads();
        if now == Some(want) || Instant::now() >= deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn the_process_has_as_many_threads_after_train_as_before() {
    let db = imdb_database(&ImdbConfig::tiny(1));
    let samples = sample_all(&db, 24, 5);
    let cols = imdb_predicate_columns(&db);
    let featurizer = Featurizer::build(&db, &cols, 24);
    let queries = QueryGenerator::new(&db, GeneratorConfig::new(cols, 17)).generate_batch(96);
    let labels: Vec<u64> = (0..queries.len() as u64).map(|i| (i + 1) * 10).collect();
    let normalizer = LabelNormalizer::fit(&labels);
    let Some(before) = os_threads() else {
        return;
    };
    for threads in [1, 2, 4] {
        let mut model = MscnModel::new(
            featurizer.table_dim(),
            featurizer.join_dim(),
            featurizer.pred_dim(),
            MscnConfig {
                hidden: 16,
                seed: 4,
            },
        );
        let mut during = 0;
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 32,
            threads,
            ..Default::default()
        };
        train_with_callback(
            &mut model,
            &featurizer,
            &samples,
            &queries,
            &labels,
            &normalizer,
            &cfg,
            &mut |_| during = os_threads().expect("linux"),
        );
        assert_eq!(during, before + threads - 1, "lanes alive during the run");
        assert_eq!(
            os_threads_settled(before),
            Some(before),
            "after train at {threads} lanes"
        );
    }
}
