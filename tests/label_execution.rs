//! Label execution as the sketch builder drives it: the counts of the
//! benchmark's training workload and of JOB-light are pinned to what the
//! hash-message executor this one replaced returned, and one executor kept
//! for a whole chunked labelling derives every cached message once.

use deep_sketches::prelude::*;
use deep_sketches::query::{GeneratorConfig, QueryGenerator};
use deep_sketches::storage::exec::{CountExecutor, ExecQuery};

/// `ds_bench::BENCH_SEED`; the root package does not depend on ds-bench.
const BENCH_SEED: u64 = 0xBE7C_2024;

/// `ds_bench::bench_imdb()`: the 91 564-row database every benchmark
/// workload runs against.
fn bench_imdb() -> Database {
    imdb_database(&ImdbConfig {
        movies: 8_000,
        keywords: 4_000,
        companies: 1_500,
        persons: 20_000,
        seed: BENCH_SEED,
    })
}

/// The training queries `SketchBuilder` generates for the benchmark's
/// sketch spec (`seed(BENCH_SEED ^ 2)`, `max_tables(5)`,
/// `max_predicates(4)`), lowered for execution.
fn bench_training_queries(db: &Database, n: usize) -> Vec<ExecQuery> {
    let mut cfg = GeneratorConfig::new(imdb_predicate_columns(db), (BENCH_SEED ^ 2) ^ 0x9E);
    cfg.max_tables = 5;
    cfg.max_predicates = 4;
    let queries = QueryGenerator::new(db, cfg).generate_batch(n);
    queries.iter().map(Query::to_exec).collect()
}

fn fnv1a64(counts: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in counts.iter().flat_map(|c| c.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a-64 over the little-endian counts, computed with the parent
/// commit's executor (per-query `HashMap<i64, u64>` messages) before this
/// one existed.
const TRAINING_4000_COUNTS: u64 = 0x0a0c_68b5_0cf0_087c;
const JOB_LIGHT_70_COUNTS: u64 = 0xe301_29fc_cfc9_9786;

#[test]
fn benchmark_workloads_get_the_counts_the_hash_executor_gave() {
    let db = bench_imdb();
    assert_eq!(db.total_rows(), 91_564);
    let training = bench_training_queries(&db, 4000);
    let exec = CountExecutor::new();
    let counts = exec.count_batch(&db, &training, 2).expect("training");
    assert_eq!(counts.len(), 4000);
    assert_eq!(fnv1a64(&counts), TRAINING_4000_COUNTS);

    let job_light: Vec<ExecQuery> = job_light_workload(&db, BENCH_SEED)
        .iter()
        .map(Query::to_exec)
        .collect();
    let counts = exec.count_batch(&db, &job_light, 1).expect("JOB-light");
    assert_eq!(counts.len(), 70);
    assert_eq!(fnv1a64(&counts), JOB_LIGHT_70_COUNTS);
}

/// The builder labels in twenty progress chunks. With one executor behind
/// all of them a cached message is derived once per build; an executor per
/// chunk — what `exec::count_batch` used to construct — derives the
/// predicate-free messages of every chunk again.
#[test]
fn chunked_labelling_derives_each_cached_message_once() {
    let db = imdb_database(&ImdbConfig::tiny(3));
    let queries = bench_training_queries(&db, 600);

    let whole = CountExecutor::new();
    let expected = whole.count_batch(&db, &queries, 1).expect("whole");
    let distinct = whole.cached_messages();
    assert!(distinct > 10, "the workload shares subtrees: {distinct}");
    assert_eq!(whole.cached_messages_derived(), distinct);

    let chunked = CountExecutor::new();
    let mut per_chunk_executors = 0;
    let mut labels = Vec::new();
    for (i, chunk) in queries.chunks(queries.len() / 20).enumerate() {
        // Threads race for the same messages; still once each.
        labels.extend(chunked.count_batch(&db, chunk, 1 + i % 3).expect("chunk"));
        let fresh = CountExecutor::new();
        fresh.count_batch(&db, chunk, 1).expect("chunk");
        per_chunk_executors += fresh.cached_messages_derived();
    }
    assert_eq!(labels, expected);
    assert_eq!(chunked.cached_messages(), distinct);
    assert_eq!(chunked.cached_messages_derived(), distinct);
    assert!(
        per_chunk_executors > 3 * distinct,
        "{per_chunk_executors} derivations with an executor per chunk, {distinct} with one"
    );
}
