//! Criterion micro-benchmarks of the engineering-critical paths:
//! COUNT execution (label generation throughput), featurization, MSCN
//! forward pass, sketch estimation, and the traditional estimators.
//!
//! Run: `cargo bench -p ds-bench --bench micro_components`

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use ds_core::featurize::Featurizer;
use ds_core::mscn::{MscnConfig, MscnGrads, MscnModel};
use ds_est::postgres::PostgresEstimator;
use ds_est::sampling::SamplingEstimator;
use ds_est::CardinalityEstimator;
use ds_nn::pool::Team;
use ds_query::workloads::imdb_predicate_columns;
use ds_query::workloads::job_light::job_light_workload;
use ds_query::{GeneratorConfig, QueryGenerator};
use ds_storage::exec::CountExecutor;
use ds_storage::gen::{imdb_database, ImdbConfig};
use ds_storage::sample::sample_all;

fn small_imdb() -> ds_storage::catalog::Database {
    imdb_database(&ImdbConfig {
        movies: 2_000,
        keywords: 500,
        companies: 200,
        persons: 2_000,
        seed: 0xBE7C,
    })
}

fn bench_executor(c: &mut Criterion) {
    let db = small_imdb();
    let workload = job_light_workload(&db, 1);
    let exec = CountExecutor::new();
    // Warm the dictionaries and the message cache as a real labeling run
    // would.
    for q in &workload {
        exec.count(&db, &q.to_exec()).unwrap();
    }
    c.bench_function("executor/job_light_70_queries", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for q in &workload {
                total += exec.count(&db, black_box(&q.to_exec())).unwrap();
            }
            black_box(total)
        })
    });
}

fn bench_featurizer(c: &mut Criterion) {
    let db = small_imdb();
    let cols = imdb_predicate_columns(&db);
    let samples = sample_all(&db, 100, 2);
    let featurizer = Featurizer::build(&db, &cols, 100);
    let workload = job_light_workload(&db, 2);
    c.bench_function("featurize/job_light_70_queries", |b| {
        b.iter(|| black_box(featurizer.batch_queries(black_box(&workload), &samples)))
    });
}

fn bench_forward(c: &mut Criterion) {
    let db = small_imdb();
    let cols = imdb_predicate_columns(&db);
    let samples = sample_all(&db, 100, 2);
    let featurizer = Featurizer::build(&db, &cols, 100);
    let model = MscnModel::new(
        featurizer.table_dim(),
        featurizer.join_dim(),
        featurizer.pred_dim(),
        MscnConfig {
            hidden: 96,
            seed: 1,
        },
    );
    let workload = job_light_workload(&db, 3);
    let pool = featurizer.pool(&workload, &samples);
    let all: Vec<usize> = (0..workload.len()).collect();
    let batch = pool.batch_of(&all);
    let mut cache = ds_core::mscn::ForwardCache::new();
    c.bench_function("mscn/forward_batch_70", |b| {
        b.iter(|| {
            model.forward_into(black_box(&batch), &Team::solo(), &mut cache);
            black_box(cache.output().data()[0])
        })
    });
}

fn bench_training_step(c: &mut Criterion) {
    let db = small_imdb();
    let cols = imdb_predicate_columns(&db);
    let samples = sample_all(&db, 100, 2);
    let featurizer = Featurizer::build(&db, &cols, 100);
    let mut generator = QueryGenerator::new(&db, GeneratorConfig::new(cols.clone(), 5));
    let queries = generator.generate_batch(128);
    let pool = featurizer.pool(&queries, &samples);
    let all: Vec<usize> = (0..queries.len()).collect();
    let batch = pool.batch_of(&all);
    let labels: Vec<u64> = (0..128).map(|i| (i as u64 + 1) * 10).collect();
    let normalizer = ds_nn::loss::LabelNormalizer::fit(&labels);
    let loss = ds_nn::loss::QErrorLoss::new(normalizer);
    let model = MscnModel::new(
        featurizer.table_dim(),
        featurizer.join_dim(),
        featurizer.pred_dim(),
        MscnConfig {
            hidden: 96,
            seed: 2,
        },
    );
    c.bench_function("mscn/train_step_batch_128", |b| {
        b.iter_batched(
            || {
                let adam = ds_nn::optim::Adam::new(1e-3);
                (model.clone(), adam, MscnGrads::new(&model))
            },
            |(mut m, mut adam, mut grads)| {
                let (y, cache) = m.forward(&batch);
                let (_, grad) = loss.forward_backward(&y, &labels);
                m.backward(&batch, &cache, &grad, &mut grads);
                m.adam_step(&mut adam, &mut grads, &Team::solo());
                black_box(m.num_params())
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_matmul_shapes(c: &mut Criterion) {
    // A layer's forward at three MSCN shapes, each on the data its layer
    // sees (as index lists): table-set input, hidden 256×256, 256→1 head.
    for (name, k, n, dense) in ds_bench::kernel_shapes() {
        let layer = ds_nn::Linear::from_params(ds_bench::random_tensor(k, n, 0xB0), vec![0.0; n]);
        let rows = ds_nn::IndexSet::of_dense(dense.data(), dense.cols());
        let mut out = ds_nn::Tensor::zeros(0, 0);
        c.bench_function(&format!("matmul/{name}"), |bch| {
            bch.iter(|| {
                layer.forward_rows(black_box(rows.rows()), false, &Team::solo(), &mut out);
                black_box(out.data()[0])
            })
        });
    }
}

fn bench_estimators(c: &mut Criterion) {
    let db = small_imdb();
    let postgres = PostgresEstimator::build(&db);
    let hyper = SamplingEstimator::build(&db, 100, 3);
    let workload = job_light_workload(&db, 4);
    let q4 = workload
        .iter()
        .find(|q| q.num_joins() == 4)
        .expect("4-join query")
        .clone();
    c.bench_function("estimate/postgres_4join", |b| {
        b.iter(|| black_box(postgres.estimate(black_box(&q4))))
    });
    c.bench_function("estimate/sampling_4join", |b| {
        b.iter(|| black_box(hyper.estimate(black_box(&q4))))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(4))
        .warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_executor, bench_featurizer, bench_forward, bench_training_step, bench_matmul_shapes, bench_estimators
}
criterion_main!(benches);
