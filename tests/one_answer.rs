//! One answer per query. A Deep Sketch takes a SQL query in and gives one
//! cardinality out, so every route an estimate can take gives the same one:
//! the library call, a batch of any size on any number of threads, a
//! router, the element memo cold and warm, eight threads at once, the wire
//! on a cache miss and a hit and under every server configuration, a fleet
//! replica after its primary dies, a server restarted on its snapshot
//! directory, and a sketch reloaded, synced, swapped or rolled back.
//!
//! The oracle is computed once per query: the vocabulary check's typed
//! error, or the bits of the model's reference forward — naive f32 products
//! over dense features, on a training-layout copy of the weights thawed
//! from the serving artifact, sharing no kernel with serving. Every path is
//! held to it exactly: the same f64 bits or the same error. On the wire an
//! error is its `ERR <code>` line, and the batch paths without a `try`
//! answer an error with `1.0`.
//!
//! The queries are seeded, of four kinds — comparison-only, the extended
//! operators (`IN`, `LIKE`), zero-tuple (a table whose sample qualifies no
//! tuple) and out-of-vocabulary — plus the shapes the generator rarely
//! emits. Two sketches answer them, one per feature schema. The sketches
//! are served next to a wider database than the one they were trained on:
//! every table has one more column, and there is one more table, which is
//! where the out-of-vocabulary queries reach.

use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::{Arc, Barrier, OnceLock};
use std::time::Duration;

use ds_core::builder::SketchBuilder;
use ds_core::featurize::FeatureSchema;
use ds_core::mscn::MscnModel;
use ds_core::router::SketchRouter;
use ds_core::sketch::DeepSketch;
use ds_core::store::SketchStore;
use ds_est::postgres::PostgresEstimator;
use ds_est::{CardinalityEstimator, EstimateError};
use ds_nn::frozen::MemoStats;
use ds_query::parser::parse_query;
use ds_query::query::Query;
use ds_query::sqlgen::to_sql;
use ds_query::workloads::imdb_predicate_columns;
use ds_query::{GeneratorConfig, QueryGenerator};
use ds_serve::protocol::{estimate_error_response, format_response};
use ds_serve::{
    Client, EstimateKey, Fleet, FleetConfig, Response, ServeConfig, ServeConfigBuilder, Server,
    SharedEstimator, SyncAck,
};
use ds_storage::catalog::{ColRef, Database, ForeignKey, TableId};
use ds_storage::column::Column;
use ds_storage::gen::{imdb_database, ImdbConfig};
use ds_storage::predicate::{CmpOp, ColPredicate, PredOpKind};
use ds_storage::table::Table;

/// Queries of each generated kind.
const PER_KIND: usize = 32;
const TIMEOUT: Duration = Duration::from_secs(30);

type Outcome = Result<f64, EstimateError>;

/// A sketch, the name it is served under and the oracle's answers.
struct Served {
    name: &'static str,
    sketch: DeepSketch,
    want: Vec<Outcome>,
}

struct Fixture {
    /// The database the servers parse against: wider than the sketches'.
    db: Arc<Database>,
    /// Each query as the wire sends it, and as `db` parses it.
    sqls: Vec<String>,
    queries: Vec<Query>,
    served: [Served; 2],
}

impl Fixture {
    /// A store serving both sketches under their names.
    fn store(&self) -> Arc<SketchStore> {
        let store = Arc::new(SketchStore::new());
        for s in &self.served {
            store.insert(s.name, s.sketch.clone()).unwrap();
        }
        store
    }

    fn start(&self, store: Arc<SketchStore>, cfg: ServeConfigBuilder) -> (Server, Client) {
        let cfg = cfg.request_timeout(TIMEOUT).build().unwrap();
        let server = Server::start(Arc::clone(&self.db), store, cfg).unwrap();
        let client = Client::connect_timeout(server.local_addr(), TIMEOUT).unwrap();
        (server, client)
    }
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let db = imdb_database(&ImdbConfig::tiny(11));
        let build = |configure: fn(SketchBuilder<'_>) -> SketchBuilder<'_>, seed| {
            let b = SketchBuilder::new(&db, imdb_predicate_columns(&db));
            let b = configure(b.training_queries(150).epochs(2).sample_size(16));
            b.hidden_units(16).seed(seed).build().expect("tiny sketch")
        };
        let v1 = build(|b| b, 5);
        let v2 = build(|b| b.extended_ops(0.2, 0.2).feature_schema_v2(8), 6);
        let schema = |s: &DeepSketch| (s.featurizer().schema(), s.featurizer().pred_bitmap_bits());
        assert_eq!(
            [schema(&v1), schema(&v2)],
            [(FeatureSchema::V1, 0), (FeatureSchema::V2, 8)]
        );
        let wide = wider(&db);
        let sqls = sqls(&db, &wide, [&v1, &v2]);
        let queries: Vec<Query> = sqls
            .iter()
            .map(|sql| parse_query(&wide, sql).unwrap())
            .collect();
        let served = [("v1", v1), ("v2", v2)].map(|(name, sketch)| Served {
            name,
            want: oracle(&sketch, &queries),
            sketch,
        });
        Fixture {
            db: Arc::new(wide),
            sqls,
            queries,
            served,
        }
    })
}

/// `db` with a `note` column after each table's last and a table more,
/// `aka_title`, joined to `title`: the larger schema a sketch of `db` meets
/// when it is deserialized next to a newer database.
fn wider(db: &Database) -> Database {
    let note = |rows: usize| Column::new("note", (0..rows as i64).map(|i| i % 7).collect());
    let mut tables: Vec<Table> = db
        .tables()
        .iter()
        .map(|t| Table::new(t.name(), [t.columns(), &[note(t.num_rows())]].concat()))
        .collect();
    let movies = db.tables()[0].num_rows();
    let ids: Vec<i64> = (1..=movies as i64).collect();
    let (id, movie_id) = (Column::new("id", ids.clone()), Column::new("movie_id", ids));
    tables.push(Table::new("aka_title", vec![id, movie_id, note(movies)]));
    let fk = ForeignKey {
        from: ColRef::new(TableId(tables.len() - 1), 1),
        to: ColRef::new(TableId(0), 0),
    };
    Database::new(db.name(), tables, [db.foreign_keys(), &[fk]].concat())
}

/// The query set, rendered over `wide`: the four kinds interleaved, so that
/// every batch prefix mixes them, then the three rare shapes — a single
/// table (no join, no predicate), a join without predicates and a single
/// table with one. No two are the same query under `EstimateKey`, clause
/// order removed, so no two share a cache entry.
fn sqls(db: &Database, wide: &Database, sketches: [&DeepSketch; 2]) -> Vec<String> {
    let rare = [
        "SELECT COUNT(*) FROM title",
        "SELECT COUNT(*) FROM title, movie_keyword WHERE movie_keyword.movie_id = title.id",
        "SELECT COUNT(*) FROM title WHERE title.production_year > 1990",
    ]
    .map(|sql| parse_query(wide, sql).expect("parses"));
    let seen = RefCell::new(HashSet::new());
    let fresh = |q: &Query| seen.borrow_mut().insert(EstimateKey::new("", 0, q));
    assert!(rare.iter().all(fresh));
    // The first `PER_KIND` new queries `make` makes of what `cfg` generates.
    let draw = |db: &Database, cfg: GeneratorConfig, make: &dyn Fn(Query) -> Option<Query>| {
        let mut generator = QueryGenerator::new(db, cfg);
        let mut kind = Vec::new();
        while kind.len() < PER_KIND {
            kind.extend(make(generator.generate_batch(1).remove(0)).filter(fresh));
        }
        kind
    };
    let columns = imdb_predicate_columns(db);
    let comparisons = draw(db, GeneratorConfig::new(columns.clone(), 31), &Some);
    for (_, p) in comparisons.iter().flat_map(|q| &q.predicates) {
        assert!(p.as_cmp().is_some(), "comparison operators only");
    }
    let extended = GeneratorConfig::new(columns.clone(), 32).with_extended_ops();
    let extended = draw(db, extended, &|q| {
        (q.predicates.iter().any(|(_, p)| p.as_cmp().is_none())).then_some(q)
    });
    let ops: Vec<_> = extended
        .iter()
        .flat_map(|q| &q.predicates)
        .map(|(_, p)| p.op_kind())
        .collect();
    assert!(ops.contains(&PredOpKind::In) && ops.contains(&PredOpKind::Like));
    // A predicate no tuple passes, on a column of the vocabulary, added to
    // the first table.
    let zero_tuple = draw(db, GeneratorConfig::new(columns.clone(), 33), &|mut q| {
        let t = q.tables[0];
        let col = columns.iter().find(|c| c.table == t).expect("a column").col;
        let never = ColPredicate::new(col, CmpOp::Gt, 999_999_999);
        q.predicates.push((t, never));
        let empty = |s: &DeepSketch| {
            let qualifying = |t: &TableId| s.samples()[t.0].qualifying_bitmap(q.preds_of(*t));
            q.tables.iter().any(|t| qualifying(t).count_ones() == 0)
        };
        assert!(sketches.iter().all(|s| empty(s)), "a zero-tuple situation");
        Some(q)
    });
    // Generated over the wider schema, keeping those the vocabulary lacks.
    let mut wide_columns = imdb_predicate_columns(wide);
    let last = |t: usize| ColRef::new(TableId(t), wide.tables()[t].columns().len() - 1);
    wide_columns.extend((0..wide.num_tables()).map(last));
    let outside = draw(wide, GeneratorConfig::new(wide_columns, 34), &|q| {
        sketches[0].validate(&q).is_err().then_some(q)
    });
    let errors: Vec<_> = outside.iter().map(|q| sketches[0].validate(q)).collect();
    let unknown_table = EstimateError::UnknownTable {
        table: 6,
        known_tables: 6,
    };
    assert!(errors.contains(&Err(unknown_table)));
    let unknown_column = |e: &_| matches!(e, Err(EstimateError::UnknownColumn { .. }));
    assert!(errors.iter().any(unknown_column));

    let kinds = [comparisons, extended, zero_tuple, outside];
    let interleaved = (0..PER_KIND).flat_map(|i| kinds.iter().map(move |kind| &kind[i]));
    interleaved.chain(&rare).map(|q| to_sql(wide, q)).collect()
}

/// The expected outcome of each query: the vocabulary check's typed error,
/// or the reference forward's estimate.
fn oracle(sketch: &DeepSketch, queries: &[Query]) -> Vec<Outcome> {
    let model = MscnModel::thaw(sketch.artifact());
    let reference = |q: &Query| {
        let features = sketch
            .featurizer()
            .batch_queries(std::slice::from_ref(q), sketch.samples());
        model.predict(&features)[0]
    };
    let denormalized = |y| sketch.normalizer().denormalize(y).max(1.0);
    queries
        .iter()
        .map(|q| sketch.validate(q).map(|()| denormalized(reference(q))))
        .collect()
}

/// `got` is `want`: the same bits or the same error.
fn same(path: &str, sql: &str, want: &Outcome, got: &Outcome) {
    let bits = |o: &Outcome| o.as_ref().map(|v| v.to_bits()).map_err(Clone::clone);
    assert_eq!(bits(got), bits(want), "{path}: {sql}");
}

/// [`same`], query by query.
fn check(path: &str, want: &[Outcome], got: impl IntoIterator<Item = Outcome>) {
    let got: Vec<_> = got.into_iter().collect();
    assert_eq!(got.len(), want.len(), "{path}: one answer per query");
    for ((want, got), sql) in want.iter().zip(&got).zip(&fixture().sqls) {
        same(path, sql, want, got);
    }
}

/// What a path without a `try` answers: the estimate, or `1.0`.
fn plain(want: &[Outcome]) -> Vec<Outcome> {
    want.iter()
        .map(|o| Ok(*o.as_ref().unwrap_or(&1.0)))
        .collect()
}

/// `estimate_one`, which takes only queries in the vocabulary, or
/// `try_estimate` for one outside it.
fn one(sketch: &DeepSketch, q: &Query, want: &Outcome) -> Outcome {
    match want {
        Ok(_) => Ok(sketch.estimate_one(q)),
        Err(_) => sketch.try_estimate(q),
    }
}

/// Every single-query call: `try_estimate`, `estimate` (`1.0` on an error)
/// and `estimate_one`.
fn singles(path: &str, s: &Served, sketch: &DeepSketch) {
    let (path, qs) = (format!("{path}, {}", s.name), &fixture().queries);
    check(&path, &s.want, qs.iter().map(|q| sketch.try_estimate(q)));
    check(
        &path,
        &plain(&s.want),
        qs.iter().map(|q| Ok(sketch.estimate(q))),
    );
    check(
        &path,
        &s.want,
        qs.iter().zip(&s.want).map(|(q, w)| one(sketch, q, w)),
    );
}

/// `ESTIMATE` twice (a cache miss, then a hit where there is a cache) and
/// `FEEDBACK` for each query, each answered with the oracle's line.
fn wire(path: &str, c: &mut Client, s: &Served) {
    for (sql, want) in fixture().sqls.iter().zip(&s.want) {
        let want = format_response(&match want {
            Ok(v) => Response::Estimate(*v),
            Err(e) => estimate_error_response(e),
        });
        let estimate = format!("ESTIMATE {} {sql}", s.name);
        let feedback = format!("FEEDBACK {} 1000 {sql}", s.name);
        for request in [&estimate, &estimate, &feedback] {
            assert_eq!(c.send_raw(request).unwrap(), want, "{path}: {request}");
        }
    }
}

fn answered(s: &Served) -> u64 {
    s.want.iter().filter(|o| o.is_ok()).count() as u64
}

fn stat(c: &mut Client, name: &str) -> Option<f64> {
    let samples = c.stats().unwrap();
    samples.iter().find(|s| s.name == name).map(|s| s.value)
}

/// Estimate-cache hits, misses and entries.
fn cache(c: &mut Client) -> [u64; 3] {
    ["hits", "misses", "len"].map(|n| stat(c, &format!("ds_serve_cache_{n}")).unwrap() as u64)
}

#[test]
fn every_in_process_path_gives_the_one_answer() {
    let f = fixture();
    let qs = &f.queries;
    for s in &f.served {
        singles("the built sketch", s, &s.sketch);

        let mut batched = s.sketch.clone();
        assert!(batched.estimate_batch(&[]).is_empty());
        for threads in [1, 2, 8] {
            batched.set_threads(threads);
            for n in [1, 2, 63, 64, 65, qs.len()] {
                let path = format!("batch of {n} on {threads} threads, {}", s.name);
                let got = batched.estimate_batch(&qs[..n]).into_iter().map(Ok);
                check(&path, &plain(&s.want)[..n], got);
                check(&path, &s.want[..n], batched.try_estimate_batch(&qs[..n]));
            }
        }

        // A router whose one member covers every table of the serving
        // database: the member's vocabulary check answers, not the router.
        let every_table = (0..f.db.num_tables()).map(TableId).collect();
        let router = SketchRouter::new(vec![(every_table, s.sketch.clone())]);
        check(s.name, &s.want, router.try_estimate_batch(qs));
        check(
            s.name,
            &plain(&s.want),
            qs.iter().map(|q| Ok(router.estimate(q))),
        );

        // Cold: every query from an empty memo, which it never hits.
        let mut cold = s.sketch.clone();
        let mut from_empty = |(q, w)| {
            cold.freeze();
            assert_eq!(
                cold.memo_stats(),
                MemoStats::default(),
                "a re-freeze empties"
            );
            let got = one(&cold, q, w);
            assert_eq!(cold.memo_stats().hits, 0, "a cold memo hit");
            got
        };
        let got: Vec<_> = qs.iter().zip(&s.want).map(&mut from_empty).collect();
        check(&format!("cold memo, {}", s.name), &s.want, got);
        // Warm: a second pass finds every element the first one memoized.
        let warm = s.sketch.clone();
        singles("memo, first pass", s, &warm);
        let misses = warm.memo_stats().misses;
        singles("memo, warm", s, &warm);
        assert_eq!(warm.memo_stats().misses, misses, "the warm pass missed");

        let blob = s.sketch.to_bytes();
        assert_eq!(blob.len(), s.sketch.footprint_bytes());
        let loaded = DeepSketch::from_bytes(&blob).expect("blob decodes");
        assert_eq!(loaded.database_name(), "imdb");
        assert_eq!(
            loaded.artifact(),
            s.sketch.artifact(),
            "frozen again on load"
        );
        assert_eq!(loaded.to_bytes(), blob, "serialization is a fixed point");
        singles("from_bytes", s, &loaded);
    }
}

/// Eight threads released together onto one sketch — one artifact, one
/// memo — each get the oracle's answers, and the memo counts every element
/// each of them looked up.
#[test]
fn eight_threads_on_one_sketch_give_the_one_answer() {
    let f = fixture();
    for s in &f.served {
        let sketch = s.sketch.clone();
        let barrier = Barrier::new(8);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let (sketch, barrier) = (&sketch, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    // Half walk the queries backwards, so threads insert and
                    // look up different elements at the same time.
                    let mut order: Vec<usize> = (0..f.queries.len()).collect();
                    if t % 2 == 1 {
                        order.reverse();
                    }
                    for i in order {
                        let got = one(sketch, &f.queries[i], &s.want[i]);
                        same("eight threads", &f.sqls[i], &s.want[i], &got);
                    }
                });
            }
        });
        let elements: usize = (f.queries.iter().zip(&s.want))
            .filter(|(_, want)| want.is_ok())
            .map(|(q, _)| q.tables.len() + q.joins.len() + q.predicates.len())
            .sum();
        let memo = sketch.memo_stats();
        assert_eq!(memo.hits + memo.misses, 8 * elements as u64);
    }
}

#[test]
fn every_server_gives_the_one_answer() {
    let f = fixture();

    // The default server: a miss, then hits, for every query in the
    // vocabulary; a query outside it misses each time and is never cached.
    let store = f.store();
    let (server, mut c) = f.start(Arc::clone(&store), ServeConfig::builder());
    for s in &f.served {
        wire("default server", &mut c, s);
    }
    let ok: u64 = f.served.iter().map(answered).sum();
    let refused = 2 * f.queries.len() as u64 - ok;
    let pass = [2 * ok, ok + 3 * refused];
    assert_eq!(cache(&mut c), [pass[0], pass[1], ok]);

    // A server restarted on its snapshot directory, from an empty store.
    let dir = std::env::temp_dir().join(format!("one_answer_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    for s in &f.served {
        store.save_snapshot(&dir, s.name, None).unwrap();
    }
    let config = ServeConfig::builder().snapshot_dir(Some(dir.clone()));
    let (restarted, mut r) = f.start(Arc::new(SketchStore::new()), config);
    for s in &f.served {
        wire("restarted on its snapshot directory", &mut r, s);
    }
    restarted.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    // A sketch synced into a second server over the wire.
    let (target, mut t) = f.start(Arc::new(SketchStore::new()), ServeConfig::builder());
    for s in &f.served {
        let (generation, bytes) = c.fetch_snapshot(s.name).unwrap();
        let ack = t.sync_snapshot(s.name, generation, &bytes).unwrap();
        assert_eq!(ack, SyncAck::Adopted(generation));
        wire("SYNC into a second server", &mut t, s);
    }
    target.shutdown();

    // A clone swapped in misses on every query the original cached; the
    // original swapped back brings its own cache back, so each query it
    // answered hits on all three requests, and only its entries count.
    let mut displaced = Vec::new();
    for s in &f.served {
        let outcome = store.swap(s.name, Arc::new(s.sketch.clone())).unwrap();
        assert!(outcome.generation > outcome.previous_generation);
        wire("swapped clone", &mut c, s);
        displaced.push(outcome.previous);
    }
    assert_eq!(cache(&mut c)[..2], pass.map(|n| 2 * n));
    for (s, original) in f.served.iter().zip(displaced) {
        store.swap(s.name, original).unwrap();
        wire("rolled back", &mut c, s);
    }
    let rolled_back = [2 * pass[0] + 3 * ok, 2 * pass[1] + 3 * refused, ok];
    assert_eq!(cache(&mut c), rolled_back);
    server.shutdown();

    // No cache: nothing exported for one.
    let (server, mut c) = f.start(f.store(), ServeConfig::builder().cache_capacity(0));
    for s in &f.served {
        wire("no cache", &mut c, s);
    }
    let samples = c.stats().unwrap();
    assert!(!samples.iter().any(|s| s.name.starts_with("ds_serve_cache")));
    server.shutdown();

    // No timelines: no stage recorded, and `FEEDBACK` still grades.
    let (server, mut c) = f.start(f.store(), ServeConfig::builder().timeline(false));
    for s in &f.served {
        wire("no timelines", &mut c, s);
        assert_eq!(
            server.monitors().get(s.name).unwrap().samples(),
            answered(s)
        );
    }
    assert!(c.trace().unwrap().is_empty());
    assert_eq!(stat(&mut c, "ds_serve_stage_forward_us_count"), Some(0.0));
    server.shutdown();

    // A fallback configured: a healthy sketch never degrades, so not one
    // byte of its lines changes.
    let fallback: SharedEstimator = Arc::new(PostgresEstimator::build(&f.db));
    let (server, mut c) = f.start(f.store(), ServeConfig::builder().fallback(Some(fallback)));
    for s in &f.served {
        wire("fallback configured", &mut c, s);
    }
    assert_eq!(server.shutdown().degraded, 0);
}

/// A fleet of two shards replicating each sketch twice: the primary
/// answers, then the replica that took its copy by `SYNC`, after the
/// primary is killed.
#[test]
fn a_fleet_replica_gives_the_one_answer_after_failover() {
    let f = fixture();
    for s in &f.served {
        let server = ServeConfig::builder().request_timeout(TIMEOUT).build();
        let cfg = FleetConfig {
            shards: 2,
            replication: 2,
            server: server.unwrap(),
            timeout: TIMEOUT,
        };
        let mut fleet = Fleet::start(Arc::clone(&f.db), cfg).unwrap();
        let replicas = fleet.deploy(s.name, s.sketch.clone()).unwrap();
        let [primary, replica] = replicas[..] else {
            panic!("two replicas: {replicas:?}");
        };
        wire(
            "fleet primary",
            &mut fleet.client_connection(primary).unwrap(),
            s,
        );
        fleet.kill(primary);
        wire(
            "fleet replica",
            &mut fleet.client_connection(replica).unwrap(),
            s,
        );
    }
}
