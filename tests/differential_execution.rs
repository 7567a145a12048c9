//! Differential testing of the production COUNT executor against the naive
//! materializing executor, on randomly generated databases and queries.

use proptest::prelude::*;

use deep_sketches::query::{GeneratorConfig, QueryGenerator};
use deep_sketches::storage::catalog::{ColRef, Database, ForeignKey, TableId};
use deep_sketches::storage::column::Column;
use deep_sketches::storage::exec::{CountExecutor, NaiveExecutor};
use deep_sketches::storage::table::Table;

/// Builds a small random star-schema database: one hub table and 2 satellite
/// tables with FKs into it, all columns low-cardinality so predicates and
/// joins are selective but non-empty.
fn random_db(seed: u64, hub_rows: usize, sat_rows: usize) -> Database {
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let hub = Table::new(
        "hub",
        vec![
            Column::new("id", (0..hub_rows as i64).collect()),
            Column::new("a", (0..hub_rows).map(|_| rng.random_range(0..5)).collect()),
        ],
    );
    let mk_sat = |name: &str, rng: &mut StdRng| {
        Table::new(
            name,
            vec![
                Column::new(
                    "hub_id",
                    (0..sat_rows)
                        .map(|_| rng.random_range(0..hub_rows as i64))
                        .collect(),
                ),
                Column::new("b", (0..sat_rows).map(|_| rng.random_range(0..4)).collect()),
            ],
        )
    };
    let s1 = mk_sat("s1", &mut rng);
    let s2 = mk_sat("s2", &mut rng);
    let fks = vec![
        ForeignKey {
            from: ColRef::new(TableId(1), 0),
            to: ColRef::new(TableId(0), 0),
        },
        ForeignKey {
            from: ColRef::new(TableId(2), 0),
            to: ColRef::new(TableId(0), 0),
        },
    ];
    Database::new("rand", vec![hub, s1, s2], fks)
}

/// A schema with a chain below the star — `leaf → s1 → hub ← s2` — whose
/// foreign keys are NULL in places on the referencing side and, for
/// `s1.id`, on the referenced side too.
fn random_chain_db(seed: u64, hub_rows: usize, sat_rows: usize) -> Database {
    use deep_sketches::storage::Bitmap;
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys = |rows: usize, domain: usize, name: &str| {
        let data = (0..rows)
            .map(|_| rng.random_range(0..domain as i64))
            .collect();
        let nulls: Bitmap = (0..rows).map(|_| rng.random_bool(0.15)).collect();
        Column::with_nulls(name, data, nulls)
    };
    let s1_id = keys(sat_rows, sat_rows, "id");
    let s1_hub = keys(sat_rows, hub_rows, "hub_id");
    let s2_hub = keys(sat_rows, hub_rows, "hub_id");
    let leaf_s1 = keys(2 * sat_rows, sat_rows, "s1_id");
    let mut attr = |rows: usize, name: &str| {
        Column::new(name, (0..rows).map(|_| rng.random_range(0..120)).collect())
    };
    let hub = Table::new(
        "hub",
        vec![
            Column::new("id", (0..hub_rows as i64).collect()),
            attr(hub_rows, "a"),
        ],
    );
    let s1 = Table::new("s1", vec![s1_hub, s1_id, attr(sat_rows, "b")]);
    let s2 = Table::new("s2", vec![s2_hub, attr(sat_rows, "b")]);
    let leaf = Table::new("leaf", vec![leaf_s1, attr(2 * sat_rows, "c")]);
    let fk = |from: (usize, usize), to: (usize, usize)| ForeignKey {
        from: ColRef::new(TableId(from.0), from.1),
        to: ColRef::new(TableId(to.0), to.1),
    };
    let fks = vec![fk((1, 0), (0, 0)), fk((2, 0), (0, 0)), fk((3, 0), (1, 1))];
    Database::new("chain", vec![hub, s1, s2, leaf], fks)
}

fn pred_cols(db: &Database) -> Vec<ColRef> {
    vec![
        db.resolve("hub.a").unwrap(),
        db.resolve("s1.b").unwrap(),
        db.resolve("s2.b").unwrap(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Yannakakis-style counting must agree exactly with naive hash joins
    /// on every generated query over every generated database.
    #[test]
    fn executors_agree(seed in 0u64..5000, hub in 5usize..40, sat in 5usize..60) {
        let db = random_db(seed, hub, sat);
        let mut gen = QueryGenerator::new(&db, GeneratorConfig::new(pred_cols(&db), seed ^ 0xF00));
        let fast = CountExecutor::new();
        let naive = NaiveExecutor::new();
        for q in gen.generate_batch(8) {
            let e = q.to_exec();
            let a = fast.count(&db, &e).expect("fast executor");
            let b = naive.count(&db, &e).expect("naive executor");
            prop_assert_eq!(a, b, "query {:?}", q);
        }
    }

    /// Generator output over the chain schema with `IN` and `LIKE` in the
    /// mix, every query counted from each of its tables as the root — so
    /// satellites and the chain's leaf root the tree, NULL keys are met on
    /// the probing and on the message side — by one executor that lives
    /// for the whole workload, against the naive engine.
    #[test]
    fn executors_agree_from_every_root_with_nulls_and_extended_ops(
        seed in 0u64..5000, hub in 4usize..30, sat in 4usize..40,
    ) {
        let db = random_chain_db(seed, hub, sat);
        let cols = ["hub.a", "s1.b", "s2.b", "leaf.c"].map(|c| db.resolve(c).unwrap());
        let mut cfg = GeneratorConfig::new(cols.to_vec(), seed ^ 0xBEEF).with_extended_ops();
        cfg.max_tables = 4;
        let mut gen = QueryGenerator::new(&db, cfg);
        let fast = CountExecutor::new();
        let naive = NaiveExecutor::new();
        for q in gen.generate_batch(8) {
            let mut e = q.to_exec();
            let expected = naive.count(&db, &e).expect("naive executor");
            for _ in 0..e.tables.len() {
                e.tables.rotate_left(1);
                let got = fast.count(&db, &e).expect("fast executor");
                prop_assert_eq!(got, expected, "rooted at {:?}: {:?}", e.tables[0], q);
            }
        }
    }

    /// The executor count must match a brute-force predicate count on
    /// single-table queries.
    #[test]
    fn single_table_counts_match_filter(seed in 0u64..5000, rows in 1usize..80) {
        let db = random_db(seed, rows, 10);
        let mut gen = QueryGenerator::new(&db, GeneratorConfig::new(pred_cols(&db), seed));
        let fast = CountExecutor::new();
        for q in gen.generate_batch(6).into_iter().filter(|q| q.tables.len() == 1) {
            let t = q.tables[0];
            let preds: Vec<_> = q.preds_of(t).cloned().collect();
            let brute = db.table(t).filter_count(&preds);
            prop_assert_eq!(fast.count(&db, &q.to_exec()).unwrap(), brute);
        }
    }
}
