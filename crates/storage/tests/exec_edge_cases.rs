//! Executor edge cases: empty tables, all-NULL join keys, dangling keys,
//! single rows, deep chains, and agreement between both engines under all
//! of them.

use ds_storage::bitmap::Bitmap;
use ds_storage::catalog::{ColRef, Database, ForeignKey, TableId};
use ds_storage::column::Column;
use ds_storage::exec::{CountExecutor, ExecQuery, JoinEdge, NaiveExecutor};
use ds_storage::predicate::{CmpOp, ColPredicate};
use ds_storage::table::Table;

fn edge(a: usize, ac: usize, b: usize, bc: usize) -> JoinEdge {
    JoinEdge::new(ColRef::new(TableId(a), ac), ColRef::new(TableId(b), bc))
}

fn both(db: &Database, q: &ExecQuery) -> u64 {
    let fast = CountExecutor::new().count(db, q).expect("fast");
    let naive = NaiveExecutor::new().count(db, q).expect("naive");
    assert_eq!(fast, naive, "executors disagree");
    fast
}

#[test]
fn empty_table_joins_to_zero() {
    let a = Table::new("a", vec![Column::new("id", vec![1, 2, 3])]);
    let b = Table::new("b", vec![Column::new("a_id", vec![])]);
    let db = Database::new(
        "e",
        vec![a, b],
        vec![ForeignKey {
            from: ColRef::new(TableId(1), 0),
            to: ColRef::new(TableId(0), 0),
        }],
    );
    let q = ExecQuery {
        tables: vec![TableId(0), TableId(1)],
        joins: vec![edge(1, 0, 0, 0)],
        predicates: vec![],
    };
    assert_eq!(both(&db, &q), 0);
    // Empty table alone.
    assert_eq!(both(&db, &ExecQuery::single(TableId(1), vec![])), 0);
}

#[test]
fn all_null_join_keys_match_nothing() {
    let a = Table::new("a", vec![Column::new("id", vec![1, 2])]);
    let b = Table::new(
        "b",
        vec![Column::with_nulls(
            "a_id",
            vec![1, 2, 1],
            Bitmap::all_set(3),
        )],
    );
    let db = Database::new("n", vec![a, b], vec![]);
    let q = ExecQuery {
        tables: vec![TableId(0), TableId(1)],
        joins: vec![edge(1, 0, 0, 0)],
        predicates: vec![],
    };
    assert_eq!(both(&db, &q), 0);
}

#[test]
fn dangling_foreign_keys_do_not_count() {
    let a = Table::new("a", vec![Column::new("id", vec![1, 2])]);
    // Key 99 references nothing.
    let b = Table::new("b", vec![Column::new("a_id", vec![1, 99, 2, 99])]);
    let db = Database::new("d", vec![a, b], vec![]);
    let q = ExecQuery {
        tables: vec![TableId(0), TableId(1)],
        joins: vec![edge(1, 0, 0, 0)],
        predicates: vec![],
    };
    assert_eq!(both(&db, &q), 2);
}

#[test]
fn single_row_tables_chain() {
    let a = Table::new("a", vec![Column::new("id", vec![7])]);
    let b = Table::new(
        "b",
        vec![Column::new("a_id", vec![7]), Column::new("id", vec![9])],
    );
    let c = Table::new("c", vec![Column::new("b_id", vec![9, 9])]);
    let db = Database::new("s", vec![a, b, c], vec![]);
    let q = ExecQuery {
        tables: vec![TableId(0), TableId(1), TableId(2)],
        joins: vec![edge(1, 0, 0, 0), edge(2, 0, 1, 1)],
        predicates: vec![],
    };
    assert_eq!(both(&db, &q), 2);
}

#[test]
fn deep_chain_with_predicates_on_every_level() {
    // 4-level chain with fanout 2 per level and a predicate at each level.
    let l0 = Table::new(
        "l0",
        vec![
            Column::new("id", (0..4).collect()),
            Column::new("v", vec![0, 1, 0, 1]),
        ],
    );
    let mk_level = |name: &str, parents: i64| {
        let mut p = Vec::new();
        let mut id = Vec::new();
        let mut v = Vec::new();
        for parent in 0..parents {
            for c in 0..2 {
                id.push(p.len() as i64);
                p.push(parent);
                v.push(c);
            }
        }
        Table::new(
            name,
            vec![
                Column::new("parent", p),
                Column::new("id", id),
                Column::new("v", v),
            ],
        )
    };
    let l1 = mk_level("l1", 4);
    let l2 = mk_level("l2", 8);
    let l3 = mk_level("l3", 16);
    let db = Database::new("chain", vec![l0, l1, l2, l3], vec![]);
    let q = ExecQuery {
        tables: vec![TableId(0), TableId(1), TableId(2), TableId(3)],
        joins: vec![edge(1, 0, 0, 0), edge(2, 0, 1, 1), edge(3, 0, 2, 1)],
        predicates: vec![
            (TableId(0), ColPredicate::new(1, CmpOp::Eq, 0)),
            (TableId(1), ColPredicate::new(2, CmpOp::Eq, 1)),
            (TableId(2), ColPredicate::new(2, CmpOp::Eq, 0)),
            (TableId(3), ColPredicate::new(2, CmpOp::Gt, -1)),
        ],
    };
    // l0: ids {0,2}; one l1 child each (v=1); one l2 child each (v=0);
    // both l3 children qualify → 2 × 1 × 1 × 2 = 4.
    assert_eq!(both(&db, &q), 4);
}

#[test]
fn root_choice_does_not_change_counts() {
    // The Yannakakis executor roots at tables[0]; permuting the table list
    // must not change results.
    let a = Table::new("a", vec![Column::new("id", vec![1, 2, 3])]);
    let b = Table::new(
        "b",
        vec![
            Column::new("a_id", vec![1, 1, 2, 3, 3]),
            Column::new("v", vec![1, 2, 1, 1, 2]),
        ],
    );
    let c = Table::new("c", vec![Column::new("a_id", vec![1, 2, 2, 3])]);
    let db = Database::new("p", vec![a, b, c], vec![]);
    let joins = vec![edge(1, 0, 0, 0), edge(2, 0, 0, 0)];
    let preds = vec![(TableId(1), ColPredicate::new(1, CmpOp::Eq, 1))];
    let mut counts = Vec::new();
    for tables in [
        vec![TableId(0), TableId(1), TableId(2)],
        vec![TableId(1), TableId(0), TableId(2)],
        vec![TableId(2), TableId(1), TableId(0)],
    ] {
        let q = ExecQuery {
            tables,
            joins: joins.clone(),
            predicates: preds.clone(),
        };
        counts.push(both(&db, &q));
    }
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
}

#[test]
fn contradictory_predicates_yield_zero() {
    let a = Table::new("a", vec![Column::new("v", (0..100).collect())]);
    let db = Database::new("c", vec![a], vec![]);
    let q = ExecQuery::single(
        TableId(0),
        vec![
            ColPredicate::new(0, CmpOp::Gt, 50),
            ColPredicate::new(0, CmpOp::Lt, 10),
        ],
    );
    assert_eq!(both(&db, &q), 0);
}

#[test]
fn executor_count_is_stable_across_repeated_calls() {
    // The message cache must not corrupt repeated evaluations.
    let a = Table::new("a", vec![Column::new("id", (0..50).collect())]);
    let b = Table::new(
        "b",
        vec![Column::new("a_id", (0..200).map(|i| i % 50).collect())],
    );
    let db = Database::new("r", vec![a, b], vec![]);
    let exec = CountExecutor::new();
    let q = ExecQuery {
        tables: vec![TableId(0), TableId(1)],
        joins: vec![edge(1, 0, 0, 0)],
        predicates: vec![],
    };
    let first = exec.count(&db, &q).unwrap();
    for _ in 0..5 {
        assert_eq!(exec.count(&db, &q).unwrap(), first);
    }
    assert_eq!(first, 200);
}

/// Counts `q` with the long-lived executor `exec` (dictionaries and cached
/// messages from earlier queries in play), with a fresh one, and with the
/// naive engine; all three must agree.
fn all_three(exec: &CountExecutor, db: &Database, q: &ExecQuery) -> u64 {
    let shared = exec.count(db, q).expect("shared executor");
    assert_eq!(shared, both(db, q), "a reused executor disagrees");
    shared
}

#[test]
fn nulls_on_either_side_of_a_join_match_nothing() {
    // a.id has a NULL (parent side), b.a_id has NULLs (child side), and
    // b.id / c.b_id carry NULLs one level down, so NULL keys sit on the
    // probing side and on the message side of both edges.
    let null_at = |len: usize, at: &[usize]| {
        let mut m = Bitmap::new(len);
        for &i in at {
            m.set(i);
        }
        m
    };
    let a = Table::new(
        "a",
        vec![Column::with_nulls("id", vec![1, 2, 3, 2], null_at(4, &[3]))],
    );
    let b = Table::new(
        "b",
        vec![
            Column::with_nulls("a_id", vec![1, 1, 2, 3, 2, 2], null_at(6, &[1, 5])),
            Column::with_nulls("id", vec![10, 11, 12, 13, 14, 12], null_at(6, &[4])),
            Column::new("v", vec![0, 1, 0, 1, 0, 1]),
        ],
    );
    let c = Table::new(
        "c",
        vec![Column::with_nulls(
            "b_id",
            vec![10, 12, 12, 13, 14, 11, 12],
            null_at(7, &[2, 4]),
        )],
    );
    let db = Database::new("nulls", vec![a, b, c], vec![]);
    let joins = vec![edge(1, 0, 0, 0), edge(2, 0, 1, 1)];
    let exec = CountExecutor::new();
    // Every rooting: NULLs are met as probes and as message keys.
    for tables in [[0, 1, 2], [1, 0, 2], [2, 1, 0]] {
        let tables: Vec<TableId> = tables.into_iter().map(TableId).collect();
        let free = ExecQuery {
            tables: tables.clone(),
            joins: joins.clone(),
            predicates: vec![],
        };
        // b rows surviving both edges: 0 (a 1, c 10), 2 (a 2 — the other
        // a 2 is NULL — and c 12 twice, the third c 12 being NULL) and
        // 3 (a 3, c 13). Rows 1 and 5 have NULL a_ids, row 4 a NULL id.
        assert_eq!(all_three(&exec, &db, &free), 4, "{tables:?}");
        let filtered = ExecQuery {
            predicates: vec![(TableId(1), ColPredicate::new(2, CmpOp::Eq, 0))],
            ..free
        };
        assert_eq!(all_three(&exec, &db, &filtered), 3, "{tables:?}");
    }
}

#[test]
fn sparse_and_extreme_key_domains_are_dictionary_encoded() {
    // Ids 10¹² apart, negative ids and both ends of i64: a dense array
    // indexed by raw key would not fit in memory; codes do not care.
    let step = 1_000_000_000_000i64;
    let ids: Vec<i64> = (-3..4)
        .map(|i| i * step)
        .chain([i64::MIN, i64::MAX])
        .collect();
    let a = Table::new(
        "a",
        vec![
            Column::new("id", ids.clone()),
            Column::new("v", (0..ids.len() as i64).collect()),
        ],
    );
    // Every id i times over (i = its position), plus keys a lacks.
    let mut refs = Vec::new();
    for (i, &id) in ids.iter().enumerate() {
        refs.extend(std::iter::repeat_n(id, i));
    }
    refs.extend([1, step + 1, i64::MIN + 1]);
    let b = Table::new("b", vec![Column::new("a_id", refs)]);
    let db = Database::new("sparse", vec![a, b], vec![]);
    let exec = CountExecutor::new();
    let n = ids.len() as u64;
    for tables in [vec![TableId(0), TableId(1)], vec![TableId(1), TableId(0)]] {
        let q = ExecQuery {
            tables,
            joins: vec![edge(1, 0, 0, 0)],
            predicates: vec![],
        };
        assert_eq!(all_three(&exec, &db, &q), n * (n - 1) / 2);
        let q = ExecQuery {
            predicates: vec![(TableId(0), ColPredicate::new(1, CmpOp::Gt, 6))],
            ..q
        };
        // Positions 7 (i64::MIN) and 8 (i64::MAX).
        assert_eq!(all_three(&exec, &db, &q), 7 + 8);
    }
}

#[test]
fn in_and_like_predicates_filter_joined_tables_and_may_empty_them() {
    let a = Table::new(
        "a",
        vec![
            Column::new("id", (0..40).collect()),
            Column::new("year", (0..40).map(|i| 1980 + i).collect()),
        ],
    );
    let b = Table::new(
        "b",
        vec![
            Column::new("a_id", (0..200).map(|i| i % 40).collect()),
            Column::new("kind", (0..200).map(|i| i % 7).collect()),
        ],
    );
    let db = Database::new("ops", vec![a, b], vec![]);
    let exec = CountExecutor::new();
    let query = |preds: Vec<(TableId, ColPredicate)>| ExecQuery {
        tables: vec![TableId(1), TableId(0)],
        joins: vec![edge(1, 0, 0, 0)],
        predicates: preds,
    };
    // 199x: ten a rows, five b rows each.
    let like = query(vec![(TableId(0), ColPredicate::like(1, "199%"))]);
    assert_eq!(all_three(&exec, &db, &like), 50);
    let both_ops = query(vec![
        (TableId(0), ColPredicate::like(1, "199%")),
        (TableId(1), ColPredicate::is_in(1, vec![0, 3, 99])),
        (TableId(0), ColPredicate::new(1, CmpOp::Lt, 1995)),
    ]);
    let expected = (0..200)
        .filter(|i| [0, 3].contains(&(i % 7)) && (10..15).contains(&(i % 40)))
        .count() as u64;
    assert!(expected > 0);
    assert_eq!(all_three(&exec, &db, &both_ops), expected);
    // An IN list and a pattern nothing matches: the join is empty, on the
    // root and on the message side.
    let empty_root = query(vec![(TableId(1), ColPredicate::is_in(1, vec![7, 8]))]);
    assert_eq!(all_three(&exec, &db, &empty_root), 0);
    let empty_child = query(vec![(TableId(0), ColPredicate::like(1, "21__"))]);
    assert_eq!(all_three(&exec, &db, &empty_child), 0);
}

#[test]
fn counts_saturate_at_u64_max_instead_of_wrapping() {
    // A chain of tables whose every row carries the same key: each level
    // multiplies the count by 8192 = 2¹³. Four levels are 2⁵² exactly;
    // the fifth would be 2⁶⁵ and must read u64::MAX, in messages (rooted
    // at the top) and in the root's own sum (rooted at the bottom).
    let rows = 8192usize;
    let level = |name: &str| {
        Table::new(
            name,
            vec![
                Column::new("up", vec![1; rows]),
                Column::new("down", vec![1; rows]),
                Column::new("row", (0..rows as i64).collect()),
            ],
        )
    };
    let tables: Vec<Table> = ["t0", "t1", "t2", "t3", "t4"].map(level).into();
    let db = Database::new("big", tables, vec![]);
    let joins: Vec<JoinEdge> = (1..5).map(|t| edge(t, 0, t - 1, 1)).collect();
    let exec = CountExecutor::new();
    let chain = |tables: Vec<usize>| ExecQuery {
        joins: joins[..tables.len() - 1].to_vec(),
        tables: tables.into_iter().map(TableId).collect(),
        predicates: vec![],
    };
    assert_eq!(exec.count(&db, &chain(vec![0, 1, 2, 3])).unwrap(), 1 << 52);
    assert_eq!(exec.count(&db, &chain(vec![3, 2, 1, 0])).unwrap(), 1 << 52);
    assert_eq!(
        exec.count(&db, &chain(vec![0, 1, 2, 3, 4])).unwrap(),
        u64::MAX
    );
    assert_eq!(
        exec.count(&db, &chain(vec![4, 3, 2, 1, 0])).unwrap(),
        u64::MAX
    );
    // A predicate that keeps one row of the middle table brings the count
    // back into range: saturation is per message, not sticky.
    let mut one = chain(vec![0, 1, 2, 3, 4]);
    one.predicates = vec![(TableId(2), ColPredicate::new(2, CmpOp::Eq, 0))];
    assert_eq!(exec.count(&db, &one).unwrap(), 1 << 52);
}
