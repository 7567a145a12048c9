//! Property tests for the extended-operator surface: every query the
//! generator can emit — including `IN`-lists and `LIKE` prefixes — must
//! survive `to_sql` → `parse_query` bit-identically, and canonical SQL
//! rendering must be a fixed point. This is the contract that keeps the
//! wire protocol, the harvest log, and the template keys in agreement.

use std::sync::OnceLock;

use ds_query::parser::parse_query;
use ds_query::query::Query;
use ds_query::sqlgen::to_sql;
use ds_query::workloads::imdb_predicate_columns;
use ds_query::{GeneratorConfig, QueryGenerator};
use ds_storage::catalog::Database;
use ds_storage::gen::{imdb_database, ImdbConfig};
use ds_storage::predicate::{ColPredicate, PredOpKind};
use proptest::prelude::*;

fn db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| imdb_database(&ImdbConfig::tiny(11)))
}

/// `parse(to_sql(q)) == q` and `to_sql` is a fixed point under reparsing.
fn assert_roundtrip(q: &Query) {
    let db = db();
    let sql = to_sql(db, q);
    let parsed = parse_query(db, &sql)
        .unwrap_or_else(|e| panic!("generated SQL must parse: {e}\n  sql: {sql}"));
    assert_eq!(
        &parsed, q,
        "parse(to_sql(q)) must be bit-identical\n  sql: {sql}"
    );
    assert_eq!(
        to_sql(db, &parsed),
        sql,
        "canonical rendering must be a fixed point"
    );
}

/// Every literal `to_sql` can print reads back, `i64::MIN` included: the
/// tokenizer used to build a literal's magnitude as a positive `i64` and
/// negate it afterwards, so `… > -9223372036854775808` — which `BETWEEN
/// -9223372036854775807 AND …` desugars to — was SQL the repository printed
/// and could not parse. One digit more on either side still overflows.
#[test]
fn extreme_literals_roundtrip_and_the_next_digit_overflows() {
    use ds_storage::predicate::CmpOp;

    const EXTREMES: [i64; 5] = [i64::MIN, i64::MIN + 1, -1, 0, i64::MAX];
    let db = db();
    let kid = db.resolve("title.kind_id").unwrap();
    let mut q = Query::new();
    q.add_table(db, "title").unwrap();
    for lit in EXTREMES {
        for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Gt] {
            q.predicates
                .push((kid.table, ColPredicate::new(kid.col, op, lit)));
        }
    }
    q.predicates
        .push((kid.table, ColPredicate::is_in(kid.col, EXTREMES.to_vec())));
    assert_roundtrip(&q);

    for beyond in ["9223372036854775808", "-9223372036854775809"] {
        for sql in [
            format!("SELECT COUNT(*) FROM title WHERE title.kind_id = {beyond}"),
            format!("SELECT COUNT(*) FROM title WHERE title.kind_id IN (1, {beyond})"),
        ] {
            let err = parse_query(db, &sql).expect_err("one past the range of i64");
            assert_eq!(err.0, "integer literal overflow", "sql: {sql}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batches from the *extended* generator (IN/LIKE in the mix)
    /// roundtrip through the SQL surface bit-identically.
    #[test]
    fn extended_generator_batches_roundtrip(seed in 0u64..u64::MAX) {
        let db = db();
        let mut cfg = GeneratorConfig::new(imdb_predicate_columns(db), seed)
            .with_extended_ops();
        cfg.max_in_list = 6;
        let batch = QueryGenerator::new(db, cfg).generate_batch(20);
        let mut saw_ext = false;
        for q in &batch {
            saw_ext |= q.predicates.iter().any(|(_, p)| {
                matches!(p.op_kind(), PredOpKind::In | PredOpKind::Like)
            });
            assert_roundtrip(q);
        }
        // 20 queries at 20 %/20 % op fractions: overwhelmingly likely to
        // carry at least one extended predicate; tolerate the rare miss
        // rather than flake.
        let _ = saw_ext;
    }

    /// Hand-built IN predicates with arbitrary literal lists roundtrip;
    /// the canonical form (sorted, deduped) is what comes back.
    #[test]
    fn arbitrary_in_lists_roundtrip(
        values in prop::collection::vec(i64::MIN..i64::MAX, 1..8),
    ) {
        let db = db();
        let kid = db.resolve("title.kind_id").unwrap();
        let mut q = Query::new();
        q.add_table(db, "title").unwrap();
        q.predicates
            .push((kid.table, ColPredicate::is_in(kid.col, values)));
        assert_roundtrip(&q);
    }

    /// Hand-built LIKE predicates over the pattern alphabet (digits and
    /// the `%`/`_` wildcards) roundtrip verbatim.
    #[test]
    fn arbitrary_like_patterns_roundtrip(
        raw in prop::collection::vec(0u32..12, 1..10),
    ) {
        // 0–9 → that digit; 10 → '%'; 11 → '_'.
        let pat: String = raw
            .iter()
            .map(|&c| match c {
                10 => '%',
                11 => '_',
                d => char::from_digit(d, 10).unwrap(),
            })
            .collect();
        let db = db();
        let year = db.resolve("title.production_year").unwrap();
        let mut q = Query::new();
        q.add_table(db, "title").unwrap();
        q.predicates
            .push((year.table, ColPredicate::like(year.col, pat)));
        assert_roundtrip(&q);
    }

    /// The comparison-only generator is untouched by the extension: its
    /// batches roundtrip and contain no extended operators.
    #[test]
    fn cmp_only_generator_stays_cmp_only(seed in 0u64..u64::MAX) {
        let db = db();
        let cfg = GeneratorConfig::new(imdb_predicate_columns(db), seed);
        for q in QueryGenerator::new(db, cfg).generate_batch(15) {
            for (_, p) in &q.predicates {
                prop_assert!(p.as_cmp().is_some(), "legacy generator emitted {p:?}");
            }
            assert_roundtrip(&q);
        }
    }
}
