//! Parser robustness: round-trips for all generated workloads, no-panic
//! behaviour on arbitrary input, and every accept/reject decision — with
//! its `ParseError` text — pinned to a hash over a seeded corpus.
//! `FUZZ_ITERS` scales the pinned corpus (as it does `fuzz_smoke`'s).

use std::sync::OnceLock;

use proptest::prelude::*;

use deep_sketches::prelude::*;
use deep_sketches::query::parser::parse;
use deep_sketches::query::sqlgen::to_sql;
use deep_sketches::query::{GeneratorConfig, QueryGenerator};
use deep_sketches::serve::{parse_request, Request};

fn db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| imdb_database(&ImdbConfig::tiny(2)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every generated query round-trips exactly through SQL text.
    #[test]
    fn generated_queries_roundtrip(seed in 0u64..100_000) {
        let db = db();
        let mut cfg = GeneratorConfig::new(imdb_predicate_columns(db), seed);
        cfg.max_tables = 5;
        cfg.max_predicates = 4;
        let mut gen = QueryGenerator::new(db, cfg);
        for q in gen.generate_batch(10) {
            let sql = to_sql(db, &q);
            let parsed = parse_query(db, &sql).expect("roundtrip parse");
            prop_assert_eq!(parsed, q, "sql: {}", sql);
        }
    }

    /// The parser never panics on arbitrary ASCII garbage — it returns
    /// errors instead.
    #[test]
    fn arbitrary_input_never_panics(input in "[ -~]{0,120}") {
        let _ = parse(db(), &input); // Result either way; must not panic
    }

    /// SQL-ish prefixed garbage doesn't panic either (drives deeper into
    /// the parser states).
    #[test]
    fn sqlish_input_never_panics(tail in "[ -~]{0,80}") {
        let _ = parse(db(), &format!("SELECT COUNT(*) FROM title WHERE {tail}"));
        let _ = parse(db(), &format!("SELECT COUNT(*) FROM {tail}"));
    }
}

#[test]
fn unicode_and_long_inputs_error_cleanly() {
    let db = db();
    for bad in [
        "SELECT COUNT(*) FROM tïtle",
        "SELECT COUNT(*) FROM title WHERE title.kind_id = 99999999999999999999999",
        &"SELECT COUNT(*) FROM title, ".repeat(200),
    ] {
        assert!(parse(db, bad).is_err(), "should error: {bad}");
    }
}

/// FNV-1a-64 over everything the parser decided.
struct Outcomes(u64);

impl Outcomes {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Parses `sql` and folds `Ok(<Debug of ParsedQuery>)` or
    /// `Err(<message>)` into the hash.
    fn record(&mut self, sql: &str) {
        let outcome = match parse(db(), sql) {
            Ok(parsed) => format!("Ok({parsed:?})\n"),
            Err(e) => format!("Err({})\n", e.0),
        };
        for b in outcome.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Deterministic xorshift64* (the constants `fuzz_smoke` uses).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        (x.wrapping_mul(0x2545_f491_4f6c_dd1d) % n.max(1) as u64) as usize
    }
}

/// What a byte-level tokenizer is most likely to decide differently from a
/// `char`-level one: letters with and without an ASCII fold, a digit that is
/// alphanumeric but no `to_digit(10)`, Unicode white space, an astral letter.
const NON_ASCII: [char; 8] = ['é', 'ß', 'İ', '٣', '\u{a0}', '\u{2028}', '𝐀', '\u{301}'];

/// Byte offsets at which one lexical unit of `sql` ends and the next begins:
/// between runs of identifier characters, runs of white space and single
/// punctuation characters.
fn token_boundaries(sql: &str) -> Vec<usize> {
    let class = |b: u8| match b {
        b if b.is_ascii_alphanumeric() || b == b'_' => 0,
        b if b.is_ascii_whitespace() => 1,
        _ => 2,
    };
    let bytes = sql.as_bytes();
    (1..bytes.len())
        .filter(|&i| {
            let (prev, next) = (class(bytes[i - 1]), class(bytes[i]));
            prev != next || next == 2
        })
        .collect()
}

/// The same query with every table behind an alias (`title a0`), which the
/// generator's fully qualified rendering never uses.
fn aliased(db: &Database, query: &Query) -> String {
    let sql = to_sql(db, query);
    let mut conds = sql
        .split_once(" WHERE ")
        .map_or(String::new(), |(_, conds)| format!(" WHERE {conds}"));
    let mut from = Vec::new();
    for (i, t) in query.tables.iter().enumerate() {
        let name = db.table(*t).name();
        from.push(format!("{name} a{i}"));
        // Qualifiers end in a dot, so `movie_info.` never matches inside
        // `movie_info_idx.`.
        conds = conds.replace(&format!(" {name}."), &format!(" a{i}."));
    }
    format!("SELECT COUNT(*) FROM {}{conds}", from.join(", "))
}

/// Statements neither the protocol corpus nor the generator reaches: `BETWEEN`,
/// placeholders, the alias table's corner cases, literal overflow on either
/// side, keywords used as names, odd white space and stray semicolons.
const EDGE_CASES: [&str; 40] = [
    "SELECT COUNT(*) FROM title WHERE title.production_year BETWEEN 1990 AND 1999",
    "SELECT COUNT(*) FROM title WHERE title.production_year BETWEEN 1999 AND 1990",
    "SELECT COUNT(*) FROM title WHERE title.production_year BETWEEN 1990",
    "SELECT COUNT(*) FROM title WHERE title.production_year BETWEEN 1990 AND",
    "SELECT COUNT(*) FROM title WHERE title.kind_id BETWEEN -9223372036854775807 AND 5",
    "SELECT COUNT(*) FROM title WHERE title.kind_id BETWEEN 1 AND 9223372036854775807",
    "SELECT COUNT(*) FROM title WHERE title.kind_id BETWEEN 1 AND 2 AND title.kind_id = ?",
    "SELECT COUNT(*) FROM title WHERE title.kind_id = ? AND title.production_year = ?",
    "SELECT COUNT(*) FROM title t, movie_keyword mk WHERE mk.movie_id = t.id AND t.kind_id < ?",
    "SELECT COUNT(*) FROM title WHERE title.kind_id = 9223372036854775807",
    "SELECT COUNT(*) FROM title WHERE title.kind_id = 9223372036854775808",
    "SELECT COUNT(*) FROM title WHERE title.kind_id = -9223372036854775807",
    "SELECT COUNT(*) FROM title WHERE title.kind_id = -9223372036854775809",
    "SELECT COUNT(*) FROM title WHERE title.kind_id = 000000000000000000000000000007",
    "SELECT COUNT(*) FROM title WHERE title.kind_id = --5",
    "SELECT COUNT(*) FROM title WHERE title.kind_id = - 5",
    "SELECT COUNT(*) FROM title WHERE title.kind_id = 5abc",
    "SELECT COUNT(*) FROM title WHERE title.kind_id = 5-3",
    "SELECT COUNT(*) FROM title WHERE title.kind_id = '5'",
    "SELECT COUNT(*) FROM title, title",
    "SELECT COUNT(*) FROM title t, title t",
    "SELECT COUNT(*) FROM title t, movie_keyword t WHERE t.id = 1",
    "SELECT COUNT(*) FROM title t t",
    "SELECT COUNT(*) FROM title movie_keyword, movie_keyword WHERE movie_keyword.keyword_id = 1",
    "SELECT COUNT(*) FROM movie_keyword, title movie_keyword WHERE movie_keyword.keyword_id = 1",
    "SELECT COUNT(*) FROM title title WHERE title.kind_id = 1",
    "SELECT COUNT(*) FROM title in WHERE in.kind_id IN (1)",
    "SELECT COUNT(*) FROM title and WHERE and.kind_id = 1 AND and.kind_id = 2",
    "SELECT COUNT(*) FROM title T, movie_keyword MK WHERE Mk.Movie_Id = t.ID AND TITLE.Kind_Id = 1",
    "SELECT COUNT(*) FROM title t, movie_keyword mk WHERE mk.movie_id < t.id",
    "SELECT COUNT(*) FROM title t, movie_keyword mk WHERE mk.movie_id = t.nope",
    "SELECT COUNT(*) FROM title WHERE title.id = title.kind_id",
    "SELECT COUNT(*) FROM title WHERE title.kind_id LIKE 'Ab%' AND title.kind_id like 'é_'",
    "SELECT COUNT(*) FROM title WHERE title.kind_id IN (3, -1, 3, 2) AND title.kind_id > -0",
    "select\tcount ( * )\nfrom\u{a0}title\r\nwhere title . kind_id=1;",
    "SELECT COUNT(*) FROM title;;;",
    "SELECT COUNT(*) FROM ;title",
    "SELECT COUNT(*) FROM title WHERE title.kind_id = 1 trailing",
    "SELECT COUNT(*) FROM title WHERE title.kind_id = 1 # comment",
    "SELECT COUNT(*) FROM title WHERE title.kind_id = 1 AND 'open",
];

/// The hash [`parse_outcomes_are_the_parents`] must read after this many
/// generator queries. Both values were computed by the binary of the commit
/// before the parser was rewritten over borrowed tokens (PR 19's parent,
/// `0e14ff7`), so they pin the rewrite — and every later change — to that
/// parser's accept/reject decisions, `ParsedQuery`s and error texts. The
/// default budget reaches the first, CI's `FUZZ_ITERS=20000` both.
const PINNED: [(usize, u64); 2] = [
    (5_000, 0xd004_9b15_392e_6716),
    (20_000, 0xb398_a4d8_e0dd_6e72),
];

/// The one literal whose outcome PR 19 changed on purpose (`i64::MIN` used to
/// overflow); corpus lines carrying it stay out of the pinned hash and are
/// covered by `ds-query`'s `roundtrip_properties`.
const I64_MIN: &str = "-9223372036854775808";

#[test]
fn parse_outcomes_are_the_parents() {
    let db = db();
    let budget = std::env::var("FUZZ_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(PINNED[0].0);
    let mut outcomes = Outcomes::new();

    // The SQL tails of the serve crate's protocol corpus: aliases, IN/LIKE
    // edge cases, truncated lists, unterminated strings.
    let corpus = include_str!("../crates/serve/tests/corpus/protocol/requests.txt");
    let mut tails = 0;
    for line in corpus.lines() {
        let sql = match parse_request(line) {
            Ok(Request::Estimate { sql, .. } | Request::Feedback { sql, .. }) => sql,
            _ => continue,
        };
        if !sql.contains(I64_MIN) {
            outcomes.record(&sql);
            tails += 1;
        }
    }
    assert!(tails >= 20, "the protocol corpus lost its SQL: {tails}");
    for sql in EDGE_CASES {
        outcomes.record(sql);
    }

    // Generator queries over the whole operator vocabulary; every tenth also
    // goes in aliased, upper-cased, with one byte substituted (ASCII and
    // not), one deleted, and cut short at every token boundary.
    let mut cfg = GeneratorConfig::new(imdb_predicate_columns(db), 0x19_5eed).with_extended_ops();
    cfg.max_tables = 5;
    cfg.max_predicates = 4;
    let mut gen = QueryGenerator::new(db, cfg);
    let mut rng = Rng(0x0019_7a11_5eed_c0de);
    for i in 0..budget {
        let query = gen.generate();
        let sql = to_sql(db, &query);
        assert!(!sql.contains(I64_MIN), "the generator drew i64::MIN");
        outcomes.record(&sql);
        if i % 10 == 0 {
            outcomes.record(&aliased(db, &query));
            outcomes.record(&sql.to_ascii_uppercase());
            let at = rng.below(sql.len());
            let ascii = char::from(b' ' + rng.below(95) as u8);
            let wide = NON_ASCII[rng.below(NON_ASCII.len())];
            for substitute in [ascii, wide] {
                let mut s = sql.clone();
                s.replace_range(at..=at, substitute.encode_utf8(&mut [0; 4]));
                outcomes.record(&s);
            }
            let mut deleted = sql.clone();
            deleted.remove(rng.below(sql.len()));
            outcomes.record(&deleted);
            for cut in token_boundaries(&sql) {
                outcomes.record(&sql[..cut]);
            }
        }
        if let Some((_, want)) = PINNED.iter().find(|(n, _)| *n == i + 1) {
            assert_eq!(
                outcomes.0,
                *want,
                "parse outcomes changed within the first {} queries (now {:#018x})",
                i + 1,
                outcomes.0
            );
        }
    }
}
