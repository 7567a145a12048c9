//! The canonical form of a query and the structural templates read off it.
//!
//! `CanonicalQuery` removes clause order and aliasing. It is built only
//! where it is read: a graded `FEEDBACK`'s template and harvest key, a kept
//! `TRACE` exemplar's template, and [`EstimateKey`]. It is not an estimate
//! cache's key: the model pools each set's elements in clause order, and
//! f32 sums in another order can round to other bits, so each served
//! artifact caches by the parsed `Query` itself ([`ds_core::cache`]).
#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::panic, clippy::unreachable)
)]

use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, PoisonError, RwLock};

use ds_query::query::Query;
use ds_storage::catalog::Database;

/// The canonical identity of one estimate: sketch name and generation plus
/// the canonical query shape and its literal values, so two clause orders
/// of one query build one key. No cache keys on it: the model reads clause
/// order. The benchmark's query stream and `ds_bench::benchmark_stream`
/// deduplicate by it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EstimateKey {
    sketch: String,
    generation: u64,
    shape: Vec<u32>,
    lits: Vec<i64>,
}

impl EstimateKey {
    /// Builds the key for `query` served by `sketch` at `generation`.
    pub fn new(sketch: &str, generation: u64, query: &Query) -> Self {
        let CanonicalQuery { shape, lits, .. } = CanonicalQuery::of(query);
        Self {
            sketch: sketch.to_string(),
            generation,
            shape,
            lits,
        }
    }

    /// The canonical structural shape (template identity) of the keyed
    /// query: equal shapes render equal [`crate::query_template`]s.
    pub fn shape(&self) -> &[u32] {
        &self.shape
    }
}

/// The canonical form of a query: clause order and aliasing removed. Built
/// only where it is read: a graded `FEEDBACK`'s template and harvest key, a
/// kept `TRACE` exemplar's template, and [`EstimateKey`].
pub(crate) struct CanonicalQuery {
    /// Table count, sorted tables, join count, sorted canonical join quads,
    /// then `[table, col, op]` per predicate — plus the literal count for
    /// the variable-width `IN` and `LIKE`, so `lits` stays unambiguous.
    pub(crate) shape: Vec<u32>,
    /// The predicates' literals, flattened in `shape`'s predicate order.
    pub(crate) lits: Vec<i64>,
    /// The predicates as `(table, col, op code, literals)` — the literals
    /// as a range of `lits` — sorted, by literals last, so `lits` stays
    /// aligned with `shape` even when two predicates share a column and
    /// operator. Op codes 0/1/2 are `=`, `<`, `>` (one literal each), 3 is
    /// `IN` (the canonical sorted list), 4 is `LIKE` (the pattern's bytes,
    /// one per element: exact, no hashing).
    pub(crate) preds: Vec<(u32, u32, u32, Range<usize>)>,
}

impl CanonicalQuery {
    /// The canonical form of `query`.
    pub(crate) fn of(query: &Query) -> Self {
        use ds_storage::predicate::PredTest;
        // Exact, like `lits` below: `EstimateKey::new` keeps both vectors.
        let mut shape = Vec::with_capacity(
            2 + query.tables.len() + 4 * (query.joins.len() + query.predicates.len()),
        );
        shape.push(query.tables.len() as u32);
        shape.extend(query.tables.iter().map(|t| t.0 as u32));
        shape[1..].sort_unstable();
        // The join quads, and the literals in the query's own predicate order.
        let (mut joins, mut unsorted, mut preds) = (Vec::new(), Vec::new(), Vec::new());
        joins.extend(query.joins.iter().map(|j| {
            let l = [j.left.table.0 as u32, j.left.col as u32];
            let r = [j.right.table.0 as u32, j.right.col as u32];
            let ([lt, lc], [rt, rc]) = if l <= r { (l, r) } else { (r, l) };
            [lt, lc, rt, rc]
        }));
        joins.sort_unstable();
        shape.push(joins.len() as u32);
        shape.extend(joins.iter().flatten());
        preds.extend(query.qualified_predicates().map(|(cr, p)| {
            let start = unsorted.len();
            let op = match &p.test {
                PredTest::Cmp(op, lit) => {
                    unsorted.push(*lit);
                    op.index() as u32
                }
                PredTest::In(values) => {
                    unsorted.extend_from_slice(values);
                    3
                }
                PredTest::Like(pat) => {
                    unsorted.extend(pat.as_str().bytes().map(i64::from));
                    4
                }
            };
            (cr.table.0 as u32, cr.col as u32, op, start..unsorted.len())
        }));
        preds.sort_unstable_by(|a, b| {
            (a.0, a.1, a.2, &unsorted[a.3.clone()]).cmp(&(b.0, b.1, b.2, &unsorted[b.3.clone()]))
        });
        let mut lits = Vec::with_capacity(unsorted.len());
        for (t, c, op, range) in &mut preds {
            shape.extend_from_slice(&[*t, *c, *op]);
            if *op >= 3 {
                shape.push(range.len() as u32);
            }
            let start = lits.len();
            lits.extend_from_slice(&unsorted[range.clone()]);
            *range = start..lits.len();
        }
        Self { shape, lits, preds }
    }

    /// The lifecycle harvest's deduplication key: `template` (the interned
    /// template of this form's query) plus the concrete literals in
    /// canonical predicate order. Two gradings of the same concrete query
    /// collide (refreshing that harvest entry); the same template with
    /// different literals stays distinct.
    pub(crate) fn harvest_key(&self, template: &str) -> String {
        use std::fmt::Write as _;
        let mut key = String::with_capacity(template.len() + self.preds.len() * 12);
        key.push_str(template);
        for (t, c, op, lits) in &self.preds {
            // Op codes < 3 are single-literal comparisons and keep the legacy
            // `#{t}.{c}:{op}={lit}` spelling; IN/LIKE render their full
            // literal vector so distinct lists and patterns stay distinct.
            let _ = write!(key, "#{t}.{c}:{op}=");
            for (i, lit) in self.lits[lits.start..lits.end].iter().enumerate() {
                if i > 0 {
                    key.push(',');
                }
                let _ = write!(key, "{lit}");
            }
        }
        key
    }
}

/// Shapes a [`TemplateInterner`] keeps. Past it, a new shape is rendered
/// and handed out without being kept, so the shapes already kept (the ones
/// traffic met first, and the hot ones among them) stay shared.
const INTERNED_SHAPES: usize = 4096;

/// Interns structural templates: queries with the same shape share one
/// rendered string, so a reader of the template (a `FEEDBACK` grade, a
/// kept `TRACE` exemplar) pays a read-locked map hit on its query's
/// canonical shape instead of re-rendering [`query_template`]
/// (string sorts and a dozen allocations). Public for `ds-bench`'s
/// `ceilings` test, which holds the exemplar's timeline work under an
/// absolute ceiling.
pub struct TemplateInterner {
    map: RwLock<HashMap<Vec<u32>, Arc<str>>>,
}

impl Default for TemplateInterner {
    fn default() -> Self {
        Self::new()
    }
}

impl TemplateInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self {
            map: RwLock::new(HashMap::new()),
        }
    }

    /// Returns the interned [`query_template`] of `query`, rendering and
    /// keeping it on first sight of `shape`, the query's
    /// [`EstimateKey::shape`]. Once 4 096 shapes are kept, a new one is
    /// rendered for this call alone.
    pub fn get(&self, db: &Database, query: &Query, shape: &[u32]) -> Arc<str> {
        if let Some(t) = self
            .map
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(shape)
        {
            return Arc::clone(t);
        }
        let rendered: Arc<str> = query_template(db, query).into();
        let mut map = self.map.write().unwrap_or_else(PoisonError::into_inner);
        if map.len() >= INTERNED_SHAPES && !map.contains_key(shape) {
            return rendered;
        }
        Arc::clone(map.entry(shape.to_vec()).or_insert(rendered))
    }
}

/// The structural template of a query: sorted table names, join equalities,
/// and predicate shapes with literals elided. Space-free by construction
/// (identifier characters only plus `,|+=<>?.`), so it survives the
/// one-token wire formats, and canonical, so the same query shape always
/// feeds the same per-template drift monitor regardless of literal values
/// or clause order.
pub fn query_template(db: &Database, query: &Query) -> String {
    let mut tables: Vec<&str> = query.tables.iter().map(|t| db.table(*t).name()).collect();
    tables.sort_unstable();
    let mut joins: Vec<String> = query
        .joins
        .iter()
        .map(|j| {
            let (l, r) = (db.col_name(j.left), db.col_name(j.right));
            if l <= r {
                format!("{l}={r}")
            } else {
                format!("{r}={l}")
            }
        })
        .collect();
    joins.sort();
    let mut preds: Vec<String> = query
        .qualified_predicates()
        .map(|(cr, p)| {
            // Comparison tokens keep their legacy spelling; the word-like
            // operators get dot delimiters so the template stays
            // unambiguous against identifier characters.
            let tok = match p.op_kind() {
                ds_storage::predicate::PredOpKind::In => ".IN.",
                ds_storage::predicate::PredOpKind::Like => ".LIKE.",
                k => k.sql(),
            };
            format!("{}{}?", db.col_name(cr), tok)
        })
        .collect();
    preds.sort();
    let mut out = tables.join(",");
    if !joins.is_empty() {
        out.push('|');
        out.push_str(&joins.join("+"));
    }
    if !preds.is_empty() {
        out.push('|');
        out.push_str(&preds.join("+"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_query::parser::parse_query;
    use ds_storage::gen::{imdb_database, ImdbConfig};

    impl TemplateInterner {
        /// Shapes kept.
        pub(crate) fn len(&self) -> usize {
            self.map
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .len()
        }
    }

    #[test]
    fn interner_shares_one_rendering_per_query_shape() {
        let db = imdb_database(&ImdbConfig::tiny(3));
        let interner = TemplateInterner::new();
        // Same shape, different literals and clause order → one entry.
        let a = parse_query(
            &db,
            "SELECT COUNT(*) FROM title t, movie_keyword mk \
             WHERE mk.movie_id = t.id AND t.production_year > 1995",
        )
        .expect("parse");
        let b = parse_query(
            &db,
            "SELECT COUNT(*) FROM movie_keyword mk, title t \
             WHERE t.production_year > 2001 AND mk.movie_id = t.id",
        )
        .expect("parse");
        let get = |q: &Query| interner.get(&db, q, EstimateKey::new("imdb", 1, q).shape());
        let ta = get(&a);
        let tb = get(&b);
        assert!(Arc::ptr_eq(&ta, &tb), "same shape must intern to one Arc");
        assert_eq!(ta.as_ref(), query_template(&db, &a));
        assert_eq!(ta.as_ref(), query_template(&db, &b));

        // A different operator on the same column is a different shape.
        let c = parse_query(
            &db,
            "SELECT COUNT(*) FROM title t, movie_keyword mk \
             WHERE mk.movie_id = t.id AND t.production_year < 1995",
        )
        .expect("parse");
        let tc = get(&c);
        assert!(!Arc::ptr_eq(&ta, &tc));
        assert_eq!(tc.as_ref(), query_template(&db, &c));
    }

    /// Past its bound the interner renders a new shape for its caller
    /// without keeping it, and every shape it kept stays shared.
    #[test]
    fn a_full_interner_keeps_its_shapes_and_renders_new_ones_unkept() {
        let db = imdb_database(&ImdbConfig::tiny(3));
        let interner = TemplateInterner::new();
        let parse = |sql| parse_query(&db, sql).expect("parse");
        let a = parse("SELECT COUNT(*) FROM title WHERE title.production_year > 2000");
        let b = parse("SELECT COUNT(*) FROM title WHERE title.kind_id = 1");
        let (ka, kb) = (EstimateKey::new("s", 1, &a), EstimateKey::new("s", 1, &b));
        let first = interner.get(&db, &a, ka.shape());
        // The interner keys by the shape it is handed, so shapes no query
        // has fill it.
        for i in 1..INTERNED_SHAPES {
            interner.get(&db, &a, &[u32::MAX, i as u32]);
        }
        assert_eq!(interner.len(), INTERNED_SHAPES);
        let past = interner.get(&db, &b, kb.shape());
        assert_eq!(past.as_ref(), query_template(&db, &b));
        assert_eq!(
            interner.len(),
            INTERNED_SHAPES,
            "a shape past the bound was kept"
        );
        let again = interner.get(&db, &b, kb.shape());
        assert!(!Arc::ptr_eq(&past, &again));
        assert_eq!(again.as_ref(), query_template(&db, &b));
        let kept = interner.get(&db, &a, ka.shape());
        assert!(Arc::ptr_eq(&first, &kept), "a kept shape was dropped");
    }

    fn queries() -> (Query, Query, Query) {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let a = parse_query(
            &db,
            "SELECT COUNT(*) FROM title WHERE title.production_year > 2000",
        )
        .unwrap();
        // Same template as `a`, different literal.
        let b = parse_query(
            &db,
            "SELECT COUNT(*) FROM title WHERE title.production_year > 1990",
        )
        .unwrap();
        // Different template.
        let c = parse_query(&db, "SELECT COUNT(*) FROM title WHERE title.kind_id = 1").unwrap();
        (a, b, c)
    }

    #[test]
    fn same_shape_different_literals_are_distinct_keys_with_one_shape() {
        let (a, b, c) = queries();
        let ka = EstimateKey::new("s", 1, &a);
        let kb = EstimateKey::new("s", 1, &b);
        let kc = EstimateKey::new("s", 1, &c);
        assert_ne!(ka, kb, "literals must distinguish keys");
        assert_eq!(ka.shape(), kb.shape(), "same template, same shape");
        assert_ne!(ka.shape(), kc.shape());
        assert_eq!(ka, EstimateKey::new("s", 1, &a.clone()));
    }

    /// Two clause orders of one query share their canonical identity but
    /// not their cache key, the query: the model reads clause order, so the
    /// second order misses the first one's entry.
    #[test]
    fn clause_orders_of_one_query_are_distinct_cache_keys() {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let (year, keyword) = ("t.production_year > 1995", "mk.keyword_id = 7");
        let parse = |from, first, second| {
            let sql = format!(
                "SELECT COUNT(*) FROM {from} WHERE mk.movie_id = t.id AND {first} AND {second}"
            );
            parse_query(&db, &sql).expect("parse")
        };
        let a = parse("title t, movie_keyword mk", year, keyword);
        let b = parse("movie_keyword mk, title t", keyword, year);
        assert_eq!(EstimateKey::new("s", 1, &a), EstimateKey::new("s", 1, &b));
        assert_ne!(a, b);
        let cache = ds_core::cache::QueryCache::default();
        cache.insert(a.clone(), 1.5, 64);
        assert_eq!(cache.get(&b), None);
        assert_eq!(cache.get(&a), Some(1.5));
    }
}
