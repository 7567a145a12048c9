//! SQL printing for [`Query`] — the demo shows the SQL string of the
//! graphically-built query "for information purposes"; tests use it for
//! parser round-trips.

use std::fmt::{self, Write};
use std::mem;

use ds_storage::catalog::{ColRef, Database};
use ds_storage::predicate::PredTest;

use crate::query::Query;

/// Renders the query as `SELECT COUNT(*) FROM … WHERE …` with fully
/// qualified column names and no aliases. Join predicates come first, then
/// base-table predicates in insertion order. `IN` lists render in their
/// canonical (sorted, deduplicated) order, so sqlgen→parser→sqlgen is
/// bit-identical.
pub fn to_sql(db: &Database, query: &Query) -> String {
    let mut sql = String::new();
    write_sql(db, query, &mut sql).expect("writing to a String cannot fail");
    // Callers keep rendered workloads (the benchmark holds a stream of
    // ≈ 100 k): hand back no growth slack.
    sql.shrink_to_fit();
    sql
}

/// [`to_sql`] into `sql`, one `write!` at a time. Each list takes its
/// separator from `mem::replace`: the first item gets what comes before
/// any, the rest the separator.
fn write_sql(db: &Database, query: &Query, sql: &mut String) -> fmt::Result {
    let col = |sql: &mut String, cr: ColRef| {
        let t = db.table(cr.table);
        write!(sql, "{}.{}", t.name(), t.column(cr.col).name())
    };
    let mut sep = "";
    sql.push_str("SELECT COUNT(*) FROM ");
    for &t in &query.tables {
        write!(
            sql,
            "{}{}",
            mem::replace(&mut sep, ", "),
            db.table(t).name()
        )?;
    }
    let mut sep = " WHERE ";
    for j in &query.joins {
        sql.push_str(mem::replace(&mut sep, " AND "));
        col(sql, j.left)?;
        sql.push_str(" = ");
        col(sql, j.right)?;
    }
    for (cr, p) in query.qualified_predicates() {
        sql.push_str(mem::replace(&mut sep, " AND "));
        col(sql, cr)?;
        match &p.test {
            PredTest::Cmp(op, lit) => write!(sql, " {} {lit}", op.sql())?,
            PredTest::In(vals) => {
                let mut sep = "";
                sql.push_str(" IN (");
                for v in vals {
                    write!(sql, "{}{v}", mem::replace(&mut sep, ", "))?;
                }
                sql.push(')');
            }
            PredTest::Like(pat) => write!(sql, " LIKE '{}'", pat.as_str())?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_storage::gen::{imdb_database, ImdbConfig};
    use ds_storage::predicate::CmpOp;

    #[test]
    fn single_table_no_predicates() {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let mut q = Query::new();
        q.add_table(&db, "title").unwrap();
        assert_eq!(to_sql(&db, &q), "SELECT COUNT(*) FROM title");
    }

    #[test]
    fn join_and_predicates_render() {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let mut q = Query::new();
        q.add_table(&db, "title").unwrap();
        q.add_table(&db, "movie_keyword").unwrap();
        q.add_predicate(&db, "title.production_year", CmpOp::Gt, 2000)
            .unwrap();
        q.add_predicate(&db, "movie_keyword.keyword_id", CmpOp::Eq, 42)
            .unwrap();
        let sql = to_sql(&db, &q);
        assert_eq!(
            sql,
            "SELECT COUNT(*) FROM title, movie_keyword \
             WHERE title.id = movie_keyword.movie_id \
             AND title.production_year > 2000 \
             AND movie_keyword.keyword_id = 42"
        );
    }

    #[test]
    fn in_and_like_render_canonically() {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let mut q = Query::new();
        q.add_table(&db, "title").unwrap();
        q.add_in_predicate(&db, "title.kind_id", vec![5, 2, 2, 3])
            .unwrap();
        q.add_like_predicate(&db, "title.production_year", "19%")
            .unwrap();
        assert_eq!(
            to_sql(&db, &q),
            "SELECT COUNT(*) FROM title \
             WHERE title.kind_id IN (2, 3, 5) \
             AND title.production_year LIKE '19%'"
        );
    }
}
