//! The high-level query model: `SELECT COUNT(*)` over a set of tables with
//! PK/FK equi-joins and conjunctive comparison predicates — exactly the
//! query class of the paper and of JOB-light.

use ds_storage::catalog::{ColRef, Database, TableId};
use ds_storage::exec::{ExecQuery, JoinEdge};
use ds_storage::predicate::{CmpOp, ColPredicate};

/// Resolves a qualified column name against a query's table set.
fn resolve_on_query(
    q: &Query,
    db: &Database,
    qualified_col: &str,
) -> Result<ColRef, QueryBuildError> {
    let cr = db
        .resolve(qualified_col)
        .ok_or_else(|| QueryBuildError::UnknownColumn(qualified_col.to_string()))?;
    if !q.tables.contains(&cr.table) {
        return Err(QueryBuildError::UnknownTable(
            db.table(cr.table).name().to_string(),
        ));
    }
    Ok(cr)
}

/// A `SELECT COUNT(*)` query. Structurally identical to
/// [`ExecQuery`] but offers name-based construction against a
/// [`Database`] and SQL printing (see [`crate::sqlgen`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Query {
    /// Distinct tables referenced.
    pub tables: Vec<TableId>,
    /// Equi-join edges (a spanning tree in well-formed queries).
    pub joins: Vec<JoinEdge>,
    /// Conjunctive base-table predicates.
    pub predicates: Vec<(TableId, ColPredicate)>,
}

/// Errors from name-based query construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryBuildError {
    /// Unknown table name.
    UnknownTable(String),
    /// Unknown `table.column` reference.
    UnknownColumn(String),
    /// No PK/FK relationship exists between the two tables.
    NoForeignKey(String, String),
}

impl std::fmt::Display for QueryBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryBuildError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            QueryBuildError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            QueryBuildError::NoForeignKey(a, b) => {
                write!(f, "no PK/FK relationship between {a} and {b}")
            }
        }
    }
}

impl std::error::Error for QueryBuildError {}

impl Query {
    /// Starts an empty query.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a table by name. Mirrors the demo UI: when a second (or later)
    /// table is added, the corresponding PK/FK join predicate to an
    /// already-present table is inserted automatically.
    pub fn add_table(&mut self, db: &Database, name: &str) -> Result<TableId, QueryBuildError> {
        let tid = db
            .table_id(name)
            .ok_or_else(|| QueryBuildError::UnknownTable(name.to_string()))?;
        if self.tables.contains(&tid) {
            return Ok(tid);
        }
        if !self.tables.is_empty() {
            let partner = self
                .tables
                .iter()
                .find(|&&t| db.fk_between(t, tid).is_some())
                .copied()
                .ok_or_else(|| {
                    QueryBuildError::NoForeignKey(
                        name.to_string(),
                        db.table(self.tables[0]).name().to_string(),
                    )
                })?;
            let fk = db.fk_between(partner, tid).expect("checked above");
            self.joins.push(JoinEdge::new(fk.from, fk.to).canonical());
        }
        self.tables.push(tid);
        Ok(tid)
    }

    /// Adds a predicate `table.column op literal` by qualified column name.
    /// The table must already be part of the query.
    pub fn add_predicate(
        &mut self,
        db: &Database,
        qualified_col: &str,
        op: CmpOp,
        literal: i64,
    ) -> Result<(), QueryBuildError> {
        let cr = resolve_on_query(self, db, qualified_col)?;
        self.predicates
            .push((cr.table, ColPredicate::new(cr.col, op, literal)));
        Ok(())
    }

    /// Adds an `IN`-list predicate by qualified column name. The table
    /// must already be part of the query and the list non-empty.
    pub fn add_in_predicate(
        &mut self,
        db: &Database,
        qualified_col: &str,
        values: Vec<i64>,
    ) -> Result<(), QueryBuildError> {
        let cr = resolve_on_query(self, db, qualified_col)?;
        self.predicates
            .push((cr.table, ColPredicate::is_in(cr.col, values)));
        Ok(())
    }

    /// Adds a `LIKE` predicate by qualified column name. The pattern is
    /// matched against the decimal rendering of the column value.
    pub fn add_like_predicate(
        &mut self,
        db: &Database,
        qualified_col: &str,
        pattern: &str,
    ) -> Result<(), QueryBuildError> {
        let cr = resolve_on_query(self, db, qualified_col)?;
        self.predicates
            .push((cr.table, ColPredicate::like(cr.col, pattern)));
        Ok(())
    }

    /// Number of join edges.
    pub fn num_joins(&self) -> usize {
        self.joins.len()
    }

    /// Number of predicates.
    pub fn num_predicates(&self) -> usize {
        self.predicates.len()
    }

    /// Predicates attached to table `t`, borrowed.
    pub fn preds_of(&self, t: TableId) -> impl Iterator<Item = &ColPredicate> {
        self.predicates
            .iter()
            .filter(move |(tid, _)| *tid == t)
            .map(|(_, p)| p)
    }

    /// All predicates with fully-qualified column references.
    pub fn qualified_predicates(&self) -> impl Iterator<Item = (ColRef, &ColPredicate)> + '_ {
        self.predicates
            .iter()
            .map(|(t, p)| (ColRef::new(*t, p.col), p))
    }

    /// Lowers to the executable form.
    pub fn to_exec(&self) -> ExecQuery {
        ExecQuery {
            tables: self.tables.clone(),
            joins: self.joins.clone(),
            predicates: self.predicates.clone(),
        }
    }
}

impl From<ExecQuery> for Query {
    fn from(q: ExecQuery) -> Self {
        Self {
            tables: q.tables,
            joins: q.joins,
            predicates: q.predicates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_storage::gen::{imdb_database, ImdbConfig};

    fn db() -> Database {
        imdb_database(&ImdbConfig::tiny(3))
    }

    #[test]
    fn add_table_inserts_fk_join() {
        let db = db();
        let mut q = Query::new();
        q.add_table(&db, "title").unwrap();
        q.add_table(&db, "movie_keyword").unwrap();
        assert_eq!(q.tables.len(), 2);
        assert_eq!(q.num_joins(), 1);
        let j = q.joins[0];
        assert_eq!(db.col_name(j.left), "title.id");
        assert_eq!(db.col_name(j.right), "movie_keyword.movie_id");
    }

    #[test]
    fn add_table_is_idempotent() {
        let db = db();
        let mut q = Query::new();
        q.add_table(&db, "title").unwrap();
        q.add_table(&db, "title").unwrap();
        assert_eq!(q.tables.len(), 1);
        assert_eq!(q.num_joins(), 0);
    }

    #[test]
    fn add_unjoinable_table_fails() {
        let db = db();
        let mut q = Query::new();
        q.add_table(&db, "movie_keyword").unwrap();
        // cast_info has no FK to movie_keyword (both reference title).
        let err = q.add_table(&db, "cast_info").unwrap_err();
        assert!(matches!(err, QueryBuildError::NoForeignKey(..)));
    }

    #[test]
    fn star_query_via_title_hub() {
        let db = db();
        let mut q = Query::new();
        q.add_table(&db, "title").unwrap();
        q.add_table(&db, "movie_keyword").unwrap();
        q.add_table(&db, "cast_info").unwrap();
        assert_eq!(q.num_joins(), 2);
        assert!(q.to_exec().is_tree());
    }

    #[test]
    fn add_predicate_resolves_names() {
        let db = db();
        let mut q = Query::new();
        q.add_table(&db, "title").unwrap();
        q.add_predicate(&db, "title.production_year", CmpOp::Gt, 2000)
            .unwrap();
        assert_eq!(q.num_predicates(), 1);
        let (cr, p) = q.qualified_predicates().next().unwrap();
        assert_eq!(db.col_name(cr), "title.production_year");
        assert_eq!(p.as_cmp(), Some((CmpOp::Gt, 2000)));
    }

    #[test]
    fn predicate_on_absent_table_fails() {
        let db = db();
        let mut q = Query::new();
        q.add_table(&db, "title").unwrap();
        let err = q
            .add_predicate(&db, "movie_keyword.keyword_id", CmpOp::Eq, 3)
            .unwrap_err();
        assert!(matches!(err, QueryBuildError::UnknownTable(_)));
        let err2 = q
            .add_predicate(&db, "title.nope", CmpOp::Eq, 3)
            .unwrap_err();
        assert!(matches!(err2, QueryBuildError::UnknownColumn(_)));
    }

    #[test]
    fn exec_roundtrip() {
        let db = db();
        let mut q = Query::new();
        q.add_table(&db, "title").unwrap();
        q.add_table(&db, "movie_info").unwrap();
        q.add_predicate(&db, "movie_info.info_type_id", CmpOp::Eq, 5)
            .unwrap();
        let exec = q.to_exec();
        assert_eq!(exec.validate(&db), Ok(()));
        let back: Query = exec.into();
        assert_eq!(back, q);
    }
}
