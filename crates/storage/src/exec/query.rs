//! The executable form of a query: a set of tables, equi-join edges, and
//! per-table conjunctive predicates.

use std::collections::{HashMap, HashSet};

use crate::catalog::{ColRef, Database, TableId};
use crate::predicate::ColPredicate;

/// An equi-join `left = right` between columns of two different tables.
/// The edge is undirected; executors orient it as needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JoinEdge {
    /// One side of the equality.
    pub left: ColRef,
    /// The other side of the equality.
    pub right: ColRef,
}

impl JoinEdge {
    /// Creates a join edge.
    pub fn new(left: ColRef, right: ColRef) -> Self {
        Self { left, right }
    }

    /// The two tables this edge connects.
    pub fn tables(&self) -> (TableId, TableId) {
        (self.left.table, self.right.table)
    }

    /// Returns the column of this edge that belongs to `t`, if any.
    pub fn side_of(&self, t: TableId) -> Option<ColRef> {
        if self.left.table == t {
            Some(self.left)
        } else if self.right.table == t {
            Some(self.right)
        } else {
            None
        }
    }

    /// Returns the column of the *other* side relative to table `t`, if `t`
    /// participates in this edge.
    pub fn other_side(&self, t: TableId) -> Option<ColRef> {
        if self.left.table == t {
            Some(self.right)
        } else if self.right.table == t {
            Some(self.left)
        } else {
            None
        }
    }

    /// A canonical form with sides ordered by (table, col), so that the same
    /// logical join always featurizes to the same one-hot id.
    pub fn canonical(&self) -> JoinEdge {
        if (self.left.table, self.left.col) <= (self.right.table, self.right.col) {
            *self
        } else {
            JoinEdge::new(self.right, self.left)
        }
    }
}

/// Errors raised by executors when a query is malformed for the chosen
/// algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The query references no tables.
    NoTables,
    /// The same table appears twice (self-joins are out of scope, as in
    /// JOB-light).
    DuplicateTable(TableId),
    /// A join edge or predicate references a table not in the table set.
    UnknownTable(TableId),
    /// A join edge joins a table with itself.
    SelfJoin(TableId),
    /// The join graph does not connect all tables.
    Disconnected,
    /// The join graph contains a cycle (the Yannakakis counter requires a
    /// tree; use [`super::NaiveExecutor`] instead).
    Cyclic,
    /// A predicate references a column index out of range for its table.
    BadColumn(TableId, usize),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::NoTables => write!(f, "query has no tables"),
            ExecError::DuplicateTable(t) => write!(f, "table {t:?} appears twice"),
            ExecError::UnknownTable(t) => write!(f, "reference to table {t:?} outside table set"),
            ExecError::SelfJoin(t) => write!(f, "join edge joins table {t:?} with itself"),
            ExecError::Disconnected => write!(f, "join graph is disconnected"),
            ExecError::Cyclic => write!(f, "join graph is cyclic"),
            ExecError::BadColumn(t, c) => write!(f, "column {c} out of range for table {t:?}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// The executable form of a `SELECT COUNT(*)` query.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct ExecQuery {
    /// Distinct tables referenced by the query.
    pub tables: Vec<TableId>,
    /// Equi-join edges; must form a spanning tree over `tables` for the
    /// Yannakakis executor.
    pub joins: Vec<JoinEdge>,
    /// Base-table predicates, each attached to its table.
    pub predicates: Vec<(TableId, ColPredicate)>,
}

impl ExecQuery {
    /// Single-table query with predicates.
    pub fn single(table: TableId, preds: Vec<ColPredicate>) -> Self {
        Self {
            tables: vec![table],
            joins: vec![],
            predicates: preds.into_iter().map(|p| (table, p)).collect(),
        }
    }

    /// Predicates attached to `t`, borrowed in query order.
    pub fn preds_of(&self, t: TableId) -> impl Iterator<Item = &ColPredicate> + Clone {
        self.predicates
            .iter()
            .filter(move |(tid, _)| *tid == t)
            .map(|(_, p)| p)
    }

    /// Validates structural invariants shared by all executors: non-empty
    /// distinct table set, known tables in joins/predicates, in-range
    /// predicate columns, and a connected join graph.
    pub fn validate(&self, db: &Database) -> Result<(), ExecError> {
        if self.tables.is_empty() {
            return Err(ExecError::NoTables);
        }
        let mut seen = HashSet::new();
        for &t in &self.tables {
            if !seen.insert(t) {
                return Err(ExecError::DuplicateTable(t));
            }
        }
        for j in &self.joins {
            let (a, b) = j.tables();
            if a == b {
                return Err(ExecError::SelfJoin(a));
            }
            for cr in [j.left, j.right] {
                if !seen.contains(&cr.table) {
                    return Err(ExecError::UnknownTable(cr.table));
                }
                if cr.col >= db.table(cr.table).columns().len() {
                    return Err(ExecError::BadColumn(cr.table, cr.col));
                }
            }
        }
        for (t, p) in &self.predicates {
            if !seen.contains(t) {
                return Err(ExecError::UnknownTable(*t));
            }
            if p.col >= db.table(*t).columns().len() {
                return Err(ExecError::BadColumn(*t, p.col));
            }
        }
        if !self.is_connected() {
            return Err(ExecError::Disconnected);
        }
        Ok(())
    }

    /// True when the join edges connect all tables into one component.
    pub fn is_connected(&self) -> bool {
        if self.tables.len() <= 1 {
            return true;
        }
        let mut adj: HashMap<TableId, Vec<TableId>> = HashMap::new();
        for j in &self.joins {
            let (a, b) = j.tables();
            adj.entry(a).or_default().push(b);
            adj.entry(b).or_default().push(a);
        }
        let mut visited = HashSet::new();
        let mut stack = vec![self.tables[0]];
        while let Some(t) = stack.pop() {
            if visited.insert(t) {
                if let Some(ns) = adj.get(&t) {
                    stack.extend(ns.iter().copied());
                }
            }
        }
        self.tables.iter().all(|t| visited.contains(t))
    }

    /// True when the join graph is a tree over the tables (connected and
    /// |edges| == |tables| - 1).
    pub fn is_tree(&self) -> bool {
        self.is_connected() && self.joins.len() + 1 == self.tables.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Database, ForeignKey};
    use crate::column::Column;
    use crate::predicate::CmpOp;
    use crate::table::Table;

    fn db3() -> Database {
        let a = Table::new("a", vec![Column::new("id", vec![1, 2])]);
        let b = Table::new(
            "b",
            vec![
                Column::new("a_id", vec![1, 1, 2]),
                Column::new("x", vec![5, 6, 7]),
            ],
        );
        let c = Table::new("c", vec![Column::new("a_id", vec![2, 2])]);
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
        Database::new("t3", vec![a, b, c], fks)
    }

    fn edge(a: usize, ac: usize, b: usize, bc: usize) -> JoinEdge {
        JoinEdge::new(ColRef::new(TableId(a), ac), ColRef::new(TableId(b), bc))
    }

    #[test]
    fn canonical_ordering() {
        let e = edge(1, 0, 0, 0);
        let c = e.canonical();
        assert_eq!(c.left.table, TableId(0));
        assert_eq!(c, c.canonical());
        assert_eq!(edge(0, 0, 1, 0).canonical(), c);
    }

    #[test]
    fn side_lookups() {
        let e = edge(0, 0, 1, 0);
        assert_eq!(e.side_of(TableId(0)), Some(ColRef::new(TableId(0), 0)));
        assert_eq!(e.other_side(TableId(0)), Some(ColRef::new(TableId(1), 0)));
        assert_eq!(e.side_of(TableId(9)), None);
        assert_eq!(e.other_side(TableId(9)), None);
    }

    #[test]
    fn validate_accepts_star() {
        let db = db3();
        let q = ExecQuery {
            tables: vec![TableId(0), TableId(1), TableId(2)],
            joins: vec![edge(1, 0, 0, 0), edge(2, 0, 0, 0)],
            predicates: vec![(TableId(1), ColPredicate::new(1, CmpOp::Gt, 5))],
        };
        assert_eq!(q.validate(&db), Ok(()));
        assert!(q.is_tree());
    }

    #[test]
    fn validate_rejects_malformed() {
        let db = db3();
        let empty = ExecQuery::default();
        assert_eq!(empty.validate(&db), Err(ExecError::NoTables));

        let dup = ExecQuery {
            tables: vec![TableId(0), TableId(0)],
            ..Default::default()
        };
        assert_eq!(
            dup.validate(&db),
            Err(ExecError::DuplicateTable(TableId(0)))
        );

        let disc = ExecQuery {
            tables: vec![TableId(0), TableId(1)],
            ..Default::default()
        };
        assert_eq!(disc.validate(&db), Err(ExecError::Disconnected));

        let selfjoin = ExecQuery {
            tables: vec![TableId(0)],
            joins: vec![edge(0, 0, 0, 0)],
            ..Default::default()
        };
        assert_eq!(selfjoin.validate(&db), Err(ExecError::SelfJoin(TableId(0))));

        let badcol = ExecQuery {
            tables: vec![TableId(0)],
            predicates: vec![(TableId(0), ColPredicate::new(7, CmpOp::Eq, 1))],
            ..Default::default()
        };
        assert_eq!(
            badcol.validate(&db),
            Err(ExecError::BadColumn(TableId(0), 7))
        );

        let unknown_pred = ExecQuery {
            tables: vec![TableId(0)],
            predicates: vec![(TableId(2), ColPredicate::new(0, CmpOp::Eq, 1))],
            ..Default::default()
        };
        assert_eq!(
            unknown_pred.validate(&db),
            Err(ExecError::UnknownTable(TableId(2)))
        );
    }

    #[test]
    fn preds_of_filters_by_table() {
        let q = ExecQuery {
            tables: vec![TableId(0), TableId(1)],
            joins: vec![edge(1, 0, 0, 0)],
            predicates: vec![
                (TableId(0), ColPredicate::new(0, CmpOp::Eq, 1)),
                (TableId(1), ColPredicate::new(1, CmpOp::Lt, 7)),
                (TableId(0), ColPredicate::new(0, CmpOp::Gt, 0)),
            ],
        };
        assert_eq!(q.preds_of(TableId(0)).count(), 2);
        assert_eq!(q.preds_of(TableId(1)).count(), 1);
    }

    #[test]
    fn single_table_is_trivially_connected() {
        let q = ExecQuery::single(TableId(0), vec![]);
        assert!(q.is_connected());
        assert!(q.is_tree());
    }
}
