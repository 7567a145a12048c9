//! A deliberately simple hash-join executor used as a differential-testing
//! oracle for [`super::CountExecutor`] and for the (rare) cyclic queries.
//!
//! It materializes intermediate results as tuples of row ids, so it is only
//! suitable for small inputs — exactly what tests need.

use std::collections::HashMap;

use crate::catalog::{Database, TableId};

use super::query::{ExecError, ExecQuery, JoinEdge};

/// Exact `COUNT(*)` by materializing hash joins. Quadratic-ish memory; test
/// use only.
#[derive(Debug, Default, Clone, Copy)]
pub struct NaiveExecutor;

impl NaiveExecutor {
    /// Creates a naive executor.
    pub fn new() -> Self {
        Self
    }

    /// Computes the exact result cardinality of `query` against `db` by
    /// materializing every intermediate join result.
    pub fn count(&self, db: &Database, query: &ExecQuery) -> Result<u64, ExecError> {
        query.validate(db)?;

        // Filter each table up front.
        let mut filtered: HashMap<TableId, Vec<u32>> = HashMap::new();
        for &t in &query.tables {
            let table = db.table(t);
            let qualifies = |row: usize| {
                query
                    .preds_of(t)
                    .all(|p| p.eval_row(table.column(p.col), row))
            };
            let rows = (0..table.num_rows()).filter(|&row| qualifies(row));
            filtered.insert(t, rows.map(|row| row as u32).collect());
        }

        // Current intermediate result: which tables are bound (in order) and
        // the tuples of row ids.
        let first = query.tables[0];
        let mut bound: Vec<TableId> = vec![first];
        let mut tuples: Vec<Vec<u32>> = filtered[&first].iter().map(|&r| vec![r]).collect();
        let mut remaining_edges: Vec<JoinEdge> = query.joins.clone();

        while bound.len() < query.tables.len() || !remaining_edges.is_empty() {
            // Find an edge touching the bound set.
            let pos = remaining_edges
                .iter()
                .position(|e| {
                    let (a, b) = e.tables();
                    bound.contains(&a) || bound.contains(&b)
                })
                .ok_or(ExecError::Disconnected)?;
            let edge = remaining_edges.swap_remove(pos);
            let (a, b) = edge.tables();
            let (bound_side, new_side) = if bound.contains(&a) && bound.contains(&b) {
                // Cycle-closing edge: filter existing tuples instead of joining.
                let ia = bound.iter().position(|&t| t == a).expect("bound");
                let ib = bound.iter().position(|&t| t == b).expect("bound");
                let ca = edge.side_of(a).expect("edge side").col;
                let cb = edge.side_of(b).expect("edge side").col;
                let ta = db.table(a);
                let tb = db.table(b);
                tuples.retain(|tu| {
                    let va = ta.column(ca).get(tu[ia] as usize);
                    let vb = tb.column(cb).get(tu[ib] as usize);
                    matches!((va, vb), (Some(x), Some(y)) if x == y)
                });
                continue;
            } else if bound.contains(&a) {
                (
                    edge.side_of(a).expect("edge side"),
                    edge.side_of(b).expect("edge side"),
                )
            } else {
                (
                    edge.side_of(b).expect("edge side"),
                    edge.side_of(a).expect("edge side"),
                )
            };

            // Hash the new table's filtered rows by join key.
            let new_table = db.table(new_side.table);
            let mut hash: HashMap<i64, Vec<u32>> = HashMap::new();
            for &r in &filtered[&new_side.table] {
                if let Some(v) = new_table.column(new_side.col).get(r as usize) {
                    hash.entry(v).or_default().push(r);
                }
            }

            // Probe.
            let bi = bound
                .iter()
                .position(|&t| t == bound_side.table)
                .expect("bound side present");
            let bt = db.table(bound_side.table);
            let mut next = Vec::new();
            for tu in &tuples {
                let Some(v) = bt.column(bound_side.col).get(tu[bi] as usize) else {
                    continue;
                };
                if let Some(matches) = hash.get(&v) {
                    for &r in matches {
                        let mut t2 = tu.clone();
                        t2.push(r);
                        next.push(t2);
                    }
                }
            }
            tuples = next;
            bound.push(new_side.table);
        }

        Ok(tuples.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ColRef, ForeignKey};
    use crate::column::Column;
    use crate::predicate::{CmpOp, ColPredicate};
    use crate::table::Table;

    fn e(a: usize, ac: usize, b: usize, bc: usize) -> JoinEdge {
        JoinEdge::new(ColRef::new(TableId(a), ac), ColRef::new(TableId(b), bc))
    }

    fn star_db() -> Database {
        let title = Table::new(
            "title",
            vec![
                Column::new("id", vec![1, 2, 3]),
                Column::new("year", vec![1990, 2000, 2010]),
            ],
        );
        let mk = Table::new(
            "mk",
            vec![
                Column::new("movie_id", vec![1, 1, 2, 3, 3, 3]),
                Column::new("kw", vec![10, 11, 10, 12, 10, 11]),
            ],
        );
        let fks = vec![ForeignKey {
            from: ColRef::new(TableId(1), 0),
            to: ColRef::new(TableId(0), 0),
        }];
        Database::new("star", vec![title, mk], fks)
    }

    #[test]
    fn matches_hand_counts() {
        let db = star_db();
        let q = ExecQuery {
            tables: vec![TableId(0), TableId(1)],
            joins: vec![e(1, 0, 0, 0)],
            predicates: vec![(TableId(1), ColPredicate::new(1, CmpOp::Eq, 10))],
        };
        assert_eq!(NaiveExecutor::new().count(&db, &q).unwrap(), 3);
    }

    #[test]
    fn single_table() {
        let db = star_db();
        let q = ExecQuery::single(TableId(0), vec![ColPredicate::new(1, CmpOp::Lt, 2005)]);
        assert_eq!(NaiveExecutor::new().count(&db, &q).unwrap(), 2);
    }

    #[test]
    fn cyclic_query_supported() {
        // Two parallel edges between the same tables form a cycle; the naive
        // executor treats the second as a filter.
        let a = Table::new(
            "a",
            vec![Column::new("x", vec![1, 2]), Column::new("y", vec![7, 8])],
        );
        let b = Table::new(
            "b",
            vec![
                Column::new("x", vec![1, 1, 2]),
                Column::new("y", vec![7, 9, 8]),
            ],
        );
        let db = Database::new("cyc", vec![a, b], vec![]);
        let q = ExecQuery {
            tables: vec![TableId(0), TableId(1)],
            joins: vec![e(0, 0, 1, 0), e(0, 1, 1, 1)],
            predicates: vec![],
        };
        // Matching on both x and y: (1,7) matches one b row, (2,8) one.
        assert_eq!(NaiveExecutor::new().count(&db, &q).unwrap(), 2);
    }

    #[test]
    fn agrees_with_yannakakis_on_star() {
        use super::super::CountExecutor;
        let db = star_db();
        let q = ExecQuery {
            tables: vec![TableId(0), TableId(1)],
            joins: vec![e(1, 0, 0, 0)],
            predicates: vec![(TableId(0), ColPredicate::new(1, CmpOp::Gt, 1995))],
        };
        let naive = NaiveExecutor::new().count(&db, &q).unwrap();
        let fast = CountExecutor::new().count(&db, &q).unwrap();
        assert_eq!(naive, fast);
    }
}
