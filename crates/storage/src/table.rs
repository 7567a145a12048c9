//! Tables: named collections of equal-length columns.

use std::collections::HashMap;

use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::predicate::ColPredicate;

/// An in-memory table. Columns all have the same row count; rows are
/// addressed by dense `u32` row ids.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    columns: Vec<Column>,
    by_name: HashMap<String, usize>,
    rows: usize,
}

impl Table {
    /// Creates a table from columns.
    ///
    /// # Panics
    /// Panics if columns have differing lengths, duplicate names, or if the
    /// table would exceed `u32::MAX` rows.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Self {
        let name = name.into();
        let rows = columns.first().map_or(0, Column::len);
        assert!(rows <= u32::MAX as usize, "table too large for u32 row ids");
        let mut by_name = HashMap::with_capacity(columns.len());
        for (i, c) in columns.iter().enumerate() {
            assert_eq!(
                c.len(),
                rows,
                "column {} length mismatch in {name}",
                c.name()
            );
            let prev = by_name.insert(c.name().to_string(), i);
            assert!(prev.is_none(), "duplicate column {} in {name}", c.name());
        }
        Self {
            name,
            columns,
            by_name,
            rows,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// All columns, in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column by positional index.
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Positional index of the column named `name`, if any.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Column by name, if any.
    pub fn column_by_name(&self, name: &str) -> Option<&Column> {
        self.column_index(name).map(|i| &self.columns[i])
    }

    /// Counts rows qualifying a conjunction of predicates.
    pub fn filter_count(&self, preds: &[ColPredicate]) -> u64 {
        if preds.is_empty() {
            return self.rows as u64;
        }
        let mut n = 0u64;
        'rows: for row in 0..self.rows {
            for p in preds {
                if !p.eval_row(self.column(p.col), row) {
                    continue 'rows;
                }
            }
            n += 1;
        }
        n
    }

    /// Builds a new table containing only the given rows (in the given
    /// order). Used to materialize samples.
    pub fn project_rows(&self, rows: &[u32]) -> Table {
        let columns = self
            .columns
            .iter()
            .map(|c| {
                let data: Vec<i64> = rows.iter().map(|&r| c.data()[r as usize]).collect();
                let nulls: Bitmap = rows.iter().map(|&r| c.is_null(r as usize)).collect();
                Column::with_nulls(c.name().to_string(), data, nulls)
            })
            .collect();
        Table::new(self.name.clone(), columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;

    fn movies() -> Table {
        Table::new(
            "title",
            vec![
                Column::new("id", vec![1, 2, 3, 4, 5]),
                Column::new("year", vec![1990, 2000, 2000, 2010, 2020]),
                Column::new("kind", vec![1, 1, 2, 2, 3]),
            ],
        )
    }

    #[test]
    fn lookup_by_name_and_index() {
        let t = movies();
        assert_eq!(t.name(), "title");
        assert_eq!(t.num_rows(), 5);
        assert_eq!(t.column_index("year"), Some(1));
        assert_eq!(t.column_index("nope"), None);
        assert_eq!(t.column(2).name(), "kind");
        assert!(t.column_by_name("id").is_some());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_columns_panic() {
        Table::new(
            "t",
            vec![Column::new("a", vec![1]), Column::new("b", vec![1, 2])],
        );
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_column_panics() {
        Table::new(
            "t",
            vec![Column::new("a", vec![1]), Column::new("a", vec![2])],
        );
    }

    #[test]
    fn filter_count_conjunction() {
        let t = movies();
        let preds = vec![
            ColPredicate::new(1, CmpOp::Eq, 2000),
            ColPredicate::new(2, CmpOp::Eq, 2),
        ];
        assert_eq!(t.filter_count(&preds), 1);
    }

    #[test]
    fn filter_empty_predicates_selects_all() {
        let t = movies();
        assert_eq!(t.filter_count(&[]), 5);
    }

    #[test]
    fn project_rows_materializes_subset() {
        let t = movies();
        let sub = t.project_rows(&[4, 0]);
        assert_eq!(sub.num_rows(), 2);
        assert_eq!(sub.column_by_name("year").unwrap().data(), &[2020, 1990]);
    }
}
