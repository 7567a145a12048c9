//! Query templates with placeholders — the demo's headline feature.
//!
//! "Users can optionally specify a placeholder for a certain column to
//! define a query template. … we instantiate the query template with values
//! (literals) from the column sample." Value functions optionally group the
//! sample values, e.g. one range query per year for date-like columns, or
//! equally sized buckets between the sample min and max.

use ds_est::CardinalityEstimator;
use ds_query::parser::{parse, ParseError};
use ds_query::query::Query;
use ds_storage::catalog::{ColRef, Database};
use ds_storage::predicate::{CmpOp, ColPredicate};
use ds_storage::sample::TableSample;

/// How sample values are turned into template instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueFn {
    /// One instance per distinct sample value (`col op value`).
    Identity,
    /// Group values by `value / divisor` (e.g. days → years) and emit one
    /// *range* instance per group: `col > lo-1 AND col < hi+1`.
    GroupBy(i64),
    /// `n` equally-sized buckets between the sample min and max, one range
    /// instance per bucket.
    Buckets(usize),
}

/// One instantiated template point: the label shown on the X axis and the
/// concrete query.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateInstance {
    /// X-axis label (the value, the group key, or the bucket's lower bound).
    pub label: i64,
    /// The concrete query for this point.
    pub query: Query,
}

/// A query template: a base query plus one placeholder predicate
/// `column op ?`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTemplate {
    /// The query without the placeholder predicate.
    pub base: Query,
    /// Placeholder column.
    pub column: ColRef,
    /// Placeholder operator (ignored for range-producing value functions).
    pub op: CmpOp,
}

impl QueryTemplate {
    /// Parses a SQL template containing exactly one `?` placeholder.
    pub fn parse_sql(db: &Database, sql: &str) -> Result<Self, ParseError> {
        let parsed = parse(db, sql)?;
        let (column, op) = parsed
            .placeholder
            .ok_or_else(|| ParseError("template needs a '?' placeholder".into()))?;
        if !parsed.query.tables.contains(&column.table) {
            return Err(ParseError(
                "placeholder column's table missing from FROM".into(),
            ));
        }
        Ok(Self {
            base: parsed.query,
            column,
            op,
        })
    }

    /// Instantiates the template using the column sample that ships with
    /// the sketch, applying the value function. Returns one instance per
    /// X-axis point, in ascending label order.
    pub fn instantiate(&self, samples: &[TableSample], value_fn: ValueFn) -> Vec<TemplateInstance> {
        let sample = &samples[self.column.table.0];
        let values = sample.distinct_values(self.column.col);
        if values.is_empty() {
            return Vec::new();
        }
        match value_fn {
            ValueFn::Identity => values
                .into_iter()
                .map(|v| TemplateInstance {
                    label: v,
                    query: self.with_predicates(vec![ColPredicate::new(
                        self.column.col,
                        self.op,
                        v,
                    )]),
                })
                .collect(),
            ValueFn::GroupBy(divisor) => {
                assert!(divisor > 0, "divisor must be positive");
                let mut groups: Vec<i64> = values.iter().map(|v| v.div_euclid(divisor)).collect();
                groups.dedup();
                groups
                    .into_iter()
                    .map(|g| {
                        let lo = g * divisor;
                        let hi = lo + divisor - 1;
                        TemplateInstance {
                            label: g,
                            query: self.range_instance(lo, hi),
                        }
                    })
                    .collect()
            }
            ValueFn::Buckets(n) => {
                assert!(n > 0, "bucket count must be positive");
                // Non-empty: an empty sample returned above.
                let (min, max) = (values[0], values[values.len() - 1]);
                let span = (max - min + 1).max(1);
                let width = ((span + n as i64 - 1) / n as i64).max(1);
                (0..n as i64)
                    .map_while(|b| {
                        let lo = min + b * width;
                        if lo > max {
                            return None;
                        }
                        let hi = (lo + width - 1).min(max);
                        Some(TemplateInstance {
                            label: lo,
                            query: self.range_instance(lo, hi),
                        })
                    })
                    .collect()
            }
        }
    }

    fn with_predicates(&self, preds: Vec<ColPredicate>) -> Query {
        let mut q = self.base.clone();
        for p in preds {
            q.predicates.push((self.column.table, p));
        }
        q
    }

    /// Instance covering `lo..=hi` via `> lo-1 AND < hi+1`.
    fn range_instance(&self, lo: i64, hi: i64) -> Query {
        self.with_predicates(vec![
            ColPredicate::new(self.column.col, CmpOp::Gt, lo - 1),
            ColPredicate::new(self.column.col, CmpOp::Lt, hi + 1),
        ])
    }

    /// Evaluates the template against an estimator: one `(label, estimate)`
    /// series — a chart line of the demo's Figure 2.
    pub fn evaluate(
        &self,
        samples: &[TableSample],
        value_fn: ValueFn,
        estimator: &dyn CardinalityEstimator,
    ) -> Vec<(i64, f64)> {
        self.instantiate(samples, value_fn)
            .into_iter()
            .map(|inst| (inst.label, estimator.estimate(&inst.query)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_est::oracle::TrueCardinalityOracle;
    use ds_storage::gen::{imdb_database, ImdbConfig};
    use ds_storage::sample::sample_all;

    fn setup() -> (
        ds_storage::catalog::Database,
        Vec<TableSample>,
        QueryTemplate,
    ) {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let samples = sample_all(&db, 64, 3);
        let tpl = QueryTemplate::parse_sql(
            &db,
            "SELECT COUNT(*) FROM title t, movie_keyword mk \
             WHERE mk.movie_id = t.id AND mk.keyword_id = 5 AND t.production_year = ?",
        )
        .unwrap();
        (db, samples, tpl)
    }

    #[test]
    fn parse_rejects_missing_placeholder() {
        let db = imdb_database(&ImdbConfig::tiny(1));
        assert!(QueryTemplate::parse_sql(&db, "SELECT COUNT(*) FROM title").is_err());
    }

    #[test]
    fn identity_instances_use_sample_values() {
        let (db, samples, tpl) = setup();
        let instances = tpl.instantiate(&samples, ValueFn::Identity);
        assert!(!instances.is_empty());
        let year_col = db.resolve("title.production_year").unwrap().col;
        let sample_values = samples[0].distinct_values(year_col);
        assert_eq!(instances.len(), sample_values.len());
        for (inst, v) in instances.iter().zip(&sample_values) {
            assert_eq!(inst.label, *v);
            // Base query predicates + 1 instantiated placeholder.
            assert_eq!(inst.query.num_predicates(), tpl.base.num_predicates() + 1);
            assert!(inst
                .query
                .predicates
                .iter()
                .any(|(_, p)| p.as_cmp() == Some((CmpOp::Eq, *v)) && p.col == year_col));
        }
        // Labels ascend.
        assert!(instances.windows(2).all(|w| w[0].label < w[1].label));
    }

    #[test]
    fn group_by_decade_produces_ranges() {
        let (db, samples, tpl) = setup();
        let instances = tpl.instantiate(&samples, ValueFn::GroupBy(10));
        assert!(!instances.is_empty());
        let oracle = TrueCardinalityOracle::new(&db);
        for inst in &instances {
            // Two range predicates were appended.
            assert_eq!(inst.query.num_predicates(), tpl.base.num_predicates() + 2);
            // Each instance is executable.
            oracle.cardinality(&inst.query).expect("executable");
        }
        // Group labels are decades, strictly ascending.
        assert!(instances.windows(2).all(|w| w[0].label < w[1].label));
    }

    #[test]
    fn buckets_cover_min_to_max_without_overlap() {
        let (_db, samples, tpl) = setup();
        let instances = tpl.instantiate(&samples, ValueFn::Buckets(4));
        assert!(instances.len() <= 4 && !instances.is_empty());
        // Bucket lower bounds ascend and instances have 2 extra predicates.
        assert!(instances.windows(2).all(|w| w[0].label < w[1].label));
    }

    #[test]
    fn bucket_instances_partition_counts() {
        // Sum of per-bucket true counts == count of the base query restricted
        // to the sample's [min, max] value range.
        let (db, samples, tpl) = setup();
        let oracle = TrueCardinalityOracle::new(&db);
        let instances = tpl.instantiate(&samples, ValueFn::Buckets(5));
        let count = |q: &Query| oracle.cardinality(q).unwrap();
        let total: u64 = instances.iter().map(|i| count(&i.query)).sum();
        let year_col = db.resolve("title.production_year").unwrap().col;
        let vals = samples[0].distinct_values(year_col);
        let (min, max) = (vals[0], *vals.last().unwrap());
        let whole = tpl.range_instance(min, max);
        assert_eq!(total, count(&whole));
    }

    #[test]
    fn evaluate_produces_series() {
        let (db, samples, tpl) = setup();
        let oracle = TrueCardinalityOracle::new(&db);
        let series = tpl.evaluate(&samples, ValueFn::GroupBy(20), &oracle);
        assert!(!series.is_empty());
        for (_, v) in &series {
            assert!(*v >= 0.0); // oracle reports exact counts, including 0
        }
    }
}
