//! A router over table-subset sketches — the natural
//! companion of the [`crate::advisor`]: build one sketch per recommended
//! table subset, then route each incoming query to the smallest sketch
//! that covers it.
//!
//! Together, advisor + router close the loop the paper leaves open in §4:
//! instead of one monolithic sketch over the whole schema, the database
//! keeps several focused sketches, each cheaper to train and more accurate
//! on its slice of the workload.

use ds_est::{CardinalityEstimator, EstimateError};
use ds_query::query::Query;
use ds_storage::catalog::{Database, TableId};

use crate::advisor::Advice;
use crate::builder::{BuildError, SketchBuilder};
use crate::sketch::DeepSketch;

/// A routed collection of table-subset sketches.
#[derive(Debug)]
pub struct SketchRouter {
    /// (sorted table subset, sketch), ordered by subset size ascending so
    /// that routing finds the smallest covering sketch first.
    members: Vec<(Vec<TableId>, DeepSketch)>,
    name: String,
}

/// Routing outcome for a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Covered by the member at this index.
    Member(usize),
    /// No member covers the query's table set.
    Uncovered,
}

impl SketchRouter {
    /// Assembles a router from pre-built sketches and their table subsets.
    ///
    /// # Panics
    /// Panics if `members` is empty or a subset is empty.
    pub fn new(members: Vec<(Vec<TableId>, DeepSketch)>) -> Self {
        assert!(!members.is_empty(), "router needs at least one sketch");
        let mut members: Vec<(Vec<TableId>, DeepSketch)> = members
            .into_iter()
            .map(|(mut tables, sketch)| {
                assert!(!tables.is_empty(), "empty table subset");
                tables.sort_unstable();
                (tables, sketch)
            })
            .collect();
        members.sort_by_key(|(t, _)| t.len());
        Self {
            members,
            name: "Sketch Router".to_string(),
        }
    }

    /// Trains one sketch per advisor recommendation. `configure` customizes
    /// the shared training parameters (queries, epochs, sample size, …).
    pub fn build_from_advice(
        db: &Database,
        advice: &Advice,
        predicate_columns: Vec<ds_storage::catalog::ColRef>,
        configure: impl Fn(SketchBuilder<'_>) -> SketchBuilder<'_>,
    ) -> Result<Self, BuildError> {
        assert!(
            !advice.recommendations.is_empty(),
            "advice contains no recommendations"
        );
        let mut members = Vec::with_capacity(advice.recommendations.len());
        for (i, rec) in advice.recommendations.iter().enumerate() {
            let builder = SketchBuilder::new(db, predicate_columns.clone())
                .tables(rec.tables.clone())
                .seed(0xF1EE7 ^ i as u64);
            let sketch = configure(builder).build()?;
            members.push((rec.tables.clone(), sketch));
        }
        Ok(Self::new(members))
    }

    /// Number of member sketches.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the router has no members (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member table subsets, smallest first.
    pub fn subsets(&self) -> impl Iterator<Item = &[TableId]> {
        self.members.iter().map(|(t, _)| t.as_slice())
    }

    /// Routes a query to the smallest covering member.
    pub fn route(&self, query: &Query) -> Route {
        for (i, (tables, _)) in self.members.iter().enumerate() {
            if query.tables.iter().all(|t| tables.contains(t)) {
                return Route::Member(i);
            }
        }
        Route::Uncovered
    }

    /// Total serialized footprint of all members.
    pub fn footprint_bytes(&self) -> usize {
        self.members.iter().map(|(_, s)| s.footprint_bytes()).sum()
    }
}

impl CardinalityEstimator for SketchRouter {
    fn name(&self) -> &str {
        &self.name
    }

    /// Routes every query, then answers each member's share with one batched
    /// call of that member; a batch one member covers whole (a single query
    /// always is) goes to it uncopied. A query no member covers is
    /// [`EstimateError::Unroutable`], and one its member cannot validate gets
    /// the member's error. Results are bit-identical to asking the routed
    /// member alone, because each member's batch path is.
    fn estimate_into(&self, queries: &[Query], out: &mut [Result<f64, EstimateError>]) {
        let shared = |a: Route, b: Route| if a == b { a } else { Route::Uncovered };
        if let Some(Route::Member(i)) = queries.iter().map(|q| self.route(q)).reduce(shared) {
            return self.members[i].1.estimate_into(queries, out);
        }
        // Per-member gather: query indices grouped by routed member.
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.members.len()];
        for ((qi, q), slot) in queries.iter().enumerate().zip(out.iter_mut()) {
            match self.route(q) {
                Route::Member(i) => groups[i].push(qi),
                Route::Uncovered => {
                    *slot = Err(EstimateError::Unroutable {
                        tables: q.tables.iter().map(|t| t.0).collect(),
                    })
                }
            }
        }
        let (mut grouped, mut answers) = (Vec::new(), Vec::new());
        for ((_, member), idxs) in self.members.iter().zip(&groups) {
            grouped.clear();
            grouped.extend(idxs.iter().map(|&qi| queries[qi].clone()));
            answers.resize(idxs.len(), Ok(0.0));
            member.estimate_into(&grouped, &mut answers);
            for (&qi, result) in idxs.iter().zip(answers.drain(..)) {
                out[qi] = result;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::{recommend, AdvisorConfig};
    use crate::metrics::qerror;
    use ds_est::oracle::TrueCardinalityOracle;
    use ds_query::workloads::imdb_predicate_columns;
    use ds_query::workloads::job_light::job_light_workload;
    use ds_storage::gen::{imdb_database, ImdbConfig};

    fn db() -> Database {
        imdb_database(&ImdbConfig::tiny(8))
    }

    fn quick(b: SketchBuilder<'_>) -> SketchBuilder<'_> {
        b.training_queries(250)
            .epochs(4)
            .sample_size(16)
            .hidden_units(16)
    }

    #[test]
    fn builds_from_advice_and_routes() {
        let db = db();
        let wl = job_light_workload(&db, 1);
        let advice = recommend(
            &db,
            &wl,
            &AdvisorConfig {
                max_tables_per_sketch: 5,
                max_sketches: 2,
                sample_size: 16,
                hidden_units: 16,
            },
        );
        let router =
            SketchRouter::build_from_advice(&db, &advice, imdb_predicate_columns(&db), quick)
                .expect("router");
        assert_eq!(router.len(), advice.recommendations.len());

        let mut covered = 0;
        for q in &wl {
            match router.route(q) {
                Route::Member(i) => {
                    assert!(i < router.len());
                    assert!(router.try_estimate(q).unwrap() >= 1.0);
                    covered += 1;
                }
                Route::Uncovered => assert!(matches!(
                    router.try_estimate(q),
                    Err(EstimateError::Unroutable { .. })
                )),
            }
        }
        let expected = (advice.coverage * wl.len() as f64).round() as usize;
        assert_eq!(covered, expected);
        assert!(router.footprint_bytes() > 0);
    }

    #[test]
    fn batched_estimates_match_looped_routing() {
        let db = db();
        let wl = job_light_workload(&db, 2);
        let advice = recommend(
            &db,
            &wl,
            &AdvisorConfig {
                max_tables_per_sketch: 3,
                max_sketches: 2,
                sample_size: 16,
                hidden_units: 16,
            },
        );
        let router =
            SketchRouter::build_from_advice(&db, &advice, imdb_predicate_columns(&db), quick)
                .expect("router");
        // The per-member grouped batch path must return exactly what the
        // looped single-query path does, covered and uncovered alike.
        let looped: Vec<f64> = wl.iter().map(|q| router.estimate(q)).collect();
        assert_eq!(router.estimate_batch(&wl), looped);
    }

    #[test]
    fn routing_prefers_the_smallest_covering_member() {
        let db = db();
        let title = db.table_id("title").unwrap();
        let mk = db.table_id("movie_keyword").unwrap();
        let ci = db.table_id("cast_info").unwrap();
        let cols = imdb_predicate_columns(&db);
        let small = quick(SketchBuilder::new(&db, cols.clone()).tables(vec![title, mk]))
            .seed(1)
            .build()
            .unwrap();
        let big = quick(SketchBuilder::new(&db, cols.clone()).tables(vec![title, mk, ci]))
            .seed(2)
            .build()
            .unwrap();
        let router = SketchRouter::new(vec![(vec![title, mk, ci], big), (vec![title, mk], small)]);
        let mut q = Query::new();
        q.add_table(&db, "title").unwrap();
        q.add_table(&db, "movie_keyword").unwrap();
        // Smallest covering member (2 tables) wins.
        assert_eq!(router.route(&q), Route::Member(0));
        assert_eq!(router.subsets().next().unwrap().len(), 2);
    }

    #[test]
    fn restricted_sketches_are_still_sane_estimators() {
        let db = db();
        let title = db.table_id("title").unwrap();
        let mk = db.table_id("movie_keyword").unwrap();
        let sketch =
            quick(SketchBuilder::new(&db, imdb_predicate_columns(&db)).tables(vec![title, mk]))
                .training_queries(400)
                .epochs(8)
                .seed(3)
                .build()
                .unwrap();
        let oracle = TrueCardinalityOracle::new(&db);
        let wl: Vec<Query> = job_light_workload(&db, 5)
            .into_iter()
            .filter(|q| q.tables.iter().all(|t| *t == title || *t == mk))
            .collect();
        assert!(!wl.is_empty());
        let qs: Vec<f64> = wl
            .iter()
            .map(|q| (sketch.estimate_one(q), oracle.cardinality(q).unwrap()))
            .map(|(estimate, truth)| qerror(estimate, truth as f64))
            .collect();
        let median = crate::metrics::QErrorSummary::from_qerrors(&qs).median;
        assert!(median < 30.0, "median {median}");
    }

    #[test]
    #[should_panic(expected = "at least one sketch")]
    fn empty_router_rejected() {
        SketchRouter::new(vec![]);
    }
}
