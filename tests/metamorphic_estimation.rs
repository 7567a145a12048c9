//! Metamorphic tests: relations that must hold between *related* queries,
//! checked against the exact executor (and, where estimators guarantee
//! them, against the estimators too).

use deep_sketches::prelude::*;
use deep_sketches::storage::predicate::CmpOp;

fn db() -> Database {
    imdb_database(&ImdbConfig::tiny(21))
}

#[test]
fn adding_a_predicate_never_increases_true_cardinality() {
    let db = db();
    let oracle = TrueCardinalityOracle::new(&db);
    for q in job_light_workload(&db, 2) {
        let base = oracle.cardinality(&q).unwrap();
        let mut stricter = q.clone();
        stricter
            .add_predicate(&db, "title.production_year", CmpOp::Gt, 1990)
            .unwrap();
        let filtered = oracle.cardinality(&stricter).unwrap();
        assert!(
            filtered <= base,
            "predicate increased count: {base} → {filtered}"
        );
    }
}

#[test]
fn widening_a_range_never_decreases_true_cardinality() {
    let db = db();
    let oracle = TrueCardinalityOracle::new(&db);
    let mk = |year: i64| {
        parse_query(
            &db,
            &format!(
                "SELECT COUNT(*) FROM title, movie_keyword \
                 WHERE movie_keyword.movie_id = title.id \
                 AND title.production_year > {year}"
            ),
        )
        .unwrap()
    };
    // Lowering the threshold widens the range, so counts must not shrink.
    let mut last = 0;
    for year in [2015, 2010, 2000, 1980, 1950, 1900] {
        let c = oracle.cardinality(&mk(year)).unwrap();
        assert!(c >= last, "widening range decreased count at {year}");
        last = c;
    }
}

#[test]
fn postgres_is_monotone_in_range_predicates() {
    // PG's histogram-based range selectivity is monotone by construction;
    // verify end-to-end through the estimator.
    let db = db();
    let pg = PostgresEstimator::build(&db);
    // Lowering the threshold widens the range: estimates must not shrink.
    let mut last = 0.0;
    for year in [2015, 2005, 1995, 1985, 1950] {
        let q = parse_query(
            &db,
            &format!("SELECT COUNT(*) FROM title WHERE title.production_year > {year}"),
        )
        .unwrap();
        let e = pg.estimate(&q);
        assert!(e >= last - 1e-9, "PG estimate not monotone at {year}");
        last = e;
    }
}

#[test]
fn join_with_unfiltered_satellite_dominates_filtered_one() {
    let db = db();
    let oracle = TrueCardinalityOracle::new(&db);
    let all = parse_query(
        &db,
        "SELECT COUNT(*) FROM title, cast_info WHERE cast_info.movie_id = title.id",
    )
    .unwrap();
    let filtered = parse_query(
        &db,
        "SELECT COUNT(*) FROM title, cast_info WHERE cast_info.movie_id = title.id \
         AND cast_info.role_id = 1",
    )
    .unwrap();
    assert!(oracle.cardinality(&filtered).unwrap() <= oracle.cardinality(&all).unwrap());
}

#[test]
fn between_equals_the_explicit_range_pair() {
    let db = db();
    let oracle = TrueCardinalityOracle::new(&db);
    let between = parse_query(
        &db,
        "SELECT COUNT(*) FROM title WHERE title.production_year BETWEEN 1990 AND 2005",
    )
    .unwrap();
    let pair = parse_query(
        &db,
        "SELECT COUNT(*) FROM title WHERE title.production_year > 1989 \
         AND title.production_year < 2006",
    )
    .unwrap();
    assert_eq!(
        oracle.cardinality(&between).unwrap(),
        oracle.cardinality(&pair).unwrap()
    );
}

#[test]
fn sketch_estimates_are_plan_order_invariant() {
    let db = db();
    let sketch = SketchBuilder::new(&db, imdb_predicate_columns(&db))
        .training_queries(150)
        .epochs(2)
        .sample_size(8)
        .hidden_units(8)
        .seed(5)
        .build()
        .expect("sketch");
    for q in job_light_workload(&db, 6).into_iter().take(20) {
        let mut permuted = q.clone();
        permuted.tables.reverse();
        permuted.joins.reverse();
        permuted.predicates.reverse();
        let a = sketch.estimate(&q);
        let b = sketch.estimate(&permuted);
        assert!(
            (a - b).abs() < 1e-6 * a.max(1.0),
            "order changed the estimate: {a} vs {b}"
        );
    }
}
