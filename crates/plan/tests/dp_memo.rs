//! The DP asks its estimator for every connected sub-join of one query,
//! and every one of those is made of the query's own set elements. A Deep
//! Sketch embeds each of them once for the whole enumeration.

use ds_core::builder::SketchBuilder;
use ds_plan::dp::Optimizer;
use ds_query::parser::parse_query;
use ds_query::workloads::imdb_predicate_columns;
use ds_storage::gen::{imdb_database, ImdbConfig};

#[test]
fn a_five_table_star_computes_each_of_its_elements_once() {
    let db = imdb_database(&ImdbConfig::tiny(6));
    let sketch = SketchBuilder::new(&db, imdb_predicate_columns(&db))
        .training_queries(150)
        .epochs(2)
        .sample_size(16)
        .hidden_units(16)
        .seed(6)
        .build()
        .expect("build sketch");
    let star = parse_query(
        &db,
        "SELECT COUNT(*) FROM title, movie_keyword, cast_info, movie_info, movie_companies \
         WHERE movie_keyword.movie_id = title.id AND cast_info.movie_id = title.id \
         AND movie_info.movie_id = title.id AND movie_companies.movie_id = title.id \
         AND title.production_year > 1990 AND movie_info.info_type_id = 5 \
         AND movie_companies.company_type_id = 2",
    )
    .expect("parse");
    let distinct = (star.tables.len() + star.joins.len() + star.predicates.len()) as u64;
    assert_eq!(distinct, 5 + 4 + 3);

    // Serving the build's holdout warmed nothing that counts here.
    let sketch = sketch.clone();
    let plan = Optimizer::new(&sketch).optimize(&star);
    assert_eq!(plan.plan.num_joins(), 4);

    // Every connected sub-join holds the hub: the 15 non-empty sets of
    // satellites, of 1 + k tables, k joins and the predicates on them.
    let stats = sketch.memo_stats();
    assert_eq!(stats.misses, distinct, "each element embedded once");
    let asked: u64 = (1u32..16)
        .map(|satellites| {
            let k = u64::from(satellites.count_ones());
            // title's predicate, then movie_info's (bit 2) and
            // movie_companies' (bit 3) when they are in.
            let preds = 1 + u64::from(satellites >> 2 & 1) + u64::from(satellites >> 3 & 1);
            (1 + k) + k + preds
        })
        .sum();
    assert_eq!(stats.hits + stats.misses, asked);
}
