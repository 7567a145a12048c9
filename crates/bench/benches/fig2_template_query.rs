//! **E3 — Figure 1b / Figure 2**: the demo's template-query result pane.
//!
//! The paper's running example — "the popularity of a certain keyword over
//! time" — as a query template with a `?` placeholder on
//! `title.production_year`, instantiated from the sketch's column sample,
//! grouped by decade, and overlaid with the true cardinality and both
//! traditional estimators (the demo's bar/line chart, printed as a table
//! plus an ASCII chart).
//!
//! Run: `cargo bench -p ds-bench --bench fig2_template_query`

use ds_bench::paper::Baselines;
use ds_bench::{banner, bench_imdb, standard_imdb_sketch};
use ds_core::metrics::QErrorSummary;
use ds_core::template::{QueryTemplate, ValueFn};
use ds_est::oracle::TrueCardinalityOracle;

fn main() {
    banner(
        "E3",
        "Figure 1b / Figure 2 (template queries in the demo UI)",
        "keyword-popularity-over-time template: sketch vs estimators vs truth",
    );
    let db = bench_imdb();
    let sketch = standard_imdb_sketch(&db);
    let oracle = TrueCardinalityOracle::new(&db);
    let Baselines { hyper, postgres } = Baselines::build(&db);

    // Choose a frequent keyword from the sketch's own sample (a user would
    // type 'artificial-intelligence'; ids play that role here).
    let mk = db.table_id("movie_keyword").expect("imdb schema");
    let kw_col = db.resolve("movie_keyword.keyword_id").expect("schema").col;
    let keyword = sketch.samples()[mk.0]
        .distinct_values(kw_col)
        .first()
        .copied()
        .expect("non-empty sample");

    let sql = format!(
        "SELECT COUNT(*) FROM title t, movie_keyword mk \
         WHERE mk.movie_id = t.id AND mk.keyword_id = {keyword} \
         AND t.production_year = ?"
    );
    println!("\ntemplate: {sql}");
    let template = QueryTemplate::parse_sql(&db, &sql).expect("template SQL");

    let value_fn = ValueFn::GroupBy(10); // group by decade
    let truth = template.evaluate(sketch.samples(), value_fn, &oracle);
    let ours = template.evaluate(sketch.samples(), value_fn, &sketch);
    let pg = template.evaluate(sketch.samples(), value_fn, &postgres);
    let hy = template.evaluate(sketch.samples(), value_fn, &hyper);

    let max = truth.iter().map(|&(_, v)| v).fold(1.0f64, f64::max);
    println!(
        "\n{:<8} {:>8} {:>8} {:>8} {:>8}   true cardinality",
        "decade", "true", "sketch", "pg", "hyper"
    );
    for i in 0..truth.len() {
        let bar = "█".repeat((truth[i].1 / max * 36.0).round() as usize);
        println!(
            "{:<8} {:>8.0} {:>8.0} {:>8.0} {:>8.0}   {bar}",
            truth[i].0 * 10,
            truth[i].1,
            ours[i].1,
            pg[i].1,
            hy[i].1,
        );
    }

    let qsummary = |series: &[(i64, f64)]| {
        let pairs: Vec<(f64, f64)> = series.iter().zip(&truth).map(|(e, t)| (e.1, t.1)).collect();
        QErrorSummary::from_pairs(&pairs)
    };
    println!("\nq-errors over the template series:");
    println!("{}", QErrorSummary::table_header());
    println!("{}", qsummary(&ours).table_row("Deep Sketch"));
    println!("{}", qsummary(&hy).table_row("HyPer"));
    println!("{}", qsummary(&pg).table_row("PostgreSQL"));

    // A second template with an equality placeholder on a low-cardinality
    // column, evaluated point-per-value (ValueFn::Identity), plus a
    // bucketed variant — covering all three demo value functions.
    println!("\nsecond template: company-type mix for recent movies (Identity + Buckets):");
    let sql2 = "SELECT COUNT(*) FROM title t, movie_companies mc \
                WHERE mc.movie_id = t.id AND t.production_year > 2000 \
                AND mc.company_type_id = ?";
    let template2 = QueryTemplate::parse_sql(&db, sql2).expect("template SQL");
    for (label, series) in [
        (
            "true",
            template2.evaluate(sketch.samples(), ValueFn::Identity, &oracle),
        ),
        (
            "sketch",
            template2.evaluate(sketch.samples(), ValueFn::Identity, &sketch),
        ),
    ] {
        print!("  {label:<7}");
        for (v, c) in &series {
            print!("  type{v}={c:.0}");
        }
        println!();
    }
    let sql3 = "SELECT COUNT(*) FROM title t, cast_info ci \
                WHERE ci.movie_id = t.id AND ci.person_id = ?";
    let template3 = QueryTemplate::parse_sql(&db, sql3).expect("template SQL");
    let buckets_true = template3.evaluate(sketch.samples(), ValueFn::Buckets(8), &oracle);
    let buckets_ours = template3.evaluate(sketch.samples(), ValueFn::Buckets(8), &sketch);
    println!("\n  person-id buckets (8 equal-width buckets over the sample range):");
    println!("  {:>12} {:>10} {:>10}", "bucket-lo", "true", "sketch");
    for (t, o) in buckets_true.iter().zip(&buckets_ours) {
        println!("  {:>12} {:>10.0} {:>10.0}", t.0, t.1, o.1);
    }

    let n_instances = truth.len() + 2 + buckets_true.len();
    println!("\n{n_instances} template instances executed against sketch + 2 estimators + truth");
}
