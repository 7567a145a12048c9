//! **E5 — §2 0-tuple claim**: "One advantage of our approach over pure
//! sampling-based cardinality estimators is that it addresses 0-tuple
//! situations … sampling-based approaches usually fall back to an
//! 'educated' guess — causing large estimation errors. Our approach, in
//! contrast, handles such situations reasonably well."
//!
//! Generates evaluation queries, splits them into 0-tuple and non-0-tuple
//! subsets (w.r.t. the 100-tuple samples both the sketch and the sampling
//! estimator use), and compares q-errors per subset.
//!
//! Run: `cargo bench -p ds-bench --bench e5_zero_tuple`

use ds_bench::paper::{self, Baselines};
use ds_bench::{banner, bench_imdb, standard_imdb_sketch};

fn main() {
    banner(
        "E5",
        "§2 (0-tuple situations)",
        "sampling falls back to an educated guess; the sketch reads static features",
    );
    let db = bench_imdb();
    let sketch = standard_imdb_sketch(&db);
    let row = paper::e5_zero_tuple(&db, &Baselines::build(&db), &sketch).expect("ground truth");
    println!(
        "\n{} 0-tuple queries, {} non-0-tuple queries (100-tuple samples)",
        row.zero_tuple.sketch.count, row.other.sketch.count
    );
    for (name, graded) in [
        ("0-TUPLE situations", &row.zero_tuple),
        ("non-0-tuple queries", &row.other),
    ] {
        println!("\nq-errors on {name} ({} queries):", graded.sketch.count);
        graded.print_table();
    }

    // Shape check: the sampling estimator's degradation from non-0-tuple
    // to 0-tuple should far exceed the sketch's.
    let (hy_ratio, sk_ratio) = row.degradation();
    println!(
        "\nmedian degradation 0-tuple vs rest: sampling {hy_ratio:.1}×, sketch {sk_ratio:.1}× → {}",
        if row.holds() {
            "sketch is more robust in 0-tuple situations, as claimed"
        } else {
            "UNEXPECTED: sampling degraded less than the sketch"
        }
    );
}
