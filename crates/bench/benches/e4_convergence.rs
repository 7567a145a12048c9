//! **E4 — §3 convergence claim**: "From our experience, 25 epochs are
//! usually enough to achieve a reasonable mean q-error on a separate
//! validation set."
//!
//! Trains 8 000 queries for 50 epochs and prints the validation mean
//! q-error per epoch; the claim holds when epoch 25's is at most
//! `ds_bench::paper::E4_MARGIN` (1.5×) times the best epoch's.
//!
//! Run: `cargo bench -p ds-bench --bench e4_convergence`

use ds_bench::paper;
use ds_bench::{banner, bench_imdb};

fn main() {
    banner(
        "E4",
        "§3 claim: 25 epochs usually suffice",
        "validation mean q-error per training epoch (50 epochs)",
    );
    let db = bench_imdb();
    let row = paper::e4_convergence(&db, paper::STANDARD_BUILD_SEED).expect("pipeline");

    let max = row.val_qerror.iter().cloned().fold(f64::MIN, f64::max);
    println!(
        "\n{:>6} {:>14} {:>12}  curve",
        "epoch", "val q-error", "train loss"
    );
    for (i, (val, loss)) in row.val_qerror.iter().zip(&row.train_loss).enumerate() {
        let bar = "▆".repeat(((val / max) * 40.0).round() as usize);
        println!("{:>6} {val:>14.2} {loss:>12.2}  {bar}", i + 1);
    }

    let (floor, at25) = (row.floor(), row.at25());
    println!(
        "\nfloor (best epoch): {floor:.2}; at epoch 25: {at25:.2} ({:.0}% above floor) → {}",
        (at25 / floor - 1.0) * 100.0,
        if row.holds() {
            "25 epochs reach a reasonable q-error, as claimed"
        } else {
            "convergence slower than the paper claims on this setup"
        }
    );
}
