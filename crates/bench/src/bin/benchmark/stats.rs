//! The benchmark's arithmetic: exact percentiles with their sample
//! counts, medians and quartiles over rounds and runs, and span self time.

/// A percentile read exactly off sorted samples, with the evidence a
/// reader needs to judge it: how many samples there were and how many lie
/// strictly beyond the reported value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// Nearest-rank percentile of ascending `sorted` (`p` in `0..=1`): the
/// smallest sample with at least `p` of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> Percentile {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let value = sorted[rank - 1];
    Percentile {
        value,
        samples: sorted.len(),
        beyond: sorted.len() - sorted.partition_point(|&v| v <= value),
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median, with the mean of the two middle samples for even counts.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method), so `--repeat` reports the spread the way the driver does.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let v = sorted(values);
    let n = v.len();
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    })
}

/// Distance between the first and third quartile as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// How much worse `second` is than `first`, as a share of `first`;
/// negative when it is better.
pub fn worsening(first: f64, second: f64, lower_is_better: bool) -> f64 {
    let delta = if lower_is_better {
        second - first
    } else {
        first - second
    };
    delta / first
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Children may overlap one another and may stick out
/// of the parent; both are counted once and clipped.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_and_counts_what_lies_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&v, 0.99);
        assert_eq!((p99.value, p99.samples, p99.beyond), (990.0, 1000, 10));
        assert_eq!(percentile(&v, 0.5).value, 500.0);
        assert_eq!(percentile(&v, 1.0).beyond, 0);
        assert_eq!(percentile(&v, 0.0).value, 1.0);
        // Ties at the reported value are not "beyond" it.
        let ties = [1.0, 2.0, 2.0, 2.0, 3.0];
        assert_eq!(percentile(&ties, 0.5).beyond, 1);
    }

    #[test]
    fn median_of_rounds_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, false) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 30), (50, 60)]), 70);
        // Overlap: 10..40 and 30..60 cover 50, not 60.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60)]), 50);
        // Nested child adds nothing; a child sticking out is clipped.
        assert_eq!(self_time((0, 100), &[(10, 40), (20, 30), (90, 150)]), 60);
        assert_eq!(self_time((10, 20), &[(0, 100)]), 0);
    }
}
