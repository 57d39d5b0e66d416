//! Order statistics and interval arithmetic behind the benchmark's metrics.

/// Median of `values` (the mean of the two middle values for an even
/// count); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile, by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)` — the computation the
/// benchmark's acceptance check applies to run-to-run spreads, so the
/// sizing figures match it digit for digit. NaN when empty.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (data[0], data[0], data[0]),
        _ => {}
    }
    let m = n as i64 + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        // Negative for tiny samples, where Python extrapolates too.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Geometric mean of positive `values`; NaN when empty.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Distance between the quartiles as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    (q3 - q1) / med
}

/// The highest percentile that leaves at least ten samples beyond it:
/// `100·(1 − 10/n)`, so 1000 samples give p99 and 100 give p90. Below
/// eleven samples there is no tail.
pub fn tail_percentile(n: usize) -> Option<f64> {
    (n >= 11).then(|| 100.0 * (1.0 - 10.0 / n as f64))
}

/// Nearest-rank percentile `p` (0–100] of `values`; NaN when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    if data.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * data.len() as f64).ceil() as usize;
    data[rank.clamp(1, data.len()) - 1]
}

/// Self time of the interval `span`: its length minus the part of it that
/// the `children` cover. Children may nest in one another, overlap, or run
/// past the parent; every covered instant is subtracted once.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
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
    end.saturating_sub(start) - covered
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

impl Better {
    /// Parses the `better` field of a `BENCHMARK.json` metric.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// Whether `new` is worse than `base` by more than `bound`, a share of
/// `base` — the rule a later change's median is held to.
pub fn regressed(better: Better, bound: f64, base: f64, new: f64) -> bool {
    match better {
        Better::Lower => new > base * (1.0 + bound),
        Better::Higher => new < base * (1.0 - bound),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn geometric_mean_of_ratios() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[5.0]) - 5.0).abs() < 1e-12);
        assert!(geometric_mean(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // Two points extrapolate: quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 2.0, 3.5));
        assert_eq!(quartiles(&[2.0, 3.0, 1.0]), (1.0, 2.0, 3.0));
        assert!((iqr_share(&ten) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(0), None);
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = tail_percentile(samples.len()).unwrap();
        let cut = percentile(&samples, p);
        assert_eq!(cut, 990.0);
        assert_eq!(samples.iter().filter(|&&v| v > cut).count(), 10);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 40.0), 20.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        assert_eq!(percentile(&v, 1.0), 15.0);
    }

    #[test]
    fn self_time_subtracts_nested_and_overlapping_children_once() {
        assert_eq!(self_time((0, 100), &[]), 100);
        // Disjoint children.
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 60)]), 80);
        // A child nested inside another covers nothing new.
        assert_eq!(self_time((0, 100), &[(10, 50), (20, 30)]), 60);
        // Overlapping children count their union.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 70)]), 40);
        // A child running past the parent is clipped to it.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 30)]), 3);
        // Full cover leaves nothing.
        assert_eq!(self_time((0, 10), &[(0, 10), (2, 3)]), 0);
    }

    #[test]
    fn bound_check_by_direction() {
        assert!(!regressed(Better::Lower, 0.1, 100.0, 110.0));
        assert!(regressed(Better::Lower, 0.1, 100.0, 110.5));
        assert!(!regressed(Better::Lower, 0.1, 100.0, 50.0));
        assert!(!regressed(Better::Higher, 0.1, 100.0, 90.0));
        assert!(regressed(Better::Higher, 0.1, 100.0, 89.5));
        assert!(!regressed(Better::Higher, 0.1, 100.0, 200.0));
        assert_eq!(Better::parse("lower"), Some(Better::Lower));
        assert_eq!(Better::parse("sideways"), None);
    }
}
