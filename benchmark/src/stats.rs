//! Sample statistics: nearest-rank percentiles, the tail-percentile
//! rule, and the quartile spread the A/A check reports.

/// Percentiles the tail rule may report, ascending, in hundredths of a
/// percent — integers, because `100 · (1 − 0.9)` is not 10 in `f64`.
const LADDER: [u64; 6] = [7500, 9000, 9500, 9900, 9990, 9999];

/// Nearest-rank percentile of an ascending-sorted slice (`q` in 0..=1).
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    // The epsilon keeps `0.9 · 100 = 90.00000000000001` at rank 90.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest ladder percentile that still has at least ten samples
/// beyond it, or `None` when even p75 does not (fewer than 40 samples).
pub fn tail_quantile(samples: usize) -> Option<f64> {
    LADDER
        .iter()
        .rfind(|&&q| samples as u64 * (10_000 - q) / 10_000 >= 10)
        .map(|&q| q as f64 / 10_000.0)
}

/// Median, tail percentile and count of a set of timings.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    /// `(quantile, value)` chosen by [`tail_quantile`].
    pub tail: Option<(f64, f64)>,
}

/// Sort `samples` in place and summarise them.
pub fn summarize(samples: &mut [f64]) -> Summary {
    samples.sort_by(f64::total_cmp);
    Summary {
        count: samples.len(),
        p50: percentile_sorted(samples, 0.5),
        tail: tail_quantile(samples.len()).map(|q| (q, percentile_sorted(samples, q))),
    }
}

/// Median of a small set (sorts a copy; averages the middle pair).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// First and third quartile by the exclusive method — the one Python's
/// `statistics.quantiles(values, n=4)` uses, so the spread printed here
/// is the spread the contract defines.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // position i·(n+1)/4, 1-based, linearly interpolated and clamped
        let pos = i as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(30), None); // p75 leaves 7
        assert_eq!(tail_quantile(40), Some(0.75)); // exactly 10 beyond
        assert_eq!(tail_quantile(99), Some(0.75)); // p90 leaves 9
        assert_eq!(tail_quantile(100), Some(0.90));
        assert_eq!(tail_quantile(999), Some(0.95));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(1_000_000), Some(0.9999));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 0.5), 50.0);
        assert_eq!(percentile_sorted(&s, 0.99), 99.0);
        assert_eq!(percentile_sorted(&s, 1.0), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 0.5), 7.0);
        for (q, want) in [(0.1, 10.0), (0.9, 90.0), (0.95, 95.0), (0.0, 1.0)] {
            assert_eq!(percentile_sorted(&s, q), want);
        }
    }

    #[test]
    fn summary_reports_count_median_and_tail() {
        let mut s: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let sum = summarize(&mut s);
        assert_eq!(sum.count, 200);
        assert_eq!(sum.p50, 100.0);
        assert_eq!(sum.tail, Some((0.95, 190.0)));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let (q1, q3) = quartiles(&[3.0, 1.0]);
        assert!((q1 - 0.5).abs() < 1e-12 && (q3 - 3.5).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
