//! The one timing utility the harness's wall-clock binaries share:
//! warmup iterations followed by N timed repetitions, summarized with a
//! **trimmed median** so a single scheduler hiccup cannot move the
//! reported number.
//!
//! `perf_smoke` and `bench_report` build on these functions instead of
//! hand-rolling mean-of-10 loops; `perf_smoke` and `serve_bench` read
//! their repetition counts and windows through [`env_usize`].

use serde::Serialize;
use std::time::Instant;

/// Summary statistics of one timed section, in milliseconds.
///
/// `p50_ms` is the [`trimmed_median`] — the median after discarding the
/// top and bottom quartile of samples — which is the number regression
/// gates compare.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Stats {
    /// Number of samples summarized.
    pub iters: usize,
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// Trimmed median (see [`trimmed_median`]).
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// Fastest sample.
    pub min_ms: f64,
    /// Slowest sample.
    pub max_ms: f64,
}

/// Median of the samples that survive discarding the lowest and highest
/// quartile (⌊n/4⌋ from each end). For fewer than four samples this is
/// the plain median. Panics on an empty slice.
pub fn trimmed_median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "trimmed_median: no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let trim = sorted.len() / 4;
    let kept = &sorted[trim..sorted.len() - trim];
    let mid = kept.len() / 2;
    if kept.len() % 2 == 1 {
        kept[mid]
    } else {
        0.5 * (kept[mid - 1] + kept[mid])
    }
}

/// Summarize raw millisecond samples. Panics on an empty slice.
pub fn stats(samples: &[f64]) -> Stats {
    assert!(!samples.is_empty(), "stats: no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    Stats {
        iters: samples.len(),
        mean_ms: samples.iter().sum::<f64>() / samples.len() as f64,
        p50_ms: trimmed_median(samples),
        p95_ms: sorted[((sorted.len() - 1) as f64 * 0.95).ceil() as usize],
        min_ms: sorted[0],
        max_ms: sorted[sorted.len() - 1],
    }
}

/// How many warmup and timed repetitions a measurement runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repeats {
    /// Untimed warmup iterations (populate pools, plan caches, branch
    /// predictors) before the timed ones.
    pub warmup: usize,
    /// Timed repetitions; at least 1 is always run.
    pub reps: usize,
}

impl Repeats {
    /// Construct explicitly.
    pub fn new(warmup: usize, reps: usize) -> Self {
        Repeats { warmup, reps }
    }
}

/// Parse a `usize` environment variable, falling back to `default` when
/// unset or unparsable.
pub fn env_usize(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Run `body` for `repeats.warmup` untimed iterations, then
/// `repeats.reps` timed ones, returning per-iteration milliseconds
/// (always at least one sample).
pub fn time_wall(repeats: Repeats, mut body: impl FnMut()) -> Vec<f64> {
    for _ in 0..repeats.warmup {
        body();
    }
    (0..repeats.reps.max(1))
        .map(|_| {
            let t = Instant::now();
            body();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trimmed_median_drops_outliers() {
        // One wild outlier out of 8 samples must not move the median.
        let samples = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 50.0];
        let tm = trimmed_median(&samples);
        assert!((0.9..=1.1).contains(&tm), "trimmed median {tm}");
    }

    #[test]
    fn trimmed_median_small_samples_is_plain_median() {
        assert_eq!(trimmed_median(&[3.0]), 3.0);
        assert_eq!(trimmed_median(&[1.0, 3.0]), 2.0);
        assert_eq!(trimmed_median(&[1.0, 2.0, 9.0]), 2.0);
    }

    #[test]
    fn stats_orders_min_p50_max() {
        let s = stats(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.iters, 5);
        assert_eq!(s.min_ms, 1.0);
        assert_eq!(s.max_ms, 5.0);
        assert!(s.min_ms <= s.p50_ms && s.p50_ms <= s.max_ms);
        assert!(s.p50_ms <= s.p95_ms);
        assert_eq!(s.mean_ms, 3.0);
    }

    #[test]
    fn time_wall_runs_warmup_and_reps() {
        let mut calls = 0;
        let samples = time_wall(Repeats::new(2, 3), || calls += 1);
        assert_eq!(samples.len(), 3);
        assert_eq!(calls, 5);
        assert!(samples.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn time_wall_zero_reps_still_samples_once() {
        let samples = time_wall(Repeats::new(0, 0), || {});
        assert_eq!(samples.len(), 1);
    }

    #[test]
    fn env_usize_falls_back_when_unset() {
        assert_eq!(env_usize("GCNN_DEFINITELY_UNSET_VAR", 42), 42);
    }
}
