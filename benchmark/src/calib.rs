//! Host-speed calibration: how fast the host is *while* a window runs.
//!
//! The build host is a small VM on shared cores. Its speed moves in
//! steps — spells of seconds, and epochs of minutes, in which everything
//! runs up to 2× slower — so the same code timed twice, minutes apart,
//! can differ by a third. No statistic of one window removes that: when
//! a whole run sits in a slow epoch, its best iteration is slow too.
//!
//! What does remove most of it is measuring the host in the same
//! window. A fixed kernel owned by the benchmark — small-vector
//! allocate, fill, drop; the mix the product's own code is made of —
//! runs on the driver thread a few times every quarter second, between
//! iterations. Its 10th-percentile time over the window tracks the
//! workloads' across runs (correlation 0.86–0.93 in 48 runs on the
//! build host), and dividing by it cut their run-to-run spread from
//! 18–23 % to 12–14 % for the two noisiest and from 4 % to 2 % for the
//! quietest. The end-to-end timings are therefore reported *at nominal
//! host speed*: measured time × ([`NOMINAL_MS`] ÷ calibration time).
//! No product code runs in the kernel, so no product change can move
//! it; the raw timings are printed beside the scaled ones.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// What one kernel call takes on the build host when nothing else runs
/// there (the fastest 10th percentile seen over 48 windows). Only the
/// scale of the reported timings depends on it, never a comparison.
pub const NOMINAL_MS: f64 = 0.39;

/// Pause between calibration ticks.
const EVERY: Duration = Duration::from_millis(250);
/// Kernel calls per tick, each timed on its own.
const PER_TICK: usize = 4;

/// The calibration kernel: 20 000 small vectors allocated, filled and
/// dropped, a third of them kept alive for a while so the allocator
/// works as it does under real code.
fn kernel() -> usize {
    let mut keep: Vec<Vec<u64>> = Vec::with_capacity(512);
    let mut n = 0;
    for r in 0..20_000usize {
        let v = vec![r as u64; 8 + r % 13];
        n += v.len();
        if r % 3 == 0 {
            keep.push(v);
        }
        if keep.len() == 500 {
            keep.clear();
        }
    }
    n + keep.len()
}

/// Times the kernel at intervals through a window.
pub struct Calibrator {
    ms: Vec<f64>,
    last: Option<Instant>,
    on: bool,
}

impl Calibrator {
    pub fn new() -> Self {
        Calibrator {
            ms: Vec::with_capacity(4096),
            last: None,
            on: true,
        }
    }

    /// A calibrator that never runs the kernel: for the windows of a
    /// traced run, whose timings are not scaled and whose heap counts
    /// must hold the product's allocations only.
    pub fn off() -> Self {
        Calibrator {
            ms: Vec::new(),
            last: None,
            on: false,
        }
    }

    /// Run one tick if a tick is due. Call between iterations.
    pub fn tick(&mut self) {
        if !self.on || self.last.is_some_and(|t| t.elapsed() < EVERY) {
            return;
        }
        for _ in 0..PER_TICK {
            let t0 = Instant::now();
            black_box(kernel());
            if self.ms.len() < self.ms.capacity() {
                self.ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
        self.last = Some(Instant::now());
    }

    /// Tick for `window`, sleeping in between: for a workload whose
    /// load runs on other threads.
    pub fn tick_for(&mut self, window: Duration) {
        let start = Instant::now();
        while let Some(left) = window.checked_sub(start.elapsed()) {
            self.tick();
            std::thread::sleep(left.min(EVERY));
        }
    }

    /// Kernel calls timed so far.
    pub fn calls(&self) -> usize {
        self.ms.len()
    }

    /// Factor that scales a time measured while this calibrator ticked
    /// to nominal host speed: [`NOMINAL_MS`] over the 10th percentile of
    /// its kernel times. Above 1 on a host faster than nominal.
    pub fn to_nominal(&self) -> f64 {
        let mut v = self.ms.clone();
        v.sort_by(f64::total_cmp);
        NOMINAL_MS / crate::stats::percentile_sorted(&v, 0.10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_nominal_over_the_tenth_percentile() {
        let mut c = Calibrator::off();
        c.ms = (1..=20).map(|i| NOMINAL_MS * f64::from(i)).collect();
        // p10 of 20 ascending values is the 2nd: 2 × nominal.
        assert!((c.to_nominal() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_tick_is_skipped_until_one_is_due() {
        let mut c = Calibrator::new();
        c.tick();
        c.tick(); // not due: EVERY has not passed
        assert_eq!(c.calls(), PER_TICK);
        let mut off = Calibrator::off();
        off.tick();
        assert_eq!(off.calls(), 0);
    }
}
