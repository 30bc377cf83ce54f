//! The six workloads and what they share: the timed loop, the sample
//! buffer, and the per-iteration work counts the layer rates divide by.

use crate::calib::Calibrator;
use crate::metrics::Metrics;
use crate::spans::Recorder;
use std::time::{Duration, Instant};

mod alexnet;
mod fft_train;
mod lenet_serve;
mod lenet_train;
mod paper_sim;
pub mod seq;

/// Untimed iterations at the end of every set-up.
pub const WARMUP_ITERS: usize = 3;

/// Most timing samples one run keeps. The buffer is allocated and
/// touched at full size before the window opens, so peak memory does
/// not grow with throughput; iterations beyond it are still counted.
const MAX_SAMPLES: usize = 1 << 20;

/// What one measured window produced.
#[derive(Debug, Default)]
pub struct RunStats {
    /// Wall time of each iteration (for serving: each request), one
    /// buffer per measuring thread. Left unmerged so that nothing whose
    /// size depends on throughput is allocated before peak memory is read.
    pub samples: Vec<Samples>,
    /// For serving only: the window cut into fixed slices of time. A
    /// loop workload's slices are its iterations (see [`RunStats::as_slices`]).
    pub slices: Vec<Slice>,
    /// Iterations completed.
    pub iterations: u64,
    /// Items attempted (images, passes, requests, plans).
    pub attempted: u64,
    /// Items whose output was wrong, non-finite, shed or refused.
    pub failed: u64,
    pub elapsed_s: f64,
}

/// One slice of a window: how long an iteration took in it (for
/// serving: the median request latency) and how fast items completed.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub ms: f64,
    pub items_per_s: f64,
}

/// Outcome of one iteration of a loop workload.
pub struct Iter {
    pub attempted: u64,
    pub failed: u64,
}

impl Iter {
    /// An iteration whose `items` pass or fail together.
    pub fn all(items: u64, ok: bool) -> Self {
        Iter {
            attempted: items,
            failed: if ok { 0 } else { items },
        }
    }
}

/// A preallocated buffer of nanosecond timings.
#[derive(Debug)]
pub struct Samples(Vec<u32>);

impl Samples {
    /// A buffer of [`MAX_SAMPLES`] timings.
    pub fn new() -> Self {
        Samples::with_capacity(MAX_SAMPLES)
    }

    pub fn with_capacity(capacity: usize) -> Self {
        let mut buf = vec![1u32; capacity]; // written, so resident
        buf.clear();
        Samples(buf)
    }

    pub fn push(&mut self, d: Duration) {
        if self.0.len() < self.0.capacity() {
            self.0.push(d.as_nanos().min(u128::from(u32::MAX)) as u32);
        }
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Timings `range`, in milliseconds.
    pub fn ms(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = f64> + '_ {
        self.0[range].iter().map(|&ns| f64::from(ns) / 1e6)
    }
}

impl RunStats {
    /// Every thread's samples, in milliseconds.
    pub fn samples_ms(&self) -> Vec<f64> {
        self.samples.iter().flat_map(|s| s.ms(0..s.len())).collect()
    }

    /// The window as slices: the serving slices, or one slice per
    /// iteration of a loop workload (whose items per iteration are
    /// constant).
    pub fn as_slices(&self) -> Vec<Slice> {
        if !self.slices.is_empty() {
            return self.slices.clone();
        }
        let per_iter = self.attempted as f64 / self.iterations.max(1) as f64;
        let to_slice = |ms: f64| Slice {
            ms,
            items_per_s: per_iter / (ms / 1e3),
        };
        self.samples_ms().into_iter().map(to_slice).collect()
    }
}

/// Call `body` until `window` has passed (at least once), timing each
/// call, with the host-speed calibration ticking in between.
pub fn timed_loop(
    window: Duration,
    calib: &mut Calibrator,
    mut body: impl FnMut() -> Iter,
) -> RunStats {
    let mut samples = Samples::new();
    let mut stats = RunStats::default();
    let start = Instant::now();
    loop {
        calib.tick();
        let t0 = Instant::now();
        let it = body();
        samples.push(t0.elapsed());
        stats.iterations += 1;
        stats.attempted += it.attempted;
        stats.failed += it.failed;
        if start.elapsed() >= window {
            break;
        }
    }
    stats.elapsed_s = start.elapsed().as_secs_f64();
    stats.samples = vec![samples];
    stats
}

/// One iteration of a traced window, as its body sees it.
pub struct TracedIter<'a> {
    pub rec: &'a mut Recorder,
    span: &'static str,
    samples: &'a mut Samples,
}

impl TracedIter<'_> {
    /// Run the walker inside the iteration's span, timed. What the body
    /// records on `rec` afterwards — the replay — is outside both.
    pub fn walk<R>(&mut self, walker: impl FnOnce(&mut Recorder) -> R) -> R {
        let t0 = Instant::now();
        let out = self.rec.scope(self.span, walker);
        self.samples.push(t0.elapsed());
        out
    }
}

/// The traced counterpart of [`timed_loop`]: `body` runs once per
/// iteration and calls [`TracedIter::walk`] for the part that counts as
/// the iteration, under a span named `span`.
pub fn traced_loop(
    window: Duration,
    rec: &mut Recorder,
    span: &'static str,
    mut body: impl FnMut(&mut TracedIter<'_>) -> Iter,
) -> RunStats {
    let mut samples = Samples::new();
    let mut stats = RunStats::default();
    let start = Instant::now();
    loop {
        rec.set_iter(stats.iterations as u32);
        let it = body(&mut TracedIter {
            rec,
            span,
            samples: &mut samples,
        });
        stats.iterations += 1;
        stats.attempted += it.attempted;
        stats.failed += it.failed;
        if start.elapsed() >= window {
            break;
        }
    }
    stats.elapsed_s = start.elapsed().as_secs_f64();
    stats.samples = vec![samples];
    stats
}

/// Work one iteration does in each layer, for turning span times into
/// rates. Zero where the workload does not touch the layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Work {
    /// Computed bytes moved by the replayed im2col calls.
    pub im2col_bytes: u64,
    pub sgemm_flops: u64,
    pub cgemm_flops: u64,
    /// Planes transformed, forward plus inverse.
    pub fft_planes: u64,
    /// Direct-convolution FLOPs of the unrolled conv layers (forward).
    pub unroll_flops: u64,
    /// Direct-convolution FLOPs of the blocked conv layers.
    pub nchwc_flops: u64,
    /// Direct-equivalent FLOPs of the FFT conv passes.
    pub fft_direct_flops: u64,
    /// Computed bytes moved by the fully-connected layers.
    pub fc_bytes: u64,
}

/// Everything a traced window writes into.
pub struct TraceCtx<'a> {
    pub rec: &'a mut Recorder,
    /// Recorders of other threads (serving clients), for the trace file.
    pub side: &'a mut Vec<Recorder>,
    /// Layer metrics only the workload can compute.
    pub metrics: &'a mut Metrics,
    pub work: &'a mut Work,
}

pub trait Workload {
    /// What one item is, for the printed report.
    fn item(&self) -> &'static str;

    /// Drive the product's own entry point, untraced, for `window`,
    /// ticking `calib` on the driver thread between iterations.
    fn run(&mut self, window: Duration, calib: &mut Calibrator) -> RunStats;

    /// Drive the benchmark's layer-by-layer walker over the product's
    /// public functions for `window`, recording spans; samples are the
    /// walker's iteration times, replays excluded.
    fn run_traced(&mut self, window: Duration, ctx: &mut TraceCtx<'_>) -> RunStats;
}

/// Set up workload `name` from `seed`: build inputs, check the output
/// against the workload's reference, run [`WARMUP_ITERS`] iterations.
pub fn make(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "alexnet_infer_unroll" => Box::new(alexnet::AlexnetInfer::setup(seed, false)),
        "alexnet_infer_nchwc" => Box::new(alexnet::AlexnetInfer::setup(seed, true)),
        "table1_train_fft" => Box::new(fft_train::FftTrain::setup(seed)),
        "lenet_train" => Box::new(lenet_train::LenetTrain::setup(seed)),
        "lenet_serve" => Box::new(lenet_serve::LenetServe::setup(seed)),
        "paper_sim" => Box::new(paper_sim::PaperSim::setup(seed)),
        _ => return None,
    })
}

/// Bit pattern of a tensor's contents folded to one word: equal inputs
/// through a deterministic path must reproduce it exactly.
pub fn checksum(values: &[f32]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
