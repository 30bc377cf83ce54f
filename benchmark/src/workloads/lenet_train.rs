//! `lenet_train`: LeNet-5 SGD steps at batch 32 on 32×32 synthetic
//! digits.
//!
//! The tensors are tiny, so the kernels are cheap and what is left
//! dominates: per-call `input.clone()`, a boxed algorithm object per
//! conv per call, arena checkouts, and the training walker itself. It
//! is the workload on which the zero-heap-allocation and one-walker
//! roadmap items must show, and must not regress.

use super::seq::{ReplayScratch, SeqModel};
use super::{timed_loop, traced_loop, Iter, RunStats, TraceCtx, Workload, WARMUP_ITERS};
use crate::calib::Calibrator;
use crate::spans::Recorder;
use gcnn_conv::Strategy;
use gcnn_models::data::synthetic_digits;
use gcnn_models::{zoo, Network};
use gcnn_tensor::{Tensor4, Workspace};
use std::time::{Duration, Instant};

const SIZE: usize = 32;
const CLASSES: usize = 10;
const BATCH: usize = 32;
const EXAMPLES: usize = 2048;

pub struct LenetTrain {
    seed: u64,
    net: Network,
    batches: Vec<(Tensor4, Vec<usize>)>,
    ws: Workspace,
    /// SGD steps taken so far; batches are visited in this order.
    steps: usize,
}

/// Whether a loss trace stayed finite and fell: the mean over its last
/// quarter is below the mean over its first.
fn loss_fell(losses: &[f32]) -> bool {
    let q = (losses.len() / 4).max(1);
    let mean = |s: &[f32]| s.iter().map(|&l| f64::from(l)).sum::<f64>() / s.len() as f64;
    losses.iter().all(|l| l.is_finite())
        && (losses.len() < 8 || mean(&losses[losses.len() - q..]) < mean(&losses[..q]))
}

impl LenetTrain {
    pub fn setup(seed: u64) -> Self {
        let data = synthetic_digits(EXAMPLES, SIZE, CLASSES, seed);
        let batches = (0..EXAMPLES / BATCH)
            .map(|b| data.batch(b * BATCH, BATCH))
            .collect::<Vec<_>>();
        let mut net = Network::lenet5(SIZE, CLASSES, Strategy::Unrolling, seed);
        let mut ws = Workspace::new();
        // Reference: a fresh ten-class model scores about ln 10.
        let first = net.train_batch_ws(&batches[0].0, &batches[0].1, &mut ws);
        assert!(
            (1.0..4.0).contains(&first),
            "first-step loss {first} is not near ln {CLASSES}"
        );
        for (images, labels) in &batches[1..WARMUP_ITERS] {
            assert!(net.train_batch_ws(images, labels, &mut ws).is_finite());
        }
        LenetTrain {
            seed,
            net,
            batches,
            ws,
            steps: WARMUP_ITERS,
        }
    }
}

impl Workload for LenetTrain {
    fn item(&self) -> &'static str {
        "image trained"
    }

    fn run(&mut self, window: Duration, calib: &mut Calibrator) -> RunStats {
        // The loss can only be expected to fall while the model is new.
        let fresh = self.steps == WARMUP_ITERS;
        let mut losses = Vec::with_capacity(1 << 16);
        let mut stats = timed_loop(window, calib, || {
            let (images, labels) = &self.batches[self.steps % self.batches.len()];
            self.steps += 1;
            let loss = self.net.train_batch_ws(images, labels, &mut self.ws);
            if losses.len() < losses.capacity() {
                losses.push(loss);
            }
            Iter::all(BATCH as u64, loss.is_finite())
        });
        if fresh && !loss_fell(&losses) {
            stats.failed = stats.attempted;
        }
        stats
    }

    fn run_traced(&mut self, window: Duration, ctx: &mut TraceCtx<'_>) -> RunStats {
        let mut model = SeqModel::build(&zoo::lenet5(), BATCH, self.seed);
        *ctx.work = model.train_work();
        // The walker must compute what `Network::train_batch_ws`
        // computes: from the same seed, the same first-step loss.
        let mut fresh = Network::lenet5(SIZE, CLASSES, Strategy::Unrolling, self.seed);
        let (images, labels) = &self.batches[0];
        let want = fresh.train_batch_ws(images, labels, &mut self.ws);
        let lr = fresh.learning_rate;
        // That first step is the walker's warm-up; its spans are dropped.
        let mut unrecorded = Recorder::new(256, Instant::now(), 0);
        let (got, _) = model.train_step(&mut unrecorded, images, labels, &mut self.ws, lr);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "walker loss {got} != Network loss {want}"
        );

        let (batches, ws) = (&self.batches, &mut self.ws);
        let mut scratch = ReplayScratch::default();
        let mut losses = Vec::with_capacity(1 << 16);
        let mut step = 1usize;
        let mut stats = traced_loop(window, ctx.rec, "models.train_step", |it| {
            let (images, labels) = &batches[step % batches.len()];
            step += 1;
            let (loss, kept) = it.walk(|rec| model.train_step(rec, images, labels, ws, lr));
            model.replay(it.rec, &kept, &mut scratch);
            if losses.len() < losses.capacity() {
                losses.push(loss);
            }
            Iter::all(BATCH as u64, loss.is_finite())
        });
        if !loss_fell(&losses) {
            stats.failed = stats.attempted;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::loss_fell;

    #[test]
    fn loss_must_be_finite_and_lower_at_the_end() {
        assert!(loss_fell(&[2.3, 2.0, 1.5, 1.0, 0.8, 0.5, 0.3, 0.2]));
        assert!(!loss_fell(&[0.2, 0.3, 0.5, 0.8, 1.0, 1.5, 2.0, 2.3]));
        assert!(!loss_fell(&[2.3, f32::NAN, 1.0, 0.5, 0.4, 0.3, 0.2, 0.1]));
        assert!(loss_fell(&[2.3, 2.4])); // too short to judge a trend
    }
}
