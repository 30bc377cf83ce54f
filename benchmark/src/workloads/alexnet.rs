//! `alexnet_infer_unroll` and `alexnet_infer_nchwc`: whole-model AlexNet
//! inference on the CPU kernels, the same weights and inputs through
//! two conv paths.
//!
//! Planar/unrolled: every conv is im2col + SGEMM, so `tensor.im2col`
//! and `gemm.sgemm` do almost all the work. Blocked: every conv runs
//! the fused NCHWc path, ReLU and pooling fuse away, and SGEMM is left
//! only in the three FC layers. An SGEMM gain should move the first and
//! barely move the second; a `conv_nchwc_tap` gain the reverse.

use super::seq::{build_network, ReplayScratch, SeqModel};
use super::{checksum, timed_loop, traced_loop, Iter, RunStats, TraceCtx, Workload, WARMUP_ITERS};
use crate::calib::Calibrator;
use gcnn_conv::Strategy;
use gcnn_models::{zoo, Network};
use gcnn_tensor::init::uniform_tensor;
use gcnn_tensor::{Layout, Shape4, Tensor4, Workspace};
use std::time::Duration;

/// Images per forward pass. Four 3×227×227 images keep one iteration
/// near 0.3 s on the 2-vCPU host, so a window holds tens of samples.
const BATCH: usize = 4;

/// Relative L2 distance allowed between the two conv paths' logits.
const CROSS_PATH_TOL: f32 = 1e-3;

pub struct AlexnetInfer {
    seed: u64,
    blocked: bool,
    net: Network,
    input: Tensor4,
    ws: Workspace,
    /// Checksum of the logits the set-up iterations produced.
    expect: u64,
}

/// Route every conv of `net` through the blocked or the planar path.
fn set_layout(net: &mut Network, blocked: bool) {
    let layout = if blocked {
        gcnn_tensor::nchwc::preferred_layout()
    } else {
        Layout::Nchw
    };
    for (index, _) in net.conv_layouts() {
        net.set_conv_layout(index, layout);
    }
}

impl AlexnetInfer {
    pub fn setup(seed: u64, blocked: bool) -> Self {
        let model = zoo::alexnet();
        let shape = Shape4::new(
            BATCH,
            model.input_channels,
            model.input_size,
            model.input_size,
        );
        let input = uniform_tensor(shape, -1.0, 1.0, seed ^ 0x1a9e);
        let mut net = build_network(&model, BATCH, Strategy::Unrolling, seed);
        set_layout(&mut net, blocked);
        let mut ws = Workspace::new();
        let logits = net.infer_ws(&input, &mut ws);
        assert_eq!(logits.shape(), Shape4::new(BATCH, 1000, 1, 1));
        assert!(
            logits.as_slice().iter().all(|v| v.is_finite()),
            "non-finite logits"
        );

        // Reference: the same weights and inputs through the other conv
        // path must give the same logits.
        set_layout(&mut net, !blocked);
        let reference = net.infer_ws(&input, &mut ws);
        set_layout(&mut net, blocked);
        let dist = logits.rel_l2_dist(&reference).expect("same logits shape");
        assert!(
            dist < CROSS_PATH_TOL,
            "unrolled and blocked AlexNet logits differ by {dist} (relative L2)"
        );

        let expect = checksum(logits.as_slice());
        for _ in 0..WARMUP_ITERS {
            assert_eq!(checksum(net.infer_ws(&input, &mut ws).as_slice()), expect);
        }
        AlexnetInfer {
            seed,
            blocked,
            net,
            input,
            ws,
            expect,
        }
    }
}

impl Workload for AlexnetInfer {
    fn item(&self) -> &'static str {
        "image"
    }

    fn run(&mut self, window: Duration, calib: &mut Calibrator) -> RunStats {
        timed_loop(window, calib, || {
            let logits = self.net.infer_ws(&self.input, &mut self.ws);
            Iter::all(BATCH as u64, checksum(logits.as_slice()) == self.expect)
        })
    }

    fn run_traced(&mut self, window: Duration, ctx: &mut TraceCtx<'_>) -> RunStats {
        let model = SeqModel::build(&zoo::alexnet(), BATCH, self.seed);
        *ctx.work = model.infer_work(self.blocked);
        let block = gcnn_tensor::simd::preferred_block();
        let mut scratch = ReplayScratch::default();
        let (input, ws, expect, blocked) = (&self.input, &mut self.ws, self.expect, self.blocked);
        traced_loop(window, ctx.rec, "models.infer", |it| {
            let (logits, kept) = it.walk(|rec| {
                if blocked {
                    model.infer_nchwc(rec, input, block)
                } else {
                    model.infer_unroll(rec, input, ws)
                }
            });
            model.replay(it.rec, &kept, &mut scratch);
            // The walker must compute what `Network::infer_ws` computes.
            Iter::all(BATCH as u64, checksum(logits.as_slice()) == expect)
        })
    }
}
