//! Caffe's convolutional layer: per-image im2col + cuBLAS SGEMM.
//!
//! Paper §V-A: *"in Caffe, Torch-cunn and Theano-CorrMM,
//! `im2col_gpu_kernel` and `col2im_gpu_kernel` mainly take up the rest
//! of the runtime"* after GEMM's 87 % share; §V-D: *"Take Caffe as
//! example, before starting to compute convolution, a data prefetching
//! thread is used to hide the latency from CPU-GPU data transfer"* —
//! hence its ≈0 % transfer overhead in Fig. 7.

use crate::common::{self, Sizes};
use crate::plan::{ExecutionPlan, PlannedKernel, ResourceProfile};
use crate::ConvImplementation;
use gcnn_conv::{ConvConfig, Strategy, Unsupported};
use gcnn_gpusim::{AccessPattern, Transfer, TransferDirection};

/// Parameters distinguishing the three explicit-unrolling frameworks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct UnrollingStyle {
    /// Steady-state SGEMM efficiency (fraction of peak).
    pub gemm_efficiency: f32,
    /// SGEMM global-load pattern (drives the gld metric).
    pub gemm_load_pattern: AccessPattern,
    /// im2col store pattern (the k²-expanded column-matrix writes).
    pub im2col_store_pattern: AccessPattern,
    /// Registers per thread of the hotspot kernels (Table II).
    pub registers: u32,
    /// Shared memory per block of the hotspot kernels (Table II).
    pub shared_kb: f32,
    /// Number of im2col workspace buffers held live (forward + backward
    /// paths that keep separate buffers).
    pub col_buffers: u32,
    /// Whether activation gradients share the activation buffer
    /// (Torch's in-place convention halves peak memory).
    pub share_activation_grads: bool,
}

/// Build the full one-iteration plan shared by Caffe, Torch-cunn and
/// Theano-CorrMM: per-image im2col + SGEMM forward, SGEMM + col2im
/// backward-data, im2col + SGEMM backward-weights.
pub(crate) fn unrolling_plan(
    cfg: &ConvConfig,
    style: &UnrollingStyle,
    transfers: Vec<Transfer>,
    extra_allocations: Vec<(String, u64)>,
) -> ExecutionPlan {
    let s = Sizes::of(cfg);
    let col_bytes = common::f32_bytes(s.ckk * s.o2);
    let b = cfg.batch as u32;

    let mut allocations = common::tensor_allocations(cfg, style.share_activation_grads);
    for i in 0..style.col_buffers {
        allocations.push((format!("im2col_workspace_{i}"), col_bytes));
    }
    allocations.extend(extra_allocations);

    let gemm_spec = |tile_m: u64, tile_n: u64, lane: f32| common::GemmKernelSpec {
        regs: style.registers,
        smem: (style.shared_kb * 1024.0) as u32,
        block: 256,
        tile_m,
        tile_n,
        compute_efficiency: style.gemm_efficiency,
        occupancy_needed: 0.25,
        load_pattern: style.gemm_load_pattern,
        lane_utilization: lane,
    };

    // cuBLAS picks its tile per GEMM shape; the filter axis quantizes.
    let (tile_f, f_score) = common::best_tile(s.f, &[(32, 0.92), (64, 0.97), (128, 1.0)]);
    let lane_f = (f_score / 1.0) as f32;

    // Per-image GEMMs (×batch launches each).
    let fwd_gemm = common::gemm_kernel("sgemm", s.f, s.o2, s.ckk, gemm_spec(tile_f, 64, lane_f));
    let bwd_data_gemm = common::gemm_kernel("sgemm", s.ckk, s.o2, s.f, gemm_spec(64, 64, 1.0));
    let bwd_filter_gemm =
        common::gemm_kernel("sgemm", s.f, s.ckk, s.o2, gemm_spec(tile_f, 64, lane_f));

    // Reshaping kernels. im2col re-reads each input pixel k² times
    // (mostly from L2 after the first touch, but with the replayed,
    // non-coalesced request pattern §V-C-2 complains about) and writes
    // the expanded column matrix; col2im reads the column matrix
    // sequentially and scatter-adds back into the image.
    let image_bytes = common::f32_bytes(s.c * s.i * s.i);
    let mut im2col = common::reshape_kernel(
        "im2col_gpu_kernel",
        image_bytes,
        col_bytes,
        style.registers / 3,
        AccessPattern::Strided { stride_words: 8 },
    );
    im2col.store_pattern = style.im2col_store_pattern;
    let mut col2im = common::reshape_kernel(
        "col2im_gpu_kernel",
        col_bytes,
        image_bytes,
        style.registers / 3,
        AccessPattern::Coalesced,
    );
    col2im.load_cached_fraction = 0.3;
    col2im.store_pattern = AccessPattern::Strided { stride_words: 2 };

    ExecutionPlan {
        allocations,
        transfers,
        kernels: vec![
            // Forward: im2col + GEMM per image.
            PlannedKernel::times(im2col.clone(), b),
            PlannedKernel::times(fwd_gemm, b),
            // Backward data: GEMM + col2im per image.
            PlannedKernel::times(bwd_data_gemm, b),
            PlannedKernel::times(col2im, b),
            // Backward weights: im2col again + GEMM per image.
            PlannedKernel::times(im2col, b),
            PlannedKernel::times(bwd_filter_gemm, b),
        ],
    }
}

/// The Caffe implementation model.
#[derive(Debug, Clone, Copy, Default)]
pub struct Caffe;

impl Caffe {
    pub(crate) fn style() -> UnrollingStyle {
        UnrollingStyle {
            gemm_efficiency: 0.40,
            gemm_load_pattern: AccessPattern::Strided { stride_words: 6 },
            im2col_store_pattern: AccessPattern::Coalesced,
            registers: 86,
            shared_kb: 8.5,
            col_buffers: 1,
            share_activation_grads: false,
        }
    }
}

impl ConvImplementation for Caffe {
    fn name(&self) -> &'static str {
        "Caffe"
    }

    fn strategy(&self) -> Strategy {
        Strategy::Unrolling
    }

    fn resources(&self) -> ResourceProfile {
        ResourceProfile {
            registers: 86,
            shared_kb: 8.5,
        }
    }

    fn supports(&self, cfg: &ConvConfig) -> Result<(), Unsupported> {
        // "Unrolling-based implementations are most flexible in
        // configuration selection as they support any possible shapes."
        if !cfg.is_valid() {
            return Err(Unsupported::InvalidGeometry {
                reason: format!("{cfg}"),
            });
        }
        Ok(())
    }

    fn plan(&self, cfg: &ConvConfig) -> ExecutionPlan {
        let s = Sizes::of(cfg);
        // Prefetch thread: pinned + fully overlapped input upload.
        let transfers = vec![Transfer::prefetched(
            TransferDirection::HostToDevice,
            s.input_bytes,
        )];
        unrolling_plan(cfg, &Self::style(), transfers, Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnn_gpusim::DeviceSpec;

    #[test]
    fn gemm_dominates_runtime() {
        // Paper Fig. 4a: GEMM ≈ 87 % of Caffe's convolutional layer.
        let cfg = ConvConfig::paper_base();
        let report = Caffe.plan(&cfg).execute(&DeviceSpec::k40c(), 1).unwrap();
        let share = report.kernel_share("sgemm");
        assert!(
            (0.75..=0.95).contains(&share),
            "GEMM share {share} outside Caffe's ~87 % band"
        );
    }

    #[test]
    fn transfers_are_hidden() {
        // Paper Fig. 7: Caffe ≈ 0 % transfer overhead (prefetch thread).
        let cfg = ConvConfig::paper_base();
        let report = Caffe.plan(&cfg).execute(&DeviceSpec::k40c(), 1).unwrap();
        assert!(report.transfer_fraction() < 0.01);
    }

    #[test]
    fn supports_any_valid_shape() {
        assert!(Caffe
            .supports(&ConvConfig::with_channels(33, 3, 57, 7, 5, 3))
            .is_ok());
        assert!(Caffe
            .supports(&ConvConfig::with_channels(1, 1, 2, 1, 5, 1))
            .is_err());
    }

    #[test]
    fn numerics_delegate_to_unrolling() {
        let algo = gcnn_conv::algorithm_for(Caffe.strategy());
        assert_eq!(algo.strategy(), Strategy::Unrolling);
    }

    #[test]
    fn plan_holds_separate_gradient_buffers() {
        let cfg = ConvConfig::paper_base();
        let plan = Caffe.plan(&cfg);
        assert!(plan
            .allocations
            .iter()
            .any(|(name, _)| name == "output_grads"));
        assert!(plan
            .allocations
            .iter()
            .any(|(name, _)| name.starts_with("im2col_workspace")));
    }
}
