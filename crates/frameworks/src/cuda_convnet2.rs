//! cuda-convnet2: Krizhevsky's direct convolution.
//!
//! Paper §V-A: *"cuda-convnet2 computes for convolutional layers
//! directly, which is mainly achieved by three kernels:
//! `filterActs_YxX_color`, `img_acts_color` and
//! `conv_weight_acts_c_preload`"*; §V-B: it is *"the most memory
//! efficient one in all scenarios"* because direct convolution keeps no
//! intermediate data; §V-C-1: its 116 registers/thread cap occupancy at
//! 14–22 % — compensated by register-level ILP; and §IV-B: it *"was
//! optimized for mini-batch sizes of a multiple of 128, and thus
//! performs well only in those cases"*, with hard shape restrictions
//! (square inputs/kernels, batch % 32, filters % 16).

use crate::common::{self, Sizes};
use crate::plan::{ExecutionPlan, PlannedKernel, ResourceProfile};
use crate::ConvImplementation;
use gcnn_conv::{ConvConfig, Strategy, Unsupported};
use gcnn_gpusim::{
    AccessPattern, KernelDesc, LaunchConfig, SharedAccessDesc, Transfer, TransferDirection,
};

/// The cuda-convnet2 implementation model.
#[derive(Debug, Clone, Copy, Default)]
pub struct CudaConvnet2;

impl CudaConvnet2 {
    /// Image-tile efficiency: filterActs processes images in tiles of
    /// 32/64/128 along the (innermost, CHWN-layout) batch axis; partial
    /// tiles waste lanes. The 128-wide variant is the most optimized —
    /// the Fig. 3a "multiple of 128" mechanism.
    pub fn batch_tile_efficiency(batch: u64) -> f32 {
        let (_, score) = common::best_tile(batch, &[(32, 0.72), (64, 0.82), (128, 1.0)]);
        score as f32
    }

    fn direct_kernel(name: &str, cfg: &ConvConfig, flops: u64, store_bytes: u64) -> KernelDesc {
        let s = Sizes::of(cfg);
        let grid = (s.b.div_ceil(128) * s.f.div_ceil(16) * s.o2.div_ceil(16)).max(1);
        let mut k = KernelDesc::new(
            name,
            LaunchConfig::new(grid.min(u32::MAX as u64) as u32, 128),
        );
        k.regs_per_thread = 116;
        k.smem_per_block = 16 * 1024;
        k.flops = flops;
        // CHWN layout makes batch-axis loads perfectly coalesced.
        k.gmem_load_bytes = s.input_bytes + s.filter_bytes;
        k.load_pattern = AccessPattern::Coalesced;
        k.gmem_store_bytes = store_bytes;
        k.store_pattern = AccessPattern::Coalesced;
        k.shared = SharedAccessDesc {
            bytes: flops / 8,
            bank_stride_words: 1,
            broadcast_fraction: 0.01,
        };
        k.warp_efficiency = 0.98;
        let mut eff = 0.52 * Self::batch_tile_efficiency(s.b);
        // Strided windows break the 128-image-wide contiguous loads.
        if cfg.stride > 1 {
            eff *= 0.85;
        }
        k.compute_efficiency = eff;
        // Massive register ILP: latency hidden with few warps (the
        // paper's low-occupancy-yet-fast observation).
        k.occupancy_needed = 0.15;
        k
    }
}

impl ConvImplementation for CudaConvnet2 {
    fn name(&self) -> &'static str {
        "cuda-convnet2"
    }

    fn strategy(&self) -> Strategy {
        Strategy::Direct
    }

    fn resources(&self) -> ResourceProfile {
        ResourceProfile {
            registers: 116,
            shared_kb: 16.0,
        }
    }

    fn supports(&self, cfg: &ConvConfig) -> Result<(), Unsupported> {
        // Paper §IV-B Summary: "Cuda-convnet2 only supports square input
        // images and square kernels, its mini-batch size must be a
        // multiple of 32 and its filter number must be a multiple of
        // 16." (Inputs/kernels are square by construction here.)
        gcnn_conv::algorithm_for(self.strategy()).supports(cfg)?;
        if !cfg.batch.is_multiple_of(32) {
            return Err(Unsupported::BatchNotMultipleOf {
                multiple: 32,
                batch: cfg.batch,
            });
        }
        if !cfg.filters.is_multiple_of(16) {
            return Err(Unsupported::FiltersNotMultipleOf {
                multiple: 16,
                filters: cfg.filters,
            });
        }
        Ok(())
    }

    fn plan(&self, cfg: &ConvConfig) -> ExecutionPlan {
        let s = Sizes::of(cfg);
        // Direct convolution: no workspace at all ("does not need
        // temporary memory to keep intermediate data"), shared
        // activation gradients.
        let allocations = common::tensor_allocations(cfg, true);

        let fwd = Self::direct_kernel("filterActs_YxX_color", cfg, s.fwd_flops, s.output_bytes);
        let bwd_data = Self::direct_kernel("img_acts_color", cfg, s.fwd_flops, s.input_bytes);
        let bwd_filters = Self::direct_kernel(
            "conv_weight_acts_c_preload",
            cfg,
            s.fwd_flops,
            s.filter_bytes,
        );

        ExecutionPlan {
            allocations,
            // Pinned upload, half-overlapped by cc2's double-buffered
            // data provider — the few-% transfer share Fig. 7 reports.
            transfers: vec![Transfer {
                direction: TransferDirection::HostToDevice,
                bytes: s.input_bytes,
                pinned: true,
                overlap: 0.5,
            }],
            kernels: vec![
                PlannedKernel::once(fwd),
                PlannedKernel::once(bwd_data),
                PlannedKernel::once(bwd_filters),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caffe::Caffe;
    use crate::cudnn::CuDnn;
    use crate::theano_corrmm::TheanoCorrMM;
    use crate::time_of;
    use crate::torch_cunn::TorchCunn;
    use gcnn_gpusim::DeviceSpec;

    #[test]
    fn shape_restrictions_match_paper() {
        let ok = ConvConfig::from_tuple(64, 128, 64, 11, 1);
        assert!(CudaConvnet2.supports(&ok).is_ok());
        let bad_batch = ConvConfig::from_tuple(48, 128, 64, 11, 1);
        assert!(matches!(
            CudaConvnet2.supports(&bad_batch),
            Err(Unsupported::BatchNotMultipleOf { multiple: 32, .. })
        ));
        let bad_filters = ConvConfig::from_tuple(64, 128, 50, 11, 1);
        assert!(matches!(
            CudaConvnet2.supports(&bad_filters),
            Err(Unsupported::FiltersNotMultipleOf { multiple: 16, .. })
        ));
    }

    #[test]
    fn lowest_memory_of_all_implementations() {
        // Paper Fig. 5: "cuda-convnet2 is the most memory efficient one
        // in all scenarios given in our experiment."
        let cfg = ConvConfig::paper_base();
        let cc2 = CudaConvnet2.plan(&cfg).peak_bytes();
        assert!(cc2 < Caffe.plan(&cfg).peak_bytes());
        assert!(cc2 < TorchCunn.plan(&cfg).peak_bytes());
        assert!(cc2 < CuDnn.plan(&cfg).peak_bytes());
        assert!(cc2 < TheanoCorrMM.plan(&cfg).peak_bytes());
    }

    #[test]
    fn batch_tile_efficiency_peaks_at_multiples_of_128() {
        assert!((CudaConvnet2::batch_tile_efficiency(128) - 1.0).abs() < 1e-6);
        assert!((CudaConvnet2::batch_tile_efficiency(256) - 1.0).abs() < 1e-6);
        assert!(CudaConvnet2::batch_tile_efficiency(96) < 0.9);
        assert!(CudaConvnet2::batch_tile_efficiency(160) < 0.95);
    }

    #[test]
    fn faster_at_batch_128_than_neighbors() {
        // Paper Fig. 3a: cc2 "performs well only for those cases when
        // mini-batch size is a multiple of 128".
        let t96 = time_of(&CudaConvnet2, &ConvConfig::from_tuple(96, 128, 64, 11, 1));
        let t128 = time_of(&CudaConvnet2, &ConvConfig::from_tuple(128, 128, 64, 11, 1));
        let t160 = time_of(&CudaConvnet2, &ConvConfig::from_tuple(160, 128, 64, 11, 1));
        // Normalize per image: 128 should be the sweet spot.
        assert!(t128 / 128.0 < t96 / 96.0);
        assert!(t128 / 128.0 < t160 / 160.0);
    }

    #[test]
    fn occupancy_in_paper_band() {
        // Paper §V-C-1: cuda-convnet2 achieved occupancy 14–22 %.
        let cfg = ConvConfig::paper_base();
        let report = CudaConvnet2
            .plan(&cfg)
            .execute(&DeviceSpec::k40c(), 1)
            .unwrap();
        let occ = report.weighted_metrics(3).achieved_occupancy;
        assert!((12.0..=25.0).contains(&occ), "occupancy {occ}");
    }

    #[test]
    fn close_to_cudnn_on_kernel_sweep() {
        // Paper Fig. 3d: "the performances of cuda-convnet2 and cuDNN
        // are very close with all given kernel sizes."
        for k in [5usize, 7, 9, 11, 13] {
            let cfg = ConvConfig::from_tuple(64, 128, 64, k, 1);
            let ratio = time_of(&CudaConvnet2, &cfg) / time_of(&CuDnn, &cfg);
            assert!((0.5..=2.0).contains(&ratio), "k={k}: ratio {ratio}");
        }
    }

    #[test]
    fn cudnn_beats_cc2_at_stride_2() {
        // Paper Fig. 3e: "For greater stride (greater than 1), cuDNN
        // results in the best performance."
        let cfg = ConvConfig::from_tuple(64, 128, 64, 11, 2);
        assert!(time_of(&CuDnn, &cfg) < time_of(&CudaConvnet2, &cfg));
    }
}
