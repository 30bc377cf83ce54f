//! cuDNN (v3, as the paper evaluates inside Caffe): implicit-GEMM
//! convolution.
//!
//! Paper §V-A: *"In cuDNN, the unrolling operations and matrix-matrix
//! multiplications are optimized by using shared memory and tiled matrix
//! multiplication, which is mainly achieved by `wgrad_alg0_engine` and
//! `cuDNN_gemm` kernels"* — there is no materialized im2col matrix, so
//! no `im2col_gpu_kernel` in its hotspot profile, and its top kernels
//! show **0 % global-load efficiency** because they compute out of
//! shared memory (§V-C-2). The cost is a workspace and slightly higher
//! memory than Torch (Fig. 5), in exchange for the best unrolling-family
//! speed (Fig. 3).
//!
//! Large-filter behavior: the implicit-GEMM keeps the filter tile
//! resident in shared memory; past ~144 filters the tile spills to a
//! multi-pass schedule and Theano-CorrMM's plain cuBLAS pulls slightly
//! ahead (the paper's Fig. 3c crossover at f > 160).

use crate::common::{self, Sizes};
use crate::plan::{ExecutionPlan, PlannedKernel, ResourceProfile};
use crate::ConvImplementation;
use gcnn_conv::{ConvConfig, Strategy};
use gcnn_gpusim::{
    AccessPattern, KernelDesc, LaunchConfig, SharedAccessDesc, Transfer, TransferDirection,
};

/// Filter count beyond which the resident filter tile spills.
const FILTER_TILE_SPILL: u64 = 144;
/// Efficiency retained after the spill to a multi-pass schedule.
const SPILL_PENALTY: f32 = 0.70;
/// Filter volume (`c·k²`) below which the bank is kept fully resident.
const RESIDENT_FILTER_VOLUME: u64 = 1024;

/// The cuDNN implementation model.
#[derive(Debug, Clone, Copy, Default)]
pub struct CuDnn;

impl CuDnn {
    /// Steady-state efficiency for a given filter count and filter
    /// volume (tile choice + spill penalty) — the Fig. 3c mechanism.
    ///
    /// The spill only applies to small-`ck²` (first-layer) shapes where
    /// cuDNN keeps the whole filter bank resident in shared memory;
    /// mid-network layers with large `ck²` stream the filter axis anyway
    /// and never spill — which is why cuDNN remains the fastest
    /// unrolling implementation on Table I's Conv5 (f = 384, c = 384)
    /// while losing the c = 3 filter sweep above 160 filters.
    pub fn gemm_efficiency(filters: u64, ckk: u64) -> f32 {
        let (_, score) = common::best_tile(filters, &[(32, 0.46), (64, 0.48), (128, 0.50)]);
        let mut eff = score as f32;
        if filters > FILTER_TILE_SPILL && ckk < RESIDENT_FILTER_VOLUME {
            eff *= SPILL_PENALTY;
        }
        eff
    }

    /// The fused implicit-GEMM kernel: all operand staging happens in
    /// shared memory; global loads are done by the precompute kernel.
    fn fused_kernel(name: &str, cfg: &ConvConfig, flops: u64, store_bytes: u64) -> KernelDesc {
        let s = Sizes::of(cfg);
        let tiles = (s.f.div_ceil(64) * s.o2.div_ceil(64) * s.b).max(1);
        let mut k = KernelDesc::new(
            name,
            LaunchConfig::new(tiles.min(u32::MAX as u64) as u32, 256),
        );
        k.regs_per_thread = 80;
        k.smem_per_block = (8.4 * 1024.0) as u32;
        k.flops = flops;
        k.gmem_load_bytes = 0; // operands staged by the precompute pass
        k.gmem_store_bytes = store_bytes;
        k.store_pattern = AccessPattern::Strided { stride_words: 2 };
        // Heavy shared-memory reuse with a broadcast component — the
        // paper's >130 % shared-efficiency observation.
        k.shared = SharedAccessDesc {
            bytes: flops / 4,
            bank_stride_words: 1,
            broadcast_fraction: 0.015,
        };
        k.warp_efficiency = 0.99;
        k.compute_efficiency = Self::gemm_efficiency(s.f, s.ckk);
        k.occupancy_needed = 0.30;
        k
    }
}

impl ConvImplementation for CuDnn {
    fn name(&self) -> &'static str {
        "cuDNN"
    }

    fn strategy(&self) -> Strategy {
        Strategy::Unrolling
    }

    fn resources(&self) -> ResourceProfile {
        ResourceProfile {
            registers: 80,
            shared_kb: 8.4,
        }
    }

    fn plan(&self, cfg: &ConvConfig) -> ExecutionPlan {
        let s = Sizes::of(cfg);
        let col_bytes = common::f32_bytes(s.ckk * s.o2);

        let mut allocations = common::tensor_allocations(cfg, false);
        // Workspace: index tables + staging tiles — about half an
        // im2col buffer plus a fixed arena. Grows much more slowly with
        // k than the explicit unrollers' full column matrices, which is
        // why cuDNN becomes the most memory-efficient unrolling
        // implementation at large kernel sizes (Fig. 5d).
        allocations.push((
            "cudnn_workspace".to_string(),
            col_bytes / 2 + 8 * 1024 * 1024,
        ));

        // Precompute pass: streams input + filters into staged tiles.
        // Carries all of cuDNN's (inefficient) global traffic — §V-C-2:
        // "other top kernels that pre-compute for convolution […] result
        // in low global load and store efficiencies".
        let mut precompute = common::reshape_kernel(
            "precomputed_convolve_sgemm",
            s.input_bytes + s.filter_bytes,
            col_bytes / 2,
            48,
            AccessPattern::Strided { stride_words: 8 },
        );
        precompute.store_pattern = AccessPattern::Strided { stride_words: 4 };

        let fwd = Self::fused_kernel("cuDNN_gemm", cfg, s.fwd_flops, s.output_bytes);
        let bwd_data = Self::fused_kernel("cuDNN_gemm", cfg, s.fwd_flops, s.input_bytes);
        let bwd_filters = Self::fused_kernel("wgrad_alg0_engine", cfg, s.fwd_flops, s.filter_bytes);

        ExecutionPlan {
            allocations,
            // Prefetched pinned input: ≈0 % visible transfer (Fig. 7).
            transfers: vec![Transfer::prefetched(
                TransferDirection::HostToDevice,
                s.input_bytes,
            )],
            kernels: vec![
                PlannedKernel::times(precompute, 3),
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
    use crate::theano_corrmm::TheanoCorrMM;
    use crate::torch_cunn::TorchCunn;
    use gcnn_gpusim::DeviceSpec;

    fn time_of(imp: &dyn ConvImplementation, cfg: &ConvConfig) -> f64 {
        imp.plan(cfg)
            .execute(&DeviceSpec::k40c(), 1)
            .unwrap()
            .total_ms()
    }

    #[test]
    fn fastest_unrolling_implementation_at_base_config() {
        // Paper §IV-B: "For unrolling-based convolution, cuDNN is the
        // overall fastest implementation."
        let cfg = ConvConfig::paper_base();
        let t_cudnn = time_of(&CuDnn, &cfg);
        assert!(t_cudnn < time_of(&Caffe, &cfg));
        assert!(t_cudnn < time_of(&TorchCunn, &cfg));
        assert!(t_cudnn < time_of(&TheanoCorrMM, &cfg));
    }

    #[test]
    fn corrmm_wins_above_160_filters() {
        // Paper Fig. 3c: "for large filter numbers (greater than 160),
        // Theano-CorrMM slightly outperforms cuDNN".
        for f in [160usize, 176, 208, 240] {
            let cfg = ConvConfig::from_tuple(64, 128, f, 11, 1);
            assert!(
                time_of(&TheanoCorrMM, &cfg) < time_of(&CuDnn, &cfg),
                "CorrMM should win at f={f}"
            );
        }
        for f in [64usize, 96, 128] {
            let cfg = ConvConfig::from_tuple(64, 128, f, 11, 1);
            assert!(
                time_of(&CuDnn, &cfg) < time_of(&TheanoCorrMM, &cfg),
                "cuDNN should win at f={f}"
            );
        }
    }

    #[test]
    fn top_kernels_have_zero_global_load_efficiency() {
        // Paper §V-C-2: cuDNN's shared-memory-resident top kernels show
        // 0 % gld efficiency; the weighted aggregate stays low.
        let cfg = ConvConfig::paper_base();
        let report = CuDnn.plan(&cfg).execute(&DeviceSpec::k40c(), 1).unwrap();
        let top = &report.kernels[0];
        assert!(top.name == "cuDNN_gemm" || top.name == "wgrad_alg0_engine");
        assert_eq!(top.metrics.gld_efficiency, 0.0);
        let agg = report.weighted_metrics(5);
        assert!(agg.gld_efficiency < 20.0, "{}", agg.gld_efficiency);
    }

    #[test]
    fn shared_efficiency_exceeds_100_percent() {
        // Paper §V-C-3: "cuDNN has the overall highest percentages of
        // shared efficiency (over 130 % in most cases)".
        let cfg = ConvConfig::paper_base();
        let report = CuDnn.plan(&cfg).execute(&DeviceSpec::k40c(), 1).unwrap();
        let agg = report.weighted_metrics(3);
        assert!(agg.shared_efficiency > 100.0, "{}", agg.shared_efficiency);
    }

    #[test]
    fn occupancy_in_paper_band() {
        // Paper §V-C-1: cuDNN achieved occupancy 29–37 %.
        let cfg = ConvConfig::paper_base();
        let report = CuDnn.plan(&cfg).execute(&DeviceSpec::k40c(), 1).unwrap();
        let occ = report.weighted_metrics(3).achieved_occupancy;
        assert!((25.0..=40.0).contains(&occ), "occupancy {occ}");
    }

    #[test]
    fn memory_between_torch_and_explicit_unrollers_at_base() {
        // Fig. 5: cuDNN consumes more than Torch-cunn (workspace +
        // separate gradients) at the base configuration.
        let cfg = ConvConfig::paper_base();
        assert!(CuDnn.plan(&cfg).peak_bytes() > TorchCunn.plan(&cfg).peak_bytes());
    }

    #[test]
    fn most_memory_efficient_unroller_at_large_kernels() {
        // Fig. 5d: "with the increase of kernel size, cuDNN becomes the
        // most memory efficient implementation" among the unrollers.
        let cfg = ConvConfig::from_tuple(64, 128, 64, 15, 1);
        let cudnn = CuDnn.plan(&cfg).peak_bytes();
        assert!(cudnn < Caffe.plan(&cfg).peak_bytes());
        assert!(cudnn < TheanoCorrMM.plan(&cfg).peak_bytes());
    }
}
