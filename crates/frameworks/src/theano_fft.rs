//! Theano-fft (`conv2d_fft`): the generic cuFFT-based convolution.
//!
//! The paper's consistent loser: *"Theano-fft results in the slowest
//! speed"* (Fig. 3) despite sharing fbfft's strategy — *"Because of
//! different implementation techniques, fbfft is much faster than
//! Theano-fft"* (§IV-B). The measured mechanisms, all modeled here:
//!
//! * *"most of the runtime is spent on data preparation and data
//!   transfer between CPU and GPU"* (Fig. 4g) — a heavyweight
//!   zero-pad/layout pass plus synchronous pageable copies;
//! * Table II: 2 registers/thread and 4.5 KB shared — no ILP at all, so
//!   high occupancy (39–59 %) buys nothing (§V-C-1: "little use of
//!   register and shared memory may contribute to a high achieved
//!   occupancy, which can also bring in bad performance");
//! * shared efficiency 8.16–20 % — bank-conflicted accesses (§V-C-3);
//! * warp execution efficiency 66–81 % — divergent control flow
//!   (§V-C-4).

use crate::common::{self, Sizes};
use crate::plan::{ExecutionPlan, PlannedKernel, ResourceProfile};
use crate::ConvImplementation;
use gcnn_conv::{ConvConfig, Strategy};
use gcnn_gpusim::{
    AccessPattern, KernelDesc, LaunchConfig, SharedAccessDesc, Transfer, TransferDirection,
};

/// Smallest 7-smooth number (only prime factors 2, 3, 5, 7) that is
/// ≥ `n` — the sizes cuFFT handles without a slow generic path.
pub fn next_smooth(n: u64) -> u64 {
    fn is_smooth(mut x: u64) -> bool {
        for p in [2u64, 3, 5, 7] {
            while x.is_multiple_of(p) {
                x /= p;
            }
        }
        x == 1
    }
    let mut candidate = n.max(1);
    while !is_smooth(candidate) {
        candidate += 1;
    }
    candidate
}

/// The Theano-fft implementation model.
#[derive(Debug, Clone, Copy, Default)]
pub struct TheanoFft;

impl TheanoFft {
    /// cuFFT-style transform size: `i + k − 1` (full linear-convolution
    /// padding) rounded up to the next 7-smooth size — cuFFT runs its
    /// fast mixed-radix paths only on sizes of the form 2^a·3^b·5^c·7^d
    /// and pads internally otherwise. The non-monotonic jumps of this
    /// rounding are the source of Theano-fft's jagged memory curve over
    /// kernel and input size (Fig. 5b/5d).
    pub fn transform_size(cfg: &ConvConfig) -> u64 {
        next_smooth((cfg.input + 2 * cfg.pad + cfg.kernel - 1) as u64)
    }

    /// cuFFT workspace multiplier: non-power-of-two sizes need extra
    /// mixed-radix staging buffers.
    pub fn workspace_factor(n: u64) -> f64 {
        if n.is_power_of_two() {
            1.0
        } else {
            1.3
        }
    }

    /// Spectrum + workspace bytes held live.
    pub fn spectrum_bytes(cfg: &ConvConfig) -> u64 {
        let s = Sizes::of(cfg);
        let n = Self::transform_size(cfg);
        let planes = s.b * s.c + s.f * s.c + s.b * s.f;
        let base = 8 * n * n * planes;
        (base as f64 * Self::workspace_factor(n)) as u64
    }
}

impl ConvImplementation for TheanoFft {
    fn name(&self) -> &'static str {
        "Theano-fft"
    }

    fn strategy(&self) -> Strategy {
        Strategy::Fft
    }

    fn resources(&self) -> ResourceProfile {
        ResourceProfile {
            registers: 2,
            shared_kb: 4.5,
        }
    }

    fn plan(&self, cfg: &ConvConfig) -> ExecutionPlan {
        let s = Sizes::of(cfg);
        let n = Self::transform_size(cfg);
        let n2 = n * n;
        let (bc, fc, bf) = (s.b * s.c, s.f * s.c, s.b * s.f);
        let all_planes = bc + fc + bf;

        let mut allocations = common::tensor_allocations(cfg, false);
        allocations.push(("cufft_spectra".to_string(), Self::spectrum_bytes(cfg)));

        // Table II resources for every Theano-fft kernel: 2 registers,
        // 4.5 KB shared.
        let base = |name: &str, grid: u64, block: u32| {
            let mut k = KernelDesc::new(
                name,
                LaunchConfig::new(grid.min(u32::MAX as u64) as u32, block),
            );
            k.regs_per_thread = 2;
            k.smem_per_block = (4.5 * 1024.0) as u32;
            // No ILP: needs near-full occupancy to hide anything.
            k.occupancy_needed = 0.85;
            k.warp_efficiency = 0.72; // divergent branches (66–81 % band)
            k
        };

        // Host-side data preparation staged through a slow padding/
        // layout pass touching every spectrum plane each pass —
        // Fig. 4g's dominant slice.
        let prep_bytes = 3 * 8 * n2 * all_planes;
        let mut prep = base("data_preparation", prep_bytes / 4 / 256, 128);
        prep.gmem_load_bytes = prep_bytes * 4 / 5;
        prep.load_pattern = AccessPattern::Strided { stride_words: 8 };
        prep.gmem_store_bytes = prep_bytes / 5;
        prep.store_pattern = AccessPattern::Strided { stride_words: 2 };
        prep.compute_efficiency = 0.02;

        // Mixed-radix cuFFT transforms (≈1.4× the radix-2 op count on
        // non-power-of-two sizes).
        let fft_planes = 3 * all_planes;
        let log2n = 64 - n.leading_zeros() as u64;
        let mut fft = base("cufft_dft", fft_planes, 128);
        fft.flops = (fft_planes * 2 * n * 5 * n * log2n) * 14 / 10;
        fft.gmem_load_bytes = fft_planes * n2 * 8;
        fft.gmem_store_bytes = fft_planes * n2 * 8;
        fft.load_pattern = AccessPattern::Strided { stride_words: 8 };
        fft.store_pattern = AccessPattern::Strided { stride_words: 2 };
        // Bank-conflicted twiddle staging: the 8–20 % shared-efficiency
        // band.
        fft.shared = SharedAccessDesc {
            bytes: fft.flops / 6,
            bank_stride_words: 8,
            broadcast_fraction: 0.0,
        };
        fft.compute_efficiency = 0.25;

        // Naive spectrum transposes.
        let transpose_bytes = 2 * 8 * n2 * all_planes;
        let mut transpose = base("transpose_naive", transpose_bytes / 4 / 256, 128);
        transpose.gmem_load_bytes = transpose_bytes / 2;
        transpose.load_pattern = AccessPattern::Strided { stride_words: 8 };
        transpose.gmem_store_bytes = transpose_bytes / 2;
        transpose.store_pattern = AccessPattern::Strided { stride_words: 2 };
        transpose.compute_efficiency = 0.02;

        // Pointwise complex multiply-accumulate (no batched GEMM — the
        // "different implementation techniques" gap to fbfft).
        let mut pw = base("pointwise_mult", n2 / 4, 128);
        pw.flops = 3 * 8 * n2 * s.f * s.c * s.b;
        pw.gmem_load_bytes = 3 * 8 * n2 * (s.f * s.c + s.c * s.b);
        pw.load_pattern = AccessPattern::Strided { stride_words: 4 };
        pw.gmem_store_bytes = 3 * 8 * n2 * s.f * s.b;
        pw.store_pattern = AccessPattern::Strided { stride_words: 2 };
        pw.shared = SharedAccessDesc {
            bytes: pw.flops / 8,
            bank_stride_words: 8,
            broadcast_fraction: 0.0,
        };
        pw.compute_efficiency = 0.08;

        ExecutionPlan {
            allocations,
            // Synchronous pageable staging of inputs, filters and
            // intermediate panels each iteration.
            transfers: vec![
                Transfer::sync(TransferDirection::HostToDevice, s.input_bytes),
                Transfer::sync(TransferDirection::HostToDevice, s.filter_bytes),
                Transfer::sync(TransferDirection::DeviceToHost, s.output_bytes / 8),
            ],
            kernels: vec![
                PlannedKernel::once(prep),
                PlannedKernel::once(fft),
                PlannedKernel::once(transpose),
                PlannedKernel::once(pw),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caffe::Caffe;
    use crate::cuda_convnet2::CudaConvnet2;
    use crate::cudnn::CuDnn;
    use crate::fbfft::Fbfft;
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
    fn slowest_of_all_seven_at_base() {
        // Paper Fig. 3a/b: "Theano-fft results in the slowest speed".
        let cfg = ConvConfig::paper_base();
        let t = time_of(&TheanoFft, &cfg);
        for other in [
            &Caffe as &dyn ConvImplementation,
            &CuDnn,
            &TorchCunn,
            &TheanoCorrMM,
            &CudaConvnet2,
            &Fbfft,
        ] {
            assert!(
                time_of(other, &cfg) < t,
                "{} should be faster than Theano-fft",
                other.name()
            );
        }
    }

    #[test]
    fn much_slower_than_fbfft_same_strategy() {
        // §IV-B: same strategy, very different speed.
        let cfg = ConvConfig::paper_base();
        let ratio = time_of(&TheanoFft, &cfg) / time_of(&Fbfft, &cfg);
        assert!(ratio > 3.0, "only {ratio:.1}× slower than fbfft");
    }

    #[test]
    fn data_preparation_dominates_hotspots() {
        // Fig. 4g: "most of the runtime is spent on data preparation and
        // data transfer" — prep + transpose should outweigh the FFT.
        let cfg = ConvConfig::paper_base();
        let report = TheanoFft
            .plan(&cfg)
            .execute(&DeviceSpec::k40c(), 1)
            .unwrap();
        let prep = report.kernel_share("data_preparation") + report.kernel_share("transpose_naive");
        let fft = report.kernel_share("cufft_dft");
        assert!(prep > fft, "prep {prep} vs fft {fft}");
    }

    #[test]
    fn metrics_match_paper_bands() {
        let cfg = ConvConfig::paper_base();
        let report = TheanoFft
            .plan(&cfg)
            .execute(&DeviceSpec::k40c(), 1)
            .unwrap();
        let m = report.weighted_metrics(5);
        // WEE 66–81 %.
        assert!(
            (60.0..=85.0).contains(&m.warp_execution_efficiency),
            "wee {}",
            m.warp_execution_efficiency
        );
        // Shared efficiency 8.16–20 %.
        assert!(
            (5.0..=25.0).contains(&m.shared_efficiency),
            "shared {}",
            m.shared_efficiency
        );
        // Achieved occupancy 39–59 % — higher than the fast frameworks
        // yet useless.
        assert!(
            (35.0..=65.0).contains(&m.achieved_occupancy),
            "occ {}",
            m.achieved_occupancy
        );
    }

    #[test]
    fn stride_restriction() {
        assert!(TheanoFft
            .supports(&ConvConfig::from_tuple(64, 128, 64, 11, 2))
            .is_err());
    }

    #[test]
    fn second_highest_memory_behind_fbfft() {
        // Fig. 5: "fbfft requires the most memory, followed by
        // Theano-fft."
        let cfg = ConvConfig::paper_base();
        let theano = TheanoFft.plan(&cfg).peak_bytes();
        assert!(theano < Fbfft.plan(&cfg).peak_bytes());
        assert!(theano > Caffe.plan(&cfg).peak_bytes());
    }

    #[test]
    fn transfer_share_within_band() {
        // Fig. 7: Theano-fft in the 1–15 % transfer band.
        let cfg = ConvConfig::paper_base();
        let report = TheanoFft
            .plan(&cfg)
            .execute(&DeviceSpec::k40c(), 1)
            .unwrap();
        let f = report.transfer_fraction();
        assert!((0.005..=0.20).contains(&f), "transfer fraction {f}");
    }
}
