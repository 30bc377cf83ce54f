//! fbfft: Facebook's FFT convolution (Vasilache et al., ICLR 2015).
//!
//! Paper §V-A: *"the computation of convolutional layers is mainly
//! achieved by three steps in fbfft. Firstly, the kernel
//! `decimateInFrequency` uses DIF algorithm to transform input and
//! weight data from spatial domain to frequency domain. Secondly, the
//! `Transpose` kernel is used to convert the BDHW layout into HWBD and
//! then conducts Cgemm matrix multiplications. Thirdly, the `Transpose`
//! kernel converts the Cgemm results back to BDHW layout and performs an
//! inverse FFT by using `decimateInFrequencyInverse`."*
//!
//! Performance shape (paper §IV-B): fastest overall at k ≥ 7 (its cost
//! depends on the padded transform size, not the kernel), losing to
//! cuDNN below; stride-1 only; and the *highest memory consumption* of
//! all seven (Fig. 5: 1632–10866 MB) because every plane of input,
//! filters and output is held as a power-of-two-padded complex spectrum,
//! double-buffered around the transposes — the power-of-two padding is
//! also what makes its memory jump discontinuously across input sizes
//! (Fig. 5b).

use crate::common::{self, Sizes};
use crate::plan::{ExecutionPlan, PlannedKernel, ResourceProfile};
use crate::ConvImplementation;
use gcnn_conv::{ConvConfig, Strategy};
use gcnn_gpusim::{
    AccessPattern, KernelDesc, LaunchConfig, SharedAccessDesc, Transfer, TransferDirection,
};

/// FLOPs of a 2-D radix-2 FFT over an `n×n` plane.
fn fft2d_flops(n: u64) -> u64 {
    if n <= 1 {
        return 0;
    }
    // 2n row/column transforms of size n at 5·n·log2(n) each.
    2 * n * 5 * n * (n.trailing_zeros() as u64)
}

/// The fbfft implementation model.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fbfft;

impl Fbfft {
    /// Transform size: next power of two covering the (padded) input —
    /// valid correlation needs no k-dependent padding (DESIGN.md §4.4).
    pub fn transform_size(cfg: &ConvConfig) -> u64 {
        cfg.fft_size() as u64
    }

    /// Total spectrum bytes held live: all (batch×channel),
    /// (filter×channel) and (batch×filter) planes as N² complex values,
    /// double-buffered for the layout transposes.
    pub fn spectrum_bytes(cfg: &ConvConfig) -> u64 {
        let s = Sizes::of(cfg);
        let n = Self::transform_size(cfg);
        let planes = s.b * s.c + s.f * s.c + s.b * s.f;
        2 * 8 * n * n * planes
    }
}

impl ConvImplementation for Fbfft {
    fn name(&self) -> &'static str {
        "fbfft"
    }

    fn strategy(&self) -> Strategy {
        Strategy::Fft
    }

    fn resources(&self) -> ResourceProfile {
        ResourceProfile {
            registers: 106,
            shared_kb: 10.0,
        }
    }

    fn plan(&self, cfg: &ConvConfig) -> ExecutionPlan {
        let s = Sizes::of(cfg);
        let n = Self::transform_size(cfg);
        let n2 = n * n;
        // Real-input transforms keep only the Hermitian half-spectrum;
        // all kernel traffic below is sized accordingly (the allocation
        // model above stays full-size — fbfft's buffer pool is allocated
        // generously, which is what nvidia-smi sees).
        let half_bins = n * (n / 2 + 1);
        let (bc, fc, bf) = (s.b * s.c, s.f * s.c, s.b * s.f);
        let all_planes = bc + fc + bf;

        let mut allocations = common::tensor_allocations(cfg, true);
        allocations.push(("fft_spectra".to_string(), Self::spectrum_bytes(cfg)));

        let base = |name: &str, grid: u64, block: u32| {
            let mut k = KernelDesc::new(
                name,
                LaunchConfig::new(grid.min(u32::MAX as u64) as u32, block),
            );
            k.regs_per_thread = 106;
            k.smem_per_block = 10 * 1024;
            k.occupancy_needed = 0.20;
            k.warp_efficiency = 0.99;
            k
        };

        // Forward DIF transforms: each of the three passes transforms
        // its two operand plane sets.
        let fwd_planes = 2 * all_planes;
        let mut dif = base("decimateInFrequency", fwd_planes, 128);
        dif.flops = fwd_planes * fft2d_flops(n);
        dif.gmem_load_bytes = fwd_planes * n2 * 4; // real input planes
        dif.gmem_store_bytes = fwd_planes * half_bins * 8;
        // Butterfly gather/scatter replays requests (low nvprof gld/gst,
        // §V-C-2's "little use of global memory by certain top efficient
        // kernels") while L2 keeps the actual DRAM traffic small.
        dif.load_pattern = AccessPattern::Strided { stride_words: 4 };
        dif.load_cached_fraction = 0.85;
        dif.store_pattern = AccessPattern::Strided { stride_words: 2 };
        dif.shared = SharedAccessDesc {
            bytes: dif.flops / 6,
            bank_stride_words: 1,
            broadcast_fraction: 0.0,
        };
        dif.compute_efficiency = 0.50;

        // Inverse transforms: one result plane set per pass.
        let inv_planes = all_planes;
        let mut difi = base("decimateInFrequencyInverse", inv_planes, 128);
        difi.flops = inv_planes * fft2d_flops(n);
        difi.gmem_load_bytes = inv_planes * half_bins * 8;
        difi.gmem_store_bytes = inv_planes * n2 * 4; // real output planes
        difi.load_pattern = AccessPattern::Strided { stride_words: 4 };
        difi.load_cached_fraction = 0.85;
        difi.store_pattern = AccessPattern::Strided { stride_words: 2 };
        difi.shared = SharedAccessDesc {
            bytes: difi.flops / 6,
            bank_stride_words: 1,
            broadcast_fraction: 0.0,
        };
        difi.compute_efficiency = 0.50;

        // Layout transposes: BDHW ↔ HWBD around each pass's CGEMM.
        // The inverse-direction transpose is fused into the inverse FFT
        // kernel, so only the forward direction moves through global
        // memory explicitly.
        let transpose_bytes = 3 * 2 * 8 * half_bins * all_planes * 2 / 3;
        // fbfft's transpose is shared-memory tiled: both sides of the
        // copy stay coalesced.
        let mut transpose = common::reshape_kernel(
            "Transpose",
            transpose_bytes / 2,
            transpose_bytes / 2,
            64,
            AccessPattern::Strided { stride_words: 4 },
        );
        transpose.load_cached_fraction = 0.85;
        transpose.store_pattern = AccessPattern::Strided { stride_words: 2 };
        transpose.regs_per_thread = 64;
        transpose.smem_per_block = 4 * 1024;
        transpose.shared = SharedAccessDesc::clean(transpose_bytes);

        // Per-frequency-bin complex GEMM, all three passes. Complex
        // MAC = 8 real FLOPs.
        let mut cgemm = base("Cgemm", half_bins / 16, 256);
        cgemm.flops = 3 * 8 * half_bins * s.f * s.c * s.b;
        // Operands stream from the transposed spectra.
        cgemm.gmem_load_bytes = 3 * 8 * half_bins * (s.f * s.c + s.c * s.b);
        cgemm.load_pattern = AccessPattern::Strided { stride_words: 4 };
        cgemm.load_cached_fraction = 0.90;
        cgemm.gmem_store_bytes = 3 * 8 * half_bins * s.f * s.b;
        cgemm.store_pattern = AccessPattern::Strided { stride_words: 2 };
        cgemm.shared = SharedAccessDesc {
            bytes: cgemm.flops / 8,
            bank_stride_words: 1,
            broadcast_fraction: 0.01,
        };
        cgemm.compute_efficiency = 0.55;

        ExecutionPlan {
            allocations,
            // Inputs live on the GPU across iterations (Torch harness);
            // only a prefetched upload at iteration start.
            transfers: vec![Transfer::prefetched(
                TransferDirection::HostToDevice,
                s.input_bytes,
            )],
            kernels: vec![
                PlannedKernel::once(dif),
                PlannedKernel::once(transpose),
                PlannedKernel::once(cgemm),
                PlannedKernel::once(difi),
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
    use crate::time_of;
    use crate::torch_cunn::TorchCunn;
    use gcnn_conv::Unsupported;
    use gcnn_gpusim::DeviceSpec;

    #[test]
    fn rejects_stride_above_one() {
        let cfg = ConvConfig::from_tuple(64, 128, 64, 11, 2);
        assert!(matches!(
            Fbfft.supports(&cfg),
            Err(Unsupported::StrideNotOne { stride: 2 })
        ));
    }

    #[test]
    fn fastest_at_base_config() {
        // Paper Fig. 3a/b: fbfft 1.4–9.7× faster than the others at the
        // base configuration (k = 11).
        let cfg = ConvConfig::paper_base();
        let t = time_of(&Fbfft, &cfg);
        for other in [
            &Caffe as &dyn ConvImplementation,
            &CuDnn,
            &TorchCunn,
            &CudaConvnet2,
        ] {
            let ratio = time_of(other, &cfg) / t;
            assert!(
                ratio > 1.2,
                "{} only {ratio:.2}× slower than fbfft",
                other.name()
            );
        }
    }

    #[test]
    fn runtime_flat_in_kernel_size() {
        // Paper Fig. 3d: "the runtime of fbfft tends to be a constant
        // value" as k grows.
        let t3 = time_of(&Fbfft, &ConvConfig::from_tuple(64, 128, 64, 3, 1));
        let t13 = time_of(&Fbfft, &ConvConfig::from_tuple(64, 128, 64, 13, 1));
        assert!((t13 / t3 - 1.0).abs() < 0.15, "t3={t3} t13={t13}");
    }

    #[test]
    fn cudnn_wins_small_kernels_fbfft_wins_large() {
        // Paper §IV-B: "For small kernels (smaller than 7), cuDNN
        // outperforms fbfft. Otherwise, fbfft is faster."
        for k in [3usize, 5] {
            let cfg = ConvConfig::from_tuple(64, 128, 64, k, 1);
            assert!(
                time_of(&CuDnn, &cfg) < time_of(&Fbfft, &cfg),
                "cuDNN should win at k={k}"
            );
        }
        for k in [7usize, 9, 11, 13] {
            let cfg = ConvConfig::from_tuple(64, 128, 64, k, 1);
            assert!(
                time_of(&Fbfft, &cfg) < time_of(&CuDnn, &cfg),
                "fbfft should win at k={k}"
            );
        }
    }

    #[test]
    fn memory_is_highest_and_jumps_at_pow2_boundaries() {
        // Paper Fig. 5: fbfft consumes the most memory, with
        // fluctuations driven by power-of-two padding.
        let cfg = ConvConfig::paper_base();
        let fb = Fbfft.plan(&cfg).peak_bytes();
        assert!(fb > Caffe.plan(&cfg).peak_bytes());
        assert!(fb > CudaConvnet2.plan(&cfg).peak_bytes());

        // i = 128 → N = 128; i = 144 → N = 256: the spectrum quadruples.
        let at_128 = Fbfft::spectrum_bytes(&ConvConfig::from_tuple(64, 128, 64, 11, 1));
        let at_144 = Fbfft::spectrum_bytes(&ConvConfig::from_tuple(64, 144, 64, 11, 1));
        assert!(at_144 > 3 * at_128);
    }

    #[test]
    fn paper_memory_band_magnitude() {
        // Paper Fig. 5: fbfft ranges 1632–10866 MB across the sweeps.
        // The base configuration should land within that order of
        // magnitude (gigabytes, not hundreds of MB).
        let cfg = ConvConfig::paper_base();
        let mb = Fbfft.plan(&cfg).peak_bytes() / (1024 * 1024);
        assert!((800..12_000).contains(&mb), "fbfft peak {mb} MB");
    }

    #[test]
    fn hotspots_are_the_four_paper_kernels() {
        let cfg = ConvConfig::paper_base();
        let report = Fbfft.plan(&cfg).execute(&DeviceSpec::k40c(), 1).unwrap();
        let names: Vec<_> = report.kernels.iter().map(|k| k.name.as_str()).collect();
        for expected in [
            "decimateInFrequency",
            "decimateInFrequencyInverse",
            "Transpose",
            "Cgemm",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }
}
