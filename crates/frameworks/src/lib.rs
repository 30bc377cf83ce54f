//! # gcnn-frameworks
//!
//! The seven GPU convolution implementations of Li et al. (ICPP 2016) —
//! Caffe, cuDNN, Torch-cunn, Theano-CorrMM, Theano-fft, cuda-convnet2
//! and fbfft — modeled at kernel granularity.
//!
//! Each implementation is a [`ConvImplementation`]: it
//!
//! 1. enforces the paper's *shape limitations* (§IV-B Summary:
//!    cuda-convnet2 needs square shapes, batch % 32, filters % 16;
//!    FFT-based convolutions need stride 1),
//! 2. produces an [`ExecutionPlan`] for one training iteration
//!    (forward + backward, as the paper measures) — the exact kernel
//!    launches with their Table II register/shared-memory footprints,
//!    grid geometries, FLOP and byte counts, access patterns, workspace
//!    allocations and host↔device transfer policy — which
//!    `gcnn-gpusim` turns into runtime, memory and metric predictions,
//!    and
//! 3. delegates its *numerics* to the real `gcnn-conv` strategy it
//!    implements, so every framework's arithmetic is executable and
//!    testable on the CPU.
//!
//! The calibration constants (tile widths, instruction-mix efficiencies,
//! access-pattern strides) are chosen per framework so that the paper's
//! *mechanisms* — not its numbers — drive the predictions; see
//! DESIGN.md §4.3 for the mechanism-by-mechanism accounting.

#![forbid(unsafe_code)]

pub mod caffe;
pub mod common;
pub mod cuda_convnet2;
pub mod cudnn;
pub mod fbfft;
pub mod plan;
pub mod registry;
pub mod theano_corrmm;
pub mod theano_fft;
pub mod torch_cunn;

pub use plan::{ExecutionPlan, PlannedKernel, ResourceProfile};
pub use registry::{all_implementations, implementation_by_name};

use gcnn_conv::{ConvConfig, Strategy, Unsupported};

/// One of the paper's seven implementations.
pub trait ConvImplementation: Send + Sync {
    /// Name as the paper uses it ("Caffe", "cuDNN", "fbfft", …).
    fn name(&self) -> &'static str;

    /// Which of the three convolution strategies it follows.
    fn strategy(&self) -> Strategy;

    /// The paper's Table II resource profile of its hotspot kernels.
    fn resources(&self) -> ResourceProfile;

    /// Shape restrictions (paper §IV-B). The default is the rule of the
    /// strategy's `gcnn-conv` algorithm: any valid geometry, and stride 1
    /// for FFT. An implementation with restrictions of its own applies
    /// them after that rule.
    fn supports(&self, cfg: &ConvConfig) -> Result<(), Unsupported> {
        gcnn_conv::algorithm_for(self.strategy()).supports(cfg)
    }

    /// Kernel-level execution plan for one training iteration
    /// (forward + backward-data + backward-weights).
    fn plan(&self, cfg: &ConvConfig) -> ExecutionPlan;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_exposes_all_seven() {
        let impls = all_implementations();
        assert_eq!(impls.len(), 7);
        let names: Vec<_> = impls.iter().map(|i| i.name()).collect();
        for expected in [
            "Caffe",
            "cuDNN",
            "Torch-cunn",
            "Theano-CorrMM",
            "Theano-fft",
            "cuda-convnet2",
            "fbfft",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }
}
