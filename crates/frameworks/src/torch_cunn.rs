//! Torch-cunn's `SpatialConvolutionMM`: the Torch flavor of
//! im2col + SGEMM.
//!
//! Distinguishing traits the paper measures: GEMM at ≈83 % of runtime
//! (Fig. 4b), the *lowest unrolling-family memory footprint* (Fig. 5 —
//! Torch shares activation/gradient buffers, 170–2093 MB), Table II
//! resources 84 regs / 8.1 KB, and a small synchronous input upload
//! each iteration (Fig. 7's 1–4 % band).

use crate::caffe::{unrolling_plan, UnrollingStyle};
use crate::common::Sizes;
use crate::plan::{ExecutionPlan, ResourceProfile};
use crate::ConvImplementation;
use gcnn_conv::{ConvConfig, Strategy};
use gcnn_gpusim::{AccessPattern, Transfer, TransferDirection};

/// The Torch-cunn implementation model.
#[derive(Debug, Clone, Copy, Default)]
pub struct TorchCunn;

impl TorchCunn {
    fn style() -> UnrollingStyle {
        UnrollingStyle {
            gemm_efficiency: 0.42,
            gemm_load_pattern: AccessPattern::Strided { stride_words: 6 },
            im2col_store_pattern: AccessPattern::Coalesced,
            resources: ResourceProfile {
                registers: 84,
                shared_kb: 8.1,
            },
            col_buffers: 1,
            share_activation_grads: true,
        }
    }
}

impl ConvImplementation for TorchCunn {
    fn name(&self) -> &'static str {
        "Torch-cunn"
    }

    fn strategy(&self) -> Strategy {
        Strategy::Unrolling
    }

    fn resources(&self) -> ResourceProfile {
        Self::style().resources
    }

    fn plan(&self, cfg: &ConvConfig) -> ExecutionPlan {
        let s = Sizes::of(cfg);
        // Synchronous pinned upload of the mini-batch each iteration.
        let transfers = vec![Transfer {
            direction: TransferDirection::HostToDevice,
            bytes: s.input_bytes,
            pinned: true,
            overlap: 0.0,
        }];
        unrolling_plan(cfg, &Self::style(), transfers, Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caffe::Caffe;
    use gcnn_gpusim::DeviceSpec;

    #[test]
    fn gemm_share_near_83_percent() {
        let cfg = ConvConfig::paper_base();
        let report = TorchCunn
            .plan(&cfg)
            .execute(&DeviceSpec::k40c(), 1)
            .unwrap();
        let share = report.kernel_share("sgemm");
        assert!(
            (0.70..=0.92).contains(&share),
            "GEMM share {share} outside Torch's ~83 % band"
        );
    }

    #[test]
    fn uses_less_memory_than_caffe() {
        // Paper Fig. 5: Torch-cunn is the most memory-efficient
        // unrolling implementation (shared activation gradients).
        let cfg = ConvConfig::paper_base();
        assert!(TorchCunn.plan(&cfg).peak_bytes() < Caffe.plan(&cfg).peak_bytes());
    }

    #[test]
    fn small_visible_transfer_overhead() {
        // Paper Fig. 7: Torch-cunn in the 1–15 % band — nonzero but
        // modest.
        let cfg = ConvConfig::paper_base();
        let report = TorchCunn
            .plan(&cfg)
            .execute(&DeviceSpec::k40c(), 1)
            .unwrap();
        let f = report.transfer_fraction();
        assert!(f > 0.001 && f < 0.15, "transfer fraction {f}");
    }

    #[test]
    fn resources_match_table2() {
        let r = TorchCunn.resources();
        assert_eq!(r.registers, 84);
        assert!((r.shared_kb - 8.1).abs() < 1e-6);
    }
}
