//! Theano's `GpuCorrMM` op: im2col + SGEMM with Theano's buffer
//! management.
//!
//! The paper's distinguishing measurements: GEMM ≈80 % of runtime
//! (Fig. 4c), the *worst global-load efficiency* of the unrolling family
//! (11.64–15.79 %, §V-C-2: "mainly because of non-coalesced accesses"),
//! a slight edge over cuDNN at filter counts above 160 (Fig. 3c —
//! cuBLAS's finer tile quantization on the filter axis), and the Fig. 7
//! anomaly: on Conv2 (large input × tiny kernel) its data-transfer share
//! exceeds 60 % — modeled as Theano's intermediate-buffer pool falling
//! back to host-staged GEMM panels when the batched column matrix
//! outgrows its threshold.

use crate::caffe::{unrolling_plan, UnrollingStyle};
use crate::common::{self, Sizes};
use crate::plan::{ExecutionPlan, ResourceProfile};
use crate::ConvImplementation;
use gcnn_conv::{ConvConfig, Strategy};
use gcnn_gpusim::{AccessPattern, Transfer, TransferDirection};

/// Batched-column-matrix size above which the model host-stages GEMM
/// panels (the Conv2 pathology). 200 MB: Conv2's 219 MB trips it; the
/// paper's Fig. 3 sweep points and the other Table I layers do not
/// (they either have `ckk ≥ 32` or smaller column matrices).
const HOST_STAGE_BYTES: u64 = 200 * 1024 * 1024;
/// The fallback only bites thin GEMMs (tiny shared dimension), where the
/// kernel cannot amortize the staging.
const HOST_STAGE_MAX_CKK: u64 = 32;

/// The Theano-CorrMM implementation model.
#[derive(Debug, Clone, Copy, Default)]
pub struct TheanoCorrMM;

impl TheanoCorrMM {
    fn style() -> UnrollingStyle {
        UnrollingStyle {
            gemm_efficiency: 0.44,
            gemm_load_pattern: AccessPattern::Strided { stride_words: 8 },
            im2col_store_pattern: AccessPattern::Strided { stride_words: 2 },
            resources: ResourceProfile {
                registers: 72,
                shared_kb: 7.0,
            },
            col_buffers: 2,
            share_activation_grads: false,
        }
    }

    /// Whether this configuration trips the host-staging fallback.
    pub fn host_stages(cfg: &ConvConfig) -> bool {
        let s = Sizes::of(cfg);
        let batched_col_bytes = common::f32_bytes(s.b * s.ckk * s.o2);
        s.ckk < HOST_STAGE_MAX_CKK && batched_col_bytes > HOST_STAGE_BYTES
    }
}

impl ConvImplementation for TheanoCorrMM {
    fn name(&self) -> &'static str {
        "Theano-CorrMM"
    }

    fn strategy(&self) -> Strategy {
        Strategy::Unrolling
    }

    fn resources(&self) -> ResourceProfile {
        Self::style().resources
    }

    fn plan(&self, cfg: &ConvConfig) -> ExecutionPlan {
        let s = Sizes::of(cfg);
        let mut transfers = vec![Transfer {
            direction: TransferDirection::HostToDevice,
            bytes: s.input_bytes,
            pinned: true,
            overlap: 0.0,
        }];
        if Self::host_stages(cfg) {
            // Host-staged column panels: both im2col consumers (forward
            // and backward-weights) re-upload the whole batched panel,
            // pinned but synchronous.
            let batched_col_bytes = common::f32_bytes(s.b * s.ckk * s.o2);
            for _ in 0..2 {
                transfers.push(Transfer {
                    direction: TransferDirection::HostToDevice,
                    bytes: batched_col_bytes,
                    pinned: true,
                    overlap: 0.0,
                });
            }
        }
        unrolling_plan(cfg, &Self::style(), transfers, Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnn_conv::table1_configs;
    use gcnn_gpusim::DeviceSpec;

    #[test]
    fn gemm_share_near_80_percent() {
        let cfg = ConvConfig::paper_base();
        let report = TheanoCorrMM
            .plan(&cfg)
            .execute(&DeviceSpec::k40c(), 1)
            .unwrap();
        let share = report.kernel_share("sgemm");
        assert!(
            (0.65..=0.90).contains(&share),
            "GEMM share {share} outside CorrMM's ~80 % band"
        );
    }

    #[test]
    fn conv2_trips_host_staging_and_only_conv2() {
        // Paper Fig. 7: among the Table I configs, only Conv2 shows the
        // >60 % transfer spike.
        let configs = table1_configs();
        assert!(!TheanoCorrMM::host_stages(&configs[0]), "Conv1");
        assert!(TheanoCorrMM::host_stages(&configs[1]), "Conv2");
        assert!(!TheanoCorrMM::host_stages(&configs[2]), "Conv3");
        assert!(!TheanoCorrMM::host_stages(&configs[3]), "Conv4");
        assert!(!TheanoCorrMM::host_stages(&configs[4]), "Conv5");
        // The paper's runtime-sweep base config must not trip it either.
        assert!(!TheanoCorrMM::host_stages(&ConvConfig::paper_base()));
        // Nor the small-kernel sweep point (64, 128, 64, 3, 1).
        assert!(!TheanoCorrMM::host_stages(&ConvConfig::from_tuple(
            64, 128, 64, 3, 1
        )));
    }

    #[test]
    fn conv2_transfer_fraction_exceeds_half() {
        let conv2 = table1_configs()[1];
        let report = TheanoCorrMM
            .plan(&conv2)
            .execute(&DeviceSpec::k40c(), 1)
            .unwrap();
        let f = report.transfer_fraction();
        assert!(f > 0.5, "Conv2 transfer fraction {f}, paper shows >60 %");
    }

    #[test]
    fn normal_configs_have_small_transfer_share() {
        let cfg = ConvConfig::paper_base();
        let report = TheanoCorrMM
            .plan(&cfg)
            .execute(&DeviceSpec::k40c(), 1)
            .unwrap();
        assert!(report.transfer_fraction() < 0.10);
    }

    #[test]
    fn gld_efficiency_matches_paper_band() {
        // Paper §V-C-2: Theano-CorrMM gld efficiency 11.64–15.79 %.
        let cfg = ConvConfig::paper_base();
        let report = TheanoCorrMM
            .plan(&cfg)
            .execute(&DeviceSpec::k40c(), 1)
            .unwrap();
        let m = report.weighted_metrics(5);
        assert!(
            (8.0..=20.0).contains(&m.gld_efficiency),
            "gld {} outside the paper's band",
            m.gld_efficiency
        );
    }
}
