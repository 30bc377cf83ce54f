//! Fig. 4: hotspot kernels inside each implementation.

use gcnn_conv::ConvConfig;
use gcnn_frameworks::{all_implementations, ConvImplementation};
use gcnn_gpusim::DeviceSpec;
use serde::{Deserialize, Serialize};

/// One implementation's kernel-share breakdown.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HotspotReport {
    /// Implementation name.
    pub implementation: String,
    /// `(kernel name, share of kernel time)` sorted descending; shares
    /// sum to 1 over kernels (transfers are reported separately, as the
    /// paper's Theano-fft panel does).
    pub kernel_shares: Vec<(String, f64)>,
    /// Visible transfer share of the total (kernels + transfers).
    pub transfer_share: f64,
}

impl HotspotReport {
    /// Share of a named kernel (0 when absent).
    pub fn share(&self, kernel: &str) -> f64 {
        self.kernel_shares
            .iter()
            .find(|(n, _)| n == kernel)
            .map(|(_, s)| *s)
            .unwrap_or(0.0)
    }
}

/// Profile one implementation's hotspot kernels at a configuration.
///
/// The paper uses the representative configuration `(64, 128, 64, 11,
/// 1)` for this analysis (§V-A): *"For different configurations, the
/// convolutional layer in the same implementation shows the similar
/// hotspot kernel results."*
pub fn hotspot_kernels(
    imp: &dyn ConvImplementation,
    cfg: &ConvConfig,
    dev: &DeviceSpec,
) -> Option<HotspotReport> {
    imp.supports(cfg).ok()?;
    let report = imp.plan(cfg).execute(dev, 1).ok()?;
    let kernel_shares = report
        .kernels
        .iter()
        .map(|k| (k.name.clone(), k.total_ms / report.kernel_ms))
        .collect();
    Some(HotspotReport {
        implementation: imp.name().to_string(),
        kernel_shares,
        transfer_share: report.transfer_fraction(),
    })
}

/// Hotspot reports for all seven implementations at the representative
/// configuration.
pub fn all_hotspots(cfg: &ConvConfig, dev: &DeviceSpec) -> Vec<HotspotReport> {
    all_implementations()
        .iter()
        .filter_map(|imp| hotspot_kernels(imp.as_ref(), cfg, dev))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnn_frameworks::implementation_by_name;

    fn report_for(name: &str) -> HotspotReport {
        let imp = implementation_by_name(name).unwrap();
        hotspot_kernels(imp.as_ref(), &ConvConfig::paper_base(), &DeviceSpec::k40c()).unwrap()
    }

    #[test]
    fn gemm_shares_match_figure_4() {
        // Paper Fig. 4a–c: GEMM = 87 % / 83 % / 80 % of Caffe /
        // Torch-cunn / Theano-CorrMM kernel time.
        for (name, lo, hi) in [
            ("Caffe", 0.78, 0.95),
            ("Torch-cunn", 0.74, 0.93),
            ("Theano-CorrMM", 0.65, 0.90),
        ] {
            let share = report_for(name).share("sgemm");
            assert!(
                (lo..=hi).contains(&share),
                "{name}: GEMM share {share:.3} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn ordering_caffe_torch_corrmm() {
        // The paper's 87 > 83 > 80 ordering.
        let caffe = report_for("Caffe").share("sgemm");
        let torch = report_for("Torch-cunn").share("sgemm");
        let corrmm = report_for("Theano-CorrMM").share("sgemm");
        assert!(caffe > torch, "caffe {caffe} ≤ torch {torch}");
        assert!(torch > corrmm, "torch {torch} ≤ corrmm {corrmm}");
    }

    #[test]
    fn cudnn_top_kernels_are_the_paper_pair() {
        // Fig. 4d: wgrad_alg0_engine and cuDNN_gemm dominate.
        let r = report_for("cuDNN");
        let combined = r.share("cuDNN_gemm") + r.share("wgrad_alg0_engine");
        assert!(combined > 0.85, "cuDNN fused kernels {combined}");
    }

    #[test]
    fn cc2_three_direct_kernels() {
        // Fig. 4e: filterActs / img_acts / weight_acts carry everything.
        let r = report_for("cuda-convnet2");
        let sum = r.share("filterActs_YxX_color")
            + r.share("img_acts_color")
            + r.share("conv_weight_acts_c_preload");
        assert!((sum - 1.0).abs() < 1e-9, "direct kernels {sum}");
    }

    #[test]
    fn fbfft_four_stage_pipeline() {
        // Fig. 4f: FFT + transpose + Cgemm + inverse FFT.
        let r = report_for("fbfft");
        for k in [
            "decimateInFrequency",
            "Transpose",
            "Cgemm",
            "decimateInFrequencyInverse",
        ] {
            assert!(r.share(k) > 0.05, "{k}: {}", r.share(k));
        }
    }

    #[test]
    fn theano_fft_dominated_by_data_preparation() {
        // Fig. 4g: "most of the runtime is spent on data preparation and
        // data transfer".
        let r = report_for("Theano-fft");
        let prep = r.share("data_preparation") + r.share("transpose_naive");
        assert!(prep > 0.4, "prep share {prep}");
        assert!(r.transfer_share > 0.0);
    }

    #[test]
    fn shares_sum_to_one() {
        for r in all_hotspots(&ConvConfig::paper_base(), &DeviceSpec::k40c()) {
            let sum: f64 = r.kernel_shares.iter().map(|(_, s)| s).sum();
            assert!((sum - 1.0).abs() < 1e-9, "{}: {sum}", r.implementation);
        }
    }
}
