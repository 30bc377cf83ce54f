//! Fig. 6: nvprof-style metric profiles of the top kernels over the
//! Table I configurations.

use gcnn_conv::{table1_configs, ConvConfig, TABLE1_NAMES};
use gcnn_frameworks::{all_implementations, ConvImplementation};
use gcnn_gpusim::{DeviceSpec, KernelMetrics};
use serde::{Deserialize, Serialize};

/// How many top kernels enter the weighted aggregate (the paper: "top
/// kernels of each implementation").
pub const TOP_KERNELS: usize = 4;

/// One (implementation × configuration) profile row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GpuProfileRow {
    /// Implementation name.
    pub implementation: String,
    /// Table I layer name ("Conv1" …).
    pub layer: String,
    /// Runtime-weighted top-kernel metrics (None when the shape is
    /// unsupported).
    pub metrics: Option<KernelMetrics>,
}

/// Profile one implementation at one configuration.
pub fn profile_one(
    imp: &dyn ConvImplementation,
    cfg: &ConvConfig,
    dev: &DeviceSpec,
) -> Option<KernelMetrics> {
    imp.supports(cfg).ok()?;
    let report = imp.plan(cfg).execute(dev, 1).ok()?;
    Some(report.weighted_metrics(TOP_KERNELS))
}

/// The full Fig. 6 grid: all implementations × Table I layers.
pub fn gpu_profile(dev: &DeviceSpec) -> Vec<GpuProfileRow> {
    let mut rows = Vec::new();
    for imp in all_implementations() {
        for (cfg, name) in table1_configs().iter().zip(TABLE1_NAMES) {
            rows.push(GpuProfileRow {
                implementation: imp.name().to_string(),
                layer: name.to_string(),
                metrics: profile_one(imp.as_ref(), cfg, dev),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_of<'a>(rows: &'a [GpuProfileRow], imp: &str) -> Vec<&'a GpuProfileRow> {
        rows.iter().filter(|r| r.implementation == imp).collect()
    }

    fn grid() -> Vec<GpuProfileRow> {
        gpu_profile(&DeviceSpec::k40c())
    }

    #[test]
    fn grid_covers_all_pairs() {
        let rows = grid();
        assert_eq!(rows.len(), 7 * 5);
        // Table I is all stride 1, so everything is supported.
        assert!(rows.iter().all(|r| r.metrics.is_some()));
    }

    #[test]
    fn most_implementations_below_30_percent_occupancy() {
        // Paper §V-C-1: "most implementations have relatively low
        // achieved occupancy (less than 30%)" — Theano-fft is the
        // documented exception.
        let rows = grid();
        for r in &rows {
            let m = r.metrics.as_ref().unwrap();
            if r.implementation != "Theano-fft" {
                assert!(
                    m.achieved_occupancy < 45.0,
                    "{} {}: occupancy {}",
                    r.implementation,
                    r.layer,
                    m.achieved_occupancy
                );
            }
        }
    }

    #[test]
    fn cc2_occupancy_band() {
        // Paper: cuda-convnet2 achieved occupancy 14–22 %.
        for r in rows_of(&grid(), "cuda-convnet2") {
            let occ = r.metrics.as_ref().unwrap().achieved_occupancy;
            assert!((10.0..=28.0).contains(&occ), "{}: {occ}", r.layer);
        }
    }

    #[test]
    fn theano_fft_higher_occupancy_worse_speed() {
        // Paper: Theano-fft 39–59 % occupancy yet the worst runtime —
        // "a higher occupancy does not mean a better performance".
        let rows = grid();
        for layer in TABLE1_NAMES {
            let of = |imp: &str| {
                rows.iter()
                    .find(|r| r.implementation == imp && r.layer == layer)
                    .and_then(|r| r.metrics.as_ref())
                    .cloned()
                    .unwrap()
            };
            let theano = of("Theano-fft");
            let fbfft = of("fbfft");
            assert!(
                theano.achieved_occupancy > fbfft.achieved_occupancy,
                "{layer}: theano occ {} ≤ fbfft {}",
                theano.achieved_occupancy,
                fbfft.achieved_occupancy
            );
            assert!(
                theano.runtime_ms > fbfft.runtime_ms,
                "{layer}: theano faster than fbfft?"
            );
        }
    }

    #[test]
    fn wee_high_except_theano_fft() {
        // Paper §V-C-4: WEE > 97 % everywhere except Theano-fft's
        // 66–81 %.
        for r in grid() {
            let m = r.metrics.as_ref().unwrap();
            if r.implementation == "Theano-fft" {
                assert!(
                    (60.0..=85.0).contains(&m.warp_execution_efficiency),
                    "{}: wee {}",
                    r.layer,
                    m.warp_execution_efficiency
                );
            } else {
                assert!(
                    m.warp_execution_efficiency > 95.0,
                    "{} {}: wee {}",
                    r.implementation,
                    r.layer,
                    m.warp_execution_efficiency
                );
            }
        }
    }

    #[test]
    fn global_efficiency_low_across_the_board() {
        // Paper §V-C-2: "Caffe, Torch-cunn, Theano-CorrMM and Theano-fft
        // have very low global memory load efficiencies"; cuDNN's
        // smem-resident kernels drag its aggregate down too.
        // cuda-convnet2's CHWN batch-major loads are the efficient
        // exception ("cuda-convnet2 also has efficient metric profiling
        // results").
        for r in grid() {
            let m = r.metrics.as_ref().unwrap();
            if r.implementation == "cuda-convnet2" {
                assert!(
                    m.gld_efficiency > 50.0,
                    "{}: gld {}",
                    r.layer,
                    m.gld_efficiency
                );
            } else {
                assert!(
                    m.gld_efficiency < 30.0,
                    "{} {}: gld {}",
                    r.implementation,
                    r.layer,
                    m.gld_efficiency
                );
                assert!(
                    m.gst_efficiency < 65.0,
                    "{} {}: gst {}",
                    r.implementation,
                    r.layer,
                    m.gst_efficiency
                );
            }
        }
    }

    #[test]
    fn shared_efficiency_contrast() {
        // Paper §V-C-3: Theano-fft 8–20 %; cuDNN > 100 % (broadcasts).
        let rows = grid();
        for r in rows_of(&rows, "Theano-fft") {
            let s = r.metrics.as_ref().unwrap().shared_efficiency;
            assert!((4.0..=25.0).contains(&s), "{}: shared {s}", r.layer);
        }
        for r in rows_of(&rows, "cuDNN") {
            let s = r.metrics.as_ref().unwrap().shared_efficiency;
            assert!(s > 100.0, "{}: shared {s}", r.layer);
        }
    }

    #[test]
    fn fastest_per_strategy_matches_paper() {
        // Fig. 6 runtime panel: "cuDNN is the fastest implementation in
        // unrolling-based convolution and fbfft is the fastest one in
        // FFT-based convolution."
        let rows = grid();
        for layer in TABLE1_NAMES {
            let t = |imp: &str| {
                rows.iter()
                    .find(|r| r.implementation == imp && r.layer == layer)
                    .and_then(|r| r.metrics.as_ref())
                    .map(|m| m.runtime_ms)
                    .unwrap()
            };
            for unroller in ["Caffe", "Torch-cunn", "Theano-CorrMM"] {
                assert!(t("cuDNN") < t(unroller), "{layer}: cuDNN vs {unroller}");
            }
            assert!(t("fbfft") < t("Theano-fft"), "{layer}: fbfft vs Theano-fft");
        }
    }
}
