//! The implementation advisor.
//!
//! The paper's stated goal (§I): *"assist practitioners identifying the
//! implementations that best serve their CNN computation needs in
//! different scenarios"*, and its Summary heuristics (§IV-B, §V-B):
//! fbfft for large kernels, cuDNN for small kernels or strides > 1,
//! cuda-convnet2 when memory is tight, "a trade-off between speed and
//! memory consumption needs to be considered". [`advise`] runs the
//! actual models rather than the heuristics — and the tests check the
//! two agree.

use crate::compare::{evaluate, ComparisonCell};
use gcnn_conv::ConvConfig;
use gcnn_frameworks::all_implementations;
use gcnn_gpusim::DeviceSpec;
use serde::{Deserialize, Serialize};

/// What the practitioner is optimizing for.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Scenario {
    /// Minimize runtime, memory no object.
    Speed,
    /// Minimize peak memory.
    Memory,
    /// Minimize runtime subject to a peak-memory budget in bytes.
    SpeedWithinMemory(u64),
}

/// One candidate row in an [`Advice`]: name, modeled time, peak memory,
/// and why it was excluded (if it was).
pub type Candidate = (String, Option<f64>, Option<u64>, Option<String>);

/// The advisor's verdict.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Advice {
    /// Recommended implementation.
    pub implementation: String,
    /// Its modeled time (ms) for one training iteration.
    pub time_ms: f64,
    /// Its peak memory (bytes).
    pub peak_bytes: u64,
    /// All candidates considered: `(name, time, peak, excluded_reason)`.
    pub candidates: Vec<Candidate>,
}

/// Recommend an implementation for a configuration and scenario.
///
/// Returns `None` when no implementation supports the configuration
/// within the constraints.
///
/// ```
/// use gcnn_conv::ConvConfig;
/// use gcnn_core::{advise, Scenario};
/// use gcnn_gpusim::DeviceSpec;
///
/// let cfg = ConvConfig::paper_base(); // large 11×11 kernels
/// let advice = advise(&cfg, Scenario::Speed, &DeviceSpec::k40c()).unwrap();
/// assert_eq!(advice.implementation, "fbfft"); // the paper's §IV-B summary
/// ```
pub fn advise(cfg: &ConvConfig, scenario: Scenario, dev: &DeviceSpec) -> Option<Advice> {
    let mut candidates = Vec::new();
    let mut best: Option<(String, f64, u64)> = None;

    for imp in all_implementations() {
        let name = imp.name().to_string();
        match evaluate(imp.as_ref(), cfg, dev) {
            ComparisonCell::Unsupported(reason) => {
                candidates.push((name, None, None, Some(reason)));
            }
            ComparisonCell::OutOfMemory => {
                candidates.push((name, None, None, Some("out of device memory".into())));
            }
            ComparisonCell::Time(t) => {
                let peak = imp.plan(cfg).peak_bytes();
                let excluded = match scenario {
                    Scenario::SpeedWithinMemory(budget) if peak > budget => {
                        Some(format!("peak {peak} B exceeds budget {budget} B"))
                    }
                    _ => None,
                };
                let eligible = excluded.is_none();
                candidates.push((name.clone(), Some(t), Some(peak), excluded));
                if eligible {
                    let better = match (&best, scenario) {
                        (None, _) => true,
                        (Some((_, bt, _)), Scenario::Speed | Scenario::SpeedWithinMemory(_)) => {
                            t < *bt
                        }
                        (Some((_, _, bp)), Scenario::Memory) => peak < *bp,
                    };
                    if better {
                        best = Some((name, t, peak));
                    }
                }
            }
        }
    }

    best.map(|(implementation, time_ms, peak_bytes)| Advice {
        implementation,
        time_ms,
        peak_bytes,
        candidates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceSpec {
        DeviceSpec::k40c()
    }

    #[test]
    fn large_kernel_speed_advice_is_fbfft() {
        // Paper Summary: "fbfft is the fastest implementation to train a
        // CNN model with large kernels."
        let cfg = ConvConfig::from_tuple(64, 128, 64, 11, 1);
        let a = advise(&cfg, Scenario::Speed, &dev()).unwrap();
        assert_eq!(a.implementation, "fbfft");
    }

    #[test]
    fn small_kernel_speed_advice_is_cudnn() {
        // "For small kernels, cuDNN would be a good choice."
        let cfg = ConvConfig::from_tuple(64, 128, 64, 3, 1);
        let a = advise(&cfg, Scenario::Speed, &dev()).unwrap();
        assert_eq!(a.implementation, "cuDNN");
    }

    #[test]
    fn strided_configs_go_to_cudnn() {
        // "For greater stride, cuDNN results in the best performance."
        let cfg = ConvConfig::from_tuple(64, 128, 64, 11, 2);
        let a = advise(&cfg, Scenario::Speed, &dev()).unwrap();
        assert_eq!(a.implementation, "cuDNN");
        // FFT entries must be listed as excluded.
        let fbfft = a.candidates.iter().find(|(n, ..)| n == "fbfft").unwrap();
        assert!(fbfft.3.is_some());
    }

    #[test]
    fn memory_scenario_picks_cc2() {
        // "Cuda-convnet2 is well suitable for cases when the memory is
        // limited."
        let cfg = ConvConfig::paper_base();
        let a = advise(&cfg, Scenario::Memory, &dev()).unwrap();
        assert_eq!(a.implementation, "cuda-convnet2");
    }

    #[test]
    fn memory_budget_excludes_fbfft() {
        // With a 1 GB budget the FFT implementations are out and the
        // fastest remaining (cuDNN's fused path or Torch/Caffe) wins.
        let cfg = ConvConfig::paper_base();
        let a = advise(&cfg, Scenario::SpeedWithinMemory(1 << 30), &dev()).unwrap();
        assert_ne!(a.implementation, "fbfft");
        assert!(a.peak_bytes <= 1 << 30);
        let fb = a.candidates.iter().find(|(n, ..)| n == "fbfft").unwrap();
        assert!(fb.3.as_deref().unwrap_or("").contains("budget"));
    }

    #[test]
    fn impossible_constraints_yield_none() {
        let cfg = ConvConfig::paper_base();
        assert!(advise(&cfg, Scenario::SpeedWithinMemory(1), &dev()).is_none());
    }

    #[test]
    fn candidates_cover_all_seven() {
        let cfg = ConvConfig::paper_base();
        let a = advise(&cfg, Scenario::Speed, &dev()).unwrap();
        assert_eq!(a.candidates.len(), 7);
    }
}
