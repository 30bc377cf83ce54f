//! Whole-model framework comparison — the paper's practitioner question
//! asked at model granularity.
//!
//! The paper compares implementations one convolutional layer at a time;
//! a practitioner choosing a framework cares about the *whole model*.
//! This module times every conv layer of a model under every
//! implementation and reports (a) each framework's end-to-end conv time,
//! and (b) the "oracle" schedule that picks the best implementation per
//! layer — an upper bound on what a cuDNN-style auto-tuner could win,
//! and a direct consequence of the paper's "no single implementation is
//! the best for all scenarios".

use gcnn_frameworks::{all_implementations, ConvImplementation};
use gcnn_gpusim::DeviceSpec;
use gcnn_models::layer::{walk, InstanceKind, ModelSpec};
use serde::{Deserialize, Serialize};

/// Per-layer winner entry of the oracle schedule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OracleChoice {
    /// Layer name.
    pub layer: String,
    /// Winning implementation.
    pub implementation: String,
    /// Its time for the layer, milliseconds.
    pub time_ms: f64,
}

/// Result of a whole-model comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelComparison {
    /// Model name.
    pub model: String,
    /// Mini-batch used.
    pub batch: usize,
    /// Per-framework total conv time (ms); `None` when any layer is
    /// unsupported or out of memory on the device.
    pub totals: Vec<(String, Option<f64>)>,
    /// The per-layer oracle schedule.
    pub oracle: Vec<OracleChoice>,
}

impl ModelComparison {
    /// The oracle's total conv time.
    pub fn oracle_ms(&self) -> f64 {
        self.oracle.iter().map(|c| c.time_ms).sum()
    }

    /// Best single framework (name, total).
    pub fn best_single(&self) -> Option<(&str, f64)> {
        self.totals
            .iter()
            .filter_map(|(n, t)| t.map(|t| (n.as_str(), t)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// How many distinct implementations the oracle uses.
    pub fn oracle_diversity(&self) -> usize {
        self.oracle
            .iter()
            .map(|c| c.implementation.as_str())
            .collect::<std::collections::HashSet<_>>()
            .len()
    }
}

/// Time one layer's conv under one implementation (kernels + visible
/// transfers; memory constraints checked against the device).
fn layer_time(
    imp: &dyn ConvImplementation,
    cfg: &gcnn_conv::ConvConfig,
    dev: &DeviceSpec,
) -> Option<f64> {
    imp.supports(cfg).ok()?;
    imp.plan(cfg).modeled_ms(dev).ok()
}

/// Compare all implementations over every conv layer of `model`.
pub fn compare_model(model: &ModelSpec, batch: usize, dev: &DeviceSpec) -> ModelComparison {
    let impls = all_implementations();
    let convs: Vec<_> = walk(model, batch)
        .into_iter()
        .filter(|inst| inst.kind == InstanceKind::Conv)
        .collect();

    let mut totals: Vec<(String, Option<f64>)> = impls
        .iter()
        .map(|i| (i.name().to_string(), Some(0.0)))
        .collect();
    let mut oracle = Vec::with_capacity(convs.len());

    for inst in &convs {
        let cfg = inst.conv.expect("conv instance");
        let mut best: Option<(String, f64)> = None;
        for (imp, total) in impls.iter().zip(totals.iter_mut()) {
            match layer_time(imp.as_ref(), &cfg, dev) {
                Some(t) => {
                    if let Some(acc) = total.1.as_mut() {
                        *acc += t;
                    }
                    if best.as_ref().map(|(_, bt)| t < *bt).unwrap_or(true) {
                        best = Some((imp.name().to_string(), t));
                    }
                }
                None => total.1 = None,
            }
        }
        let (implementation, time_ms) = best.expect("at least one implementation per layer");
        oracle.push(OracleChoice {
            layer: inst.name.clone(),
            implementation,
            time_ms,
        });
    }

    ModelComparison {
        model: model.name.clone(),
        batch,
        totals,
        oracle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnn_models::{alexnet, googlenet, vgg16};

    fn dev() -> DeviceSpec {
        DeviceSpec::k40c()
    }

    #[test]
    fn oracle_never_worse_than_best_single() {
        for model in [alexnet(), vgg16()] {
            let cmp = compare_model(&model, 32, &dev());
            let (name, best) = cmp.best_single().expect("some framework completes");
            assert!(
                cmp.oracle_ms() <= best + 1e-9,
                "{}: oracle {} vs {name} {best}",
                cmp.model,
                cmp.oracle_ms()
            );
        }
    }

    #[test]
    fn oracle_mixes_implementations_on_alexnet() {
        // AlexNet has an 11×11/stride-4 first layer (cuDNN territory —
        // stride rules the FFT pair out) and 3×3/stride-1 tails: the
        // oracle must not be a single implementation.
        let cmp = compare_model(&alexnet(), 32, &dev());
        assert!(
            cmp.oracle_diversity() >= 2,
            "diversity {}",
            cmp.oracle_diversity()
        );
    }

    #[test]
    fn strided_layers_never_go_to_fft() {
        let cmp = compare_model(&alexnet(), 32, &dev());
        let conv1 = &cmp.oracle[0]; // stride-4 layer
        assert_ne!(conv1.implementation, "fbfft");
        assert_ne!(conv1.implementation, "Theano-fft");
    }

    #[test]
    fn totals_cover_all_seven() {
        let cmp = compare_model(&googlenet(), 16, &dev());
        assert_eq!(cmp.totals.len(), 7);
        // GoogLeNet's stride-2 stem conv rules out the FFT pair for the
        // whole-model totals.
        let fbfft_total = cmp.totals.iter().find(|(n, _)| n == "fbfft").unwrap();
        assert!(fbfft_total.1.is_none());
        // The unrollers complete everything.
        let cudnn_total = cmp.totals.iter().find(|(n, _)| n == "cuDNN").unwrap();
        assert!(cudnn_total.1.is_some());
    }

    #[test]
    fn oracle_covers_every_conv_layer() {
        let model = vgg16();
        let cmp = compare_model(&model, 16, &dev());
        let conv_count = walk(&model, 16)
            .iter()
            .filter(|i| i.kind == InstanceKind::Conv)
            .count();
        assert_eq!(cmp.oracle.len(), conv_count);
    }
}
