//! Fig. 2: per-layer-type runtime breakdown of real CNN models.
//!
//! Paper §IV-A: *"We break down four popular real-life CNN models […]
//! to collect the runtime of each layer and identify the hotspot layers
//! for each model. The runtime we collected is the average runtime of
//! each layer for 10 training iterations. Each training iteration
//! includes one forward propagation and one backward propagation."*

use crate::layer::{walk, InstanceKind, LayerInstance, ModelSpec};
use gcnn_frameworks::common::{gemm_kernel, GemmKernelSpec};
use gcnn_frameworks::ConvImplementation;
use gcnn_gpusim::{AccessPattern, DeviceSpec, KernelDesc, LaunchConfig, ProfilerSession};
use serde::{Deserialize, Serialize};

/// Layer classes of the paper's Fig. 2 legend.
pub type LayerClass = InstanceKind;

/// One layer's modeled time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BreakdownRow {
    /// Qualified layer name.
    pub name: String,
    /// Layer class.
    pub kind: LayerClass,
    /// Modeled time for one training iteration, milliseconds.
    pub time_ms: f64,
}

/// Breakdown of one model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelBreakdown {
    /// Model name.
    pub model: String,
    /// Mini-batch used.
    pub batch: usize,
    /// Per-layer rows.
    pub rows: Vec<BreakdownRow>,
}

impl ModelBreakdown {
    /// Total iteration time.
    pub fn total_ms(&self) -> f64 {
        self.rows.iter().map(|r| r.time_ms).sum()
    }

    /// Fraction of total time spent in a layer class.
    pub fn share(&self, kind: LayerClass) -> f64 {
        let total = self.total_ms();
        if total <= 0.0 {
            return 0.0;
        }
        self.rows
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.time_ms)
            .sum::<f64>()
            / total
    }
}

/// A memory-bound elementwise/copy kernel over `bytes` of traffic.
fn bandwidth_kernel(name: &str, bytes: u64) -> KernelDesc {
    let grid = (bytes / 4).div_ceil(256).max(1).min(u32::MAX as u64) as u32;
    let mut k = KernelDesc::new(name, LaunchConfig::new(grid, 256));
    k.regs_per_thread = 16;
    k.gmem_load_bytes = bytes / 2;
    k.gmem_store_bytes = bytes / 2;
    k.load_pattern = AccessPattern::Coalesced;
    k.store_pattern = AccessPattern::Coalesced;
    k.compute_efficiency = 0.05;
    k.occupancy_needed = 0.5;
    k
}

/// Model one non-conv layer's training-iteration time (fwd + bwd) on the
/// device.
fn time_other_layer(session: &mut ProfilerSession, inst: &LayerInstance) -> f64 {
    let in_bytes = inst.in_elems * 4;
    let out_bytes = inst.out_elems * 4;
    match inst.kind {
        InstanceKind::Pool => {
            // Forward reads the input and writes the output; backward
            // routes gradients back.
            let fwd = bandwidth_kernel("pool_fwd", in_bytes + out_bytes);
            let bwd = bandwidth_kernel("pool_bwd", in_bytes + out_bytes);
            session.launch(&fwd).time_ms + session.launch(&bwd).time_ms
        }
        InstanceKind::Relu => {
            let fwd = bandwidth_kernel("relu_fwd", 2 * out_bytes);
            let bwd = bandwidth_kernel("relu_bwd", 2 * out_bytes);
            session.launch(&fwd).time_ms + session.launch(&bwd).time_ms
        }
        InstanceKind::Concat => {
            let fwd = bandwidth_kernel("concat_fwd", 2 * out_bytes);
            let bwd = bandwidth_kernel("concat_bwd", 2 * out_bytes);
            session.launch(&fwd).time_ms + session.launch(&bwd).time_ms
        }
        InstanceKind::Softmax => {
            let k = bandwidth_kernel("softmax", 4 * out_bytes);
            session.launch(&k).time_ms
        }
        InstanceKind::Fc => {
            let (in_f, out_f) = inst.fc.expect("fc dims");
            let batch = (inst.in_elems / in_f as u64).max(1);
            let spec = GemmKernelSpec {
                regs: 80,
                smem: 8 * 1024,
                block: 256,
                tile_m: 64,
                tile_n: 64,
                compute_efficiency: 0.45,
                occupancy_needed: 0.25,
                load_pattern: AccessPattern::Coalesced,
                lane_utilization: 1.0,
            };
            // Forward, backward-data, backward-weights GEMMs.
            let fwd = gemm_kernel("fc_sgemm", out_f as u64, batch, in_f as u64, spec);
            let bwd_d = gemm_kernel("fc_sgemm", in_f as u64, batch, out_f as u64, spec);
            let bwd_w = gemm_kernel("fc_sgemm", out_f as u64, in_f as u64, batch, spec);
            session.launch(&fwd).time_ms
                + session.launch(&bwd_d).time_ms
                + session.launch(&bwd_w).time_ms
        }
        InstanceKind::Conv => unreachable!("conv layers are timed via the framework plan"),
    }
}

/// Produce the Fig. 2 breakdown of one model under a given convolution
/// implementation (the paper profiles the frameworks' own conv layers;
/// cuDNN-in-Caffe is the representative default in `gcnn-core`).
pub fn model_breakdown(
    model: &ModelSpec,
    batch: usize,
    conv_impl: &dyn ConvImplementation,
    dev: &DeviceSpec,
) -> ModelBreakdown {
    let instances = walk(model, batch);
    let mut session = ProfilerSession::new(dev.clone());
    let mut rows = Vec::with_capacity(instances.len());

    for inst in &instances {
        let time_ms = match inst.kind {
            InstanceKind::Conv => {
                let cfg = inst.conv.expect("conv config");
                let plan = conv_impl.plan(&cfg);
                // Time kernels + visible transfers only; Fig. 2 is a
                // timing figure, not a memory figure.
                let mut t = 0.0;
                for pk in &plan.kernels {
                    let time_ms = session.launch_times(&pk.desc, pk.count).time_ms;
                    for _ in 0..pk.count {
                        t += time_ms;
                    }
                }
                for tr in &plan.transfers {
                    t += tr.visible_time_ms(dev);
                }
                t
            }
            _ => time_other_layer(&mut session, inst),
        };
        rows.push(BreakdownRow {
            name: inst.name.clone(),
            kind: inst.kind,
            time_ms,
        });
    }

    ModelBreakdown {
        model: model.name.clone(),
        batch,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use gcnn_frameworks::cudnn::CuDnn;

    fn breakdown_of(model: ModelSpec) -> ModelBreakdown {
        model_breakdown(&model, 32, &CuDnn, &DeviceSpec::k40c())
    }

    #[test]
    fn conv_dominates_alexnet() {
        // Paper Fig. 2: conv ≈ 94 % for AlexNet.
        let b = breakdown_of(zoo::alexnet());
        let share = b.share(InstanceKind::Conv);
        assert!((0.80..=0.99).contains(&share), "conv share {share}");
    }

    #[test]
    fn conv_dominates_all_four_models() {
        // Paper Fig. 2: conv = 86–94 % across GoogLeNet, VGG, OverFeat,
        // AlexNet.
        for model in zoo::all_models() {
            let b = breakdown_of(model);
            let share = b.share(InstanceKind::Conv);
            assert!(share > 0.75, "{}: conv share {share} too low", b.model);
            assert!(
                share < 0.99,
                "{}: conv share {share} suspiciously high",
                b.model
            );
        }
    }

    #[test]
    fn fc_visible_but_minor_in_vgg() {
        let b = breakdown_of(zoo::vgg16());
        let fc = b.share(InstanceKind::Fc);
        assert!(fc > 0.0 && fc < 0.15, "fc share {fc}");
    }

    #[test]
    fn googlenet_has_concat_time() {
        let b = breakdown_of(zoo::googlenet());
        assert!(b.share(InstanceKind::Concat) > 0.0);
    }

    #[test]
    fn totals_are_positive_and_rows_complete() {
        let b = breakdown_of(zoo::alexnet());
        assert!(b.total_ms() > 0.0);
        assert_eq!(b.rows.len(), crate::layer::walk(&zoo::alexnet(), 32).len());
    }
}
