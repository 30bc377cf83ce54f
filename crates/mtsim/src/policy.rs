//! The scheduling policy of the shared device.
//!
//! Pre-Pascal GPUs cannot preempt a running kernel, so the scheduler
//! makes decisions at *kernel boundaries* — its quantum is therefore a
//! service-time budget, not a hardware timer.

/// How the simulated device is shared between tenant streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedPolicy {
    /// Round-robin time slicing: the device stays with one stream until
    /// `quantum_us` of service time is consumed (or the stream runs
    /// dry), then rotates, paying the engine's context-switch penalty.
    /// Models process-level time-sharing without MPS.
    RoundRobin {
        /// Service-time budget per turn, microseconds.
        quantum_us: f64,
    },
}

/// Engine-level settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// The scheduling policy.
    pub policy: SchedPolicy,
}

impl SimConfig {
    /// A config for `policy`. Every rotation to a different stream costs
    /// the engine's fixed context-switch penalty.
    pub fn new(policy: SchedPolicy) -> Self {
        SimConfig { policy }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, Arrival, TenantSpec};
    use gcnn_frameworks::PlannedKernel;
    use gcnn_gpusim::{DeviceSpec, KernelDesc, LaunchConfig};

    #[test]
    fn default_config_charges_context_switches() {
        let one_job = |name: &str, flops: u64| {
            let mut k = KernelDesc::new(name, LaunchConfig::new(4096, 256));
            k.flops = flops;
            TenantSpec {
                name: name.to_string(),
                kernels: vec![PlannedKernel::once(k)],
                arrival: Arrival::ClosedLoop,
                jobs: 1,
            }
        };
        let (a, b) = (one_job("a", 1_000_000_000), one_job("b", 3_000_000_000));
        let (dev, cfg) = (
            DeviceSpec::k40c(),
            SimConfig::new(SchedPolicy::RoundRobin { quantum_us: 500.0 }),
        );
        let alone = |t: &TenantSpec| simulate(&dev, std::slice::from_ref(t), cfg).makespan_ms;
        let shared = simulate(&dev, &[a.clone(), b.clone()], cfg);
        // `a` runs, then one rotation hands the device to `b` for 25 µs
        // more than the two kernels alone; `a` had no work left, so the
        // rotation is not a preemption.
        let switch_ms = shared.makespan_ms - alone(&a) - alone(&b);
        assert!((switch_ms - 0.025).abs() < 1e-9, "{switch_ms} ms");
        assert_eq!(shared.preemptions, 0);
    }
}
