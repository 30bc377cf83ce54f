//! Tenant streams: who is submitting work, what one job looks like,
//! and when jobs arrive.

use gcnn_frameworks::{ExecutionPlan, PlannedKernel};

/// When a stream's jobs arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// The next job is submitted the instant the previous one
    /// completes (a training loop, or a saturating load generator).
    ClosedLoop,
    /// Jobs arrive on a fixed period regardless of completions (an
    /// inference stream with external request rate); a slow device
    /// grows the queue.
    Open {
        /// Inter-arrival period, microseconds.
        period_us: f64,
    },
}

/// One client stream: a named sequence of kernels (one *job*) submitted
/// `jobs` times under an [`Arrival`] process.
///
/// A job is the kernel schedule of one framework iteration — the
/// device-side portion of an [`ExecutionPlan`]. Host↔device transfers
/// are excluded: the simulator arbitrates the compute engine, and on
/// the modeled parts copies ride a separate DMA engine.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Stream name (appears in reports).
    pub name: String,
    /// The kernel sequence of one job, in dependency order. Each
    /// [`PlannedKernel`] launches `count` times back-to-back.
    pub kernels: Vec<PlannedKernel>,
    /// Arrival process.
    pub arrival: Arrival,
    /// Total jobs this stream submits before going quiet.
    pub jobs: u32,
}

impl TenantSpec {
    /// A stream replaying the kernel schedule of `plan` (transfers and
    /// allocations are dropped; see the type-level docs).
    pub fn from_plan(name: &str, plan: &ExecutionPlan, arrival: Arrival, jobs: u32) -> Self {
        TenantSpec {
            name: name.to_string(),
            kernels: plan.kernels.clone(),
            arrival,
            jobs,
        }
    }

    /// Number of kernel launches in one job.
    pub fn launches_per_job(&self) -> u64 {
        self.kernels.iter().map(|pk| pk.count as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnn_gpusim::{KernelDesc, LaunchConfig};

    #[test]
    fn from_plan_keeps_kernels_drops_the_rest() {
        let mut plan = ExecutionPlan::default();
        plan.allocations.push(("buf".into(), 1024));
        plan.kernels.push(PlannedKernel::times(
            KernelDesc::new("k", LaunchConfig::new(64, 256)),
            3,
        ));
        let t = TenantSpec::from_plan("caffe", &plan, Arrival::ClosedLoop, 5);
        assert_eq!(t.name, "caffe");
        assert_eq!(t.kernels.len(), 1);
        assert_eq!(t.launches_per_job(), 3);
        assert_eq!(t.jobs, 5);
    }
}
