//! Execution plans: the kernel-level schedule an implementation runs for
//! one training iteration.

use gcnn_gpusim::profiler::{add_launches, sorted_kernel_ms};
use gcnn_gpusim::{
    timing::time_kernel, DeviceSpec, KernelDesc, MemoryTracker, OomError, ProfileReport,
    ProfilerSession, SpanKind, Timeline, Transfer, TransferDirection,
};
use serde::{Deserialize, Serialize};

/// Table II row: per-thread registers and per-block shared memory of an
/// implementation's hotspot kernels.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourceProfile {
    /// Registers per thread.
    pub registers: u32,
    /// Shared memory per block, KB.
    pub shared_kb: f32,
}

impl ResourceProfile {
    /// Shared memory in bytes.
    pub fn shared_bytes(&self) -> u32 {
        (self.shared_kb * 1024.0) as u32
    }
}

/// One kernel repeated `count` times (e.g. Caffe's per-image im2col is
/// one planned kernel with `count = batch`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedKernel {
    /// The launch description.
    pub desc: KernelDesc,
    /// Number of identical launches (0: never launched).
    pub count: u32,
}

impl PlannedKernel {
    /// A kernel launched once.
    pub fn once(desc: KernelDesc) -> Self {
        PlannedKernel { desc, count: 1 }
    }

    /// A kernel launched `count` times.
    pub fn times(desc: KernelDesc, count: u32) -> Self {
        PlannedKernel { desc, count }
    }
}

/// Everything one training iteration does on the device.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ExecutionPlan {
    /// Device allocations, labeled (tensors + workspaces). All live for
    /// the duration of the iteration, so their sum is the peak.
    pub allocations: Vec<(String, u64)>,
    /// Host↔device copies of the iteration.
    pub transfers: Vec<Transfer>,
    /// Kernel launches in order.
    pub kernels: Vec<PlannedKernel>,
}

impl ExecutionPlan {
    /// Total device bytes the plan holds at peak, saturating at
    /// `u64::MAX`.
    pub fn peak_bytes(&self) -> u64 {
        self.allocations
            .iter()
            .fold(0u64, |sum, (_, b)| sum.saturating_add(*b))
    }

    /// Total useful FLOPs across all launches.
    pub fn total_flops(&self) -> u64 {
        self.kernels
            .iter()
            .map(|p| p.desc.flops * p.count as u64)
            .sum()
    }

    /// One iteration's modeled time, without building a profile: the bits
    /// of `execute(dev, 1)?.total_ms()`, and its `Err` when an allocation
    /// does not fit. The launches are totalled per kernel name by the
    /// session's own rule, so the only heap allocation is that table.
    pub fn modeled_ms(&self, dev: &DeviceSpec) -> Result<f64, OomError> {
        let mut memory = MemoryTracker::new(dev.global_mem_bytes);
        for (label, bytes) in &self.allocations {
            memory.reserve(label, *bytes)?;
        }
        let mut transfer_ms = 0.0;
        for t in &self.transfers {
            transfer_ms += t.visible_time_ms(dev);
        }
        let mut totals: Vec<(&str, f64)> = Vec::with_capacity(self.kernels.len());
        for pk in &self.kernels {
            let t = (pk.desc.name.as_str(), time_kernel(dev, &pk.desc).time_ms);
            add_launches(
                &mut totals,
                |e| (e.0, &mut e.1),
                (t.0, t.1, pk.count),
                || t,
                |_, _| {},
            );
        }
        Ok(sorted_kernel_ms(&mut totals, |t| t.1) + transfer_ms)
    }

    /// Execute the plan on a fresh profiler session over `dev` for
    /// `iterations` iterations (allocations persist across iterations,
    /// as frameworks reuse their buffers; kernels and transfers repeat).
    /// Each planned kernel is timed once per iteration and counted
    /// `count` times; no timeline is built.
    pub fn execute(&self, dev: &DeviceSpec, iterations: u32) -> Result<ProfileReport, OomError> {
        self.run(dev, iterations, None)
    }

    /// [`ExecutionPlan::execute`], additionally returning the execution
    /// [`Timeline`] (exportable to Chrome trace format): one span per
    /// launch and per visible transfer, in schedule order. The report is
    /// the one `execute` returns.
    pub fn execute_traced(
        &self,
        dev: &DeviceSpec,
        iterations: u32,
    ) -> Result<(ProfileReport, Timeline), OomError> {
        let mut timeline = Timeline::new();
        let report = self.run(dev, iterations, Some(&mut timeline))?;
        Ok((report, timeline))
    }

    fn run(
        &self,
        dev: &DeviceSpec,
        iterations: u32,
        mut timeline: Option<&mut Timeline>,
    ) -> Result<ProfileReport, OomError> {
        let mut session = ProfilerSession::new(dev.clone());
        for (label, bytes) in &self.allocations {
            session.alloc(label.clone(), *bytes)?;
        }
        for _ in 0..iterations {
            for t in &self.transfers {
                session.transfer(*t);
                let Some(tl) = timeline.as_deref_mut() else {
                    continue;
                };
                let visible = t.visible_time_ms(dev);
                if visible > 0.0 {
                    let label = match t.direction {
                        TransferDirection::HostToDevice => "H2D copy",
                        TransferDirection::DeviceToHost => "D2H copy",
                    };
                    tl.push(label, SpanKind::Transfer, visible);
                }
            }
            for pk in &self.kernels {
                let result = session.launch_times(&pk.desc, pk.count);
                if let Some(tl) = timeline.as_deref_mut() {
                    for _ in 0..pk.count {
                        tl.push(pk.desc.name.clone(), SpanKind::Kernel, result.time_ms);
                    }
                }
            }
        }
        Ok(session.report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnn_gpusim::LaunchConfig;

    fn plan() -> ExecutionPlan {
        let mut k = KernelDesc::new("work", LaunchConfig::new(512, 256));
        k.flops = 1_000_000_000;
        ExecutionPlan {
            allocations: vec![("input".into(), 1000), ("output".into(), 2000)],
            transfers: vec![Transfer::sync(TransferDirection::HostToDevice, 1 << 20)],
            kernels: vec![PlannedKernel::times(k, 3)],
        }
    }

    #[test]
    fn peak_and_flops_totals() {
        let p = plan();
        assert_eq!(p.peak_bytes(), 3000);
        assert_eq!(p.total_flops(), 3_000_000_000);
    }

    #[test]
    fn execute_counts_launches_and_iterations() {
        let p = plan();
        let report = p.execute(&DeviceSpec::k40c(), 2).unwrap();
        assert_eq!(report.kernels.len(), 1);
        assert_eq!(report.kernels[0].launches, 6);
        assert_eq!(report.peak_mem_bytes, 3000);
        assert!(report.transfer_visible_ms > 0.0);
    }

    #[test]
    fn traced_execution_reports_the_same_and_spans_every_launch() {
        let dev = DeviceSpec::k40c();
        let cfg = gcnn_conv::ConvConfig::paper_base();
        for imp in crate::all_implementations() {
            if imp.supports(&cfg).is_err() {
                continue;
            }
            let plan = imp.plan(&cfg);
            let report = plan.execute(&dev, 2).unwrap();
            let (traced, timeline) = plan.execute_traced(&dev, 2).unwrap();
            // Debug prints every float in round-trip form: equal text is equal bits.
            assert_eq!(
                format!("{report:?}"),
                format!("{traced:?}"),
                "{}",
                imp.name()
            );

            let mut expected = Vec::new();
            for t in plan
                .transfers
                .iter()
                .filter(|t| t.visible_time_ms(&dev) > 0.0)
            {
                let label = match t.direction {
                    TransferDirection::HostToDevice => "H2D copy",
                    TransferDirection::DeviceToHost => "D2H copy",
                };
                expected.push((label, SpanKind::Transfer, t.visible_time_ms(&dev)));
            }
            for pk in &plan.kernels {
                let ms = gcnn_gpusim::timing::time_kernel(&dev, &pk.desc).time_ms;
                let span = (pk.desc.name.as_str(), SpanKind::Kernel, ms);
                expected.extend(std::iter::repeat_n(span, pk.count as usize));
            }
            // Two iterations: the schedule repeats.
            let expected = [expected.clone(), expected].concat();
            let spans = timeline.spans();
            assert_eq!(spans.len(), expected.len(), "{}", imp.name());
            let launches: u32 = plan.kernels.iter().map(|pk| pk.count).sum();
            let kernel_spans = spans.iter().filter(|s| s.kind == SpanKind::Kernel).count();
            assert_eq!(kernel_spans, 2 * launches as usize, "{}", imp.name());
            for (span, (name, kind, ms)) in spans.iter().zip(&expected) {
                assert_eq!((span.name.as_str(), span.kind), (*name, *kind));
                assert_eq!(span.duration_us.to_bits(), (ms * 1e3).to_bits());
            }
        }
    }

    #[test]
    fn peak_bytes_saturates() {
        let mut p = plan();
        p.allocations.push(("huge".into(), u64::MAX));
        assert_eq!(p.peak_bytes(), u64::MAX);
        assert!(p.execute(&DeviceSpec::k40c(), 1).is_err());
    }

    #[test]
    fn oom_surfaces_from_execute() {
        let mut p = plan();
        p.allocations.push(("huge".into(), u64::MAX / 2));
        assert!(p.execute(&DeviceSpec::k40c(), 1).is_err());
    }

    #[test]
    fn resource_profile_bytes() {
        let r = ResourceProfile {
            registers: 86,
            shared_kb: 8.5,
        };
        assert_eq!(r.shared_bytes(), 8704);
    }
}
