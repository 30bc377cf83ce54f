//! An nvprof-style profiling session.
//!
//! Paper §III-B: *"With the nvprof tool provided by NVIDIA, we profile
//! and analyze those top kernels in five important metrics"* and §V-A:
//! *"we group the similar kernels who have the same functionalities into
//! one"*. A [`ProfilerSession`] records kernel launches (aggregated by
//! kernel name), host↔device transfers and device-memory allocations,
//! then renders a [`ProfileReport`] with the paper's aggregations:
//! hotspot-kernel runtime shares (Fig. 4), runtime-weighted top-kernel
//! metrics (Fig. 6), transfer overhead fractions (Fig. 7) and peak
//! memory (Fig. 5).
//!
//! nvprof times every launch; the model is pure, so
//! [`ProfilerSession::launch_times`] times a planned kernel once and
//! merges that result `count` times, with the same merge sequence as
//! `count` separate launches. The session keeps aggregates only, no
//! per-launch timeline: a caller that wants spans (e.g.
//! `ExecutionPlan::execute_traced`) pushes them itself.

use crate::device::DeviceSpec;
use crate::kernel::KernelDesc;
use crate::memory::{MemoryTracker, OomError};
use crate::metrics::KernelMetrics;
use crate::timing::{time_kernel, TimingResult};
use crate::transfer::Transfer;
use serde::{Deserialize, Serialize};

/// Aggregated record of every launch of one (grouped) kernel name.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelRecord {
    /// Grouped kernel name.
    pub name: String,
    /// Number of launches recorded.
    pub launches: u64,
    /// Total time across launches, milliseconds.
    pub total_ms: f64,
    /// Runtime-weighted metrics across launches.
    pub metrics: KernelMetrics,
}

/// Rendered output of a session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Device the session modeled.
    pub device: String,
    /// Kernel records, sorted by descending total time.
    pub kernels: Vec<KernelRecord>,
    /// Sum of kernel time, milliseconds.
    pub kernel_ms: f64,
    /// Total wire time of transfers, milliseconds.
    pub transfer_wire_ms: f64,
    /// Transfer time visible on the critical path, milliseconds.
    pub transfer_visible_ms: f64,
    /// Peak device memory, bytes.
    pub peak_mem_bytes: u64,
}

impl ProfileReport {
    /// End-to-end modeled time: kernels + unhidden transfers.
    pub fn total_ms(&self) -> f64 {
        self.kernel_ms + self.transfer_visible_ms
    }

    /// Fraction of total time spent in visible transfers — the paper's
    /// Fig. 7 quantity.
    pub fn transfer_fraction(&self) -> f64 {
        let total = self.total_ms();
        if total <= 0.0 {
            0.0
        } else {
            self.transfer_visible_ms / total
        }
    }

    /// Runtime share of one kernel group — the paper's Fig. 4 quantity.
    pub fn kernel_share(&self, name: &str) -> f64 {
        if self.kernel_ms <= 0.0 {
            return 0.0;
        }
        self.kernels
            .iter()
            .find(|k| k.name == name)
            .map(|k| k.total_ms / self.kernel_ms)
            .unwrap_or(0.0)
    }

    /// The top `n` kernels by runtime.
    pub fn top_kernels(&self, n: usize) -> &[KernelRecord] {
        &self.kernels[..n.min(self.kernels.len())]
    }

    /// Runtime-weighted metric aggregate over the top `n` kernels — the
    /// paper's Fig. 6 methodology ("take a weighted average of those top
    /// kernels to get the final estimate of performance metrics for that
    /// implementation").
    pub fn weighted_metrics(&self, top_n: usize) -> KernelMetrics {
        let rows: Vec<(f64, KernelMetrics)> = self
            .top_kernels(top_n)
            .iter()
            .map(|k| (k.total_ms, k.metrics))
            .collect();
        KernelMetrics::weighted_average(&rows)
    }
}

/// A recording session over one device.
///
/// ```
/// use gcnn_gpusim::{DeviceSpec, KernelDesc, LaunchConfig, ProfilerSession};
///
/// let mut session = ProfilerSession::new(DeviceSpec::k40c());
/// let mut kernel = KernelDesc::new("sgemm", LaunchConfig::new(1024, 256));
/// kernel.flops = 1_000_000_000;
/// session.launch(&kernel);
/// let report = session.report();
/// assert_eq!(report.kernels[0].name, "sgemm");
/// assert!(report.total_ms() > 0.0);
/// ```
#[derive(Debug)]
pub struct ProfilerSession {
    dev: DeviceSpec,
    kernels: Vec<KernelRecord>,
    transfer_wire_ms: f64,
    transfer_visible_ms: f64,
    memory: MemoryTracker,
}

impl ProfilerSession {
    /// Start a session on a device.
    pub fn new(dev: DeviceSpec) -> Self {
        let memory = MemoryTracker::new(dev.global_mem_bytes);
        ProfilerSession {
            dev,
            kernels: Vec::new(),
            transfer_wire_ms: 0.0,
            transfer_visible_ms: 0.0,
            memory,
        }
    }

    /// Record one kernel launch; returns the timing for the caller.
    pub fn launch(&mut self, kernel: &KernelDesc) -> TimingResult {
        self.launch_times(kernel, 1)
    }

    /// Record `count` identical launches of `kernel`, timing it once;
    /// returns the timing of one launch. Every record ends with the same
    /// bits as after `count` calls of [`ProfilerSession::launch`];
    /// `count == 0` records nothing.
    pub fn launch_times(&mut self, kernel: &KernelDesc, count: u32) -> TimingResult {
        let result = time_kernel(&self.dev, kernel);
        let mut merges = count;
        let rec = match self.kernels.iter().position(|r| r.name == kernel.name) {
            Some(i) => &mut self.kernels[i],
            None if count == 0 => return result,
            None => {
                merges -= 1;
                self.kernels.push(KernelRecord {
                    name: kernel.name.clone(),
                    launches: 1,
                    total_ms: result.time_ms,
                    metrics: result.metrics,
                });
                self.kernels.last_mut().expect("just pushed")
            }
        };
        for _ in 0..merges {
            // Merge metrics runtime-weighted.
            let merged = KernelMetrics::weighted_average(&[
                (rec.total_ms, rec.metrics),
                (result.time_ms, result.metrics),
            ]);
            rec.launches += 1;
            rec.total_ms += result.time_ms;
            rec.metrics = KernelMetrics {
                runtime_ms: rec.total_ms,
                ..merged
            };
        }
        result
    }

    /// Record a host↔device transfer.
    pub fn transfer(&mut self, t: Transfer) {
        self.transfer_wire_ms += t.wire_time_ms(&self.dev);
        self.transfer_visible_ms += t.visible_time_ms(&self.dev);
    }

    /// Allocate device memory (tracked toward the peak).
    pub fn alloc(
        &mut self,
        label: impl Into<String>,
        bytes: u64,
    ) -> Result<crate::memory::AllocationId, OomError> {
        self.memory.alloc(label, bytes)
    }

    /// Free a device allocation.
    pub fn free(&mut self, id: crate::memory::AllocationId) {
        self.memory.free(id);
    }

    /// Render the report.
    pub fn report(&self) -> ProfileReport {
        let mut kernels = self.kernels.clone();
        kernels.sort_by(|a, b| b.total_ms.total_cmp(&a.total_ms));
        let kernel_ms = kernels.iter().map(|k| k.total_ms).sum();
        ProfileReport {
            device: self.dev.name.clone(),
            kernels,
            kernel_ms,
            transfer_wire_ms: self.transfer_wire_ms,
            transfer_visible_ms: self.transfer_visible_ms,
            peak_mem_bytes: self.memory.peak(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::LaunchConfig;
    use crate::transfer::TransferDirection;

    fn kernel(name: &str, flops: u64) -> KernelDesc {
        let mut k = KernelDesc::new(name, LaunchConfig::new(1024, 256));
        k.flops = flops;
        k.compute_efficiency = 0.6;
        k
    }

    #[test]
    fn launches_aggregate_by_name() {
        let mut s = ProfilerSession::new(DeviceSpec::k40c());
        s.launch(&kernel("gemm", 1_000_000_000));
        s.launch(&kernel("gemm", 1_000_000_000));
        s.launch(&kernel("im2col", 100_000_000));
        let r = s.report();
        assert_eq!(r.kernels.len(), 2);
        assert_eq!(r.kernels[0].name, "gemm");
        assert_eq!(r.kernels[0].launches, 2);
        assert!(r.kernels[0].total_ms > r.kernels[1].total_ms);
    }

    /// Every field of every record, floats as bits.
    fn record_bits(s: &ProfilerSession) -> Vec<(String, u64, [u64; 9])> {
        s.kernels
            .iter()
            .map(|r| {
                let m = &r.metrics;
                let f = [
                    r.total_ms,
                    m.runtime_ms,
                    m.achieved_occupancy,
                    m.ipc,
                    m.warp_execution_efficiency,
                    m.gld_efficiency,
                    m.gst_efficiency,
                    m.shared_efficiency,
                    m.flop_efficiency,
                ];
                (r.name.clone(), r.launches, f.map(f64::to_bits))
            })
            .collect()
    }

    #[test]
    fn launch_times_matches_repeated_launch_bit_for_bit() {
        let mut gemm = kernel("gemm", 1_000_000_000);
        gemm.warp_efficiency = 0.7;
        let mut im2col = kernel("im2col", 30_000_000);
        im2col.gmem_load_bytes = 1 << 24;
        let kernels = [gemm, im2col];
        let mut batched = ProfilerSession::new(DeviceSpec::k40c());
        let mut single = ProfilerSession::new(DeviceSpec::k40c());
        for n in [0u32, 1, 2, 7, 512] {
            for k in &kernels {
                let once = batched.launch_times(k, n);
                for _ in 0..n {
                    assert_eq!(single.launch(k).time_ms.to_bits(), once.time_ms.to_bits());
                }
                assert_eq!(record_bits(&batched), record_bits(&single), "n = {n}");
            }
            if n == 0 {
                assert!(batched.report().kernels.is_empty());
            }
        }
        assert_eq!(batched.report().kernels[0].launches, 522);
    }

    #[test]
    fn kernel_share_sums_to_one() {
        let mut s = ProfilerSession::new(DeviceSpec::k40c());
        s.launch(&kernel("a", 3_000_000_000));
        s.launch(&kernel("b", 1_000_000_000));
        let r = s.report();
        let total = r.kernel_share("a") + r.kernel_share("b");
        assert!((total - 1.0).abs() < 1e-9);
        assert!(r.kernel_share("a") > 0.5);
        assert_eq!(r.kernel_share("missing"), 0.0);
    }

    #[test]
    fn transfer_fraction_reflects_visibility() {
        let mut s = ProfilerSession::new(DeviceSpec::k40c());
        s.launch(&kernel("k", 1_000_000_000));
        s.transfer(Transfer::prefetched(
            TransferDirection::HostToDevice,
            1 << 30,
        ));
        let hidden = s.report();
        assert!(hidden.transfer_fraction() < 1e-9);
        assert!(hidden.transfer_wire_ms > 0.0);

        let mut s = ProfilerSession::new(DeviceSpec::k40c());
        s.launch(&kernel("k", 1_000_000_000));
        s.transfer(Transfer::sync(TransferDirection::HostToDevice, 1 << 30));
        let visible = s.report();
        assert!(visible.transfer_fraction() > 0.5);
    }

    #[test]
    fn memory_peak_tracked_through_session() {
        let mut s = ProfilerSession::new(DeviceSpec::k40c());
        let a = s.alloc("input", 1 << 30).unwrap();
        s.alloc("workspace", 2 << 30).unwrap();
        s.free(a);
        assert_eq!(s.report().peak_mem_bytes, 3 << 30);
    }

    #[test]
    fn weighted_metrics_follow_dominant_kernel() {
        let mut s = ProfilerSession::new(DeviceSpec::k40c());
        let mut fast = kernel("dominant", 50_000_000_000);
        fast.warp_efficiency = 1.0;
        let mut slow = kernel("minor", 100_000_000);
        slow.warp_efficiency = 0.5;
        s.launch(&fast);
        s.launch(&slow);
        let m = s.report().weighted_metrics(5);
        assert!(m.warp_execution_efficiency > 95.0, "{m:?}");
    }

    #[test]
    fn oom_propagates() {
        let mut s = ProfilerSession::new(DeviceSpec::k40c());
        assert!(s.alloc("huge", 13 * (1 << 30)).is_err());
    }
}
