//! Per-stream and whole-simulation reports.

use serde::{Deserialize, Serialize};

/// Outcome of one stream's jobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamReport {
    /// Stream name (from the [`crate::TenantSpec`]).
    pub name: String,
    /// Jobs that ran to completion.
    pub jobs_completed: u32,
    /// Completed jobs per second of makespan.
    pub throughput_jobs_per_s: f64,
    /// Median time a job waited between arrival and its first kernel
    /// dispatch, milliseconds.
    pub queue_p50_ms: f64,
    /// 99th-percentile queueing time, milliseconds.
    pub queue_p99_ms: f64,
    /// Median time from first dispatch to last kernel completion,
    /// milliseconds.
    pub service_p50_ms: f64,
    /// 99th-percentile service time, milliseconds.
    pub service_p99_ms: f64,
    /// Mean end-to-end job latency (arrival → completion), ms.
    pub latency_mean_ms: f64,
    /// Occupancy-weighted fraction of the makespan this stream kept its
    /// assigned SMs busy: Σ(kernel time × achieved occupancy) over
    /// makespan. Under SM partitioning the denominator is the stream's
    /// partition, not the whole device.
    pub sm_utilization: f64,
    /// Job latency this stream would see alone on the full device, ms
    /// (service only — no queueing by construction).
    pub dedicated_latency_ms: f64,
    /// Interference slowdown: mean shared latency over dedicated
    /// latency. 1.0 = no interference.
    pub slowdown: f64,
}

/// Outcome of a whole multi-tenant simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Policy label the run used (`"fifo"`, `"rr"`, `"partition"`).
    pub policy: String,
    /// Wall-clock span from t=0 to the last job completion, ms.
    pub makespan_ms: f64,
    /// Total completed jobs per second of makespan, all streams.
    pub aggregate_throughput_jobs_per_s: f64,
    /// Fraction of (lanes × makespan) the device spent executing
    /// kernels (context-switch penalties count as idle).
    pub device_busy_fraction: f64,
    /// Involuntary stream switches charged with the context-switch
    /// penalty (round-robin quantum expiries).
    pub preemptions: u64,
    /// Per-stream outcomes, in tenant submission order.
    pub streams: Vec<StreamReport>,
}

/// Percentile of a sorted ascending sample set (nearest-rank), in the
/// samples' unit. Empty input returns 0.
pub(crate) fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[], 99.0), 0);
    }
}
