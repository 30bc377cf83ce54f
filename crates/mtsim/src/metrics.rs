//! Per-stream and whole-simulation reports.

/// Outcome of one stream's jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Stream name (from the [`crate::TenantSpec`]).
    pub name: String,
    /// Jobs that ran to completion.
    pub jobs_completed: u32,
    /// Mean end-to-end job latency (arrival → completion), ms.
    pub latency_mean_ms: f64,
}

/// Outcome of a whole multi-tenant simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Wall-clock span from t=0 to the last job completion, ms.
    pub makespan_ms: f64,
    /// Involuntary stream switches charged with the context-switch
    /// penalty (round-robin quantum expiries).
    pub preemptions: u64,
    /// Per-stream outcomes, in tenant submission order.
    pub streams: Vec<StreamReport>,
}
