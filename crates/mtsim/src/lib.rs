//! # gcnn-mtsim
//!
//! A discrete-event replay of N client streams — each repeating the
//! kernel schedule of a [`gcnn_frameworks`] execution plan — that
//! time-share one simulated device under round-robin slicing. Its one
//! caller is the benchmark's `paper_sim` workload, which adds the
//! simulated makespan of four Table I tenants to the modeled total it
//! checks bit for bit every iteration; `tests/pinned.rs` pins that
//! makespan.
//!
//! The paper measures each framework alone on a dedicated K40c, and no
//! figure reads this crate. It is the analytical model of
//! [`gcnn_gpusim`] driven by an event loop, no more:
//!
//! * [`stream`] — tenant specs: a job (one plan iteration's kernel
//!   sequence) plus an arrival process (closed-loop or open/periodic);
//! * [`SchedPolicy::RoundRobin`] — a service-time quantum plus a
//!   context-switch penalty on every rotation;
//! * [`engine`] — the integer-nanosecond event loop. Kernels are
//!   non-preemptible (pre-Pascal), so all decisions happen at kernel
//!   boundaries; per-kernel service times are precomputed with
//!   [`gcnn_gpusim::timing::time_kernel`] and the loop itself is
//!   allocation-free and bit-for-bit deterministic;
//! * [`SimReport`] — the makespan, the preemption count and each
//!   stream's completed jobs and mean latency.
//!
//! See DESIGN.md §9.

#![forbid(unsafe_code)]

pub mod engine;
mod metrics;
mod policy;
pub mod stream;

pub use engine::{simulate, Engine};
pub use metrics::{SimReport, StreamReport};
pub use policy::{SchedPolicy, SimConfig};
pub use stream::{Arrival, TenantSpec};
