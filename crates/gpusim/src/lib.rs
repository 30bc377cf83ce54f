//! # gcnn-gpusim
//!
//! An analytical performance model of a Kepler-class GPU — the
//! substitute substrate for the Tesla K40c on which Li et al. (ICPP
//! 2016) ran their measurements (see DESIGN.md §1 for the substitution
//! argument).
//!
//! The paper explains every observation it makes through a small set of
//! hardware mechanisms; this crate implements those mechanisms as
//! deterministic, unit-testable models:
//!
//! * [`device`] — the machine description: four presets, each a
//!   constructor. [`DeviceSpec::k40c`] carries the paper's §III-A
//!   numbers (15 SMs × 192 cores @ 745 MHz, 4.29 TFLOP/s, 12 GB @
//!   288 GB/s, 64 K registers + 48 KB shared per SM);
//!   [`DeviceSpec::gm204`] is validated against maxDNN's published
//!   occupancy figures; `k80_single_die` and `titan_x_maxwell` feed
//!   the device-sensitivity sweep.
//! * [`occupancy`] — the CUDA occupancy calculation (warp, register,
//!   shared-memory and block limits with Kepler allocation
//!   granularities); reproduces §V-C-1's "116 registers/thread → ~17
//!   active warps" arithmetic.
//! * [`coalescing`] — global-memory transaction efficiency as a function
//!   of the access pattern (`gld_efficiency`/`gst_efficiency`).
//! * [`banks`] — shared-memory bank-conflict degrees
//!   (`shared_efficiency`, including the >100 % broadcast regime the
//!   paper observes for cuDNN).
//! * [`timing`] — a latency-aware roofline that turns a kernel's
//!   resource usage into milliseconds and the paper's five metrics.
//! * [`memory`] — a device-memory allocator that tracks peak usage
//!   (Fig. 5) and raises OOM.
//! * [`transfer`] — a PCIe model for host↔device copies (Fig. 7),
//!   including pinned vs. pageable bandwidth and async overlap.
//! * [`profiler`] — an nvprof-style session that records kernel
//!   launches and produces runtime-weighted top-kernel metric
//!   aggregates exactly as §V-C describes.

#![forbid(unsafe_code)]

pub mod banks;
pub mod coalescing;
pub mod device;
pub mod kernel;
pub mod memory;
pub mod metrics;
pub mod occupancy;
pub mod profiler;
pub mod timeline;
pub mod timing;
pub mod transfer;

pub use device::DeviceSpec;
pub use kernel::{AccessPattern, KernelDesc, LaunchConfig, SharedAccessDesc};
pub use memory::{MemoryTracker, OomError};
pub use metrics::KernelMetrics;
pub use occupancy::{occupancy, Occupancy, OccupancyLimiter};
pub use profiler::{ProfileReport, ProfilerSession};
pub use timeline::{Span, SpanKind, Timeline};
pub use transfer::{Transfer, TransferDirection};
