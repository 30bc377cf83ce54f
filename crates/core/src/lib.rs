//! # gcnn-core
//!
//! The paper's primary contribution, as a library: the performance
//! analysis harness of *Performance Analysis of GPU-based Convolutional
//! Neural Networks* (Li et al., ICPP 2016).
//!
//! The paper's methodology (§III-B) has two tiers, both implemented
//! here over the substrates in the sibling crates:
//!
//! **High-level workload profiling**
//! * [`sweep`] — the five parameter sweeps around the base 5-tuple
//!   `(64, 128, 64, 11, 1)` (Fig. 3/5 x-axes).
//! * [`compare`] — head-to-head runtime comparison of the seven
//!   implementations (Fig. 3), honoring each one's shape restrictions.
//! * `gcnn-models::breakdown` — hotspot-layer analysis (Fig. 2).
//!
//! **Detailed performance profiling**
//! * [`hotspot`] — hotspot kernels inside each implementation (Fig. 4).
//! * [`memprofile`] — peak GPU memory over the sweeps (Fig. 5).
//! * [`gpuprofile`] — nvprof-style metric profiles of the top kernels
//!   over the Table I configurations (Fig. 6).
//! * [`transfer`] — CPU↔GPU transfer overhead (Fig. 7).
//!
//! Plus [`advisor`] — the paper's stated goal ("assist practitioners
//! identifying the implementations that best serve their CNN computation
//! needs in different scenarios") as an executable decision procedure —
//! and [`report`], plain-text/JSON renderers for every table.

#![forbid(unsafe_code)]

pub mod advisor;
pub mod compare;
pub mod gpuprofile;
pub mod hotspot;
pub mod memprofile;
pub mod model_compare;
pub mod report;
pub mod sweep;
pub mod transfer;

pub use advisor::{advise, Advice, Scenario};
pub use compare::{runtime_comparison, ComparisonCell, ComparisonTable};
pub use gpuprofile::{gpu_profile, GpuProfileRow};
pub use hotspot::{hotspot_kernels, HotspotReport};
pub use memprofile::memory_comparison;
pub use model_compare::{compare_model, ModelComparison};
pub use sweep::{paper_sweeps, Sweep, SweepAxis};
pub use transfer::{transfer_overheads, TransferRow};
