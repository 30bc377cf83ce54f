//! # gcnn-trace
//!
//! Lightweight observability for the gcnn workspace: nested span
//! timers, monotonic counters, gauges and a process-wide
//! [`MetricsRegistry`], mirroring the paper's methodology of per-layer
//! runtime breakdowns and hotspot kernel metrics — but pointed at this
//! reproduction's *own* hot paths (arena GEMM, plan-cached FFT, the
//! three convolution strategies).
//!
//! There is one build: every entry point below records. A span costs two
//! clock reads and one registry merge at its end, and a cached
//! [`Counter`] one relaxed atomic add, so a breakdown read from
//! [`snapshot`] comes from the same code that is timed.
//!
//! ## Use
//!
//! Span and counter names follow the `subsystem.verb` convention
//! enforced by `gcnn-audit` (lowercase dot-separated segments, e.g.
//! `gemm.sgemm`, `tensor.im2col`, `conv.nchwc.filter_packs`):
//!
//! ```
//! let _outer = gcnn_trace::span("network.layer");
//! {
//!     // aggregates as "network.layer/gemm.sgemm"
//!     let _inner = gcnn_trace::span("gemm.sgemm");
//!     gcnn_trace::counter_add("gemm.calls", 1);
//! }
//! assert!(gcnn_trace::snapshot().counter("gemm.calls") >= 1);
//! ```

#![forbid(unsafe_code)]

mod registry;
mod snapshot;
mod span;

pub use registry::{registry, MetricsRegistry};
pub use snapshot::{Snapshot, SpanNode, SpanStat};
/// RAII guard for one open span; see [`span`].
pub use span::SpanGuard;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cached handle to one counter's atomic cell. Cloning is cheap;
/// incrementing through a handle skips the registry lookup entirely,
/// which is what the hot paths (workspace checkouts, GEMM tiles) use.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Add `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Obtain a [`Counter`] handle, registering the counter on first use.
#[inline]
pub fn counter(name: &str) -> Counter {
    Counter {
        cell: registry().counter_cell(name),
    }
}

/// Add `delta` to the named counter.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    registry().counter_add(name, delta);
}

/// Add 1 to the named counter.
#[inline]
pub fn counter_inc(name: &str) {
    counter_add(name, 1);
}

/// Set the named gauge (last write wins).
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    registry().gauge_set(name, value);
}

/// Open a span named `name`, nested under the innermost open span of
/// the current thread. Time is recorded when the guard drops; the guard
/// keeps no copy of the name, so a name built at run time (per-layer
/// indices) can be built once and lent to every pass.
#[inline]
pub fn span(name: &str) -> SpanGuard {
    span::span_named(name)
}

/// Snapshot the global registry.
pub fn snapshot() -> Snapshot {
    registry().snapshot()
}

/// Clear the global registry. Reset only between workloads — see
/// [`MetricsRegistry::reset`].
pub fn reset() {
    registry().reset();
}

#[cfg(test)]
mod enabled_tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nested_span_timing_is_monotonic() {
        {
            let _outer = span("mono_outer");
            for _ in 0..3 {
                let _inner = span("step");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let snap = snapshot();
        let outer = snap.span("mono_outer").expect("outer recorded");
        let inner = snap.span("mono_outer/step").expect("inner recorded");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 3);
        // The parent encloses its children, so its total can never be
        // smaller; and per-span stats must order min ≤ mean ≤ max.
        assert!(
            outer.total_ms >= inner.total_ms,
            "outer {} < inner {}",
            outer.total_ms,
            inner.total_ms
        );
        assert!(inner.min_ms <= inner.mean_ms && inner.mean_ms <= inner.max_ms);
        assert!(inner.min_ms > 0.0, "sleep spans must measure > 0");
    }

    #[test]
    fn counters_are_atomic_under_par_iter() {
        use rayon::prelude::*;
        const N: usize = 10_000;
        let handle = counter("atomicity.handle");
        (0..N).into_par_iter().for_each(|i| {
            counter_add("atomicity.named", 1);
            if i % 2 == 0 {
                handle.add(2);
            }
        });
        let snap = snapshot();
        assert_eq!(snap.counter("atomicity.named"), N as u64);
        assert_eq!(handle.get(), N as u64); // N/2 increments of 2
        assert_eq!(snap.counter("atomicity.handle"), N as u64);
    }

    #[test]
    fn spans_on_worker_threads_root_independently() {
        use rayon::prelude::*;
        let _outer = span("root_outer");
        (0..64usize).into_par_iter().for_each(|_| {
            // Worker threads have their own stacks; these must not nest
            // under `root_outer` (they may run on the caller thread too,
            // where they do nest — both paths are valid aggregates).
            let _w = span("worker_span");
        });
        drop(_outer);
        let snap = snapshot();
        let rooted = snap.span("worker_span").map_or(0, |n| n.count);
        let nested = snap.span("root_outer/worker_span").map_or(0, |n| n.count);
        assert_eq!(rooted + nested, 64);
    }

    #[test]
    fn gauge_last_write_wins() {
        gauge_set("gauge.test", 1.0);
        gauge_set("gauge.test", -3.25);
        assert_eq!(snapshot().gauges.get("gauge.test").copied(), Some(-3.25));
    }
}
