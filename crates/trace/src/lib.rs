//! # gcnn-trace
//!
//! Lightweight observability for the gcnn workspace: nested span
//! timers, monotonic counters, gauges and a process-wide
//! [`MetricsRegistry`], mirroring the paper's methodology of per-layer
//! runtime breakdowns and hotspot kernel metrics — but pointed at this
//! reproduction's *own* hot paths (arena GEMM, plan-cached FFT, the
//! three convolution strategies).
//!
//! ## Feature flag
//!
//! The whole crate sits behind the `enabled` feature (on by default).
//! With `--no-default-features` every entry point below still exists
//! but compiles to a no-op: spans take no timestamps, counters touch no
//! atomics, [`snapshot`] returns an empty [`Snapshot`]. Consumer crates
//! expose their own `trace` feature forwarding to `gcnn-trace/enabled`,
//! so `cargo test --no-default-features` proves the disabled mode
//! compiles everywhere.
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
//! let snap = gcnn_trace::snapshot();
//! if gcnn_trace::enabled() {
//!     assert!(snap.counter("gemm.calls") >= 1);
//! }
//! ```

#![forbid(unsafe_code)]

mod snapshot;

pub use snapshot::{Snapshot, SpanNode, SpanStat};

#[cfg(feature = "enabled")]
mod registry;
#[cfg(feature = "enabled")]
mod span;

#[cfg(feature = "enabled")]
pub use registry::{registry, MetricsRegistry};

/// Whether the `enabled` feature was compiled in.
#[inline]
pub const fn enabled() -> bool {
    cfg!(feature = "enabled")
}

/// A cached handle to one counter's atomic cell. Cloning is cheap;
/// incrementing through a handle skips the registry lookup entirely,
/// which is what the hot paths (workspace checkouts, GEMM tiles) use.
/// In disabled mode the handle is a ZST and every method is a no-op.
#[derive(Debug, Clone)]
pub struct Counter {
    #[cfg(feature = "enabled")]
    cell: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl Counter {
    /// Add `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        #[cfg(feature = "enabled")]
        self.cell
            .fetch_add(delta, std::sync::atomic::Ordering::Relaxed);
        #[cfg(not(feature = "enabled"))]
        let _ = delta;
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (always 0 in disabled mode).
    #[inline]
    pub fn get(&self) -> u64 {
        #[cfg(feature = "enabled")]
        {
            self.cell.load(std::sync::atomic::Ordering::Relaxed)
        }
        #[cfg(not(feature = "enabled"))]
        {
            0
        }
    }
}

/// Obtain a [`Counter`] handle, registering the counter on first use.
#[inline]
pub fn counter(name: &str) -> Counter {
    #[cfg(feature = "enabled")]
    {
        Counter {
            cell: registry().counter_cell(name),
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = name;
        Counter {}
    }
}

/// Add `delta` to the named counter.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    #[cfg(feature = "enabled")]
    registry().counter_add(name, delta);
    #[cfg(not(feature = "enabled"))]
    let _ = (name, delta);
}

/// Add 1 to the named counter.
#[inline]
pub fn counter_inc(name: &str) {
    counter_add(name, 1);
}

/// Set the named gauge (last write wins).
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    #[cfg(feature = "enabled")]
    registry().gauge_set(name, value);
    #[cfg(not(feature = "enabled"))]
    let _ = (name, value);
}

/// RAII guard for one open span; see [`span`].
#[cfg(feature = "enabled")]
pub use span::SpanGuard;

/// Inert stand-in for [`SpanGuard`] in disabled builds.
#[cfg(not(feature = "enabled"))]
#[must_use = "a span measures nothing unless the guard lives across the timed region"]
pub struct SpanGuard {
    _private: (),
}

/// Open a span with a static name, nested under the innermost open
/// span of the current thread. Time is recorded when the guard drops.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    #[cfg(feature = "enabled")]
    {
        span::span_named(name)
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = name;
        SpanGuard { _private: () }
    }
}

/// Open a span whose name is built lazily — the closure never runs in
/// disabled mode, so dynamic names (per-layer indices, shapes) cost
/// nothing when tracing is off.
#[inline]
pub fn span_owned<F: FnOnce() -> String>(make_name: F) -> SpanGuard {
    #[cfg(feature = "enabled")]
    {
        span::span_named(&make_name())
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = make_name;
        SpanGuard { _private: () }
    }
}

/// Snapshot the global registry (empty in disabled mode).
pub fn snapshot() -> Snapshot {
    #[cfg(feature = "enabled")]
    {
        registry().snapshot()
    }
    #[cfg(not(feature = "enabled"))]
    {
        Snapshot::default()
    }
}

/// Clear the global registry (no-op in disabled mode). Reset only
/// between workloads — see [`MetricsRegistry::reset`].
pub fn reset() {
    #[cfg(feature = "enabled")]
    registry().reset();
}

#[cfg(all(test, feature = "enabled"))]
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

    #[test]
    fn span_owned_builds_dynamic_names() {
        {
            let _g = span_owned(|| format!("dyn{}", 7));
        }
        assert!(snapshot().span("dyn7").is_some());
    }
}

#[cfg(all(test, not(feature = "enabled")))]
mod disabled_tests {
    use super::*;

    #[test]
    fn everything_is_a_no_op() {
        assert!(!enabled());
        counter_add("disabled.c", 5);
        counter("disabled.h").add(7);
        gauge_set("disabled.g", 1.0);
        {
            let _s = span("disabled.span");
            let _o = span_owned(|| unreachable!("name closure must not run when disabled"));
        }
        reset();
        let snap = snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.spans.is_empty());
        assert_eq!(counter("disabled.h").get(), 0);
    }
}
