//! Heap allocations of `ExecutionPlan::modeled_ms`, counted at every
//! point of the five Fig. 3 sweeps for every implementation that
//! supports it. One `#[test]`, so nothing else in this process allocates
//! while it counts. It lives here, not in `gcnn-core`, because a
//! counting allocator is an `unsafe impl` and the audit keeps `unsafe`
//! out of every crate but the kernel crates.
//!
//! A call allocates its per-name table of kernel totals and nothing
//! else: no profiler session, metric merge or label clone. A plan that
//! does not fit allocates its error's label instead.

use gcnn_conv::ConvConfig;
use gcnn_core::paper_sweeps;
use gcnn_frameworks::{all_implementations, ExecutionPlan};
use gcnn_gpusim::DeviceSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every heap allocation of the process.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed increment, which neither allocates nor touches the memory.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: `GlobalAlloc`'s contract, passed on to `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: as for `alloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

#[test]
fn modeled_ms_allocates_at_most_once_per_plan() {
    let dev = DeviceSpec::k40c();
    let count = |plan: &ExecutionPlan| {
        let before = ALLOCS.load(Ordering::Relaxed);
        let ms = black_box(plan.modeled_ms(&dev));
        (ALLOCS.load(Ordering::Relaxed) - before, ms.is_ok())
    };
    let mut plans = 0;
    for sweep in paper_sweeps() {
        for (value, cfg) in sweep.configs() {
            for imp in all_implementations() {
                if imp.supports(&cfg).is_err() {
                    continue;
                }
                let (allocs, fits) = count(&imp.plan(&cfg));
                let at = format!("{} at {:?} = {value}", imp.name(), sweep.axis);
                assert!(fits && allocs <= 1, "{at}: {allocs} heap allocations");
                plans += 1;
            }
        }
    }
    assert!(plans > 100, "{plans} plans");

    // Every sweep point fits the K40c; a plan that does not stops at the
    // allocation, before the table of totals.
    let mut huge = all_implementations()[0].plan(&ConvConfig::paper_base());
    huge.allocations.push(("huge".into(), u64::MAX));
    assert_eq!(count(&huge), (1, false));
}
