//! A span costs no heap allocation once its thread has been that deep and
//! the registry has seen its path. One `#[test]`, so nothing else in this
//! process allocates while it counts. It lives here, not beside
//! `gcnn-trace`, because a counting allocator is an `unsafe impl` and the
//! audit confines `unsafe` to the kernel crates; this is the lowest of
//! them that sees spans.

use std::alloc::{GlobalAlloc, Layout, System};
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

fn nested() {
    let _a = gcnn_trace::span("alloc_test.outer");
    let _b = gcnn_trace::span("alloc_test.middle");
    let _c = gcnn_trace::span("alloc_test.inner");
}

#[test]
fn spans_do_not_allocate_after_warm_up() {
    nested();
    let before = ALLOCS.load(Ordering::Relaxed);
    (0..1000).for_each(|_| nested());
    assert_eq!(ALLOCS.load(Ordering::Relaxed) - before, 0);
    let inner = "alloc_test.outer/alloc_test.middle/alloc_test.inner";
    assert_eq!(
        gcnn_trace::snapshot().span(inner).expect("recorded").count,
        1001
    );
}
