//! A counting global allocator: true heap allocations, not arena misses.
//!
//! The product's `workspace::fresh_allocs` counter sees only arena pool
//! misses. This one sees every `Vec`, `Box` and `Tensor4` the process
//! makes, on any thread, while counting is switched on — which the
//! benchmark does only around product iterations of a traced run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct CountingAlloc;

// Statistics only: they publish no other data, so Relaxed suffices.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is relaxed
// increments of two atomics, which neither allocate nor touch the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, which always returns
        // `System`'s pointers, with the same `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocations, bytes requested)` made while counting was on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapCount {
    pub allocs: u64,
    pub bytes: u64,
}

/// Run `body` with counting on and return what it allocated, on every
/// thread of the process.
pub fn counted<R>(body: impl FnOnce() -> R) -> (R, HeapCount) {
    let before = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    COUNTING.store(true, Ordering::Relaxed);
    let out = body();
    COUNTING.store(false, Ordering::Relaxed);
    let count = HeapCount {
        allocs: ALLOCS.load(Ordering::Relaxed) - before.0,
        bytes: BYTES.load(Ordering::Relaxed) - before.1,
    };
    (out, count)
}
