//! Heap allocations of a warm LeNet-5 training step
//! (`Network::train_batch_ws` on unrolled convolutions, batch 32),
//! counted per step at pool widths 1 and 2. One `#[test]`, so nothing
//! else in this process allocates while it counts. It lives here, not in
//! `gcnn-models`, because a counting allocator is an `unsafe impl` and
//! the audit keeps `unsafe` out of every crate but the kernel crates.
//!
//! A ReLU allocates nothing in either direction: it clamps the
//! activation it was handed, and its backward pass masks the gradient it
//! was handed by the input the layer above kept. A max-pool keeps where
//! each output came from, not a copy of the output. Every conv's scratch —
//! pack buffers, ΔW's column groups and their widened gradients —
//! comes out of the thread-local arenas.

use gcnn_conv::Strategy;
use gcnn_models::data::synthetic_digits;
use gcnn_models::Network;
use gcnn_tensor::Workspace;
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

#[test]
fn warm_training_step_allocates_a_pinned_count() {
    let data = synthetic_digits(64, 32, 10, 3);
    let (images, labels) = data.batch(0, 32);
    for width in [1, 2] {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(width);
        pool.build().expect("pool").install(|| {
            let mut net = Network::lenet5(32, 10, Strategy::Unrolling, 5);
            let mut ws = Workspace::new();
            for _ in 0..3 {
                net.train_batch_ws(&images, &labels, &mut ws);
            }
            let before = ALLOCS.load(Ordering::Relaxed);
            net.train_batch_ws(&images, &labels, &mut ws);
            let allocs = ALLOCS.load(Ordering::Relaxed) - before;
            assert_eq!(allocs, 58, "LeNet-5 step at width {width}");
        });
    }
}
