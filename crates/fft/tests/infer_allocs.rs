//! Heap allocations of a warm planar inference pass (`Network::infer_ws`
//! on unrolled convolutions), counted per pass at pool widths 1 and 2.
//! One `#[test]`, so nothing else in this process allocates while it
//! counts. It lives here, not in `gcnn-models`, because a counting
//! allocator is an `unsafe impl` and the audit keeps `unsafe` out of
//! every crate but the kernel crates.
//!
//! A pass allocates its layers' outputs and nothing else: each conv, pool
//! and FC layer one tensor, each ReLU none (it clamps the activation it
//! was handed); its span names were built with the network.
//! Every conv's scratch — pack buffers; no column matrix, at any
//! geometry — comes out of the thread-local arena.

use gcnn_conv::Strategy;
use gcnn_models::Network;
use gcnn_tensor::{Shape4, Tensor4, Workspace};
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

fn tensor(shape: Shape4, step: f32) -> Tensor4 {
    let data = (0..shape.len()).map(|i| (i as f32 * step).sin()).collect();
    Tensor4::from_vec(shape, data).expect("sized to its shape")
}

/// Heap allocations of one warm `infer_ws` of `net` over `input`.
fn warm_pass(net: &Network, input: &Tensor4) -> u64 {
    let mut ws = Workspace::new();
    (0..3).for_each(|_| drop(net.infer_ws(input, &mut ws)));
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = net.infer_ws(input, &mut ws);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    drop(out);
    allocs
}

#[test]
fn warm_inference_allocates_only_layer_outputs() {
    let lenet = Network::lenet5(32, 10, Strategy::Unrolling, 5);
    let lenet_in = tensor(Shape4::new(8, 1, 32, 32), 0.37);
    // Padded and strided convs: the gathered column matrix.
    let small = Network::new(0.01)
        .conv(3, 8, 5, 2, 2, Strategy::Unrolling, 1)
        .relu()
        .max_pool(2, 2)
        .conv(8, 8, 3, 1, 1, Strategy::Unrolling, 2)
        .relu()
        .fc(8 * 5 * 5, 10, 3);
    let small_in = tensor(Shape4::new(4, 3, 19, 19), 0.61);
    for width in [1, 2] {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(width);
        pool.build().expect("pool").install(|| {
            // 11 layers: conv ×2, pool ×2 and FC ×3 outputs; ReLU ×4 none.
            let allocs = warm_pass(&lenet, &lenet_in);
            assert_eq!(allocs, 7, "LeNet-5 at width {width}");
            // 6 layers: conv ×2, pool and FC outputs; ReLU ×2 none.
            let allocs = warm_pass(&small, &small_in);
            assert_eq!(allocs, 4, "padded, strided net at width {width}");
        });
    }
}
