//! A forward and an inverse lane transform make no heap allocation once
//! warmed up, at pool widths 1 and 2: their unit buffers come out of the
//! calling thread's workspace arena and a pool region allocates nothing.
//! The heap is counted, not the arena's misses. One `#[test]`, so nothing
//! else in this process allocates while it counts.

use gcnn_fft::rfft::BLOCK_LANES;
use gcnn_fft::{LaneOrder, RfftPlan};
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
fn lane_transforms_do_not_allocate_after_warm_up() {
    // Table I Conv4's filter window (its forward stages start at span 2)
    // over two lane blocks, read transposed.
    let (n, k) = (16, 7);
    let lanes = BLOCK_LANES + 5;
    let order = LaneOrder::Transposed {
        rows: 3,
        cols: lanes / 3,
    };
    let p = RfftPlan::new(n);
    let src: Vec<f32> = (0..lanes * k * k)
        .map(|i| (i as f32 * 0.37).sin())
        .collect();
    let mut sre = vec![0.0f32; p.spectrum_len() * lanes];
    let mut sim = sre.clone();
    let mut out = vec![0.0f32; lanes * k * k];
    let mut pass = || {
        p.forward_lanes_into(&src, (k, k), 0, order, lanes, &mut sre, &mut sim);
        p.inverse_lanes_into(&mut sre, &mut sim, lanes, (k, 0), order, &mut out);
    };
    for width in [1, 2] {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(width);
        pool.build().expect("pool").install(|| {
            pass();
            let before = ALLOCS.load(Ordering::Relaxed);
            (0..3).for_each(|_| pass());
            let allocs = ALLOCS.load(Ordering::Relaxed) - before;
            assert_eq!(allocs, 0, "width {width}: heap allocations");
        });
    }
}
