//! Each of `FftConv`'s three passes makes exactly one heap allocation once
//! warmed up, at pool widths 1 and 2: its output tensor. Every
//! intermediate — the factors' data rows, the product's crop rows, the
//! unit buffers — comes out of the calling thread's workspace arena. The
//! heap is counted, not the arena's misses. One `#[test]`, so nothing else
//! in this process allocates while it counts. It lives here, not beside
//! `FftConv`, because a counting allocator is an `unsafe impl` and the
//! audit keeps `unsafe` out of `gcnn-conv`.

use gcnn_conv::{ConvAlgorithm, ConvConfig, FftConv};
use gcnn_tensor::{Shape4, Tensor4};
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

#[test]
fn fft_conv_passes_allocate_only_their_output() {
    // Table I Conv4's kernel on a padded 13×13 input (the 16×16 plan, a
    // filter window that skips its first stage), with enough planes that
    // the pool shares the column stage at width 2.
    let mut cfg = ConvConfig::with_channels(4, 8, 13, 16, 7, 1);
    cfg.pad = 1;
    let input = tensor(cfg.input_shape(), 0.37);
    let filters = tensor(cfg.filter_shape(), 0.61);
    let grad = tensor(cfg.output_shape(), 0.23);
    let passes: [(&str, &dyn Fn() -> Tensor4); 3] = [
        ("forward", &|| FftConv.forward(&cfg, &input, &filters)),
        ("backward_data", &|| {
            FftConv.backward_data(&cfg, &grad, &filters)
        }),
        ("backward_filters", &|| {
            FftConv.backward_filters(&cfg, &input, &grad)
        }),
    ];
    for width in [1, 2] {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(width);
        pool.build().expect("pool").install(|| {
            for (name, pass) in passes {
                // Warm-up: the first call of a pass after another pass's
                // can retire arena buffers that the next call takes again.
                (0..3).for_each(|_| drop(pass()));
                let before = ALLOCS.load(Ordering::Relaxed);
                let out = pass();
                let allocs = ALLOCS.load(Ordering::Relaxed) - before;
                drop(out);
                assert_eq!(allocs, 1, "width {width}, {name}: heap allocations");
            }
        });
    }
}
