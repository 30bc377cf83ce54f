//! Thread-local workspace arena for steady-state allocation-free hot paths.
//!
//! The paper's profiling methodology times *steady-state* iterations:
//! the first call of a layer may set up scratch, but every subsequent
//! call with the same shapes must not touch the allocator. This module
//! provides the scratch substrate the GEMM, FFT, and convolution hot
//! paths draw from:
//!
//! * a **thread-local, size-classed pool** of `f32` buffers
//!   ([`take`], [`take_f32`]) handed out as RAII [`Scratch`]
//!   guards that return the buffer on drop,
//! * a **fresh-allocation counter** — process-wide ([`fresh_allocs`])
//!   for reports, per-thread ([`alloc_scope`]) so tests can assert that
//!   a second identical call performs **zero** pool misses,
//! * an explicit [`Workspace`] handle that convolution strategies and
//!   the training loop thread through forward/backward so the borrow is
//!   visible in signatures even though storage is thread-local.
//!
//! Size classes are powers of two up to 1 Mi elements; larger requests
//! round up to a multiple of 1 Mi elements. Rounding bounds pool growth
//! when a mix of nearby sizes is requested (e.g. the per-tile packing
//! strips of every (MC, KC) combination map to one class).

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Requests at or below this element count use power-of-two classes.
const POW2_LIMIT: usize = 1 << 20;
/// Requests above [`POW2_LIMIT`] round up to a multiple of this.
const BIG_QUANTUM: usize = 1 << 20;

/// Number of buffers freshly allocated (pool misses) by every thread
/// since process start. Monotonic.
static FRESH_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Total fresh buffer allocations made by all workspace pools so far.
pub fn fresh_allocs() -> u64 {
    FRESH_ALLOCS.load(Ordering::Relaxed)
}

/// Registry mirror of [`FRESH_ALLOCS`] (`workspace.fresh_allocs`), so
/// `bench_report` and the CI regression gate see pool misses without a
/// test harness. Cached handle: no registry lookup on the hot path.
fn fresh_alloc_counter() -> &'static gcnn_trace::Counter {
    static C: OnceLock<gcnn_trace::Counter> = OnceLock::new();
    C.get_or_init(|| gcnn_trace::counter("workspace.fresh_allocs"))
}

/// Registry counter of every scratch checkout (`workspace.checkouts`).
fn checkout_counter() -> &'static gcnn_trace::Counter {
    static C: OnceLock<gcnn_trace::Counter> = OnceLock::new();
    C.get_or_init(|| gcnn_trace::counter("workspace.checkouts"))
}

/// Run `body` and return `(result, fresh allocations made inside)`.
///
/// This is the test hook behind the "second identical call allocates
/// nothing" guarantee:
///
/// ```
/// use gcnn_tensor::workspace::{alloc_scope, take_f32};
/// let (_, first) = alloc_scope(|| drop(take_f32(1000)));
/// let (_, second) = alloc_scope(|| drop(take_f32(1000)));
/// assert!(first >= 1);
/// assert_eq!(second, 0);
/// ```
///
/// Counts the **calling thread's** misses only: the pools are
/// thread-local, so a sibling thread missing its own pool (parallel tests
/// in one binary) does not show up here — and neither does a pool worker
/// that ran a piece of `body`'s regions. For the count to cover all of
/// `body`, run it, and the warm-up before it, [`on_calling_thread`].
pub fn alloc_scope<R>(body: impl FnOnce() -> R) -> (R, u64) {
    let before = THREAD_FRESH_ALLOCS.get();
    let out = body();
    (out, THREAD_FRESH_ALLOCS.get() - before)
}

/// Run `body` with every parallel region inside it on the calling thread
/// (pool width 1): what [`alloc_scope`], or a test that poisons this
/// thread's arena, needs to see every checkout `body` makes.
pub fn on_calling_thread<R>(body: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a width is all a pool is")
        .install(body)
}

/// Round a request up to its size class.
fn size_class(len: usize) -> usize {
    if len == 0 {
        0
    } else if len <= POW2_LIMIT {
        len.next_power_of_two()
    } else {
        len.div_ceil(BIG_QUANTUM) * BIG_QUANTUM
    }
}

/// One per-thread pool of same-type buffers, grouped by capacity class.
struct Pool<T> {
    /// `(class capacity, buffers of that capacity)`, sorted by capacity.
    classes: Vec<(usize, Vec<Vec<T>>)>,
}

impl<T> Pool<T> {
    // AUDIT: cold-path — const constructor of an empty pool; `Vec::new` here
    // is the non-allocating const form, no heap touch until first checkout.
    const fn new() -> Self {
        Pool {
            classes: Vec::new(),
        }
    }

    /// Check out a buffer of at least `class` capacity: an idle one of
    /// that class, else the smallest larger idle one — a thread that ran
    /// a wide layer serves its narrower ones from the same buffer, so
    /// each pool participant holds one column buffer, not one per layer.
    /// Only when nothing idle is large enough is one allocated, and the
    /// largest idle buffer that was too small is freed in exchange: the
    /// new one serves its requests from now on, and a thread's arena
    /// tracks what it needs at once, not every size it ever saw.
    // AUDIT: cold-path — this IS the arena: it allocates only on a miss,
    // and every fresh allocation is counted by the fresh-alloc
    // instrumentation the zero-alloc tests assert on.
    fn take(&mut self, class: usize) -> Vec<T> {
        let from = self.classes.partition_point(|(c, _)| *c < class);
        let (smaller, fitting) = self.classes.split_at_mut(from);
        if let Some(buf) = fitting.iter_mut().find_map(|(_, shelf)| shelf.pop()) {
            return buf;
        }
        drop(smaller.iter_mut().rev().find_map(|(_, shelf)| shelf.pop()));
        THREAD_FRESH_ALLOCS.set(THREAD_FRESH_ALLOCS.get() + 1);
        FRESH_ALLOCS.fetch_add(1, Ordering::Relaxed);
        fresh_alloc_counter().inc();
        Vec::with_capacity(class)
    }

    /// Return a buffer to its class shelf.
    fn restore(&mut self, buf: Vec<T>) {
        let class = buf.capacity();
        if class == 0 {
            return;
        }
        match self.classes.binary_search_by_key(&class, |(c, _)| *c) {
            Ok(i) => self.classes[i].1.push(buf),
            Err(i) => self.classes.insert(i, (class, vec![buf])),
        }
    }
}

thread_local! {
    static F32_POOL: RefCell<Pool<f32>> = const { RefCell::new(Pool::new()) };
    /// This thread's share of [`FRESH_ALLOCS`]: what [`alloc_scope`] diffs.
    static THREAD_FRESH_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// A checked-out scratch buffer; returns itself to the thread-local pool
/// on drop. Derefs to `Vec<T>` so call sites index and slice it like any
/// owned buffer.
pub struct Scratch<T: PoolItem> {
    buf: Option<Vec<T>>,
}

impl<T: PoolItem> Scratch<T> {
    /// The buffer's current length (as sized by the checkout call).
    pub fn len(&self) -> usize {
        self.buf.as_ref().map_or(0, Vec::len)
    }

    /// Whether the buffer holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// View as a slice.
    pub fn as_slice(&self) -> &[T] {
        self.buf.as_deref().unwrap_or(&[])
    }

    /// View as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        self.buf.as_deref_mut().unwrap_or(&mut [])
    }
}

impl<T: PoolItem> std::ops::Deref for Scratch<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: PoolItem> std::ops::DerefMut for Scratch<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: PoolItem> Drop for Scratch<T> {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            T::restore_raw(buf);
        }
    }
}

/// Element types that have a thread-local pool: `f32`, the only scalar
/// type the hot paths use (callers name the guard as `Scratch<f32>`).
pub trait PoolItem: Copy + Default + Sized {
    #[doc(hidden)]
    fn take_raw(class: usize) -> Vec<Self>;
    #[doc(hidden)]
    fn restore_raw(buf: Vec<Self>);
}

impl PoolItem for f32 {
    fn take_raw(class: usize) -> Vec<Self> {
        F32_POOL.with(|p| p.borrow_mut().take(class))
    }
    fn restore_raw(buf: Vec<Self>) {
        F32_POOL.with(|p| p.borrow_mut().restore(buf));
    }
}

/// Check out a buffer of `len` elements with **unspecified contents**
/// (whatever the previous user left, or `T::default()` on a fresh
/// allocation). Use when every element is written before being read,
/// e.g. packing buffers.
pub fn take<T: PoolItem>(len: usize) -> Scratch<T> {
    checkout_counter().inc();
    let class = size_class(len);
    let mut buf = T::take_raw(class);
    // Resize within capacity: never reallocates, only extends the
    // initialized prefix with `default()` (cheap relative to the fill
    // the caller is about to do) or truncates.
    buf.resize(len, T::default());
    Scratch { buf: Some(buf) }
}

/// Check out `len` `f32`s with unspecified contents.
pub fn take_f32(len: usize) -> Scratch<f32> {
    take(len)
}

/// Explicit workspace handle threaded through convolution forward and
/// backward passes and the training loop.
///
/// Storage lives in thread-local pools, so `Workspace` itself is a
/// zero-sized token — its job is to make the scratch dependency visible
/// in signatures (`fn forward_ws(&self, …, ws: &mut Workspace)`) and to
/// give call sites one object whose lifetime scopes the reuse story.
/// Creating one is free; all handles on a thread share the same pools.
#[derive(Debug, Default)]
pub struct Workspace {
    _private: (),
}

impl Workspace {
    /// Create a workspace handle.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Check out `len` `f32`s with unspecified contents.
    pub fn take_f32(&mut self, len: usize) -> Scratch<f32> {
        take(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_round_up() {
        assert_eq!(size_class(0), 0);
        assert_eq!(size_class(1), 1);
        assert_eq!(size_class(3), 4);
        assert_eq!(size_class(1000), 1024);
        assert_eq!(size_class(POW2_LIMIT), POW2_LIMIT);
        assert_eq!(size_class(POW2_LIMIT + 1), 2 * BIG_QUANTUM);
        assert_eq!(size_class(5 * BIG_QUANTUM + 7), 6 * BIG_QUANTUM);
    }

    #[test]
    fn second_checkout_hits_pool() {
        // Warm the class with a distinctive size for this test.
        let (_, _first) = alloc_scope(|| drop(take_f32(12345)));
        let (_, misses) = alloc_scope(|| {
            let s = take_f32(12345);
            assert_eq!(s.len(), 12345);
            drop(s);
        });
        assert_eq!(misses, 0, "pooled buffer was not reused");
    }

    #[test]
    fn nearby_sizes_share_a_class() {
        let (_, _first) = alloc_scope(|| drop(take_f32(900)));
        // 900 and 1024 both map to the 1024 class.
        let (_, misses) = alloc_scope(|| drop(take_f32(1024)));
        assert_eq!(misses, 0);
    }

    #[test]
    fn concurrent_checkouts_are_distinct() {
        let mut a = take_f32(256);
        let mut b = take_f32(256);
        a.as_mut_slice().fill(1.0);
        b.as_mut_slice().fill(2.0);
        assert!(a.iter().all(|&x| x == 1.0));
        assert!(b.iter().all(|&x| x == 2.0));
    }

    /// `alloc_scope` counts the calling thread only; the process-wide
    /// counter still sees every thread.
    #[test]
    fn alloc_scope_ignores_other_threads() {
        let global_before = fresh_allocs();
        let (_, misses) = alloc_scope(|| {
            std::thread::spawn(|| drop(take_f32(555_555)))
                .join()
                .expect("sibling thread panicked");
        });
        assert_eq!(misses, 0, "a sibling thread's miss leaked into the scope");
        assert!(fresh_allocs() - global_before >= 1);
    }

    /// The arena holds what a thread needs at once, not every size it
    /// saw: a narrower request is served from a wider idle buffer, and a
    /// miss retires the largest idle buffer that was too small.
    #[test]
    fn wider_idle_buffers_serve_narrower_requests() {
        // On a thread of its own: the arena starts empty.
        let check = || {
            let misses = |body: &dyn Fn()| alloc_scope(body).1;
            assert_eq!(misses(&|| drop(take_f32(5000))), 1); // class 8192
            assert_eq!(misses(&|| drop(take_f32(1000))), 0, "8192 serves 1000");
            // Two at once: the second needs a buffer of its own.
            assert_eq!(misses(&|| drop((take_f32(1000), take_f32(1000)))), 1);
            // Wider than anything idle: allocated, and the 8192 goes.
            assert_eq!(misses(&|| drop(take_f32(20_000))), 1);
            assert_eq!(misses(&|| drop(take_f32(5000))), 0, "32768 serves 5000");
            let both = || drop((take_f32(20_000), take_f32(5000)));
            assert_eq!(misses(&both), 1, "the 8192 buffer was retired");
            assert_eq!(misses(&both), 0);
        };
        std::thread::spawn(check).join().expect("arena thread");
    }

    #[cfg(feature = "trace")]
    #[test]
    fn registry_mirrors_fresh_allocs() {
        let before = gcnn_trace::snapshot().counter("workspace.fresh_allocs");
        // A size class no other test uses: guaranteed fresh, then pooled.
        let (_, misses) = alloc_scope(|| drop(take_f32(777_777)));
        assert!(misses >= 1);
        let after = gcnn_trace::snapshot().counter("workspace.fresh_allocs");
        // Other test threads may allocate concurrently; the mirror must
        // move at least as much as this thread's observed misses.
        assert!(after - before >= 1, "registry must mirror FRESH_ALLOCS");
        let checkouts = gcnn_trace::snapshot().counter("workspace.checkouts");
        assert!(checkouts >= 1, "checkouts counter must tick");
    }

    #[test]
    fn workspace_handle_delegates() {
        let mut ws = Workspace::new();
        let (_, _warm) = alloc_scope(|| drop(ws.take_f32(2048)));
        let (_, misses) = alloc_scope(|| drop(ws.take_f32(2048)));
        assert_eq!(misses, 0);
    }
}
