//! RAII span timers with thread-local nesting.
//!
//! Each thread keeps the path of its innermost open span in one growing
//! `String`. Opening a span appends `"/" + name` to it; dropping the guard
//! merges the elapsed time into the global registry under the path as it
//! then stands and cuts the segment off again, so aggregation is keyed by
//! *call context*, not just by name (the same way nvprof attributes kernel
//! time to launch sites) and a span costs no heap allocation once its
//! thread has been that deep and the registry has seen the path. Work
//! farmed out to rayon workers opens fresh root spans on those threads —
//! cross-thread parenthood is intentionally not tracked.

use crate::registry::registry;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::time::Instant;

thread_local! {
    /// Full path of the innermost span open on this thread; empty outside
    /// any.
    static PATH: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Guard for one open span; records elapsed time on drop.
///
/// Guards must drop in LIFO order on the thread that created them —
/// the type is `!Send`, and letting guards outlive their parent scope
/// misattributes nesting (debug builds assert against it).
#[must_use = "a span measures nothing unless the guard lives across the timed region"]
pub struct SpanGuard {
    start: Instant,
    /// Length of the thread's path with this span's segment, and without.
    len: usize,
    parent_len: usize,
    /// Pins the guard to its creating thread.
    _not_send: PhantomData<*const ()>,
}

/// Open a span named `name`, nested under the innermost open span of
/// the current thread.
pub fn span_named(name: &str) -> SpanGuard {
    let (parent_len, len) = PATH.with(|path| {
        let mut path = path.borrow_mut();
        let parent_len = path.len();
        if parent_len > 0 {
            path.push('/');
        }
        path.push_str(name);
        (parent_len, path.len())
    });
    SpanGuard {
        start: Instant::now(),
        len,
        parent_len,
        _not_send: PhantomData,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        // Elapsed first: the registry merge and the cut are overhead that
        // should not count against this span.
        let elapsed_ns = self.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        PATH.with(|path| {
            let mut path = path.borrow_mut();
            debug_assert_eq!(path.len(), self.len, "span guards must drop in LIFO order");
            registry().record_span(&path, elapsed_ns);
            path.truncate(self.parent_len);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_nest_and_unwind() {
        let top = || PATH.with(|p| p.borrow().clone());
        {
            let _a = span_named("span_test_outer");
            assert_eq!(top(), "span_test_outer");
            {
                let _b = span_named("inner");
                assert_eq!(top(), "span_test_outer/inner");
            }
            assert_eq!(top(), "span_test_outer");
        }
        assert_eq!(top(), "", "path must unwind fully");
    }
}
