//! The dynamic-batching state machine.
//!
//! [`Batcher`] is the deterministic core of the service: a bounded FIFO
//! of pending requests plus the two-knob coalescing policy the paper's
//! batch-size sweep motivates — `max_batch` (the batch cap `b`) and
//! `max_delay` (the queue-latency budget). It is deliberately free of
//! threads, sockets and clocks: every method takes the current
//! [`Instant`] as an argument, so the property tests drive it through
//! arbitrary virtual schedules and the server wraps it in a
//! `Mutex`/`Condvar` pair without changing its semantics.
//!
//! ## States
//!
//! ```text
//!            offer()                 len == max_batch
//!  Empty ───────────────▶ Filling ─────────────────────▶ Ready
//!    ▲                       │        or oldest age            │
//!    │                       │        ≥ max_delay              │
//!    │                       ▼                                 │
//!    │                   (offer at queue_cap ⇒ load-shed)      │
//!    └────────────────────────── pop_batch_into() ◀────────────┘
//! ```
//!
//! * **Empty** — no pending requests; workers sleep on the condvar.
//! * **Filling** — a batch is forming. The *oldest* request's deadline
//!   (`enqueued + max_delay`) bounds how long it may form: a worker
//!   sleeps until that deadline at the latest.
//! * **Ready** — the batch cap is reached or the deadline passed;
//!   [`Batcher::pop_batch_into`] hands the FIFO prefix to a worker.
//!
//! Admission control is part of the same state machine: an
//! [`Batcher::offer`] beyond `queue_cap` is rejected immediately
//! (load-shed) rather than queued, so overload degrades into fast
//! `Shed` responses instead of unbounded memory growth and blown
//! latency budgets.
//!
//! ## Latency bound
//!
//! With workers that pop whenever the batcher is ready, an *admitted*
//! request with `queue_cap ≤ max_batch` waits at most
//! `max_delay + S`, where `S` is one batch-formation window (the time a
//! worker spends assembling + serving one batch): the request's own
//! deadline fires after `max_delay`, and the pop it triggers can be
//! delayed by at most the batch currently in service. The property
//! suite (`tests/batcher_props.rs`) checks exactly this bound under
//! random arrival schedules, policies and service times.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// The two-knob coalescing policy plus the admission bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Largest batch a single pop may form (the paper's `b` axis).
    pub max_batch: usize,
    /// Queue-delay budget: the oldest pending request never waits
    /// longer than this before its batch becomes ready.
    pub max_delay: Duration,
    /// Admission bound: offers beyond this many pending requests are
    /// load-shed. `usize::MAX` disables shedding.
    pub queue_cap: usize,
}

impl BatchPolicy {
    /// A policy with an admission bound of four full batches — enough
    /// headroom to keep workers busy, small enough that shed responses
    /// return before the client's own timeout fires.
    pub fn new(max_batch: usize, max_delay: Duration) -> Self {
        assert!(max_batch > 0, "BatchPolicy: max_batch must be positive");
        BatchPolicy {
            max_batch,
            max_delay,
            queue_cap: max_batch.saturating_mul(4),
        }
    }

    /// The same policy with an explicit admission bound.
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "BatchPolicy: queue_cap must be positive");
        self.queue_cap = cap;
        self
    }
}

/// The batch-forming FIFO. Generic over the queued item so the property
/// tests can run it on bare ids while the server queues whole jobs.
#[derive(Debug)]
pub struct Batcher<T> {
    queue: VecDeque<(T, Instant)>,
    policy: BatchPolicy,
}

impl<T> Batcher<T> {
    /// An empty batcher under `policy`.
    pub fn new(policy: BatchPolicy) -> Self {
        assert!(policy.max_batch > 0 && policy.queue_cap > 0);
        Batcher {
            queue: VecDeque::with_capacity(policy.queue_cap.min(1024)),
            policy,
        }
    }

    /// The policy this batcher runs.
    #[inline]
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Pending requests.
    #[inline]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when nothing is pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Admit `item` at time `now`, or return it when the queue is at
    /// its admission bound (the caller turns that into a `Shed`
    /// response). FIFO order is arrival order; `now` is recorded as the
    /// enqueue time that [`Batcher::oldest_deadline`] derives from.
    pub fn offer(&mut self, item: T, now: Instant) -> Result<(), T> {
        if self.queue.len() >= self.policy.queue_cap {
            return Err(item);
        }
        self.queue.push_back((item, now));
        Ok(())
    }

    /// The instant the oldest pending request's delay budget expires —
    /// the latest moment a worker may keep sleeping. `None` when empty.
    pub fn oldest_deadline(&self) -> Option<Instant> {
        self.queue
            .front()
            .map(|(_, enqueued)| *enqueued + self.policy.max_delay)
    }

    /// True when a batch should be popped now: the cap is reached, or
    /// the oldest request has exhausted its delay budget.
    pub fn ready(&self, now: Instant) -> bool {
        if self.queue.len() >= self.policy.max_batch {
            return true;
        }
        match self.oldest_deadline() {
            Some(deadline) => now >= deadline,
            None => false,
        }
    }

    /// Move the FIFO prefix (up to `max_batch` items) into `out`,
    /// clearing it first, and return the batch size. Arrival order is
    /// preserved — both across pops and within each batch — which is
    /// what makes request→response pairing an invariant rather than a
    /// bookkeeping exercise. The caller decides *when* (normally only
    /// once [`Batcher::ready`], or unconditionally while draining at
    /// shutdown); popping is never blocked on readiness here.
    pub fn pop_batch_into(&mut self, out: &mut Vec<(T, Instant)>) -> usize {
        out.clear();
        while out.len() < self.policy.max_batch {
            match self.queue.pop_front() {
                Some(item) => out.push(item),
                None => break,
            }
        }
        out.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(max_batch: usize, delay_ms: u64, cap: usize) -> BatchPolicy {
        BatchPolicy::new(max_batch, Duration::from_millis(delay_ms)).with_queue_cap(cap)
    }

    #[test]
    fn empty_is_never_ready() {
        let b: Batcher<u32> = Batcher::new(policy(4, 10, 16));
        assert!(!b.ready(Instant::now()));
        assert_eq!(b.oldest_deadline(), None);
        assert!(b.is_empty());
    }

    #[test]
    fn full_batch_is_ready_immediately() {
        let mut b = Batcher::new(policy(2, 1_000, 16));
        let t0 = Instant::now();
        b.offer(1u32, t0).unwrap();
        assert!(!b.ready(t0), "one request under a 1s budget: keep filling");
        b.offer(2u32, t0).unwrap();
        assert!(b.ready(t0), "cap reached: ready regardless of deadline");
    }

    #[test]
    fn deadline_makes_partial_batch_ready() {
        let mut b = Batcher::new(policy(8, 10, 16));
        let t0 = Instant::now();
        b.offer(7u32, t0).unwrap();
        assert!(!b.ready(t0));
        assert_eq!(b.oldest_deadline(), Some(t0 + Duration::from_millis(10)));
        assert!(b.ready(t0 + Duration::from_millis(10)));
        assert!(b.ready(t0 + Duration::from_millis(11)));
    }

    #[test]
    fn offer_sheds_at_queue_cap() {
        let mut b = Batcher::new(policy(4, 10, 2));
        let t0 = Instant::now();
        assert!(b.offer(1u32, t0).is_ok());
        assert!(b.offer(2u32, t0).is_ok());
        assert_eq!(b.offer(3u32, t0), Err(3));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn pop_preserves_fifo_and_respects_cap() {
        let mut b = Batcher::new(policy(3, 10, 16));
        let t0 = Instant::now();
        for i in 0u32..5 {
            b.offer(i, t0).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(b.pop_batch_into(&mut out), 3);
        assert_eq!(out.iter().map(|(i, _)| *i).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(b.pop_batch_into(&mut out), 2);
        assert_eq!(out.iter().map(|(i, _)| *i).collect::<Vec<_>>(), [3, 4]);
        assert_eq!(b.pop_batch_into(&mut out), 0);
        assert!(b.is_empty());
    }

    #[test]
    fn pop_clears_stale_output() {
        let mut b = Batcher::new(policy(4, 10, 16));
        let t0 = Instant::now();
        b.offer(9u32, t0).unwrap();
        let mut out = vec![(1u32, t0), (2, t0), (3, t0)];
        assert_eq!(b.pop_batch_into(&mut out), 1);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn default_queue_cap_is_four_batches() {
        let p = BatchPolicy::new(8, Duration::from_millis(5));
        assert_eq!(p.queue_cap, 32);
    }
}
