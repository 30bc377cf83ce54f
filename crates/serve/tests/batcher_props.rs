//! Property tests for the batching state machine, driven under virtual
//! time: a simulated single worker with a fixed service time `S` runs
//! random arrival schedules against random policies, and we check the
//! invariants the server relies on:
//!
//! 1. **Order** — responses preserve arrival order (FIFO across and
//!    within batches), so request→response pairing is structural.
//! 2. **Cap** — no batch ever exceeds `max_batch`.
//! 3. **Latency bound** — with `queue_cap ≤ max_batch`, every admitted
//!    request is *popped* within `max_delay + S` of its arrival: its
//!    own deadline fires after `max_delay`, and the worker can be busy
//!    with at most one in-service batch when it does.
//! 4. **Accounting** — admitted + shed = offered, and shed only ever
//!    happens with the queue at its cap.
//!
//! Time is a plain `Instant` base plus microsecond offsets; nothing
//! here sleeps or touches a clock, so the suite is deterministic and
//! fast enough for proptest's default shrinking to be useful.

use std::time::{Duration, Instant};

use gcnn_serve::{BatchPolicy, Batcher};
use proptest::prelude::*;

/// One simulated run: a single worker that pops whenever the batcher is
/// ready and then serves for `service_us`. Returns, per admitted
/// request, `(arrival, pop_time)` in arrival order, plus the batch
/// sizes formed.
fn simulate(
    arrivals_us: &[u64],
    policy: BatchPolicy,
    service_us: u64,
) -> (Vec<(Instant, Instant)>, Vec<usize>, u64) {
    let base = Instant::now(); // never awaited; just an origin
    let at = |us: u64| base + Duration::from_micros(us);

    let mut batcher: Batcher<usize> = Batcher::new(policy);
    let mut popped: Vec<(usize, Instant)> = Vec::new(); // (id, pop time)
    let mut arrivals_of: Vec<Instant> = Vec::new();
    let mut batch_sizes = Vec::new();
    let mut shed = 0u64;
    // The worker is free again at this virtual time.
    let mut worker_free = at(0);
    let mut out = Vec::new();

    // The worker pops every batch that becomes ready no later than
    // `now` (or everything, when flushing at end of schedule). It acts
    // at the later of the batch's ready time and its own free time —
    // exactly the real worker's wait_timeout/pop loop, minus the clock.
    let mut worker_pops =
        |batcher: &mut Batcher<usize>, now: Instant, flush: bool, worker_free: &mut Instant| loop {
            if batcher.is_empty() {
                return;
            }
            let act = if batcher.len() >= batcher.policy().max_batch {
                // Ready the moment it filled; the worker acts as soon
                // as it is free.
                *worker_free
            } else {
                batcher
                    .oldest_deadline()
                    .expect("non-empty")
                    .max(*worker_free)
            };
            if act > now && !flush {
                return; // the next arrival happens first
            }
            batcher.pop_batch_into(&mut out);
            batch_sizes.push(out.len());
            for (id, _) in &out {
                popped.push((*id, act));
            }
            *worker_free = act + Duration::from_micros(service_us);
        };

    for (next_id, &arr) in arrivals_us.iter().enumerate() {
        let now = at(arr);
        // Let the worker catch up on everything that became ready
        // strictly before this arrival.
        worker_pops(&mut batcher, now, false, &mut worker_free);
        arrivals_of.push(now);
        match batcher.offer(next_id, now) {
            Ok(()) => {}
            Err(_) => shed += 1,
        }
        // A full batch may have just formed; serve it if the worker is
        // free by now.
        worker_pops(&mut batcher, now, false, &mut worker_free);
    }
    // Drain whatever is left (flush ignores "now").
    worker_pops(&mut batcher, at(u64::MAX / 2), true, &mut worker_free);

    // Arrival order == id order here; assert the pop stream itself is
    // in id order (the FIFO property), then report per-request
    // (arrival, pop) pairs.
    let ids: Vec<usize> = popped.iter().map(|(id, _)| *id).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted, "pop stream must preserve arrival order");

    (
        popped
            .into_iter()
            .map(|(id, pop)| (arrivals_of[id], pop))
            .collect(),
        batch_sizes,
        shed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Invariants 1, 2 and 4 under arbitrary schedules and policies.
    #[test]
    fn order_cap_and_accounting(
        gaps_us in proptest::collection::vec(0u64..5_000, 1..120),
        max_batch in 1usize..16,
        max_delay_us in 1u64..10_000,
        cap_batches in 1usize..5,
        service_us in 0u64..8_000,
    ) {
        let policy = BatchPolicy::new(max_batch, Duration::from_micros(max_delay_us))
            .with_queue_cap(max_batch * cap_batches);
        let mut arrivals = Vec::with_capacity(gaps_us.len());
        let mut t = 0u64;
        for g in &gaps_us {
            t += g;
            arrivals.push(t);
        }
        let (served, batch_sizes, shed) = simulate(&arrivals, policy, service_us);

        // Cap: no batch exceeds max_batch, none is empty.
        for &b in &batch_sizes {
            prop_assert!(b >= 1 && b <= max_batch, "batch of {b} under cap {max_batch}");
        }
        // Accounting: every offered request is served or shed, once.
        prop_assert_eq!(served.len() as u64 + shed, arrivals.len() as u64);
        // Images served == sum of batch sizes.
        prop_assert_eq!(batch_sizes.iter().sum::<usize>(), served.len());
    }

    /// Invariant 3: the latency bound `max_delay + S` holds whenever
    /// the queue cap does not exceed the batch cap (so an admitted
    /// request is always in the *next* batch to form).
    #[test]
    fn admitted_wait_is_bounded_by_delay_plus_service(
        gaps_us in proptest::collection::vec(0u64..5_000, 1..120),
        max_batch in 1usize..16,
        max_delay_us in 1u64..10_000,
        service_us in 0u64..8_000,
    ) {
        let policy = BatchPolicy::new(max_batch, Duration::from_micros(max_delay_us))
            .with_queue_cap(max_batch);
        let mut arrivals = Vec::with_capacity(gaps_us.len());
        let mut t = 0u64;
        for g in &gaps_us {
            t += g;
            arrivals.push(t);
        }
        let (served, _, _) = simulate(&arrivals, policy, service_us);

        let bound = Duration::from_micros(max_delay_us + service_us);
        for (i, (arrival, pop)) in served.iter().enumerate() {
            let waited = pop.duration_since(*arrival);
            prop_assert!(
                waited <= bound,
                "request {i} waited {waited:?}, bound {bound:?} \
                 (max_delay {max_delay_us}us + service {service_us}us)"
            );
        }
    }

    /// Shedding only happens at the cap; under an infinite cap nothing
    /// is ever shed.
    #[test]
    fn uncapped_queue_never_sheds(
        gaps_us in proptest::collection::vec(0u64..1_000, 1..80),
        max_batch in 1usize..8,
        max_delay_us in 1u64..5_000,
        service_us in 0u64..5_000,
    ) {
        let policy = BatchPolicy::new(max_batch, Duration::from_micros(max_delay_us))
            .with_queue_cap(usize::MAX);
        let mut arrivals = Vec::with_capacity(gaps_us.len());
        let mut t = 0u64;
        for g in &gaps_us {
            t += g;
            arrivals.push(t);
        }
        let (served, _, shed) = simulate(&arrivals, policy, service_us);
        prop_assert_eq!(shed, 0);
        prop_assert_eq!(served.len(), arrivals.len());
    }
}
