//! The discrete-event engine.
//!
//! Time is integer nanoseconds on a binary-heap event queue; ties break
//! on a monotone sequence number, so runs are bit-for-bit
//! deterministic. Two event kinds exist: a job *arrival* on a stream,
//! and a kernel *completion* on the device. Kernels are non-preemptible
//! (pre-Pascal hardware), so every scheduling decision happens in
//! [`Engine::dispatch`] at a kernel boundary.
//!
//! Per-kernel service times are precomputed in [`Engine::new`] via
//! [`gcnn_gpusim::timing::time_kernel`] — the event loop itself never
//! allocates and never re-runs the timing model. Repeats of one kernel
//! that nothing can interrupt share one completion event (see
//! `Engine::start_kernel`), so the event count follows the scheduling
//! decisions rather than the launch counts.

use crate::metrics::{SimReport, StreamReport};
use crate::policy::{SchedPolicy, SimConfig};
use crate::stream::{Arrival, TenantSpec};
use gcnn_gpusim::timing::time_kernel;
use gcnn_gpusim::DeviceSpec;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Event kinds, packed into the heap tuple.
const EV_ARRIVAL: u8 = 0;
const EV_KERNEL_DONE: u8 = 1;

/// Heap entry: `(time_ns, seq, kind, tenant)`. Ordered by time, then by
/// insertion sequence — deterministic tie-breaking.
type Event = Reverse<(u64, u64, u8, u32)>;

/// Progress of the job a stream is currently executing.
#[derive(Clone, Copy)]
struct Active {
    /// When the job arrived.
    arrival_ns: u64,
    /// Index into the planned-kernel list.
    k: usize,
    /// Launches of kernel `k` already completed.
    rep: u32,
}

/// Internal per-stream state.
struct Tenant {
    name: String,
    arrival: Arrival,
    jobs_total: u32,
    /// Service time of one launch of each planned kernel, nanoseconds.
    svc_ns: Vec<u64>,
    /// Launch count of each planned kernel.
    counts: Vec<u32>,
    /// Arrival timestamps of jobs waiting to start.
    queued: VecDeque<u64>,
    active: Option<Active>,
    /// A kernel of this stream is in flight.
    running: bool,
    /// Jobs whose arrival event has been scheduled.
    spawned: u32,
    completed: u32,
    /// Sum of completed jobs' arrival-to-completion latencies.
    latency_ns: u64,
}

impl Tenant {
    /// Has a dispatchable kernel right now (not already in flight).
    fn runnable(&self) -> bool {
        !self.running && (self.active.is_some() || !self.queued.is_empty())
    }
}

/// The multi-tenant simulator. Build with [`Engine::new`], consume
/// with [`Engine::run`].
pub struct Engine {
    quantum_ns: u64,
    tenants: Vec<Tenant>,
    heap: BinaryHeap<Event>,
    seq: u64,
    now_ns: u64,
    /// A kernel is in flight on the device.
    busy: bool,
    /// Tenant currently owning the quantum.
    rr_owner: Option<u32>,
    quantum_left_ns: u64,
    preemptions: u64,
    remaining_jobs: u64,
    makespan_ns: u64,
}

/// Milliseconds → integer nanoseconds, at least 1 (a zero-length
/// kernel would let an event fire "before" its cause under tie-break).
fn ms_to_ns(ms: f64) -> u64 {
    ((ms * 1e6).round() as u64).max(1)
}

fn us_to_ns(us: f64) -> u64 {
    ((us * 1e3).round() as u64).max(1)
}

/// Cost of switching the device between streams (pipeline drain +
/// context restore): 25 µs, the same order as the K40c's kernel launch
/// overhead ×5, the cost of a full pipeline drain on a pre-emption-free
/// part.
const CTX_SWITCH_NS: u64 = 25_000;

impl Engine {
    /// Precompute service times against `dev` and seed the first
    /// arrivals.
    pub fn new(dev: &DeviceSpec, specs: &[TenantSpec], cfg: SimConfig) -> Self {
        assert!(!specs.is_empty(), "at least one tenant stream required");
        let n = specs.len();
        let mut tenants = Vec::with_capacity(n);
        let mut heap = BinaryHeap::with_capacity(n * 4);
        let mut seq = 0u64;
        let mut remaining_jobs = 0u64;
        for (i, spec) in specs.iter().enumerate() {
            // A planned kernel launches `count` times; 0 means never.
            let launched = spec.kernels.iter().filter(|pk| pk.count > 0);
            let svc_ns: Vec<u64> = launched
                .clone()
                .map(|pk| ms_to_ns(time_kernel(dev, &pk.desc).time_ms))
                .collect();
            let counts: Vec<u32> = launched.map(|pk| pk.count).collect();
            assert!(
                spec.jobs == 0 || !counts.is_empty(),
                "tenant '{}' submits jobs with no kernel launch",
                spec.name
            );
            let jobs = spec.jobs;
            remaining_jobs += u64::from(jobs);
            tenants.push(Tenant {
                name: spec.name.clone(),
                arrival: spec.arrival,
                jobs_total: jobs,
                svc_ns,
                counts,
                queued: VecDeque::with_capacity(jobs as usize),
                active: None,
                running: false,
                spawned: 0,
                completed: 0,
                latency_ns: 0,
            });
            if jobs > 0 {
                heap.push(Reverse((0, seq, EV_ARRIVAL, i as u32)));
                seq += 1;
                tenants[i].spawned = 1;
            }
        }

        let SchedPolicy::RoundRobin { quantum_us } = cfg.policy;
        Engine {
            quantum_ns: us_to_ns(quantum_us),
            tenants,
            heap,
            seq,
            now_ns: 0,
            busy: false,
            rr_owner: None,
            quantum_left_ns: 0,
            preemptions: 0,
            remaining_jobs,
            makespan_ns: 0,
        }
    }

    /// Run to completion and summarize. The whole event loop is one
    /// `mtsim.run` span and the preemptions are added to `mtsim.preempt`
    /// once: a span or counter lookup per event would cost more than
    /// the event.
    pub fn run(mut self) -> SimReport {
        {
            let _span = gcnn_trace::span("mtsim.run");
            while self.step() {}
        }
        if self.preemptions > 0 {
            gcnn_trace::counter_add("mtsim.preempt", self.preemptions);
        }
        self.report()
    }

    /// Process one event. Returns `false` when the simulation is over.
    /// Hot path: no allocation (all buffers are sized in [`Engine::new`]).
    fn step(&mut self) -> bool {
        let Some(Reverse((t, _, kind, ti))) = self.heap.pop() else {
            return false;
        };
        self.now_ns = t;
        match kind {
            EV_ARRIVAL => self.on_arrival(ti as usize),
            _ => self.on_kernel_done(ti as usize),
        }
        self.dispatch();
        self.remaining_jobs > 0
    }

    fn on_arrival(&mut self, ti: usize) {
        let now = self.now_ns;
        let t = &mut self.tenants[ti];
        t.queued.push_back(now);
        // Open arrivals self-schedule the next one; closed-loop streams
        // schedule theirs on job completion.
        if let Arrival::Open { period_us } = t.arrival {
            if t.spawned < t.jobs_total {
                t.spawned += 1;
                let at = now + us_to_ns(period_us);
                self.heap
                    .push(Reverse((at, self.seq, EV_ARRIVAL, ti as u32)));
                self.seq += 1;
            }
        }
    }

    fn on_kernel_done(&mut self, ti: usize) {
        let now = self.now_ns;
        self.busy = false;
        let t = &mut self.tenants[ti];
        t.running = false;
        let mut a = t.active.expect("running tenant has an active job");
        a.rep += 1;
        if a.rep >= t.counts[a.k] {
            a.k += 1;
            a.rep = 0;
        }
        if a.k >= t.counts.len() {
            // Job complete.
            t.active = None;
            t.completed += 1;
            t.latency_ns += now - a.arrival_ns;
            self.remaining_jobs -= 1;
            self.makespan_ns = self.makespan_ns.max(now);
            if matches!(t.arrival, Arrival::ClosedLoop) && t.spawned < t.jobs_total {
                t.spawned += 1;
                self.heap
                    .push(Reverse((now, self.seq, EV_ARRIVAL, ti as u32)));
                self.seq += 1;
            }
        } else {
            t.active = Some(a);
        }
    }

    /// Hand an idle device to the quantum owner while it has work and
    /// budget; otherwise rotate to the next runnable stream. Hot path:
    /// no allocation.
    fn dispatch(&mut self) {
        if self.busy {
            return;
        }
        let n = self.tenants.len();
        let owner = self.rr_owner.map(|o| o as usize);
        if let Some(o) = owner {
            if self.quantum_left_ns > 0 && self.tenants[o].runnable() {
                self.start_kernel(o, 0);
                return;
            }
        }
        let from = owner.map_or(0, |o| o + 1);
        let Some(ti) = (0..n)
            .map(|off| (from + off) % n)
            .find(|&cand| self.tenants[cand].runnable())
        else {
            return;
        };
        let mut penalty = 0;
        if let Some(o) = owner {
            if o != ti {
                // Involuntary if the displaced owner still had work
                // (its quantum simply expired).
                if self.tenants[o].runnable() {
                    self.preemptions += 1;
                }
                penalty = CTX_SWITCH_NS;
            }
        }
        self.rr_owner = Some(ti as u32);
        self.quantum_left_ns = self.quantum_ns;
        self.start_kernel(ti, penalty);
    }

    /// Dispatch the next kernel of tenant `ti`, delayed by `penalty_ns`
    /// of context-switch cost.
    ///
    /// Repeats of the same kernel that the scheduler would hand straight
    /// back to `ti` are launched here too, as long as each would finish
    /// before the earliest queued event. They share one completion
    /// event. Nothing else can happen between them, so every counter
    /// and sequence number ends as it would after one event per launch.
    /// This relies on one event changing one tenant's runnability: a
    /// dispatch starts at most one kernel, so the queue already holds
    /// every event that could come first.
    fn start_kernel(&mut self, ti: usize, penalty_ns: u64) {
        let now = self.now_ns;
        let horizon = self.heap.peek().map_or(u64::MAX, |Reverse(ev)| ev.0);
        let (before, rest) = self.tenants.split_at_mut(ti);
        let (t, after) = rest.split_first_mut().expect("tenant index in range");
        // Once the quantum has run out, a waiting stream takes the
        // device at the next kernel boundary.
        let others_waiting =
            || before.iter().any(Tenant::runnable) || after.iter().any(Tenant::runnable);
        if t.active.is_none() {
            let arrival_ns = t
                .queued
                .pop_front()
                .expect("runnable tenant with no active job has a queued one");
            t.active = Some(Active {
                arrival_ns,
                k: 0,
                rep: 0,
            });
        }
        let a = t.active.as_mut().expect("just ensured");
        let svc = t.svc_ns[a.k];
        let mut launches = 1;
        t.running = true;
        self.quantum_left_ns = self.quantum_left_ns.saturating_sub(svc + penalty_ns);
        let mut done_at = now + penalty_ns + svc;
        while a.rep + launches < t.counts[a.k] && done_at < horizon {
            if self.quantum_left_ns == 0 {
                if others_waiting() {
                    break;
                }
                // Rotation finds no one else and renews `ti`'s quantum.
                self.quantum_left_ns = self.quantum_ns;
            }
            self.quantum_left_ns = self.quantum_left_ns.saturating_sub(svc);
            done_at += svc;
            launches += 1;
        }
        a.rep += launches - 1;
        self.busy = true;
        // The sequence number the last launch's own event would carry.
        let seq = self.seq + u64::from(launches - 1);
        self.heap
            .push(Reverse((done_at, seq, EV_KERNEL_DONE, ti as u32)));
        self.seq = seq + 1;
    }

    /// Build the report after the event loop drains.
    fn report(self) -> SimReport {
        let streams = self
            .tenants
            .iter()
            .map(|t| StreamReport {
                name: t.name.clone(),
                jobs_completed: t.completed,
                latency_mean_ms: if t.completed == 0 {
                    0.0
                } else {
                    t.latency_ns as f64 / f64::from(t.completed) * 1e-6
                },
            })
            .collect();
        SimReport {
            makespan_ms: self.makespan_ns.max(1) as f64 * 1e-6,
            preemptions: self.preemptions,
            streams,
        }
    }
}

/// Convenience: build and run in one call.
pub fn simulate(dev: &DeviceSpec, specs: &[TenantSpec], cfg: SimConfig) -> SimReport {
    Engine::new(dev, specs, cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::Arrival;
    use gcnn_frameworks::PlannedKernel;
    use gcnn_gpusim::{KernelDesc, LaunchConfig};

    fn big_kernel(name: &str) -> KernelDesc {
        let mut k = KernelDesc::new(name, LaunchConfig::new(4096, 256));
        k.regs_per_thread = 64;
        k.flops = 5_000_000_000;
        k.compute_efficiency = 0.6;
        k
    }

    fn spec(name: &str, kernels: Vec<PlannedKernel>, arrival: Arrival, jobs: u32) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            kernels,
            arrival,
            jobs,
        }
    }

    fn tenant(name: &str, jobs: u32) -> TenantSpec {
        let kernels = vec![
            PlannedKernel::once(big_kernel("a")),
            PlannedKernel::times(big_kernel("b"), 2),
        ];
        spec(name, kernels, Arrival::ClosedLoop, jobs)
    }

    fn rr(quantum_us: f64) -> SimConfig {
        SimConfig::new(SchedPolicy::RoundRobin { quantum_us })
    }

    #[test]
    fn round_robin_counts_preemptions() {
        let r = simulate(
            &DeviceSpec::k40c(),
            &[tenant("a", 4), tenant("b", 4)],
            rr(50.0),
        );
        assert!(r.preemptions > 0, "{r:?}");
        assert_eq!(r.streams[0].jobs_completed, 4);
        assert_eq!(r.streams[1].jobs_completed, 4);
    }

    #[test]
    fn determinism_same_input_same_report() {
        let specs = [tenant("a", 5), tenant("b", 3)];
        let r1 = simulate(&DeviceSpec::k40c(), &specs, rr(100.0));
        let r2 = simulate(&DeviceSpec::k40c(), &specs, rr(100.0));
        assert_eq!(r1, r2);
    }

    #[test]
    fn open_arrivals_queue_when_overloaded() {
        // Period far below the job service time: the queue grows, and
        // the mean job waits for several others ahead of it.
        let dev = DeviceSpec::k40c();
        let job_ms = simulate(&dev, &[tenant("probe", 1)], rr(500.0)).makespan_ms;
        let mut open = tenant("open", 8);
        open.arrival = Arrival::Open { period_us: 1.0 };
        let r = simulate(&dev, &[open], rr(500.0));
        assert_eq!(r.streams[0].jobs_completed, 8);
        assert!(r.streams[0].latency_mean_ms > 3.0 * job_ms, "{r:?}");
    }

    #[test]
    fn conservation_all_submitted_jobs_complete() {
        for quantum_us in [50.0, 500.0] {
            let r = simulate(
                &DeviceSpec::k40c(),
                &[tenant("a", 7), tenant("b", 2), tenant("c", 5)],
                rr(quantum_us),
            );
            let total: u32 = r.streams.iter().map(|s| s.jobs_completed).sum();
            assert_eq!(total, 14);
        }
    }

    #[test]
    fn count_zero_kernels_never_launch() {
        let mut with_zero = tenant("a", 3);
        with_zero
            .kernels
            .insert(1, PlannedKernel::times(big_kernel("never"), 0));
        for quantum_us in [50.0, 5_000.0] {
            let dev = DeviceSpec::k40c();
            let with = simulate(&dev, &[with_zero.clone(), tenant("b", 2)], rr(quantum_us));
            let without = simulate(&dev, &[tenant("a", 3), tenant("b", 2)], rr(quantum_us));
            assert_eq!(with, without);
        }
    }

    #[test]
    #[should_panic(expected = "tenant 'idle' submits jobs with no kernel launch")]
    fn a_job_without_launches_is_rejected() {
        let idle = spec(
            "idle",
            vec![PlannedKernel::times(big_kernel("a"), 0)],
            Arrival::ClosedLoop,
            2,
        );
        simulate(&DeviceSpec::k40c(), &[tenant("a", 1), idle], rr(500.0));
    }

    /// Each launch as a planned kernel of its own: the engine then never
    /// has two launches of one kernel to run back to back.
    fn unrolled(spec: &TenantSpec) -> TenantSpec {
        let kernels = spec
            .kernels
            .iter()
            .flat_map(|pk| {
                std::iter::repeat_n(PlannedKernel::once(pk.desc.clone()), pk.count as usize)
            })
            .collect();
        TenantSpec {
            kernels,
            ..spec.clone()
        }
    }

    #[test]
    fn repeated_launches_match_one_event_per_launch() {
        let sized = |name: &str, flops: u64| KernelDesc {
            flops,
            ..big_kernel(name)
        };
        // Launches shorter and longer than the quanta below.
        let mixed = |name: &str, arrival, jobs| {
            let kernels = vec![
                PlannedKernel::times(sized("short", 40_000_000), 40),
                PlannedKernel::once(big_kernel("long")),
                PlannedKernel::times(sized("mid", 400_000_000), 5),
                PlannedKernel::times(big_kernel("long"), 3),
            ];
            spec(name, kernels, arrival, jobs)
        };
        let specs = [
            mixed("closed", Arrival::ClosedLoop, 6),
            mixed("open", Arrival::Open { period_us: 900.0 }, 5),
            mixed(
                "sparse",
                Arrival::Open {
                    period_us: 20_000.0,
                },
                3,
            ),
            tenant("plain", 4),
            // Mostly idle: arrives while others hold part of a quantum.
            spec(
                "blip",
                vec![PlannedKernel::once(sized("short", 40_000_000))],
                Arrival::Open { period_us: 1_370.0 },
                20,
            ),
        ];
        let unrolled_specs: Vec<TenantSpec> = specs.iter().map(unrolled).collect();
        let dev = DeviceSpec::k40c();
        for quantum_us in [50.0, 500.0, 5_000.0] {
            // Every non-empty subset of the tenants.
            for mask in 1..1usize << specs.len() {
                let pick = |all: &[TenantSpec]| -> Vec<TenantSpec> {
                    let picked = all.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1);
                    picked.map(|(_, s)| s.clone()).collect()
                };
                let batched = simulate(&dev, &pick(&specs), rr(quantum_us));
                let one_by_one = simulate(&dev, &pick(&unrolled_specs), rr(quantum_us));
                // Debug prints every float in round-trip form.
                assert_eq!(
                    format!("{batched:?}"),
                    format!("{one_by_one:?}"),
                    "quantum {quantum_us} µs, tenants {mask:#b}"
                );
            }
        }
    }
}
