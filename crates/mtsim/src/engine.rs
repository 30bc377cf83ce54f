//! The discrete-event engine.
//!
//! Time is integer nanoseconds on a binary-heap event queue; ties break
//! on a monotone sequence number, so runs are bit-for-bit
//! deterministic. Two event kinds exist: a job *arrival* on a stream,
//! and a kernel *completion* on a lane. Kernels are non-preemptible
//! (pre-Pascal hardware), so every scheduling decision happens in
//! [`Engine::dispatch`] at a kernel boundary.
//!
//! The device is a set of *lanes*: one lane for the serializing
//! policies (FIFO, round-robin), one lane per tenant for SM
//! partitioning. Per-kernel service times are precomputed in
//! [`Engine::new`] against the lane's device (the full spec, or a
//! clone with `sm_count` and memory bandwidth scaled to the partition
//! share) via [`gcnn_gpusim::timing::time_kernel`] — the event loop
//! itself never allocates and never re-runs the timing model. Repeats
//! of one kernel that nothing can interrupt share one completion event
//! (see `Engine::start_kernel`), so the event count follows the
//! scheduling decisions rather than the launch counts.

use crate::metrics::{percentile, SimReport, StreamReport};
use crate::policy::{SchedPolicy, SimConfig};
use crate::stream::{Arrival, TenantSpec};
use gcnn_gpusim::timing::time_kernel;
use gcnn_gpusim::DeviceSpec;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Event kinds, packed into the heap tuple.
const EV_ARRIVAL: u8 = 0;
const EV_KERNEL_DONE: u8 = 1;

/// Heap entry: `(time_ns, seq, kind, index)`. `index` is a tenant for
/// arrivals and a lane for completions. Ordered by time, then by
/// insertion sequence — deterministic tie-breaking.
type Event = Reverse<(u64, u64, u8, u32)>;

/// Progress of the job a stream is currently executing.
#[derive(Clone, Copy)]
struct Active {
    /// When the job arrived.
    arrival_ns: u64,
    /// When its first kernel was dispatched.
    start_ns: u64,
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
    /// Service time of one launch of each planned kernel on this
    /// stream's lane device, nanoseconds.
    svc_ns: Vec<u64>,
    /// Achieved occupancy of each planned kernel (0–1), for the
    /// utilization metric.
    occ: Vec<f64>,
    /// Launch count of each planned kernel.
    counts: Vec<u32>,
    /// One job's service time alone on the *full* device, ns.
    dedicated_job_ns: u64,
    /// Arrival timestamps of jobs waiting to start.
    queued: VecDeque<u64>,
    active: Option<Active>,
    /// A kernel of this stream is in flight.
    running: bool,
    /// When this stream last became runnable (FIFO ordering key).
    ready_since: u64,
    /// Jobs whose arrival event has been scheduled.
    spawned: u32,
    completed: u32,
    busy_ns: u64,
    weighted_busy_ns: f64,
    queue_ns: Vec<u64>,
    service_ns: Vec<u64>,
    latency_ns: Vec<u64>,
}

impl Tenant {
    /// Has a dispatchable kernel right now (not already in flight).
    fn runnable(&self) -> bool {
        !self.running && (self.active.is_some() || !self.queued.is_empty())
    }
}

/// One schedulable device share.
struct Lane {
    /// Tenant whose kernel is in flight, if any.
    current: Option<u32>,
    busy_ns: u64,
}

/// The multi-tenant simulator. Build with [`Engine::new`], consume
/// with [`Engine::run`].
pub struct Engine {
    policy: SchedPolicy,
    quantum_ns: u64,
    ctx_switch_ns: u64,
    tenants: Vec<Tenant>,
    lanes: Vec<Lane>,
    heap: BinaryHeap<Event>,
    seq: u64,
    now_ns: u64,
    /// Round-robin: tenant currently owning the quantum.
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

impl Engine {
    /// Precompute service times and seed the first arrivals.
    ///
    /// Under [`SchedPolicy::SmPartition`] the device is split into
    /// `tenants.len()` equal shares — `sm_count / N` SMs (at least 1)
    /// and a proportional slice of memory bandwidth — and each
    /// stream's kernels are re-timed against its share. The other
    /// policies time every kernel against the full device.
    pub fn new(dev: &DeviceSpec, specs: &[TenantSpec], cfg: SimConfig) -> Self {
        assert!(!specs.is_empty(), "at least one tenant stream required");
        let n = specs.len();
        let partitioned = matches!(cfg.policy, SchedPolicy::SmPartition);
        let lane_count = if partitioned { n } else { 1 };

        let lane_dev = if partitioned {
            let share = (dev.sm_count / n as u32).max(1);
            let mut d = dev.clone();
            d.mem_bandwidth_gbs *= share as f64 / dev.sm_count as f64;
            d.sm_count = share;
            d
        } else {
            dev.clone()
        };

        let mut tenants = Vec::with_capacity(n);
        let mut heap = BinaryHeap::with_capacity(n * 4);
        let mut seq = 0u64;
        let mut remaining_jobs = 0u64;
        for (i, spec) in specs.iter().enumerate() {
            let mut svc_ns = Vec::with_capacity(spec.kernels.len());
            let mut occ = Vec::with_capacity(spec.kernels.len());
            let mut counts = Vec::with_capacity(spec.kernels.len());
            let mut dedicated_job_ns = 0u64;
            // A planned kernel launches `count` times; 0 means never.
            for pk in spec.kernels.iter().filter(|pk| pk.count > 0) {
                let shared = time_kernel(&lane_dev, &pk.desc);
                svc_ns.push(ms_to_ns(shared.time_ms));
                occ.push((shared.metrics.achieved_occupancy / 100.0).clamp(0.0, 1.0));
                counts.push(pk.count);
                let dedicated = time_kernel(dev, &pk.desc);
                dedicated_job_ns += ms_to_ns(dedicated.time_ms) * u64::from(pk.count);
            }
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
                occ,
                counts,
                dedicated_job_ns,
                queued: VecDeque::with_capacity(jobs as usize),
                active: None,
                running: false,
                ready_since: 0,
                spawned: 0,
                completed: 0,
                busy_ns: 0,
                weighted_busy_ns: 0.0,
                queue_ns: Vec::with_capacity(jobs as usize),
                service_ns: Vec::with_capacity(jobs as usize),
                latency_ns: Vec::with_capacity(jobs as usize),
            });
            if jobs > 0 {
                heap.push(Reverse((0, seq, EV_ARRIVAL, i as u32)));
                seq += 1;
                tenants[i].spawned = 1;
            }
        }

        let mut lanes = Vec::with_capacity(lane_count);
        for _ in 0..lane_count {
            lanes.push(Lane {
                current: None,
                busy_ns: 0,
            });
        }

        let (quantum_ns, ctx_switch_ns) = match cfg.policy {
            SchedPolicy::RoundRobin { quantum_us } => {
                (us_to_ns(quantum_us), us_to_ns(cfg.ctx_switch_us.max(0.0)))
            }
            _ => (u64::MAX, 0),
        };

        Engine {
            policy: cfg.policy,
            quantum_ns,
            ctx_switch_ns,
            tenants,
            lanes,
            heap,
            seq,
            now_ns: 0,
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
        let Some(Reverse((t, _, kind, idx))) = self.heap.pop() else {
            return false;
        };
        self.now_ns = t;
        match kind {
            EV_ARRIVAL => self.on_arrival(idx as usize),
            _ => self.on_kernel_done(idx as usize),
        }
        self.dispatch();
        self.remaining_jobs > 0
    }

    fn on_arrival(&mut self, ti: usize) {
        let now = self.now_ns;
        let t = &mut self.tenants[ti];
        if !t.runnable() {
            // Stream was idle: it becomes runnable at this instant.
            t.ready_since = now;
        }
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

    fn on_kernel_done(&mut self, lane_idx: usize) {
        let now = self.now_ns;
        let ti = self.lanes[lane_idx]
            .current
            .take()
            .expect("completion event on an idle lane") as usize;
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
            t.queue_ns.push(a.start_ns - a.arrival_ns);
            t.service_ns.push(now - a.start_ns);
            t.latency_ns.push(now - a.arrival_ns);
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
        if self.tenants[ti].runnable() {
            self.tenants[ti].ready_since = now;
        }
    }

    /// Fill every idle lane according to the policy. Hot path: no
    /// allocation.
    fn dispatch(&mut self) {
        match self.policy {
            SchedPolicy::SmPartition => {
                let mut started = 0;
                for lane_idx in 0..self.lanes.len() {
                    if self.lanes[lane_idx].current.is_none() && self.tenants[lane_idx].runnable() {
                        self.start_kernel(lane_idx, lane_idx, 0);
                        started += 1;
                    }
                }
                debug_assert!(started <= 1, "one event started {started} lanes");
            }
            SchedPolicy::Fifo => {
                if self.lanes[0].current.is_some() {
                    return;
                }
                // Earliest-ready stream first; index breaks ties.
                let mut best: Option<(u64, usize)> = None;
                for (i, t) in self.tenants.iter().enumerate() {
                    if t.runnable() {
                        let key = t.ready_since;
                        if best.is_none_or(|(bk, _)| key < bk) {
                            best = Some((key, i));
                        }
                    }
                }
                if let Some((_, ti)) = best {
                    self.start_kernel(0, ti, 0);
                }
            }
            SchedPolicy::RoundRobin { .. } => {
                if self.lanes[0].current.is_some() {
                    return;
                }
                let n = self.tenants.len();
                let owner = self.rr_owner.map(|o| o as usize);
                // Stay with the quantum owner while it has work and
                // budget; otherwise rotate to the next runnable stream.
                if let Some(o) = owner {
                    if self.quantum_left_ns > 0 && self.tenants[o].runnable() {
                        self.start_kernel(0, o, 0);
                        return;
                    }
                }
                let from = owner.map_or(0, |o| o + 1);
                let mut chosen = None;
                for off in 0..n {
                    let cand = (from + off) % n;
                    if self.tenants[cand].runnable() {
                        chosen = Some(cand);
                        break;
                    }
                }
                let Some(ti) = chosen else { return };
                let mut penalty = 0;
                if let Some(o) = owner {
                    if o != ti {
                        // Involuntary if the displaced owner still had
                        // work (its quantum simply expired).
                        if self.tenants[o].runnable() {
                            self.preemptions += 1;
                        }
                        penalty = self.ctx_switch_ns;
                    }
                }
                self.rr_owner = Some(ti as u32);
                self.quantum_left_ns = self.quantum_ns;
                self.start_kernel(0, ti, penalty);
            }
        }
    }

    /// Dispatch the next kernel of tenant `ti` on `lane_idx`, delayed
    /// by `penalty_ns` of context-switch cost.
    ///
    /// Repeats of the same kernel that the policy would hand straight
    /// back to `ti` are launched here too, as long as each would finish
    /// before the earliest queued event. They share one completion
    /// event. Nothing else can happen between them, so every counter,
    /// float sum and sequence number ends as it would after one event
    /// per launch. This relies on one event changing one tenant's
    /// runnability: a dispatch starts at most one kernel, so the queue
    /// already holds every event that could come first.
    fn start_kernel(&mut self, lane_idx: usize, ti: usize, penalty_ns: u64) {
        let now = self.now_ns;
        let horizon = self.heap.peek().map_or(u64::MAX, |Reverse(ev)| ev.0);
        let (before, rest) = self.tenants.split_at_mut(ti);
        let (t, after) = rest.split_first_mut().expect("tenant index in range");
        // FIFO hands the lane to a waiting stream at every kernel
        // boundary, round-robin when the quantum has run out.
        let others_waiting =
            || before.iter().any(Tenant::runnable) || after.iter().any(Tenant::runnable);
        if t.active.is_none() {
            let arrival_ns = t
                .queued
                .pop_front()
                .expect("runnable tenant with no active job has a queued one");
            t.active = Some(Active {
                arrival_ns,
                start_ns: now + penalty_ns,
                k: 0,
                rep: 0,
            });
        }
        let a = t.active.as_mut().expect("just ensured");
        let (svc, occ) = (t.svc_ns[a.k], t.occ[a.k]);
        let mut launches = 1;
        t.running = true;
        t.busy_ns += svc;
        t.weighted_busy_ns += svc as f64 * occ;
        self.quantum_left_ns = self.quantum_left_ns.saturating_sub(svc + penalty_ns);
        let mut done_at = now + penalty_ns + svc;
        while a.rep + launches < t.counts[a.k] && done_at < horizon {
            match self.policy {
                SchedPolicy::SmPartition => {}
                SchedPolicy::Fifo if others_waiting() => break,
                SchedPolicy::Fifo => {}
                SchedPolicy::RoundRobin { .. } if self.quantum_left_ns > 0 => {}
                SchedPolicy::RoundRobin { .. } if others_waiting() => break,
                // Rotation finds no one else and renews `ti`'s quantum.
                SchedPolicy::RoundRobin { .. } => self.quantum_left_ns = self.quantum_ns,
            }
            t.ready_since = done_at;
            t.busy_ns += svc;
            t.weighted_busy_ns += svc as f64 * occ;
            self.quantum_left_ns = self.quantum_left_ns.saturating_sub(svc);
            done_at += svc;
            launches += 1;
        }
        a.rep += launches - 1;
        let lane = &mut self.lanes[lane_idx];
        lane.current = Some(ti as u32);
        lane.busy_ns += svc * u64::from(launches);
        // The sequence number the last launch's own event would carry.
        let seq = self.seq + u64::from(launches - 1);
        self.heap
            .push(Reverse((done_at, seq, EV_KERNEL_DONE, lane_idx as u32)));
        self.seq = seq + 1;
    }

    /// Build the report after the event loop drains.
    fn report(mut self) -> SimReport {
        let makespan_ns = self.makespan_ns.max(1);
        let makespan_s = makespan_ns as f64 * 1e-9;
        let mut streams = Vec::with_capacity(self.tenants.len());
        let mut total_jobs = 0u64;
        for t in &mut self.tenants {
            t.queue_ns.sort_unstable();
            t.service_ns.sort_unstable();
            let latency_mean_ns = if t.latency_ns.is_empty() {
                0.0
            } else {
                t.latency_ns.iter().map(|&v| v as f64).sum::<f64>() / t.latency_ns.len() as f64
            };
            let dedicated_ms = t.dedicated_job_ns as f64 * 1e-6;
            total_jobs += u64::from(t.completed);
            streams.push(StreamReport {
                name: t.name.clone(),
                jobs_completed: t.completed,
                throughput_jobs_per_s: f64::from(t.completed) / makespan_s,
                queue_p50_ms: percentile(&t.queue_ns, 50.0) as f64 * 1e-6,
                queue_p99_ms: percentile(&t.queue_ns, 99.0) as f64 * 1e-6,
                service_p50_ms: percentile(&t.service_ns, 50.0) as f64 * 1e-6,
                service_p99_ms: percentile(&t.service_ns, 99.0) as f64 * 1e-6,
                latency_mean_ms: latency_mean_ns * 1e-6,
                sm_utilization: t.weighted_busy_ns / makespan_ns as f64,
                dedicated_latency_ms: dedicated_ms,
                slowdown: if dedicated_ms > 0.0 {
                    latency_mean_ns * 1e-6 / dedicated_ms
                } else {
                    1.0
                },
            });
        }
        let lane_busy: u64 = self.lanes.iter().map(|l| l.busy_ns).sum();
        SimReport {
            policy: self.policy.label().to_string(),
            makespan_ms: makespan_ns as f64 * 1e-6,
            aggregate_throughput_jobs_per_s: total_jobs as f64 / makespan_s,
            device_busy_fraction: lane_busy as f64 / (self.lanes.len() as f64 * makespan_ns as f64),
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

    fn tenant(name: &str, jobs: u32) -> TenantSpec {
        TenantSpec::from_kernels(
            name,
            vec![
                PlannedKernel::once(big_kernel("a")),
                PlannedKernel::times(big_kernel("b"), 2),
            ],
            Arrival::ClosedLoop,
            jobs,
        )
    }

    #[test]
    fn single_tenant_fifo_matches_dedicated() {
        let r = simulate(
            &DeviceSpec::k40c(),
            &[tenant("solo", 4)],
            SimConfig::new(SchedPolicy::Fifo),
        );
        assert_eq!(r.streams[0].jobs_completed, 4);
        assert!((r.streams[0].slowdown - 1.0).abs() < 1e-6, "{r:?}");
        assert!(r.streams[0].queue_p99_ms < 1e-9);
    }

    #[test]
    fn two_tenant_fifo_interference_near_2x() {
        let r = simulate(
            &DeviceSpec::k40c(),
            &[tenant("a", 6), tenant("b", 6)],
            SimConfig::new(SchedPolicy::Fifo),
        );
        for s in &r.streams {
            assert_eq!(s.jobs_completed, 6);
            assert!(s.slowdown >= 1.8, "{s:?}");
            assert!(s.slowdown <= 2.3, "{s:?}");
        }
    }

    #[test]
    fn round_robin_counts_preemptions() {
        let r = simulate(
            &DeviceSpec::k40c(),
            &[tenant("a", 4), tenant("b", 4)],
            SimConfig::new(SchedPolicy::RoundRobin { quantum_us: 50.0 }),
        );
        assert!(r.preemptions > 0, "{r:?}");
        assert_eq!(r.streams[0].jobs_completed, 4);
        assert_eq!(r.streams[1].jobs_completed, 4);
    }

    #[test]
    fn partition_runs_streams_concurrently() {
        let r = simulate(
            &DeviceSpec::k40c(),
            &[tenant("a", 4), tenant("b", 4)],
            SimConfig::new(SchedPolicy::SmPartition),
        );
        assert_eq!(r.preemptions, 0);
        // Concurrent lanes: makespan well under the serialized sum.
        let serial_ms: f64 = r
            .streams
            .iter()
            .map(|s| s.latency_mean_ms * f64::from(s.jobs_completed))
            .sum();
        assert!(r.makespan_ms < 0.9 * serial_ms, "{r:?}");
    }

    #[test]
    fn determinism_same_input_same_report() {
        let specs = [tenant("a", 5), tenant("b", 3)];
        let cfg = SimConfig::new(SchedPolicy::RoundRobin { quantum_us: 100.0 });
        let r1 = simulate(&DeviceSpec::k40c(), &specs, cfg);
        let r2 = simulate(&DeviceSpec::k40c(), &specs, cfg);
        assert_eq!(r1, r2);
    }

    #[test]
    fn open_arrivals_queue_when_overloaded() {
        // Period far below the job service time: the queue grows and
        // p99 queueing dwarfs p50 service.
        let mut spec = tenant("open", 8);
        spec.arrival = Arrival::Open { period_us: 1.0 };
        let r = simulate(
            &DeviceSpec::k40c(),
            &[spec],
            SimConfig::new(SchedPolicy::Fifo),
        );
        assert_eq!(r.streams[0].jobs_completed, 8);
        assert!(
            r.streams[0].queue_p99_ms > r.streams[0].service_p50_ms,
            "{r:?}"
        );
    }

    #[test]
    fn conservation_all_submitted_jobs_complete() {
        let r = simulate(
            &DeviceSpec::k40c(),
            &[tenant("a", 7), tenant("b", 2), tenant("c", 5)],
            SimConfig::new(SchedPolicy::Fifo),
        );
        let total: u32 = r.streams.iter().map(|s| s.jobs_completed).sum();
        assert_eq!(total, 14);
        assert!(r.device_busy_fraction > 0.9, "{r:?}");
    }

    #[test]
    fn count_zero_kernels_never_launch() {
        let mut with_zero = tenant("a", 3);
        with_zero
            .kernels
            .insert(1, PlannedKernel::times(big_kernel("never"), 0));
        for policy in [SchedPolicy::Fifo, SchedPolicy::SmPartition] {
            let cfg = SimConfig::new(policy);
            let dev = DeviceSpec::k40c();
            let with = simulate(&dev, &[with_zero.clone(), tenant("b", 2)], cfg);
            let without = simulate(&dev, &[tenant("a", 3), tenant("b", 2)], cfg);
            assert_eq!(with, without);
        }
    }

    #[test]
    #[should_panic(expected = "tenant 'idle' submits jobs with no kernel launch")]
    fn a_job_without_launches_is_rejected() {
        let idle = TenantSpec::from_kernels(
            "idle",
            vec![PlannedKernel::times(big_kernel("a"), 0)],
            Arrival::ClosedLoop,
            2,
        );
        simulate(
            &DeviceSpec::k40c(),
            &[tenant("a", 1), idle],
            SimConfig::new(SchedPolicy::Fifo),
        );
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
            TenantSpec::from_kernels(name, kernels, arrival, jobs)
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
            TenantSpec::from_kernels(
                "blip",
                vec![PlannedKernel::once(sized("short", 40_000_000))],
                Arrival::Open { period_us: 1_370.0 },
                20,
            ),
        ];
        let unrolled_specs: Vec<TenantSpec> = specs.iter().map(unrolled).collect();
        let dev = DeviceSpec::k40c();
        for policy in [
            SchedPolicy::Fifo,
            SchedPolicy::SmPartition,
            SchedPolicy::RoundRobin { quantum_us: 50.0 },
            SchedPolicy::RoundRobin { quantum_us: 500.0 },
            SchedPolicy::RoundRobin {
                quantum_us: 5_000.0,
            },
        ] {
            // Every non-empty subset of the tenants.
            for mask in 1..1usize << specs.len() {
                let pick = |all: &[TenantSpec]| -> Vec<TenantSpec> {
                    let picked = all.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1);
                    picked.map(|(_, s)| s.clone()).collect()
                };
                let cfg = SimConfig::new(policy);
                let batched = simulate(&dev, &pick(&specs), cfg);
                let one_by_one = simulate(&dev, &pick(&unrolled_specs), cfg);
                // Debug prints every float in round-trip form.
                assert_eq!(
                    format!("{batched:?}"),
                    format!("{one_by_one:?}"),
                    "{policy:?}, tenants {mask:#b}"
                );
            }
        }
    }
}
