//! Property suite for the multi-tenant simulator — the acceptance
//! gates of the mtsim subsystem:
//!
//! * conservation: every submitted job completes, under every policy;
//! * determinism: identical inputs → bit-identical reports;
//! * single-tenant parity: one stream on FIFO sees exactly its
//!   dedicated latency (slowdown 1.0, zero queueing);
//! * FIFO interference: two identical closed-loop tenants each see
//!   ≥ 1.8× their dedicated latency;
//! * partition vs time-slicing: for occupancy-limited kernel
//!   populations, SM partitioning beats round-robin on aggregate
//!   throughput.

use gcnn_conv::ConvConfig;
use gcnn_frameworks::{implementation_by_name, PlannedKernel};
use gcnn_gpusim::{DeviceSpec, KernelDesc, LaunchConfig};
use gcnn_mtsim::{simulate, Arrival, SchedPolicy, SimConfig, TenantSpec};
use proptest::prelude::*;

/// A compute-heavy kernel whose grid fills the device.
fn saturating_kernel(name: &str, flops: u64) -> KernelDesc {
    let mut k = KernelDesc::new(name, LaunchConfig::new(4096, 256));
    k.regs_per_thread = 64;
    k.flops = flops;
    k.compute_efficiency = 0.6;
    k
}

/// An occupancy-limited kernel: a grid too small to fill even half the
/// K40c's SMs, so achieved occupancy — not ALU throughput — bounds it.
/// Confining it to an SM partition costs (almost) nothing.
fn occupancy_limited_kernel(name: &str) -> KernelDesc {
    let mut k = KernelDesc::new(name, LaunchConfig::new(16, 256));
    k.regs_per_thread = 64;
    k.flops = 2_000_000_000;
    k.compute_efficiency = 0.6;
    k.occupancy_needed = 0.5;
    k
}

fn closed_tenant(name: &str, kernel: KernelDesc, launches: u32, jobs: u32) -> TenantSpec {
    TenantSpec::from_kernels(
        name,
        vec![PlannedKernel::times(kernel, launches)],
        Arrival::ClosedLoop,
        jobs,
    )
}

#[test]
fn single_tenant_parity_with_dedicated_baseline() {
    let spec = closed_tenant("solo", saturating_kernel("k", 3_000_000_000), 4, 6);
    let r = simulate(
        &DeviceSpec::k40c(),
        &[spec],
        SimConfig::new(SchedPolicy::Fifo),
    );
    let s = &r.streams[0];
    assert_eq!(s.jobs_completed, 6);
    assert!((s.slowdown - 1.0).abs() < 1e-6, "{s:?}");
    assert!(s.queue_p99_ms < 1e-9, "{s:?}");
    assert!((s.service_p50_ms - s.dedicated_latency_ms).abs() < 1e-6);
}

/// The headline FIFO gate: two identical closed-loop tenants sharing
/// one device each see at least 1.8× their dedicated job latency.
#[test]
fn fifo_two_tenant_slowdown_at_least_1_8x() {
    for launches in [3u32, 8] {
        let a = closed_tenant("a", saturating_kernel("k", 2_000_000_000), launches, 8);
        let b = closed_tenant("b", saturating_kernel("k", 2_000_000_000), launches, 8);
        let r = simulate(
            &DeviceSpec::k40c(),
            &[a, b],
            SimConfig::new(SchedPolicy::Fifo),
        );
        for s in &r.streams {
            assert!(
                s.slowdown >= 1.8,
                "launches={launches}: {:?} slowdown {}",
                s.name,
                s.slowdown
            );
        }
    }
}

/// The partition-vs-time-slicing gate: when the kernel population is
/// occupancy-limited, spatial sharing wins on aggregate throughput.
#[test]
fn partition_beats_round_robin_for_occupancy_limited_kernels() {
    let specs = [
        closed_tenant("a", occupancy_limited_kernel("small_a"), 6, 10),
        closed_tenant("b", occupancy_limited_kernel("small_b"), 6, 10),
    ];
    let rr = simulate(
        &DeviceSpec::k40c(),
        &specs,
        SimConfig::new(SchedPolicy::RoundRobin { quantum_us: 200.0 }),
    );
    let part = simulate(
        &DeviceSpec::k40c(),
        &specs,
        SimConfig::new(SchedPolicy::SmPartition),
    );
    assert!(
        part.aggregate_throughput_jobs_per_s > 1.15 * rr.aggregate_throughput_jobs_per_s,
        "partition {} vs rr {}",
        part.aggregate_throughput_jobs_per_s,
        rr.aggregate_throughput_jobs_per_s
    );
}

/// The converse sanity check: a device-filling kernel population does
/// NOT gain from partitioning — its big grids want all 15 SMs, and a
/// half-device roughly halves per-stream speed.
#[test]
fn partition_does_not_help_saturating_kernels() {
    let specs = [
        closed_tenant("a", saturating_kernel("big_a", 5_000_000_000), 4, 6),
        closed_tenant("b", saturating_kernel("big_b", 5_000_000_000), 4, 6),
    ];
    let rr = simulate(
        &DeviceSpec::k40c(),
        &specs,
        SimConfig::new(SchedPolicy::RoundRobin { quantum_us: 500.0 }),
    );
    let part = simulate(
        &DeviceSpec::k40c(),
        &specs,
        SimConfig::new(SchedPolicy::SmPartition),
    );
    // No more than a few percent apart either way.
    let ratio = part.aggregate_throughput_jobs_per_s / rr.aggregate_throughput_jobs_per_s;
    assert!(ratio < 1.15, "partitioning should not win here: {ratio}");
}

/// Real framework plans (Caffe vs cuDNN from the paper's seven) share
/// the device: conservation and interference hold on realistic kernel
/// populations, not just synthetic ones.
#[test]
fn framework_plans_share_the_device() {
    let cfg = ConvConfig::paper_base();
    let caffe = implementation_by_name("Caffe").expect("registry has Caffe");
    let cudnn = implementation_by_name("cuDNN").expect("registry has cuDNN");
    caffe.supports(&cfg).expect("paper base supported");
    cudnn.supports(&cfg).expect("paper base supported");
    let specs = [
        TenantSpec::from_plan("caffe", &caffe.plan(&cfg), Arrival::ClosedLoop, 3),
        TenantSpec::from_plan("cudnn", &cudnn.plan(&cfg), Arrival::ClosedLoop, 3),
    ];
    for policy in [
        SchedPolicy::Fifo,
        SchedPolicy::RoundRobin { quantum_us: 500.0 },
        SchedPolicy::SmPartition,
    ] {
        let r = simulate(&DeviceSpec::k40c(), &specs, SimConfig::new(policy));
        for s in &r.streams {
            assert_eq!(s.jobs_completed, 3, "{policy:?} {s:?}");
            assert!(s.slowdown >= 1.0 - 1e-9, "{policy:?} {s:?}");
            assert!(s.sm_utilization > 0.0 && s.sm_utilization <= 1.0);
        }
        assert!(r.makespan_ms > 0.0);
    }
}

/// The Maxwell preset drives the simulator like the K40c: a sole
/// tenant completes every job at no slowdown.
#[test]
fn gm204_drives_the_simulator() {
    let gm204 = DeviceSpec::gm204();
    let spec = closed_tenant("m", saturating_kernel("k", 3_000_000_000), 3, 4);
    let r = simulate(&gm204, &[spec], SimConfig::new(SchedPolicy::Fifo));
    assert_eq!(r.streams[0].jobs_completed, 4);
    assert!((r.streams[0].slowdown - 1.0).abs() < 1e-6);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation: every submitted job completes under every policy,
    /// for arbitrary tenant counts, job counts and kernel shapes.
    #[test]
    fn all_jobs_complete_under_every_policy(
        n_tenants in 1usize..5,
        jobs in 1u32..6,
        launches in 1u32..4,
        grid_pick in 0usize..4,
        policy_pick in 0usize..3,
    ) {
        let policy = [
            SchedPolicy::Fifo,
            SchedPolicy::RoundRobin { quantum_us: 100.0 },
            SchedPolicy::SmPartition,
        ][policy_pick];
        let grid = [8u32, 64, 512, 4096][grid_pick];
        let mut specs = Vec::new();
        for i in 0..n_tenants {
            let mut k = KernelDesc::new("k", LaunchConfig::new(grid, 256));
            k.flops = 1_000_000_000 + i as u64 * 500_000_000;
            k.compute_efficiency = 0.5;
            specs.push(closed_tenant(&format!("t{i}"), k, launches, jobs));
        }
        let r = simulate(&DeviceSpec::k40c(), &specs, SimConfig::new(policy));
        let total: u32 = r.streams.iter().map(|s| s.jobs_completed).sum();
        prop_assert_eq!(total, n_tenants as u32 * jobs);
        for s in &r.streams {
            // Shared never beats dedicated.
            prop_assert!(s.slowdown >= 1.0 - 1e-9, "{:?}", s);
            prop_assert!(s.latency_mean_ms > 0.0);
        }
    }

    /// Determinism: the report is a pure function of the inputs.
    #[test]
    fn reports_are_deterministic(
        jobs_a in 1u32..6,
        jobs_b in 1u32..6,
        policy_pick in 0usize..3,
    ) {
        let policy = [
            SchedPolicy::Fifo,
            SchedPolicy::RoundRobin { quantum_us: 150.0 },
            SchedPolicy::SmPartition,
        ][policy_pick];
        let specs = [
            closed_tenant("a", saturating_kernel("x", 1_500_000_000), 2, jobs_a),
            closed_tenant("b", occupancy_limited_kernel("y"), 3, jobs_b),
        ];
        let r1 = simulate(&DeviceSpec::k40c(), &specs, SimConfig::new(policy));
        let r2 = simulate(&DeviceSpec::k40c(), &specs, SimConfig::new(policy));
        prop_assert_eq!(r1, r2);
    }

    /// Open arrivals below saturation keep queues bounded; the mean
    /// latency stays within an order of magnitude of dedicated.
    #[test]
    fn open_arrivals_below_saturation_stay_stable(slack in 2.0f64..6.0) {
        let base = closed_tenant("probe", saturating_kernel("k", 1_000_000_000), 2, 1);
        let dedicated = simulate(
            &DeviceSpec::k40c(),
            &[base],
            SimConfig::new(SchedPolicy::Fifo),
        );
        let job_ms = dedicated.streams[0].dedicated_latency_ms;
        let mut spec =
            closed_tenant("open", saturating_kernel("k", 1_000_000_000), 2, 12);
        spec.arrival = Arrival::Open { period_us: job_ms * 1e3 * slack };
        let r = simulate(
            &DeviceSpec::k40c(),
            &[spec],
            SimConfig::new(SchedPolicy::Fifo),
        );
        prop_assert_eq!(r.streams[0].jobs_completed, 12);
        // Arrivals are spaced wider than service: no queueing at all.
        prop_assert!(r.streams[0].queue_p99_ms < 1e-9, "{:?}", r.streams[0]);
    }
}
