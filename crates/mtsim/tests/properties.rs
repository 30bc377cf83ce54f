//! Property suite for the round-robin simulator:
//!
//! * conservation: every submitted job completes, at every quantum;
//! * determinism: identical inputs → bit-identical reports;
//! * single-tenant parity: a sole stream is never preempted and each of
//!   its jobs takes exactly its kernels' modeled service time;
//! * open arrivals spaced wider than a job never queue.

use gcnn_conv::ConvConfig;
use gcnn_frameworks::{implementation_by_name, PlannedKernel};
use gcnn_gpusim::timing::time_kernel;
use gcnn_gpusim::{DeviceSpec, KernelDesc, LaunchConfig};
use gcnn_mtsim::{simulate, Arrival, SchedPolicy, SimConfig, SimReport, TenantSpec};
use proptest::prelude::*;

/// A compute-heavy kernel whose grid fills the device.
fn saturating_kernel(name: &str, flops: u64) -> KernelDesc {
    let mut k = KernelDesc::new(name, LaunchConfig::new(4096, 256));
    k.regs_per_thread = 64;
    k.flops = flops;
    k.compute_efficiency = 0.6;
    k
}

/// A kernel whose grid is too small to fill even half the K40c's SMs.
fn occupancy_limited_kernel(name: &str) -> KernelDesc {
    let mut k = KernelDesc::new(name, LaunchConfig::new(16, 256));
    k.regs_per_thread = 64;
    k.flops = 2_000_000_000;
    k.compute_efficiency = 0.6;
    k.occupancy_needed = 0.5;
    k
}

fn closed_tenant(name: &str, kernel: KernelDesc, launches: u32, jobs: u32) -> TenantSpec {
    TenantSpec {
        name: name.to_string(),
        kernels: vec![PlannedKernel::times(kernel, launches)],
        arrival: Arrival::ClosedLoop,
        jobs,
    }
}

fn rr(quantum_us: f64) -> SimConfig {
    SimConfig::new(SchedPolicy::RoundRobin { quantum_us })
}

/// One job of `kernel × launches` alone on `dev`, in the engine's
/// integer nanoseconds, as milliseconds.
fn dedicated_job_ms(dev: &DeviceSpec, kernel: &KernelDesc, launches: u32) -> f64 {
    let ns = (time_kernel(dev, kernel).time_ms * 1e6).round().max(1.0);
    ns * f64::from(launches) * 1e-6
}

/// A sole closed-loop tenant owns the device: no preemption, and every
/// job's latency is its dedicated service time.
fn assert_dedicated(r: &SimReport, job_ms: f64, jobs: u32) {
    let s = &r.streams[0];
    assert_eq!(s.jobs_completed, jobs);
    assert_eq!(r.preemptions, 0, "{r:?}");
    assert!(
        (s.latency_mean_ms - job_ms).abs() < 1e-9,
        "{s:?} vs {job_ms}"
    );
    assert!(
        (r.makespan_ms - job_ms * f64::from(jobs)).abs() < 1e-9,
        "{r:?}"
    );
}

#[test]
fn single_tenant_parity_with_dedicated_baseline() {
    let dev = DeviceSpec::k40c();
    let kernel = saturating_kernel("k", 3_000_000_000);
    let job_ms = dedicated_job_ms(&dev, &kernel, 4);
    for quantum_us in [50.0, 500.0, 5_000.0] {
        let r = simulate(
            &dev,
            &[closed_tenant("solo", kernel.clone(), 4, 6)],
            rr(quantum_us),
        );
        assert_dedicated(&r, job_ms, 6);
    }
}

/// Real framework plans (Caffe vs cuDNN from the paper's seven) share
/// the device: conservation holds on realistic kernel populations, not
/// just synthetic ones.
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
    for quantum_us in [50.0, 500.0, 5_000.0] {
        let r = simulate(&DeviceSpec::k40c(), &specs, rr(quantum_us));
        for s in &r.streams {
            assert_eq!(s.jobs_completed, 3, "{quantum_us} µs {s:?}");
            assert!(s.latency_mean_ms > 0.0);
        }
        assert!(r.makespan_ms > 0.0);
    }
}

/// The Maxwell preset drives the simulator like the K40c: a sole
/// tenant completes every job in its dedicated time.
#[test]
fn gm204_drives_the_simulator() {
    let gm204 = DeviceSpec::gm204();
    let kernel = saturating_kernel("k", 3_000_000_000);
    let job_ms = dedicated_job_ms(&gm204, &kernel, 3);
    let r = simulate(&gm204, &[closed_tenant("m", kernel, 3, 4)], rr(500.0));
    assert_dedicated(&r, job_ms, 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation: every submitted job completes at every quantum,
    /// for arbitrary tenant counts, job counts and kernel shapes.
    #[test]
    fn all_jobs_complete_under_every_policy(
        n_tenants in 1usize..5,
        jobs in 1u32..6,
        launches in 1u32..4,
        grid_pick in 0usize..4,
        quantum_us in 20.0f64..5_000.0,
    ) {
        let grid = [8u32, 64, 512, 4096][grid_pick];
        let mut specs = Vec::new();
        for i in 0..n_tenants {
            let mut k = KernelDesc::new("k", LaunchConfig::new(grid, 256));
            k.flops = 1_000_000_000 + i as u64 * 500_000_000;
            k.compute_efficiency = 0.5;
            specs.push(closed_tenant(&format!("t{i}"), k, launches, jobs));
        }
        let r = simulate(&DeviceSpec::k40c(), &specs, rr(quantum_us));
        let total: u32 = r.streams.iter().map(|s| s.jobs_completed).sum();
        prop_assert_eq!(total, n_tenants as u32 * jobs);
        for s in &r.streams {
            prop_assert!(s.latency_mean_ms > 0.0);
        }
    }

    /// Determinism: the report is a pure function of the inputs.
    #[test]
    fn reports_are_deterministic(
        jobs_a in 1u32..6,
        jobs_b in 1u32..6,
        quantum_us in 20.0f64..5_000.0,
    ) {
        let specs = [
            closed_tenant("a", saturating_kernel("x", 1_500_000_000), 2, jobs_a),
            closed_tenant("b", occupancy_limited_kernel("y"), 3, jobs_b),
        ];
        let r1 = simulate(&DeviceSpec::k40c(), &specs, rr(quantum_us));
        let r2 = simulate(&DeviceSpec::k40c(), &specs, rr(quantum_us));
        prop_assert_eq!(r1, r2);
    }

    /// Open arrivals spaced wider than one job's service never queue:
    /// each job's latency is its dedicated service time.
    #[test]
    fn open_arrivals_below_saturation_stay_stable(slack in 2.0f64..6.0) {
        let dev = DeviceSpec::k40c();
        let kernel = saturating_kernel("k", 1_000_000_000);
        let job_ms = dedicated_job_ms(&dev, &kernel, 2);
        let mut spec = closed_tenant("open", kernel, 2, 12);
        spec.arrival = Arrival::Open { period_us: job_ms * 1e3 * slack };
        let r = simulate(&dev, &[spec], rr(500.0));
        prop_assert_eq!(r.streams[0].jobs_completed, 12);
        prop_assert!((r.streams[0].latency_mean_ms - job_ms).abs() < 1e-9, "{:?}", r.streams[0]);
    }
}
