//! mtsim_report — tenants × policy sweep of the multi-tenant GPU
//! simulator.
//!
//! Two workloads bracket the scheduling trade-off:
//!
//! * `cudnn_conv` — the cuDNN execution plan at the paper's base
//!   configuration: big grids that fill the K40c, the regime where
//!   time-sharing the whole device is the right call;
//! * `occlimited` — a small-grid kernel population that cannot fill 15
//!   SMs, the regime where the occupancy model predicts SM
//!   partitioning wins on aggregate throughput.
//!
//! Every (workload × policy × tenants) cell runs the deterministic
//! event-driven simulator and records aggregate throughput, mean
//! interference slowdown and p99 queueing into
//! `results/BENCH_mtsim.json` — the committed baseline that
//! `bench_compare --mtsim` gates against. Headline numbers:
//!
//! * `fifo2_slowdown` — worst per-stream slowdown across the 2-tenant
//!   FIFO cells (gate: ≥ 1.8×, contention must be modeled);
//! * `partition_over_rr_occlimited` — partition over round-robin
//!   aggregate throughput on the occupancy-limited workload at 2
//!   tenants (gate: ≥ 1.15×);
//! * `maxwell.rel_err` — GM204 occupancy model vs maxDNN's published
//!   25% register-limited figure (gate: ≤ 5%).
//!
//! `--smoke` runs the 2-tenant cells only and asserts the invariants
//! (conservation, the three headline gates) instead of writing the
//! report; non-zero exit on any violation — the CI `mtsim-smoke` job.

#![forbid(unsafe_code)]

use gcnn_bench::compare::{
    MTSIM_MAX_MAXWELL_REL_ERR, MTSIM_MIN_FIFO2_SLOWDOWN, MTSIM_MIN_PARTITION_OVER_RR,
};
use gcnn_conv::ConvConfig;
use gcnn_frameworks::{implementation_by_name, PlannedKernel};
use gcnn_gpusim::{occupancy, DeviceSpec, KernelDesc, LaunchConfig, OccupancyLimiter};
use gcnn_mtsim::{simulate, Arrival, SchedPolicy, SimConfig, SimReport, TenantSpec};
use serde::Serialize;
use std::process::exit;

/// Jobs each tenant submits per cell — enough for stable percentiles,
/// cheap because the simulator is analytical.
const JOBS: u32 = 8;
/// Round-robin service quantum for the sweep.
const RR_QUANTUM_US: f64 = 200.0;

#[derive(Debug, Serialize)]
struct Cell {
    workload: &'static str,
    policy: String,
    tenants: usize,
    jobs_per_tenant: u32,
    makespan_ms: f64,
    aggregate_throughput_jobs_per_s: f64,
    device_busy_fraction: f64,
    preemptions: u64,
    mean_slowdown: f64,
    worst_slowdown: f64,
    max_queue_p99_ms: f64,
    mean_sm_utilization: f64,
}

#[derive(Debug, Serialize)]
struct Maxwell {
    device: String,
    occupancy_model: f64,
    occupancy_published: f64,
    rel_err: f64,
    limiter: String,
}

#[derive(Debug, Serialize)]
struct Report {
    device: String,
    rr_quantum_us: f64,
    fifo2_slowdown: f64,
    partition_over_rr_occlimited: f64,
    maxwell: Maxwell,
    cells: Vec<Cell>,
}

/// The occupancy-limited population: a 16-block grid on a 15-SM part —
/// achieved occupancy, not ALU throughput, bounds it, so an SM
/// partition costs (almost) nothing.
fn occlimited_job() -> Vec<PlannedKernel> {
    let mut k = KernelDesc::new("occ_limited", LaunchConfig::new(16, 256));
    k.regs_per_thread = 64;
    k.flops = 2_000_000_000;
    k.compute_efficiency = 0.6;
    k.occupancy_needed = 0.5;
    vec![PlannedKernel::times(k, 6)]
}

/// The device-filling population: the cuDNN plan at the paper's base
/// convolution configuration.
fn cudnn_job() -> Vec<PlannedKernel> {
    let cfg = ConvConfig::paper_base();
    let imp = implementation_by_name("cuDNN").expect("registry has cuDNN");
    imp.supports(&cfg).expect("paper base supported");
    imp.plan(&cfg).kernels
}

fn tenants_of(kernels: &[PlannedKernel], n: usize) -> Vec<TenantSpec> {
    (0..n)
        .map(|i| {
            TenantSpec::from_kernels(
                &format!("t{i}"),
                kernels.to_vec(),
                Arrival::ClosedLoop,
                JOBS,
            )
        })
        .collect()
}

fn policies() -> [SchedPolicy; 3] {
    [
        SchedPolicy::Fifo,
        SchedPolicy::RoundRobin {
            quantum_us: RR_QUANTUM_US,
        },
        SchedPolicy::SmPartition,
    ]
}

fn cell(workload: &'static str, r: &SimReport, tenants: usize) -> Cell {
    let n = r.streams.len().max(1) as f64;
    Cell {
        workload,
        policy: r.policy.clone(),
        tenants,
        jobs_per_tenant: JOBS,
        makespan_ms: r.makespan_ms,
        aggregate_throughput_jobs_per_s: r.aggregate_throughput_jobs_per_s,
        device_busy_fraction: r.device_busy_fraction,
        preemptions: r.preemptions,
        mean_slowdown: r.streams.iter().map(|s| s.slowdown).sum::<f64>() / n,
        worst_slowdown: r.streams.iter().map(|s| s.slowdown).fold(0.0f64, f64::max),
        max_queue_p99_ms: r
            .streams
            .iter()
            .map(|s| s.queue_p99_ms)
            .fold(0.0f64, f64::max),
        mean_sm_utilization: r.streams.iter().map(|s| s.sm_utilization).sum::<f64>() / n,
    }
}

fn maxwell_validation() -> Maxwell {
    // maxDNN's convolution kernel: 256 threads/block at 128
    // registers/thread on GM204 → 25% theoretical occupancy,
    // register-limited (arXiv:1501.06633).
    const PUBLISHED: f64 = 0.25;
    let gm204 = DeviceSpec::gm204();
    let occ = occupancy(&gm204, 128, 0, 256);
    Maxwell {
        device: gm204.name.clone(),
        occupancy_model: occ.theoretical,
        occupancy_published: PUBLISHED,
        rel_err: (occ.theoretical - PUBLISHED).abs() / PUBLISHED,
        limiter: format!("{:?}", occ.limiter),
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("mtsim_report: SMOKE FAILED: {msg}");
    exit(1);
}

fn smoke() {
    let dev = DeviceSpec::k40c();
    for (workload, kernels) in [
        ("occlimited", occlimited_job()),
        ("cudnn_conv", cudnn_job()),
    ] {
        for policy in policies() {
            let r = simulate(&dev, &tenants_of(&kernels, 2), SimConfig::new(policy));
            for s in &r.streams {
                if s.jobs_completed != JOBS {
                    fail(&format!(
                        "{workload}/{}: stream {} completed {}/{JOBS} jobs",
                        r.policy, s.name, s.jobs_completed
                    ));
                }
                if s.slowdown < 1.0 - 1e-9 {
                    fail(&format!(
                        "{workload}/{}: stream {} beat its dedicated baseline",
                        r.policy, s.name
                    ));
                }
            }
            if policy == SchedPolicy::Fifo {
                for s in &r.streams {
                    if s.slowdown < MTSIM_MIN_FIFO2_SLOWDOWN {
                        fail(&format!(
                            "{workload}/fifo: 2-tenant slowdown {:.2} below \
                             {MTSIM_MIN_FIFO2_SLOWDOWN}",
                            s.slowdown
                        ));
                    }
                }
            }
        }
        let rr = simulate(
            &dev,
            &tenants_of(&kernels, 2),
            SimConfig::new(SchedPolicy::RoundRobin {
                quantum_us: RR_QUANTUM_US,
            }),
        );
        let part = simulate(
            &dev,
            &tenants_of(&kernels, 2),
            SimConfig::new(SchedPolicy::SmPartition),
        );
        if workload == "occlimited"
            && part.aggregate_throughput_jobs_per_s
                < MTSIM_MIN_PARTITION_OVER_RR * rr.aggregate_throughput_jobs_per_s
        {
            fail(&format!(
                "partition {:.2} jobs/s does not beat rr {:.2} jobs/s by \
                 {MTSIM_MIN_PARTITION_OVER_RR}x \
                 on the occupancy-limited workload",
                part.aggregate_throughput_jobs_per_s, rr.aggregate_throughput_jobs_per_s
            ));
        }
    }
    let mw = maxwell_validation();
    if mw.rel_err > MTSIM_MAX_MAXWELL_REL_ERR {
        fail(&format!(
            "GM204 occupancy {:.3} off maxDNN {:.2} by {:.1}%",
            mw.occupancy_model,
            mw.occupancy_published,
            mw.rel_err * 100.0
        ));
    }
    if mw.limiter != format!("{:?}", OccupancyLimiter::Registers) {
        fail(&format!(
            "GM204 maxDNN kernel limiter {} != Registers",
            mw.limiter
        ));
    }
    println!(
        "mtsim_report: smoke ok (2-tenant cells, maxwell err {:.1}%)",
        mw.rel_err * 100.0
    );
}

fn main() {
    let smoke_mode = std::env::args().skip(1).any(|a| a == "--smoke");
    if smoke_mode {
        smoke();
        return;
    }

    let dev = DeviceSpec::k40c();
    let mut cells = Vec::new();
    let mut fifo2_slowdown = f64::INFINITY;
    let mut occ2 = (0.0f64, 0.0f64); // (rr, partition) aggregate at 2 tenants

    for (workload, kernels) in [
        ("cudnn_conv", cudnn_job()),
        ("occlimited", occlimited_job()),
    ] {
        for n in [1usize, 2, 4] {
            for policy in policies() {
                let r = simulate(&dev, &tenants_of(&kernels, n), SimConfig::new(policy));
                let c = cell(workload, &r, n);
                if n == 2 && policy == SchedPolicy::Fifo {
                    // Worst (i.e. smallest) per-stream slowdown across
                    // both workloads: every stream must feel contention.
                    let min_s = r
                        .streams
                        .iter()
                        .map(|s| s.slowdown)
                        .fold(f64::INFINITY, f64::min);
                    fifo2_slowdown = fifo2_slowdown.min(min_s);
                }
                if workload == "occlimited" && n == 2 {
                    match policy {
                        SchedPolicy::RoundRobin { .. } => {
                            occ2.0 = c.aggregate_throughput_jobs_per_s
                        }
                        SchedPolicy::SmPartition => occ2.1 = c.aggregate_throughput_jobs_per_s,
                        SchedPolicy::Fifo => {}
                    }
                }
                println!(
                    "{workload:<12} {:>9} tenants {n}: {:>8.2} jobs/s, mean slowdown {:.2}x",
                    c.policy, c.aggregate_throughput_jobs_per_s, c.mean_slowdown
                );
                cells.push(c);
            }
        }
    }

    let report = Report {
        device: dev.name.clone(),
        rr_quantum_us: RR_QUANTUM_US,
        fifo2_slowdown,
        partition_over_rr_occlimited: occ2.1 / occ2.0.max(1e-12),
        maxwell: maxwell_validation(),
        cells,
    };
    match gcnn_bench::write_json("BENCH_mtsim", &report) {
        Ok(path) => println!(
            "wrote {path} (fifo2 {:.2}x, partition/rr {:.2}x, maxwell err {:.1}%)",
            report.fifo2_slowdown,
            report.partition_over_rr_occlimited,
            report.maxwell.rel_err * 100.0
        ),
        Err(e) => {
            eprintln!("mtsim_report: cannot write report: {e}");
            exit(2);
        }
    }
}
