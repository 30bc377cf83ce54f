//! The repo benchmark: end-to-end and per-layer numbers for the gcnn
//! workspace. See `benchmark/README.md` for what is measured and why.
//!
//! Modes (first match wins):
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload in this process; the last line of output is the result
//!   object `BENCHMARK.json`'s contract defines. (`--setup-only` and
//!   `--host-peaks` are what such a run and its parents pass down.)
//! * `--check` — 1 s windows, every correctness check, the span-cover
//!   assertion and the `BENCHMARK.json` schema check.
//! * `--aa` — two sets of runs of the same code, compared with the
//!   bounds in `BENCHMARK.json`.
//! * otherwise — every workload, each in a child process; `--traced`
//!   adds the per-layer run of each.

mod accounting;
mod alloc;
mod calib;
mod driver;
mod host;
mod layers;
mod metrics;
mod spans;
mod stats;
mod workloads;

use calib::Calibrator;
use host::HostPeaks;
use metrics::{Metrics, END_TO_END, PER_LAYER};
use spans::Recorder;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{RunStats, TraceCtx, Work};

#[global_allocator]
static HEAP: alloc::CountingAlloc = alloc::CountingAlloc;

/// Share of a traced run's window spent on the untraced product path
/// first, for the trace-overhead and heap-allocation baselines.
const REFERENCE_SHARE: f64 = 0.3;

/// Share of the reference window repeated with heap counting on.
const COUNTED_SHARE: f64 = 0.2;

/// Spans the driver thread may record in one traced window.
const MAIN_SPANS: usize = 1 << 20;

/// Where trace files go, relative to the repository root.
const RESULTS_DIR: &str = "benchmark/results";

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    /// Set up, print how long it took, and exit: the mode `setup_s`
    /// runs its repeat set-ups in, each in a process of its own.
    pub setup_only: bool,
    /// Peaks probed by a parent process, so its children need not.
    pub host_peaks: Option<HostPeaks>,
    pub traced: bool,
    pub check: bool,
    pub aa: bool,
    /// Seeds per set of `--aa`.
    pub seeds: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        setup_only: false,
        host_peaks: None,
        traced: false,
        check: false,
        aa: false,
        seeds: 2,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--setup-only" => a.setup_only = true,
            "--host-peaks" => {
                let v = value("GFLOP/s,GB/s")?;
                let parsed = v.split_once(',').and_then(|(f, s)| {
                    Some(HostPeaks {
                        fma_gflops: f.parse().ok()?,
                        stream_gbps: s.parse().ok()?,
                    })
                });
                a.host_peaks = Some(parsed.ok_or(format!("--host-peaks: cannot read {v}"))?);
            }
            "--seeds" => {
                a.seeds = value("a count")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?;
                if a.seeds == 0 {
                    return Err("--seeds must be at least 1".into());
                }
            }
            "--traced" => a.traced = true,
            "--check" => a.check = true,
            "--aa" => a.aa = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// The two gated timings of a window: the 10th percentile of its
/// slices' iteration time and the 90th of their completion rate. The
/// build host shares its cores; it moves between speed regimes seconds
/// long and up to 2x apart, so whole-window medians and means follow
/// the neighbours. The best tenth of the window follows the code.
fn gated_pace(run: &RunStats) -> (f64, f64) {
    let slices = run.as_slices();
    let mut ms: Vec<f64> = slices.iter().map(|s| s.ms).collect();
    let mut rate: Vec<f64> = slices.iter().map(|s| s.items_per_s).collect();
    ms.sort_by(f64::total_cmp);
    rate.sort_by(f64::total_cmp);
    (
        stats::percentile_sorted(&ms, 0.10),
        stats::percentile_sorted(&rate, 0.90),
    )
}

/// How many set-ups to time when the first took `first_s`: at least
/// three, and for a cheap set-up as many as fit in about a second,
/// because a 20 ms set-up is mostly scheduling noise on its own.
fn setups_for(first_s: f64) -> usize {
    ((1.0 / first_s).ceil() as usize).clamp(3, 15)
}

/// One set-up of workload `name` in a child process; its duration.
fn child_setup_s(name: &str, seed: u64) -> Result<f64, String> {
    let seed = seed.to_string();
    let out = driver::run_self(&["--workload", name, "--seed", &seed, "--setup-only"])?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(s) if out.status.success() => Ok(s),
        _ => Err(format!(
            "set-up of {name} failed: {}",
            String::from_utf8_lossy(&out.stderr).trim_end()
        )),
    }
}

/// The per-layer half of a run: an untraced reference window on the
/// product path, a short pass of it with heap counting on, then the
/// benchmark's walker under the span recorder.
fn traced_run(
    w: &mut dyn workloads::Workload,
    name: &str,
    window: Duration,
    host: HostPeaks,
    m: &mut Metrics,
) -> Result<RunStats, String> {
    let ref_window = window.mul_f64(REFERENCE_SHARE);
    let reference = w.run(ref_window, &mut Calibrator::off());
    let (ref_p10, _) = gated_pace(&reference);
    // The two end-to-end timings the A/A check demoted to diagnostics:
    // whole-window statistics, which on a shared host follow its
    // contention as much as the code.
    let ref_p50 = stats::summarize(&mut reference.samples_ms()).p50;
    m.set("bench.iter_p50_ms", ref_p50);
    m.set(
        "bench.items_per_s_mean",
        reference.attempted as f64 / reference.elapsed_s,
    );

    // Counted in a pass of its own: two atomic increments per
    // allocation would otherwise slow the reference timings.
    let fresh_before = gcnn_tensor::workspace::fresh_allocs();
    let counted_window = ref_window.mul_f64(COUNTED_SHARE);
    let (counted, heap) = alloc::counted(|| w.run(counted_window, &mut Calibrator::off()));
    let fresh = gcnn_tensor::workspace::fresh_allocs() - fresh_before;
    let counted_iters = counted.iterations.max(1) as f64;
    m.set("tensor.arena_fresh_allocs", fresh as f64 / counted_iters);
    m.set(
        "models.heap_allocs_per_iter",
        heap.allocs as f64 / counted_iters,
    );
    m.set(
        "models.heap_bytes_per_iter",
        heap.bytes as f64 / counted_iters,
    );

    let mut rec = Recorder::new(MAIN_SPANS, Instant::now(), 0);
    let mut side = Vec::new();
    let mut work = Work::default();
    let mut ctx = TraceCtx {
        rec: &mut rec,
        side: &mut side,
        metrics: m,
        work: &mut work,
    };
    let mut run = w.run_traced(window - ref_window, &mut ctx);
    layers::layer_metrics(m, rec.spans(), run.iterations, &work, host);
    let (traced_p10, _) = gated_pace(&run);

    m.set("host.peak_fma_gflops", host.fma_gflops);
    m.set("host.stream_gbps", host.stream_gbps);
    m.set("host.nproc", host::nproc() as f64);
    m.set(
        "bench.trace_overhead_pct",
        100.0 * (traced_p10 / ref_p10 - 1.0),
    );
    let dropped = rec.dropped() + side.iter().map(Recorder::dropped).sum::<u64>();
    m.set("bench.spans_dropped", dropped as f64);
    println!(
        "  reference (untraced) p10 {ref_p10:.4} ms over {} iterations; traced p10 {traced_p10:.4} ms over {}",
        reference.iterations, run.iterations
    );

    let path = PathBuf::from(RESULTS_DIR).join(format!("trace_{name}.json"));
    let mut all: Vec<&Recorder> = vec![&rec];
    all.extend(side.iter());
    spans::write_chrome_trace(&path, &all).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("  trace written to {}", path.display());
    run.attempted += reference.attempted + counted.attempted;
    run.failed += reference.failed + counted.failed;
    Ok(run)
}

/// The end-to-end half of a run: one calibrated window on the product
/// path, with the repeat set-ups on either side of it. `setup_s` is the
/// median over this process's set-up (`own_setup_s`) and the repeats —
/// each in a child process, so every sample is a cold process and this
/// one's peak memory is a single instance's.
fn untraced_run(
    mut w: Box<dyn workloads::Workload>,
    name: &str,
    seed: u64,
    window: Duration,
    own_setup_s: f64,
    m: &mut Metrics,
) -> Result<RunStats, String> {
    let mut setup_s = vec![own_setup_s];
    let repeats = setups_for(own_setup_s) - 1;
    for _ in 0..repeats / 2 {
        setup_s.push(child_setup_s(name, seed)?);
    }

    let mut calib = Calibrator::new();
    let run = w.run(window, &mut calib);
    // Read before anything sized by the run's throughput exists.
    m.set("peak_rss_mb", host::peak_rss_mib());
    drop(w);
    for _ in repeats / 2..repeats {
        setup_s.push(child_setup_s(name, seed)?);
    }

    // Reported at nominal host speed; see calib.rs for why.
    let scale = calib.to_nominal();
    let (p10_ms, p90_rate) = gated_pace(&run);
    m.set("setup_s", stats::median(&setup_s) * scale);
    m.set("iter_p10_ms", p10_ms * scale);
    m.set("items_per_s", p90_rate / scale);

    let s = stats::summarize(&mut run.samples_ms());
    let tail = s.tail.map_or(
        "no tail percentile has 10 samples beyond it".to_string(),
        |(q, v)| format!("p{} {v:.4} ms", q * 100.0),
    );
    println!(
        "  as measured, over {} samples: p10 {p10_ms:.4} ms, p50 {:.4} ms, {tail}; p90 rate {p90_rate:.4}/s, mean rate {:.4}/s",
        s.count,
        s.p50,
        run.attempted as f64 / run.elapsed_s
    );
    println!(
        "  host speed: calibration p10 {:.4} ms over {} kernel calls, nominal {} ms, so times scale by {scale:.4}",
        calib::NOMINAL_MS / scale,
        calib.calls(),
        calib::NOMINAL_MS
    );
    println!(
        "  setup_s is the median of {setup_s:.3?} ({} before the window), scaled",
        1 + repeats / 2
    );
    Ok(run)
}

/// One run of one workload in this process.
fn run_single(a: &Args, name: &str) -> Result<(), String> {
    let seconds = a.seconds.unwrap_or(10.0);
    let window = Duration::from_secs_f64(seconds);

    // Probed before anything of the workload exists, so the probe's
    // arrays are gone again before the set-up.
    let host = a.trace.then(|| a.host_peaks.unwrap_or_else(host::probe));

    let t0 = Instant::now();
    let mut w = workloads::make(name, a.seed).ok_or(format!("unknown workload {name}"))?;
    let own_setup_s = t0.elapsed().as_secs_f64();
    if a.setup_only {
        println!("{own_setup_s}");
        return Ok(());
    }
    println!(
        "workload {name}  seed {}  window {seconds} s  trace {}  item = {}",
        a.seed,
        u8::from(a.trace),
        w.item()
    );

    let mut m = Metrics::default();
    let (run, table): (_, &[metrics::MetricDef]) = match host {
        Some(host) => (
            traced_run(w.as_mut(), name, window, host, &mut m)?,
            &PER_LAYER,
        ),
        None => (
            untraced_run(w, name, a.seed, window, own_setup_s, &mut m)?,
            &END_TO_END,
        ),
    };

    let (lines, json) = m.render(table);
    print!("{lines}");
    let share = run.failed as f64 / run.attempted.max(1) as f64;
    println!(
        "  fail_share {share} ({} of {} items)",
        run.failed, run.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {json}}}",
        run.failed == 0,
        run.attempted.max(1),
        run.failed
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gcnn-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some(name) = args.workload.clone() {
        run_single(&args, &name)
    } else if args.check {
        driver::check()
    } else if args.aa {
        driver::aa(&args)
    } else {
        driver::all(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gcnn-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
