//! bench_compare — diff two `BENCH_hotpaths.json` reports and fail on
//! regression. The CI bench job runs this after `perf_smoke`:
//!
//! ```text
//! bench_compare --baseline baseline.json [--current results/BENCH_hotpaths.json]
//!               [--tolerance 0.25] [--trace results/BENCH_trace.json]
//!               [--simd results/BENCH_simd.json] [--min-speedup 1.2]
//!               [--fft results/BENCH_fft.json] [--fft-min-speedup 1.2]
//!               [--layout results/BENCH_layout.json] [--layout-min-speedup 1.15]
//!               [--serve baseline_serve.json] [--serve-current results/BENCH_serve.json]
//!               [--serve-tolerance 0.35] [--serve-min-speedup 1.0]
//! ```
//!
//! A section whose p50 exceeds `baseline · (1 + tolerance)` fails, as
//! does a measured baseline section missing from the current report.
//! With `--trace`, a non-zero steady-state fresh-allocation count in
//! the trace report fails too. With `--simd`, the scalar-vs-SIMD
//! report must show the dispatched SGEMM kernel at least `--min-speedup`
//! times faster than scalar (skipped on scalar-only hosts). With
//! `--fft`, the per-size rfft sweep must show a geomean speedup of at
//! least `--fft-min-speedup` with no cell below its floor (also skipped
//! on scalar-only hosts). With `--layout`, the NCHWc layout A/B sweep
//! must show the fused packed conv path beating the unfused planar path
//! by `--layout-min-speedup` (geomean over headline entries, per-entry
//! floor 1.0×; also skipped on scalar-only hosts).
//! With `--serve`, a fresh `BENCH_serve.json` is
//! gated against the committed baseline: the batched speedup must stay
//! at or above `--serve-min-speedup`, and peak throughput / headline
//! p50 must stay within `--serve-tolerance` (wider than the kernel
//! tolerance — serving numbers come from a threaded closed loop).
//! With `--mtsim`, a fresh `BENCH_mtsim.json` (`--mtsim-current`) is
//! gated against the committed baseline: 2-tenant FIFO slowdown
//! ≥ 1.8×, partition over round-robin ≥ 1.15× on the occupancy-limited
//! workload, GM204 occupancy within 5% of maxDNN, and per-cell
//! throughput within `--mtsim-tolerance` of baseline (tight default —
//! the simulator is deterministic, so drift means the model changed).
//! Exit codes: 0 clean, 1 regression, 2 usage or I/O error.

#![forbid(unsafe_code)]

use gcnn_bench::compare::{
    diff_reports, fft_gate, layout_gate, mtsim_gate, serve_gate, simd_gate, steady_fresh_allocs,
};
use serde_json::Value;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: bench_compare --baseline <json> [--current <json>] \
         [--tolerance <frac>] [--trace <json>] [--simd <json>] \
         [--min-speedup <ratio>] [--fft <json>] [--fft-min-speedup <ratio>] \
         [--layout <json>] [--layout-min-speedup <ratio>] \
         [--serve <baseline json>] [--serve-current <json>] \
         [--serve-tolerance <frac>] [--serve-min-speedup <ratio>] \
         [--mtsim <baseline json>] [--mtsim-current <json>] \
         [--mtsim-tolerance <frac>]"
    );
    exit(2);
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_compare: cannot read {path}: {e}");
        exit(2);
    });
    serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("bench_compare: cannot parse {path}: {e:?}");
        exit(2);
    })
}

fn main() {
    let mut baseline = None;
    let mut current = "results/BENCH_hotpaths.json".to_string();
    let mut tolerance = 0.25f64;
    let mut trace = None;
    let mut simd = None;
    let mut min_speedup = 1.2f64;
    let mut fft = None;
    let mut fft_min_speedup = 1.2f64;
    let mut layout = None;
    let mut layout_min_speedup = 1.15f64;
    let mut serve = None;
    let mut serve_current = "results/BENCH_serve.json".to_string();
    let mut serve_tolerance = 0.35f64;
    let mut serve_min_speedup = 1.0f64;
    let mut mtsim = None;
    let mut mtsim_current = "results/BENCH_mtsim.json".to_string();
    let mut mtsim_tolerance = 0.10f64;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--baseline" => baseline = Some(value()),
            "--current" => current = value(),
            "--tolerance" => {
                tolerance = value().parse().unwrap_or_else(|_| usage());
                if tolerance < 0.0 {
                    usage();
                }
            }
            "--trace" => trace = Some(value()),
            "--simd" => simd = Some(value()),
            "--min-speedup" => {
                min_speedup = value().parse().unwrap_or_else(|_| usage());
                if min_speedup < 1.0 {
                    usage();
                }
            }
            "--fft" => fft = Some(value()),
            "--fft-min-speedup" => {
                fft_min_speedup = value().parse().unwrap_or_else(|_| usage());
                if fft_min_speedup < 1.0 {
                    usage();
                }
            }
            "--layout" => layout = Some(value()),
            "--layout-min-speedup" => {
                layout_min_speedup = value().parse().unwrap_or_else(|_| usage());
                if layout_min_speedup < 1.0 {
                    usage();
                }
            }
            "--serve" => serve = Some(value()),
            "--serve-current" => serve_current = value(),
            "--serve-tolerance" => {
                serve_tolerance = value().parse().unwrap_or_else(|_| usage());
                if serve_tolerance < 0.0 {
                    usage();
                }
            }
            "--serve-min-speedup" => {
                serve_min_speedup = value().parse().unwrap_or_else(|_| usage());
                if serve_min_speedup < 0.0 {
                    usage();
                }
            }
            "--mtsim" => mtsim = Some(value()),
            "--mtsim-current" => mtsim_current = value(),
            "--mtsim-tolerance" => {
                mtsim_tolerance = value().parse().unwrap_or_else(|_| usage());
                if mtsim_tolerance < 0.0 {
                    usage();
                }
            }
            _ => usage(),
        }
    }
    let Some(baseline) = baseline else { usage() };

    let diff = diff_reports(&load(&baseline), &load(&current), tolerance).unwrap_or_else(|e| {
        eprintln!("bench_compare: {e}");
        exit(2);
    });
    print!("{}", diff.render());
    let mut failed = diff.regressed();

    if let Some(trace_path) = trace {
        match steady_fresh_allocs(&load(&trace_path)) {
            Ok(0) => println!("steady-state allocations: 0 (ok)"),
            Ok(n) => {
                println!("steady-state allocations: {n} (REGRESSED — hot paths must not allocate)");
                failed = true;
            }
            Err(e) => {
                eprintln!("bench_compare: {e}");
                exit(2);
            }
        }
    }

    if let Some(simd_path) = simd {
        match simd_gate(&load(&simd_path), min_speedup) {
            Ok(gate) => {
                println!("{}", gate.render());
                failed |= !gate.passed();
            }
            Err(e) => {
                eprintln!("bench_compare: {e}");
                exit(2);
            }
        }
    }

    if let Some(fft_path) = fft {
        match fft_gate(&load(&fft_path), fft_min_speedup) {
            Ok(gate) => {
                println!("{}", gate.render());
                failed |= !gate.passed();
            }
            Err(e) => {
                eprintln!("bench_compare: {e}");
                exit(2);
            }
        }
    }

    if let Some(layout_path) = layout {
        match layout_gate(&load(&layout_path), layout_min_speedup) {
            Ok(gate) => {
                println!("{}", gate.render());
                failed |= !gate.passed();
            }
            Err(e) => {
                eprintln!("bench_compare: {e}");
                exit(2);
            }
        }
    }

    if let Some(serve_baseline) = serve {
        match serve_gate(
            &load(&serve_baseline),
            &load(&serve_current),
            serve_tolerance,
            serve_min_speedup,
        ) {
            Ok(gate) => {
                println!("{}", gate.render());
                failed |= !gate.passed();
            }
            Err(e) => {
                eprintln!("bench_compare: {e}");
                exit(2);
            }
        }
    }

    if let Some(mtsim_baseline) = mtsim {
        match mtsim_gate(
            &load(&mtsim_baseline),
            &load(&mtsim_current),
            mtsim_tolerance,
        ) {
            Ok(gate) => {
                println!("{}", gate.render());
                failed |= !gate.passed();
            }
            Err(e) => {
                eprintln!("bench_compare: {e}");
                exit(2);
            }
        }
    }

    if failed {
        println!("bench_compare: FAILED");
        exit(1);
    }
    println!("bench_compare: ok");
}
