//! bench_compare — run the CI bench regression gates over `BENCH_*.json`
//! reports and fail on any regression:
//!
//! ```text
//! bench_compare --baseline <hotpaths baseline json> [--trace results/BENCH_trace.json]
//!               [--simd results/BENCH_simd.json] [--fft results/BENCH_fft.json]
//!               [--layout results/BENCH_layout.json]
//!               [--serve <serve baseline json>]
//! ```
//!
//! Each flag runs one gate of `gcnn_bench::compare`, in the order above.
//! `--baseline` and `--serve` name a committed baseline, held
//! against the fresh report at its fixed path under `results/`; the
//! other flags name the report itself. The bounds are the constants in
//! `compare.rs`. Every gate prints one line per gated number.
//! Exit codes: 0 clean, 1 regression, 2 usage, I/O or malformed report.

#![forbid(unsafe_code)]

use gcnn_bench::compare::{
    failed, fft_gate, hotpaths_gate, layout_gate, render, serve_gate, simd_gate, trace_gate, Check,
};
use serde_json::Value;
use std::process::exit;

type Gate = fn(&Value, &Value) -> Result<Vec<Check>, String>;

/// Every gate: its flag, the fresh report a baseline flag is held against
/// (`None`: the flag names the report itself), and the gate, called with
/// the flag's report and the fresh one.
const GATES: [(&str, Option<&str>, Gate); 6] = [
    (
        "--baseline",
        Some("results/BENCH_hotpaths.json"),
        hotpaths_gate,
    ),
    ("--trace", None, |_, r| trace_gate(r)),
    ("--simd", None, |_, r| simd_gate(r)),
    ("--fft", None, |_, r| fft_gate(r)),
    ("--layout", None, |_, r| layout_gate(r)),
    ("--serve", Some("results/BENCH_serve.json"), serve_gate),
];

fn usage() -> ! {
    eprintln!(
        "usage: bench_compare --baseline <json> [--trace <json>] [--simd <json>] \
         [--fft <json>] [--layout <json>] [--serve <baseline json>]"
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = [None; GATES.len()];
    for pair in args.chunks(2) {
        let [flag, path] = pair else { usage() };
        let i = GATES
            .iter()
            .position(|g| g.0 == flag)
            .unwrap_or_else(|| usage());
        paths[i] = Some(path.as_str());
    }
    // The hot-path baseline is required.
    if paths[0].is_none() {
        usage();
    }

    let mut any_failed = false;
    for ((flag, fresh, gate), path) in GATES.iter().zip(paths) {
        let Some(path) = path else { continue };
        let report = load(path);
        let rows = match fresh {
            Some(fresh) => gate(&report, &load(fresh)),
            None => gate(&report, &report),
        }
        .unwrap_or_else(|e| {
            eprintln!("bench_compare: {e}");
            exit(2);
        });
        if rows.is_empty() {
            println!("{flag} {path}: nothing to gate");
        }
        print!("{}", render(&rows));
        any_failed |= failed(&rows);
    }

    if any_failed {
        println!("bench_compare: FAILED");
        exit(1);
    }
    println!("bench_compare: ok");
}
