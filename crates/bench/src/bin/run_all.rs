//! Regenerate every table and figure of the paper in one run, writing
//! the JSON data behind EXPERIMENTS.md into `results/`.

#![forbid(unsafe_code)]

use std::process::Command;

const BINARIES: [&str; 12] = [
    "table1_configs",
    "table2_resources",
    "fig2_model_breakdown",
    "fig3_runtime_sweeps",
    "fig4_hotspot_kernels",
    "fig5_memory_usage",
    "fig6_gpu_metrics",
    "fig7_transfer_overhead",
    "ablations",
    "device_sensitivity",
    "model_framework_comparison",
    "export_trace",
];

fn main() {
    // Prefer already-built sibling binaries (same target directory);
    // fall back to `cargo run` so `cargo run --bin run_all` works from a
    // cold target directory too.
    let exe = std::env::current_exe().expect("current exe path");
    let bindir = exe.parent().expect("bin directory").to_path_buf();
    let mut failures = 0;
    for name in BINARIES {
        println!("\n{}\n=== {name} ===\n{}", "=".repeat(72), "=".repeat(72));
        let direct = bindir.join(name);
        let status = if direct.is_file() {
            Command::new(direct).status()
        } else {
            Command::new(env!("CARGO", "cargo"))
                .args([
                    "run",
                    "--quiet",
                    "--release",
                    "-p",
                    "gcnn-bench",
                    "--bin",
                    name,
                ])
                .status()
        }
        .unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
        if !status.success() {
            eprintln!("!!! {name} exited with {status}");
            failures += 1;
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
    println!(
        "\nAll {} experiments regenerated; JSON in ./results/.",
        BINARIES.len()
    );
}
