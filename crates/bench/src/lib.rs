//! # gcnn-bench
//!
//! The benchmark harness: one binary per table/figure of Li et al.
//! (ICPP 2016), plus the timing binaries of the real CPU substrates.
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig2_model_breakdown` | Fig. 2 — layer-type runtime breakdown of GoogLeNet/VGG/OverFeat/AlexNet |
//! | `fig3_runtime_sweeps` | Fig. 3 — runtime of the seven implementations over the five sweeps |
//! | `fig4_hotspot_kernels` | Fig. 4 — per-implementation hotspot kernels |
//! | `fig5_memory_usage` | Fig. 5 — peak memory over the five sweeps |
//! | `fig6_gpu_metrics` | Fig. 6 — runtime + five nvprof metrics over Table I |
//! | `fig7_transfer_overhead` | Fig. 7 — CPU↔GPU transfer share over Table I |
//! | `table1_configs` | Table I — the benchmark configurations |
//! | `table2_resources` | Table II — registers/shared memory + occupancy consequences |
//! | `run_all` | everything above, plus a JSON dump for EXPERIMENTS.md |
//!
//! `perf_smoke` times the *real* CPU substrates (SGEMM, FFT, the NCHWc
//! tile, the three convolution strategies) and writes the gated
//! `results/BENCH_*.json` — wall-clock numbers for this repository's own
//! kernels, complementing the modeled GPU numbers the figure binaries
//! report.

#![forbid(unsafe_code)]

pub mod compare;
pub mod timing;

use std::io::Write;
use std::path::Path;

/// Write a serializable result under `results/<name>.json` (best-effort
/// directory creation), returning the path written.
pub fn write_json<T: serde::Serialize>(name: &str, value: &T) -> std::io::Result<String> {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    let mut f = std::fs::File::create(&path)?;
    let s = serde_json::to_string_pretty(value).expect("serializable result");
    f.write_all(s.as_bytes())?;
    Ok(path.display().to_string())
}

/// Format milliseconds compactly.
pub fn ms(t: f64) -> String {
    if t >= 100.0 {
        format!("{t:.0}")
    } else if t >= 10.0 {
        format!("{t:.1}")
    } else {
        format!("{t:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ms_formatting() {
        assert_eq!(ms(123.456), "123");
        assert_eq!(ms(12.345), "12.3");
        assert_eq!(ms(1.234), "1.23");
    }
}
