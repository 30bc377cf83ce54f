//! The metric tables: every name the binary may print, with its unit.
//!
//! `BENCHMARK.json` lists the same names; `--check` fails when the two
//! disagree, so the file cannot drift from what the binary emits.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

pub const WORKLOADS: [&str; 6] = [
    "alexnet_infer_unroll",
    "alexnet_infer_nchwc",
    "table1_train_fft",
    "lenet_train",
    "lenet_serve",
    "paper_sim",
];

/// Printed by an untraced run (`--trace 0`).
pub const END_TO_END: [MetricDef; 4] = [
    m("setup_s", "s", "lower"),
    m("iter_p10_ms", "ms", "lower"),
    m("items_per_s", "1/s", "higher"),
    m("peak_rss_mb", "MiB", "lower"),
];

/// Printed by a traced run (`--trace 1`); a metric a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: [MetricDef; 52] = [
    m("host.peak_fma_gflops", "GFLOP/s", "higher"),
    m("host.stream_gbps", "GB/s", "higher"),
    m("host.nproc", "count", "higher"),
    m("tensor.im2col_ms", "ms", "lower"),
    m("tensor.im2col_gbps", "GB/s", "higher"),
    m("tensor.pack_nchwc_ms", "ms", "lower"),
    m("tensor.arena_fresh_allocs", "count", "lower"),
    m("gemm.sgemm_ms", "ms", "lower"),
    m("gemm.sgemm_gflops", "GFLOP/s", "higher"),
    m("gemm.sgemm_pct_peak", "%", "higher"),
    m("gemm.cgemm_ms", "ms", "lower"),
    m("gemm.cgemm_gflops", "GFLOP/s", "higher"),
    m("fft.rfft_fwd_ms", "ms", "lower"),
    m("fft.rfft_inv_ms", "ms", "lower"),
    m("fft.planes_per_s", "1/s", "higher"),
    m("conv.unroll_fwd_ms", "ms", "lower"),
    m("conv.unroll_gflops", "GFLOP/s", "higher"),
    m("conv.nchwc_fwd_ms", "ms", "lower"),
    m("conv.nchwc_gflops", "GFLOP/s", "higher"),
    m("conv.nchwc_pct_peak", "%", "higher"),
    m("conv.fft_fwd_ms", "ms", "lower"),
    m("conv.fft_bwd_data_ms", "ms", "lower"),
    m("conv.fft_bwd_filters_ms", "ms", "lower"),
    m("conv.fft_gflops", "GFLOP/s", "higher"),
    m("conv.self_ms", "ms", "lower"),
    m("conv.pool_ms", "ms", "lower"),
    m("conv.relu_ms", "ms", "lower"),
    m("conv.fc_ms", "ms", "lower"),
    m("conv.fc_gbps", "GB/s", "higher"),
    m("conv.share", "ratio", "higher"),
    m("models.infer_ms", "ms", "lower"),
    m("models.train_step_ms", "ms", "lower"),
    m("models.span_cover", "ratio", "higher"),
    m("models.walker_gap_ms", "ms", "lower"),
    m("models.heap_allocs_per_iter", "count", "lower"),
    m("models.heap_bytes_per_iter", "bytes", "lower"),
    m("serve.mean_batch", "count", "higher"),
    m("serve.shed", "count", "lower"),
    m("serve.overhead_ms", "ms", "lower"),
    m("serve.codec_ns_per_frame", "ns", "lower"),
    m("serve.batcher_ns_per_offer", "ns", "lower"),
    m("serve.latency_p99_ms", "ms", "lower"),
    m("gpusim.time_kernel_ns", "ns", "lower"),
    m("frameworks.plan_build_us", "us", "lower"),
    m("core.sweep_ms", "ms", "lower"),
    m("core.breakdown_ms", "ms", "lower"),
    m("core.modeled_total_ms", "ms", "lower"),
    m("mtsim.events_per_s", "1/s", "higher"),
    m("bench.iter_p50_ms", "ms", "lower"),
    m("bench.items_per_s_mean", "1/s", "higher"),
    m("bench.trace_overhead_pct", "%", "lower"),
    m("bench.spans_dropped", "count", "lower"),
];

/// Values measured so far, keyed by a name from one of the tables.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|d| d.name == name),
            "metric {name} is not in the tables"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// One printed line per metric of `table`, then the result object's
    /// `metrics` member.
    pub fn render(&self, table: &[MetricDef]) -> (String, String) {
        let mut lines = String::new();
        let mut json = String::from("{");
        for (i, d) in table.iter().enumerate() {
            let v = self.get(d.name);
            lines.push_str(&format!("  {:<32} {:>16.6} {}\n", d.name, v, d.unit));
            if i > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(v),
                d.unit
            ));
        }
        json.push('}');
        (lines, json)
    }
}

/// A finite `f64` with all its digits (Rust prints the shortest text
/// that reads back to the same value).
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.name.chars().all(ok), "{}", d.name);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                d.unit.len() <= 16 && d.unit.chars().all(unit_ok),
                "{}",
                d.unit
            );
            assert!(d.better == "lower" || d.better == "higher");
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
    }

    #[test]
    fn render_prints_every_metric_and_defaults_to_zero() {
        let mut m = Metrics::default();
        m.set("iter_p10_ms", 1.25);
        let (lines, json) = m.render(&END_TO_END);
        assert_eq!(lines.lines().count(), END_TO_END.len());
        assert!(json.contains("\"iter_p10_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        assert!(json.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
    }
}
