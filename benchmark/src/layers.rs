//! From spans to the per-layer metrics every workload shares.
//!
//! Span names are `<crate>.<what>`; a metric `<name>_ms` is the time
//! spent in spans of that name per iteration, and a rate is the
//! workload's per-iteration work count over that time.

use crate::host::HostPeaks;
use crate::metrics::Metrics;
use crate::spans::{aggregate, Span};
use crate::workloads::Work;

/// Spans that wrap one whole iteration.
const ITERATION: [&str; 3] = ["models.infer", "models.train_step", "sim.iter"];

/// Spans that wrap one conv layer's public entry point.
const CONV: [&str; 7] = [
    "conv.unroll_fwd",
    "conv.unroll_bwd_filters",
    "conv.unroll_bwd_data",
    "conv.nchwc",
    "conv.fft_fwd",
    "conv.fft_bwd_data",
    "conv.fft_bwd_filters",
];

/// Derive the shared layer metrics from `spans` over `iters` traced
/// iterations. Work per nanosecond is giga-work per second, so FLOPs
/// over span nanoseconds is GFLOP/s and bytes over them GB/s.
pub fn layer_metrics(m: &mut Metrics, spans: &[Span], iters: u64, work: &Work, host: HostPeaks) {
    let agg = aggregate(spans);
    // Summed as integers: an empty float sum is -0.0, which would print.
    let total_ns = |names: &[&str]| -> f64 {
        names
            .iter()
            .filter_map(|n| agg.get(n))
            .map(|a| a.total_ns)
            .sum::<u64>() as f64
    };
    let self_ns = |names: &[&str]| -> f64 {
        names
            .iter()
            .filter_map(|n| agg.get(n))
            .map(|a| a.self_ns)
            .sum::<u64>() as f64
    };
    let n = iters as f64;
    let per_iter_ms = |names: &[&str]| total_ns(names) / 1e6 / n;
    let rate = |per_iter: u64, names: &[&str]| {
        let ns = total_ns(names);
        if ns > 0.0 {
            per_iter as f64 * n / ns
        } else {
            0.0
        }
    };
    let pct = |gflops: f64| 100.0 * gflops / host.fma_gflops;

    m.set("tensor.im2col_ms", per_iter_ms(&["tensor.im2col"]));
    m.set(
        "tensor.im2col_gbps",
        rate(work.im2col_bytes, &["tensor.im2col"]),
    );
    m.set("tensor.pack_nchwc_ms", per_iter_ms(&["tensor.pack_nchwc"]));

    let sgemm = rate(work.sgemm_flops, &["gemm.sgemm"]);
    m.set("gemm.sgemm_ms", per_iter_ms(&["gemm.sgemm"]));
    m.set("gemm.sgemm_gflops", sgemm);
    m.set("gemm.sgemm_pct_peak", pct(sgemm));
    m.set("gemm.cgemm_ms", per_iter_ms(&["gemm.cgemm"]));
    m.set("gemm.cgemm_gflops", rate(work.cgemm_flops, &["gemm.cgemm"]));

    let fft = ["fft.rfft_fwd", "fft.rfft_inv"];
    m.set("fft.rfft_fwd_ms", per_iter_ms(&fft[..1]));
    m.set("fft.rfft_inv_ms", per_iter_ms(&fft[1..]));
    m.set("fft.planes_per_s", rate(work.fft_planes, &fft) * 1e9);

    m.set("conv.unroll_fwd_ms", per_iter_ms(&["conv.unroll_fwd"]));
    m.set(
        "conv.unroll_gflops",
        rate(work.unroll_flops, &["conv.unroll_fwd"]),
    );
    let nchwc = rate(work.nchwc_flops, &["conv.nchwc_fwd"]);
    m.set("conv.nchwc_fwd_ms", per_iter_ms(&["conv.nchwc_fwd"]));
    m.set("conv.nchwc_gflops", nchwc);
    m.set("conv.nchwc_pct_peak", pct(nchwc));
    m.set("conv.fft_fwd_ms", per_iter_ms(&["conv.fft_fwd"]));
    m.set("conv.fft_bwd_data_ms", per_iter_ms(&["conv.fft_bwd_data"]));
    m.set(
        "conv.fft_bwd_filters_ms",
        per_iter_ms(&["conv.fft_bwd_filters"]),
    );
    m.set("conv.fft_gflops", rate(work.fft_direct_flops, &CONV[4..]));
    m.set("conv.self_ms", self_ns(&CONV) / 1e6 / n);
    m.set("conv.pool_ms", per_iter_ms(&["conv.pool"]));
    m.set("conv.relu_ms", per_iter_ms(&["conv.relu"]));
    m.set("conv.fc_ms", per_iter_ms(&["conv.fc"]));
    m.set("conv.fc_gbps", rate(work.fc_bytes, &["conv.fc"]));

    m.set("models.infer_ms", per_iter_ms(&["models.infer"]));
    m.set("models.train_step_ms", per_iter_ms(&["models.train_step"]));
    let wall = total_ns(&ITERATION);
    if wall > 0.0 {
        m.set("conv.share", total_ns(&CONV) / wall);
        m.set("models.span_cover", 1.0 - self_ns(&ITERATION) / wall);
        m.set("models.walker_gap_ms", self_ns(&ITERATION) / 1e6 / n);
    }

    // Every % of peak above divides by the probe, so the probe must be
    // a peak: no kernel in this run may have beaten it.
    assert!(
        host.fma_gflops >= sgemm.max(nchwc),
        "FMA probe ({:.1} GFLOP/s) is below a measured kernel ({:.1} GFLOP/s)",
        host.fma_gflops,
        sgemm.max(nchwc)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Recorder;
    use std::time::Instant;

    #[test]
    fn cover_gap_and_share_come_from_iteration_self_time() {
        // Durations are whatever the clock says; the identities between
        // the derived metrics hold regardless.
        let mut rec = Recorder::new(16, Instant::now(), 0);
        for _ in 0..2 {
            rec.scope("models.infer", |r| {
                r.scope("conv.unroll_fwd", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
                r.scope("conv.relu", |_| ());
            });
        }
        let mut m = Metrics::default();
        let host = HostPeaks {
            fma_gflops: 1.0,
            stream_gbps: 1.0,
        };
        layer_metrics(&mut m, rec.spans(), 2, &Work::default(), host);
        let infer = m.get("models.infer_ms");
        let gap = m.get("models.walker_gap_ms");
        assert!(infer >= 2.0 && gap >= 0.0);
        assert!((m.get("models.span_cover") - (1.0 - gap / infer)).abs() < 1e-9);
        assert!((m.get("conv.share") - m.get("conv.unroll_fwd_ms") / infer).abs() < 1e-9);
        assert_eq!(m.get("gemm.sgemm_gflops"), 0.0); // no such span, no work
    }
}
