//! bench_report — run an instrumented workload and write
//! `results/BENCH_trace.json`: the span tree and counters from the
//! metrics registry and the steady-state fresh-allocation count and
//! wall clock of the arena-backed convolution round. Hot-path timings
//! live in `results/BENCH_hotpaths.json` alone.
//!
//! The workload is deliberately small — it exists to exercise every
//! instrumented path (network forward/backward per layer, all
//! convolution strategies, the batched FFT and its plan cache, the
//! im2col/GEMM pipeline), not to produce stable timings. Timings live
//! in `perf_smoke`; this report is about *structure*: which spans nest
//! where, how often the caches hit, and whether the steady state still
//! allocates nothing.

#![forbid(unsafe_code)]

use gcnn_bench::timing::{stats, time_wall, Repeats, Stats};
use gcnn_conv::{ConvAlgorithm, ConvConfig, FftConv, Strategy, UnrollConv};
use gcnn_models::data::synthetic_digits;
use gcnn_models::Network;
use gcnn_tensor::init::uniform_tensor;
use gcnn_tensor::workspace;
use serde::Serialize;

#[derive(Serialize)]
struct TraceReport {
    /// Bump when the layout of this file changes incompatibly.
    schema_version: u32,
    workload: String,
    /// Arena pool misses during the second (post-warm-up) convolution
    /// round. The zero-allocation hot paths guarantee this is 0.
    steady_fresh_allocs: u64,
    /// Wall-clock summary of the steady conv round, via the shared
    /// warmup + trimmed-median util (1 warmup, 5 timed rounds).
    steady_round: Stats,
    snapshot: gcnn_trace::Snapshot,
}

/// One forward + both backward passes per arena-backed strategy — the
/// same round `gcnn-conv`'s steady-state test proves allocation-free.
fn conv_round(cfg: &ConvConfig, x: &gcnn_tensor::Tensor4, w: &gcnn_tensor::Tensor4) {
    for algo in [&UnrollConv as &dyn ConvAlgorithm, &FftConv] {
        let y = algo.forward(cfg, x, w);
        let _gw = algo.backward_filters(cfg, x, &y);
        let _gx = algo.backward_data(cfg, &y, w);
    }
}

fn main() {
    let mut cfg = ConvConfig::with_channels(2, 3, 16, 4, 3, 1);
    cfg.pad = 1;
    let x = uniform_tensor(cfg.input_shape(), -1.0, 1.0, 21);
    let w = uniform_tensor(cfg.filter_shape(), -1.0, 1.0, 22);

    let data = synthetic_digits(16, 16, 4, 7);
    let (imgs, labels) = data.batch(0, 8);
    let mut nets: Vec<Network> = [Strategy::Direct, Strategy::Unrolling, Strategy::Fft]
        .into_iter()
        .map(|s| Network::lenet5(16, 4, s, 5))
        .collect();

    // Warm-up: populate the thread-local pools and plan caches, then
    // drop everything recorded so far so the snapshot reflects only the
    // steady-state pass.
    // The conv round runs at pool width 1 both times: `alloc_scope`
    // counts this thread only, so this thread must run all of it.
    workspace::on_calling_thread(|| conv_round(&cfg, &x, &w));
    for net in &mut nets {
        net.train_batch(&imgs, &labels);
    }
    gcnn_trace::reset();

    // Counted region: the arena-backed round only, so the gate matches
    // exactly what the zero-allocation tests guarantee.
    let (_, steady) =
        workspace::on_calling_thread(|| workspace::alloc_scope(|| conv_round(&cfg, &x, &w)));

    // Timed region: the same round through the shared timing util, so
    // this report and perf_smoke summarize wall clock identically.
    let steady_round = stats(&time_wall(Repeats::new(1, 5), || conv_round(&cfg, &x, &w)));

    // Span coverage: one more training batch per strategy (outside the
    // counted region — training legitimately allocates activations).
    for net in &mut nets {
        net.train_batch(&imgs, &labels);
    }

    gcnn_trace::gauge_set("workspace.steady_fresh_allocs", steady as f64);
    let snapshot = gcnn_trace::snapshot();
    print!("{}", gcnn_core::report::render_trace(&snapshot));
    println!("steady-state fresh allocations: {steady}");

    let report = TraceReport {
        schema_version: 1,
        workload: format!(
            "conv round (unrolling+fft) at {cfg}, then one LeNet-5 \
             training batch per strategy at 16x16"
        ),
        steady_fresh_allocs: steady,
        steady_round,
        snapshot,
    };
    let path = gcnn_bench::write_json("BENCH_trace", &report).expect("write BENCH_trace.json");
    println!("wrote {path}");
}
