//! Golden test for the modeled figures: the Fig. 3 sweep tables, the
//! Fig. 2 model breakdowns and the whole-model framework comparison
//! (totals only), and the Fig. 4 hotspots, Fig. 5 peak memory, Fig. 6
//! runtime-weighted metrics and Fig. 7 transfer shares (read off full
//! profiles), rebuilt from the GPU model,
//! must equal the committed `results/` files value for value. A change
//! meant to speed the simulator up must leave every modeled number where
//! it was.

use gcnn_conv::ConvConfig;
use gcnn_core::gpuprofile::gpu_profile;
use gcnn_core::hotspot::all_hotspots;
use gcnn_core::transfer_overheads;
use gcnn_core::{compare_model, memory_comparison, paper_sweeps, runtime_comparison};
use gcnn_frameworks::cudnn::CuDnn;
use gcnn_gpusim::DeviceSpec;
use gcnn_models::{all_models, model_breakdown};
use serde_json::Value;

/// `fresh`, serialized as `run_all` writes it, against the committed
/// JSON text. Objects compare as maps, so key order does not matter.
fn assert_matches_committed<T: serde::Serialize>(fresh: &T, committed: &str, file: &str) {
    let fresh = serde_json::to_string_pretty(fresh).expect("serializable result");
    let fresh = serde_json::from_str(&fresh).expect("fresh JSON parses");
    let committed: Value = serde_json::from_str(committed).expect("committed JSON parses");
    assert!(
        fresh == committed,
        "results/{file} no longer matches the model; rerun `run_all` only if the model was meant to change"
    );
}

/// Fig. 3: `runtime_comparison` over the five paper sweeps.
#[test]
fn fig3_runtime_sweeps_match_committed() {
    let dev = DeviceSpec::k40c();
    let tables: Vec<_> = paper_sweeps()
        .iter()
        .map(|sweep| runtime_comparison(sweep, &dev))
        .collect();
    assert_matches_committed(
        &tables,
        include_str!("../results/fig3_runtime_sweeps.json"),
        "fig3_runtime_sweeps.json",
    );
}

/// Fig. 2: the four models' layer breakdowns at batch 32 under cuDNN.
#[test]
fn fig2_model_breakdown_matches_committed() {
    let dev = DeviceSpec::k40c();
    let breakdowns: Vec<_> = all_models()
        .iter()
        .map(|model| model_breakdown(model, 32, &CuDnn, &dev))
        .collect();
    assert_matches_committed(
        &breakdowns,
        include_str!("../results/fig2_model_breakdown.json"),
        "fig2_model_breakdown.json",
    );
}

/// The per-layer oracle: `compare_model` over the four models at batch
/// 32, as `model_framework_comparison` writes it.
#[test]
fn model_framework_comparison_matches_committed() {
    let dev = DeviceSpec::k40c();
    let comparisons: Vec<_> = all_models()
        .iter()
        .map(|model| compare_model(model, 32, &dev))
        .collect();
    assert_matches_committed(
        &comparisons,
        include_str!("../results/model_framework_comparison.json"),
        "model_framework_comparison.json",
    );
}

/// Fig. 4: every implementation's hotspot kernels at the paper's base
/// configuration, as `fig4_hotspot_kernels` writes them.
#[test]
fn fig4_hotspot_kernels_match_committed() {
    let reports = all_hotspots(&ConvConfig::paper_base(), &DeviceSpec::k40c());
    assert_matches_committed(
        &reports,
        include_str!("../results/fig4_hotspot_kernels.json"),
        "fig4_hotspot_kernels.json",
    );
}

/// Fig. 5: `memory_comparison` over the five paper sweeps.
#[test]
fn fig5_memory_usage_matches_committed() {
    let tables: Vec<_> = paper_sweeps().iter().map(memory_comparison).collect();
    assert_matches_committed(
        &tables,
        include_str!("../results/fig5_memory_usage.json"),
        "fig5_memory_usage.json",
    );
}

/// Fig. 6: the runtime-weighted metrics of each implementation's top
/// kernels over Table I, as `fig6_gpu_metrics` writes them.
#[test]
fn fig6_gpu_metrics_match_committed() {
    assert_matches_committed(
        &gpu_profile(&DeviceSpec::k40c()),
        include_str!("../results/fig6_gpu_metrics.json"),
        "fig6_gpu_metrics.json",
    );
}

/// Fig. 7: the transfer share of every implementation over Table I.
#[test]
fn fig7_transfer_overhead_matches_committed() {
    assert_matches_committed(
        &transfer_overheads(&DeviceSpec::k40c()),
        include_str!("../results/fig7_transfer_overhead.json"),
        "fig7_transfer_overhead.json",
    );
}
