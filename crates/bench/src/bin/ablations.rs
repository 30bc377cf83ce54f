//! Ablation studies over the design choices DESIGN.md §4.3 calls out:
//! each paper observation is driven by a specific modeled mechanism, and
//! these ablations switch the mechanisms off one at a time to show the
//! observation disappear.
//!
//! 1. Register pressure vs occupancy vs runtime (the §V-C-1 story).
//! 2. cuda-convnet2's 128-image tiling (the Fig. 3a batch dips).
//! 3. Theano-CorrMM's host-staged panels (the Fig. 7 Conv2 spike).
//! 4. What-if: Winograd-accelerated cuDNN at 3×3 (the post-paper
//!    optimization the conclusion points toward).

#![forbid(unsafe_code)]

use gcnn_conv::{table1_configs, ConvConfig};
use gcnn_core::report::text_table;
use gcnn_frameworks::cuda_convnet2::CudaConvnet2;
use gcnn_frameworks::cudnn::CuDnn;
use gcnn_frameworks::theano_corrmm::TheanoCorrMM;
use gcnn_frameworks::ConvImplementation;
use gcnn_gpusim::{occupancy, DeviceSpec, KernelDesc, LaunchConfig};

fn main() {
    let dev = DeviceSpec::k40c();
    ablation_registers(&dev);
    ablation_batch_tiles(&dev);
    ablation_host_staging(&dev);
    ablation_winograd(&dev);
}

/// Ablation 1 — sweep registers/thread for a fixed compute-bound kernel,
/// with the two latency profiles the paper contrasts: a thin kernel that
/// needs occupancy, and a cuda-convnet2-style ILP-rich kernel that
/// doesn't.
fn ablation_registers(dev: &DeviceSpec) {
    println!("=== ablation 1: register pressure → occupancy → runtime ===\n");
    let header: Vec<String> = [
        "regs/thread",
        "occupancy %",
        "thin kernel ms",
        "ILP-rich kernel ms",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    for regs in [32u32, 64, 80, 96, 116, 160, 200] {
        let occ = occupancy(dev, regs, 8 * 1024, 128);
        let mut base = KernelDesc::new("probe", LaunchConfig::new(4096, 128));
        base.regs_per_thread = regs;
        base.smem_per_block = 8 * 1024;
        base.flops = 50_000_000_000;
        base.compute_efficiency = 0.6;

        let mut thin = base.clone();
        thin.occupancy_needed = 0.50;
        let mut rich = base;
        rich.occupancy_needed = 0.15; // register ILP hides latency

        rows.push(vec![
            regs.to_string(),
            format!("{:.1}", occ.theoretical * 100.0),
            format!(
                "{:.1}",
                gcnn_gpusim::timing::time_kernel(dev, &thin).time_ms
            ),
            format!(
                "{:.1}",
                gcnn_gpusim::timing::time_kernel(dev, &rich).time_ms
            ),
        ]);
    }
    println!("{}", text_table("", &header, &rows));
    println!("The thin kernel collapses as registers starve occupancy; the ILP-rich");
    println!("kernel (cuda-convnet2's profile) barely notices — §V-C-1's \"a higher");
    println!("occupancy does not mean a better performance\", inverted.\n");
}

/// Ablation 2 — cuda-convnet2 with and without its 128-image tiles.
fn ablation_batch_tiles(dev: &DeviceSpec) {
    println!("=== ablation 2: cuda-convnet2 batch tiling ===\n");
    let header: Vec<String> = [
        "batch",
        "with tiling (ms/img)",
        "tile efficiency",
        "flat model (ms/img)",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    for b in (32..=256).step_by(32) {
        let cfg = ConvConfig::from_tuple(b, 128, 64, 11, 1);
        let report = CudaConvnet2.plan(&cfg).execute(dev, 1).unwrap();
        let eff = CudaConvnet2::batch_tile_efficiency(b as u64);
        // Flat model: divide out the tile efficiency (what the curve
        // would look like if every batch were a perfect 128-multiple).
        let with = report.total_ms() / b as f64;
        rows.push(vec![
            b.to_string(),
            format!("{:.3}", with),
            format!("{:.2}", eff),
            format!("{:.3}", with * eff as f64),
        ]);
    }
    println!("{}", text_table("", &header, &rows));
    println!("The per-image dips at 128/256 vanish once tiling is divided out —");
    println!("Fig. 3a's \"performs well only at multiples of 128\" is purely the tile.\n");
}

/// Ablation 3 — Theano-CorrMM's Conv2 with the host staging removed.
fn ablation_host_staging(dev: &DeviceSpec) {
    println!("=== ablation 3: Theano-CorrMM host staging on Conv2 ===\n");
    let conv2 = table1_configs()[1];
    let stock = TheanoCorrMM.plan(&conv2);
    let mut patched = stock.clone();
    // Drop everything but the ordinary input upload.
    patched.transfers.truncate(1);

    let stock_r = stock.execute(dev, 1).unwrap();
    let patched_r = patched.execute(dev, 1).unwrap();
    println!(
        "stock:   total {:>6.1} ms, transfer share {:>5.1}%",
        stock_r.total_ms(),
        100.0 * stock_r.transfer_fraction()
    );
    println!(
        "patched: total {:>6.1} ms, transfer share {:>5.1}%",
        patched_r.total_ms(),
        100.0 * patched_r.transfer_fraction()
    );
    println!("Pinned, asynchronous staging (the paper's §V-D remedies) removes the");
    println!("Fig. 7 anomaly entirely.\n");
}

/// Winograd F(2×2, 3×3)'s multiply saving: a 2×2 output tile of a 3×3
/// filter takes 4·9 = 36 multiplies directly and 16 as the elementwise
/// product of two 4×4 transformed tiles, 36 / 16 = 2.25.
const WINOGRAD_MULTIPLY_REDUCTION: f64 = 36.0 / 16.0;

/// Ablation 4 — what-if: cuDNN with Winograd F(2,3) forward arithmetic
/// at the 3×3 layers (2.25× fewer multiplies), vs stock cuDNN and fbfft.
fn ablation_winograd(dev: &DeviceSpec) {
    println!("=== ablation 4: Winograd what-if at 3×3 layers ===\n");
    let header: Vec<String> = ["config", "cuDNN ms", "cuDNN+Winograd ms", "fbfft ms"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    let cases = [
        ("sweep k=3", ConvConfig::from_tuple(64, 128, 64, 3, 1)),
        ("Conv2", table1_configs()[1]),
        ("Conv5", table1_configs()[4]),
    ];
    for (label, cfg) in cases {
        let stock = CuDnn.plan(&cfg).execute(dev, 1).unwrap().total_ms();
        let mut wino_plan = CuDnn.plan(&cfg);
        for pk in &mut wino_plan.kernels {
            if pk.desc.name != "precomputed_convolve_sgemm" {
                pk.desc.flops = (pk.desc.flops as f64 / WINOGRAD_MULTIPLY_REDUCTION) as u64;
                pk.desc.name = format!("winograd_{}", pk.desc.name);
            }
        }
        let wino = wino_plan.execute(dev, 1).unwrap().total_ms();
        let fbfft = gcnn_frameworks::fbfft::Fbfft
            .plan(&cfg)
            .execute(dev, 1)
            .unwrap()
            .total_ms();
        rows.push(vec![
            format!("{label} {cfg}"),
            format!("{stock:.1}"),
            format!("{wino:.1}"),
            format!("{fbfft:.1}"),
        ]);
    }
    println!("{}", text_table("", &header, &rows));
    println!("Winograd widens cuDNN's small-kernel lead over fbfft — the direction");
    println!("the field actually took after this paper (cuDNN v5, 2016).");
}
