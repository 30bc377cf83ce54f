//! Quickstart: compare the seven GPU convolution implementations on one
//! layer, check their numerics agree, and ask the advisor which to use.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

#![forbid(unsafe_code)]

use gcnn_conv::{algorithm_for, ConvConfig};
use gcnn_core::{advise, Scenario};
use gcnn_frameworks::all_implementations;
use gcnn_gpusim::DeviceSpec;
use gcnn_tensor::init::uniform_tensor;

fn main() {
    // The paper's base configuration: batch 64, 128×128 RGB input,
    // 64 filters of 11×11, stride 1.
    let cfg = ConvConfig::paper_base();
    let dev = DeviceSpec::k40c();
    println!("configuration: {cfg} on {}\n", dev.name);

    // --- 1. Performance: one modeled training iteration each. ---
    println!(
        "{:<15} {:>10} {:>10} {:>9}",
        "implementation", "time ms", "peak MB", "strategy"
    );
    println!("{}", "-".repeat(48));
    for imp in all_implementations() {
        match imp.supports(&cfg) {
            Err(e) => println!("{:<15} unsupported: {e}", imp.name()),
            Ok(()) => {
                let plan = imp.plan(&cfg);
                let report = plan.execute(&dev, 1).expect("fits on the K40c");
                println!(
                    "{:<15} {:>10.1} {:>10.0} {:>9}",
                    imp.name(),
                    report.total_ms(),
                    plan.peak_bytes() as f64 / (1024.0 * 1024.0),
                    imp.strategy().to_string(),
                );
            }
        }
    }

    // --- 2. Correctness: every implementation's real algorithm must
    //        produce the same convolution (checked on a smaller shape so
    //        the quickstart stays quick). ---
    let small = ConvConfig::with_channels(32, 3, 16, 16, 5, 1);
    let x = uniform_tensor(small.input_shape(), -1.0, 1.0, 1);
    let w = uniform_tensor(small.filter_shape(), -1.0, 1.0, 2);
    let reference = gcnn_conv::reference::forward_ref(&small, &x, &w);
    println!("\nnumerical agreement on {small}:");
    for imp in all_implementations() {
        let out = algorithm_for(imp.strategy()).forward(&small, &x, &w);
        let dist = out.rel_l2_dist(&reference).expect("same shape");
        println!("  {:<15} rel-L2 vs reference = {dist:.2e}", imp.name());
        assert!(dist < 1e-3);
    }

    // --- 3. Advice: the paper's practitioner guidance, computed. ---
    println!();
    for (label, scenario) in [
        ("fastest", Scenario::Speed),
        ("leanest", Scenario::Memory),
        ("fastest within 1 GB", Scenario::SpeedWithinMemory(1 << 30)),
    ] {
        if let Some(a) = advise(&cfg, scenario, &dev) {
            println!(
                "{label:<20} → {} ({:.1} ms, {:.0} MB)",
                a.implementation,
                a.time_ms,
                a.peak_bytes as f64 / (1024.0 * 1024.0)
            );
        }
    }
}
