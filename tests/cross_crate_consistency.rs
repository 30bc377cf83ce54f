//! Cross-crate consistency: the framework models, the analysis harness
//! and the numeric substrates must tell one coherent story.

use gcnn_conv::{reference, ConvConfig};
use gcnn_core::{advise, compare_model, Scenario};
use gcnn_frameworks::all_implementations;
use gcnn_gpusim::DeviceSpec;
use gcnn_models::all_models;
use gcnn_models::layer::{walk, InstanceKind};
use gcnn_tensor::init::uniform_tensor;
use proptest::prelude::*;

/// Every framework's real algorithm agrees with the reference
/// convolution on arbitrary supported shapes.
#[test]
fn all_frameworks_numerically_correct_on_assorted_shapes() {
    let shapes = [
        ConvConfig::with_channels(32, 1, 9, 16, 3, 1),
        ConvConfig::with_channels(32, 4, 12, 16, 5, 1),
        ConvConfig::with_channels(64, 2, 7, 16, 2, 1),
        ConvConfig::with_channels(32, 3, 10, 32, 4, 2), // stride 2: FFT opts out
    ];
    for cfg in shapes {
        let x = uniform_tensor(cfg.input_shape(), -1.0, 1.0, 500);
        let w = uniform_tensor(cfg.filter_shape(), -1.0, 1.0, 501);
        let want = reference::forward_ref(&cfg, &x, &w);
        for imp in all_implementations() {
            if imp.supports(&cfg).is_err() {
                continue;
            }
            let got = imp.algorithm().forward(&cfg, &x, &w);
            let dist = got.rel_l2_dist(&want).unwrap();
            assert!(dist < 1e-3, "{} at {cfg}: rel l2 {dist}", imp.name());
        }
    }
}

/// The advisor's verdict always matches a brute-force scan of the
/// comparison machinery.
#[test]
fn advisor_matches_brute_force() {
    let dev = DeviceSpec::k40c();
    for cfg in [
        ConvConfig::from_tuple(64, 128, 64, 11, 1),
        ConvConfig::from_tuple(64, 128, 64, 5, 1),
        ConvConfig::from_tuple(96, 64, 128, 9, 1),
    ] {
        let advice = advise(&cfg, Scenario::Speed, &dev).unwrap();
        let mut best: Option<(String, f64)> = None;
        for imp in all_implementations() {
            if imp.supports(&cfg).is_err() {
                continue;
            }
            if let Ok(r) = imp.plan(&cfg).execute(&dev, 1) {
                let t = r.total_ms();
                if best.as_ref().map(|(_, bt)| t < *bt).unwrap_or(true) {
                    best = Some((imp.name().to_string(), t));
                }
            }
        }
        assert_eq!(advice.implementation, best.unwrap().0, "at {cfg}");
    }
}

/// One implementation picker: `compare_model`'s per-layer oracle on
/// every zoo model names, for each conv layer, exactly what `advise`
/// names for that layer's configuration under `Scenario::Speed`.
#[test]
fn model_oracle_is_the_speed_advice_per_layer() {
    let dev = DeviceSpec::k40c();
    let batch = 32;
    for model in all_models() {
        let cmp = compare_model(&model, batch, &dev);
        let convs: Vec<_> = walk(&model, batch)
            .into_iter()
            .filter(|inst| inst.kind == InstanceKind::Conv)
            .collect();
        assert_eq!(cmp.oracle.len(), convs.len(), "{}", model.name);
        for (choice, inst) in cmp.oracle.iter().zip(&convs) {
            assert_eq!(choice.layer, inst.name);
            let cfg = inst.conv.expect("conv instance");
            let advice = advise(&cfg, Scenario::Speed, &dev).expect("some implementation fits");
            assert_eq!(
                choice.implementation, advice.implementation,
                "{} {} at {cfg}",
                model.name, inst.name
            );
            assert_eq!(
                choice.time_ms, advice.time_ms,
                "{} {}",
                model.name, inst.name
            );
        }
    }
}

/// Plans are internally consistent: peak bytes equals the sum of
/// allocations, FLOPs are positive for real work, and the memory
/// scenario's pick is never slower to OOM.
#[test]
fn plans_are_internally_consistent() {
    let cfg = ConvConfig::paper_base();
    for imp in all_implementations() {
        let plan = imp.plan(&cfg);
        let sum: u64 = plan.allocations.iter().map(|(_, b)| *b).sum();
        assert_eq!(plan.peak_bytes(), sum, "{}", imp.name());
        assert!(plan.total_flops() > 0, "{}", imp.name());
        assert!(!plan.kernels.is_empty(), "{}", imp.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Modeled runtime is monotone in batch size for every
    /// implementation (more images, more work — the model must never
    /// predict a free lunch beyond tile-boundary effects, which is why
    /// we compare across full 128-image tile multiples).
    #[test]
    fn runtime_monotone_in_whole_tile_batches(mult in 1usize..4) {
        let dev = DeviceSpec::k40c();
        let small = ConvConfig::from_tuple(128 * mult, 64, 32, 7, 1);
        let large = ConvConfig::from_tuple(128 * (mult + 1), 64, 32, 7, 1);
        for imp in all_implementations() {
            if imp.supports(&small).is_err() || imp.supports(&large).is_err() {
                continue;
            }
            let t_small = imp.plan(&small).execute(&dev, 1).map(|r| r.total_ms());
            let t_large = imp.plan(&large).execute(&dev, 1).map(|r| r.total_ms());
            if let (Ok(ts), Ok(tl)) = (t_small, t_large) {
                prop_assert!(tl > ts, "{}: {ts} ≥ {tl}", imp.name());
            }
        }
    }

    /// Peak memory is monotone in input size within one FFT padding
    /// band and across bands.
    #[test]
    fn memory_monotone_in_batch(b1 in 1usize..8, extra in 1usize..8) {
        let b2 = b1 + extra;
        let cfg1 = ConvConfig::from_tuple(32 * b1, 64, 32, 7, 1);
        let cfg2 = ConvConfig::from_tuple(32 * b2, 64, 32, 7, 1);
        for imp in all_implementations() {
            if imp.supports(&cfg1).is_err() || imp.supports(&cfg2).is_err() {
                continue;
            }
            prop_assert!(
                imp.plan(&cfg2).peak_bytes() >= imp.plan(&cfg1).peak_bytes(),
                "{}",
                imp.name()
            );
        }
    }
}
