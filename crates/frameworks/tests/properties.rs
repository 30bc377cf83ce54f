//! Property-based tests over the framework models: execution plans must
//! be well-formed and behave monotonically over the whole supported
//! configuration space, not just the paper's sweep points.

use gcnn_conv::ConvConfig;
use gcnn_frameworks::all_implementations;
use gcnn_gpusim::DeviceSpec;
use proptest::prelude::*;

fn configs() -> impl Strategy<Value = ConvConfig> {
    (
        1usize..5,  // batch multiplier (×32 keeps cc2 in play)
        1usize..5,  // channels
        4usize..40, // input
        1usize..8,  // filter multiplier (×16)
        1usize..8,  // kernel
        1usize..3,  // stride
    )
        .prop_map(|(bm, c, i, fm, k, s)| ConvConfig::with_channels(32 * bm, c, i, 16 * fm, k, s))
        .prop_filter("valid geometry", |cfg| cfg.is_valid())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every supported plan is well-formed: nonzero kernels, positive
    /// FLOPs, allocations covering at least the I/O tensors.
    #[test]
    fn plans_well_formed(cfg in configs()) {
        let min_tensor_bytes = 4 * (cfg.input_shape().len()
            + cfg.filter_shape().len()
            + cfg.output_shape().len()) as u64;
        for imp in all_implementations() {
            if imp.supports(&cfg).is_err() {
                continue;
            }
            let plan = imp.plan(&cfg);
            prop_assert!(!plan.kernels.is_empty(), "{}", imp.name());
            prop_assert!(plan.total_flops() > 0, "{}", imp.name());
            prop_assert!(
                plan.peak_bytes() >= min_tensor_bytes,
                "{} at {cfg}: peak {} below tensor floor {min_tensor_bytes}",
                imp.name(),
                plan.peak_bytes()
            );
            // All kernels have sane resources for the device.
            let dev = DeviceSpec::k40c();
            for pk in &plan.kernels {
                prop_assert!(pk.count >= 1);
                prop_assert!(pk.desc.launch.block_threads <= dev.max_threads_per_block);
                prop_assert!(pk.desc.regs_per_thread <= dev.max_registers_per_thread);
                prop_assert!(pk.desc.smem_per_block <= dev.shared_mem_per_block);
            }
        }
    }

    /// Plans execute deterministically: same config, same report.
    #[test]
    fn execution_deterministic(cfg in configs()) {
        let dev = DeviceSpec::k40c();
        for imp in all_implementations() {
            if imp.supports(&cfg).is_err() {
                continue;
            }
            let a = imp.plan(&cfg).execute(&dev, 1);
            let b = imp.plan(&cfg).execute(&dev, 1);
            match (a, b) {
                (Ok(ra), Ok(rb)) => {
                    prop_assert!((ra.total_ms() - rb.total_ms()).abs() < 1e-12);
                    prop_assert_eq!(ra.peak_mem_bytes, rb.peak_mem_bytes);
                }
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "{}: nondeterministic OOM", imp.name()),
            }
        }
    }

    /// FLOPs scale exactly linearly with batch for every implementation
    /// (all three strategies do work proportional to the batch).
    #[test]
    fn flops_linear_in_batch(cfg in configs()) {
        let mut doubled = cfg;
        doubled.batch *= 2;
        for imp in all_implementations() {
            if imp.supports(&cfg).is_err() || imp.supports(&doubled).is_err() {
                continue;
            }
            let f1 = imp.plan(&cfg).total_flops() as f64;
            let f2 = imp.plan(&doubled).total_flops() as f64;
            // FFT strategies have a batch-independent filter-transform
            // component, so allow sub-linear but require growth in
            // [1.2×, 2.05×].
            let ratio = f2 / f1;
            prop_assert!(
                (1.2..=2.05).contains(&ratio),
                "{} at {cfg}: flops ratio {ratio}",
                imp.name()
            );
        }
    }

    /// Shape restrictions are exact: supports() fails if and only if
    /// one of the paper's documented restrictions applies.
    #[test]
    fn restrictions_exact(cfg in configs()) {
        for imp in all_implementations() {
            let expected_reject = match imp.name() {
                "cuda-convnet2" => !cfg.batch.is_multiple_of(32) || !cfg.filters.is_multiple_of(16),
                "fbfft" | "Theano-fft" => cfg.stride != 1,
                _ => false,
            };
            prop_assert_eq!(
                imp.supports(&cfg).is_err(),
                expected_reject,
                "{} at {}", imp.name(), cfg
            );
        }
    }
}
