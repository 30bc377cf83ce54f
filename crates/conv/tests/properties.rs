//! Cross-strategy property tests: the paper's three convolution
//! strategies must agree with each other and with the naive reference on
//! arbitrary valid geometries.

use gcnn_conv::{nchwc, reference, ConvAlgorithm, ConvConfig, DirectConv, FftConv, UnrollConv};
use gcnn_tensor::init::uniform_tensor;
use gcnn_tensor::Tensor4;
use proptest::prelude::*;

fn small_config() -> impl Strategy<Value = ConvConfig> {
    (
        1usize..4,  // batch
        1usize..4,  // channels
        3usize..11, // input
        1usize..6,  // filters
        1usize..4,  // kernel
        1usize..3,  // stride
        0usize..2,  // pad
    )
        .prop_map(|(b, c, i, f, k, s, p)| {
            let mut cfg = ConvConfig::with_channels(b, c, i, f, k, s);
            cfg.pad = p;
            cfg
        })
        .prop_filter("valid geometry", |cfg| cfg.is_valid())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn direct_equals_reference(cfg in small_config(), seed in 0u64..1000) {
        let x = uniform_tensor(cfg.input_shape(), -1.0, 1.0, seed);
        let w = uniform_tensor(cfg.filter_shape(), -1.0, 1.0, seed + 1);
        let fast = DirectConv.forward(&cfg, &x, &w);
        let slow = reference::forward_ref(&cfg, &x, &w);
        prop_assert!(fast.max_abs_diff(&slow).unwrap() < 1e-3, "at {cfg}");
    }

    #[test]
    fn unroll_equals_reference(cfg in small_config(), seed in 0u64..1000) {
        let x = uniform_tensor(cfg.input_shape(), -1.0, 1.0, seed);
        let w = uniform_tensor(cfg.filter_shape(), -1.0, 1.0, seed + 2);
        let a = UnrollConv.forward(&cfg, &x, &w);
        let b = reference::forward_ref(&cfg, &x, &w);
        prop_assert!(a.max_abs_diff(&b).unwrap() < 1e-3, "at {cfg}");
    }

    /// Fusing the activation into the conv tile must be *bit*-identical
    /// to convolving (`DirectConv::forward`, the same tile at the same
    /// block) and then applying ReLU separately: only the activation
    /// placement differs. Holds on every ISA, including
    /// `GCNN_FORCE_SCALAR=1`.
    #[test]
    fn fused_relu_bitwise_equals_unfused(cfg in small_config(), seed in 0u64..1000) {
        let x = uniform_tensor(cfg.input_shape(), -1.0, 1.0, seed);
        let w = uniform_tensor(cfg.filter_shape(), -1.0, 1.0, seed + 8);
        let unfused = gcnn_conv::layers::ReluLayer.forward(&DirectConv.forward(&cfg, &x, &w));

        let block = gcnn_tensor::simd::preferred_block();
        let mut pin = vec![0.0; nchwc::packed_input_len(&cfg, block)];
        let mut pw = vec![0.0; nchwc::packed_filter_len(&cfg, block)];
        let mut pout = vec![0.0; nchwc::packed_output_len(&cfg, block)];
        nchwc::pack_input(&cfg, &x, block, &mut pin);
        nchwc::pack_filters(&cfg, &w, block, &mut pw);
        nchwc::fused_conv_relu(&cfg, block, &pin, &pw, &mut pout, true);
        let mut fused = Tensor4::zeros(cfg.output_shape());
        gcnn_tensor::nchwc::unpack_nchwc_from(&pout, fused.shape(), block, fused.as_mut_slice());
        prop_assert_eq!(fused.as_slice(), unfused.as_slice(), "at {}", cfg);
    }

    #[test]
    fn fft_equals_reference_when_supported(cfg in small_config(), seed in 0u64..1000) {
        prop_assume!(FftConv.supports(&cfg).is_ok());
        let x = uniform_tensor(cfg.input_shape(), -1.0, 1.0, seed);
        let w = uniform_tensor(cfg.filter_shape(), -1.0, 1.0, seed + 3);
        let fast = FftConv.forward(&cfg, &x, &w);
        let slow = reference::forward_ref(&cfg, &x, &w);
        prop_assert!(fast.rel_l2_dist(&slow).unwrap() < 1e-3, "at {cfg}");
    }

    #[test]
    fn backward_data_consistent_across_strategies(cfg in small_config(), seed in 0u64..1000) {
        let g = uniform_tensor(cfg.output_shape(), -1.0, 1.0, seed);
        let w = uniform_tensor(cfg.filter_shape(), -1.0, 1.0, seed + 4);
        let a = reference::backward_data_ref(&cfg, &g, &w);
        for algo in [&DirectConv as &dyn ConvAlgorithm, &UnrollConv] {
            let b = algo.backward_data(&cfg, &g, &w);
            prop_assert!(a.max_abs_diff(&b).unwrap() < 1e-3, "{} at {cfg}", algo.strategy());
        }
        if FftConv.supports(&cfg).is_ok() {
            let c = FftConv.backward_data(&cfg, &g, &w);
            prop_assert!(a.rel_l2_dist(&c).unwrap() < 1e-3, "fft at {cfg}");
        }
    }

    #[test]
    fn backward_filters_consistent_across_strategies(cfg in small_config(), seed in 0u64..1000) {
        let x = uniform_tensor(cfg.input_shape(), -1.0, 1.0, seed);
        let g = uniform_tensor(cfg.output_shape(), -1.0, 1.0, seed + 5);
        let a = reference::backward_filters_ref(&cfg, &x, &g);
        for algo in [&DirectConv as &dyn ConvAlgorithm, &UnrollConv] {
            let b = algo.backward_filters(&cfg, &x, &g);
            prop_assert!(a.max_abs_diff(&b).unwrap() < 1e-2, "{} at {cfg}", algo.strategy());
        }
        if FftConv.supports(&cfg).is_ok() {
            let c = FftConv.backward_filters(&cfg, &x, &g);
            prop_assert!(a.rel_l2_dist(&c).unwrap() < 1e-3, "fft at {cfg}");
        }
    }

    /// Convolution is linear in the input: f(x1 + x2) == f(x1) + f(x2).
    #[test]
    fn forward_linear_in_input(cfg in small_config(), seed in 0u64..1000) {
        let x1 = uniform_tensor(cfg.input_shape(), -1.0, 1.0, seed);
        let x2 = uniform_tensor(cfg.input_shape(), -1.0, 1.0, seed + 6);
        let w = uniform_tensor(cfg.filter_shape(), -1.0, 1.0, seed + 7);

        let add = |a: &Tensor4, b: &Tensor4| {
            let sum = a.as_slice().iter().zip(b.as_slice()).map(|(a, b)| a + b).collect();
            Tensor4::from_vec(a.shape(), sum).unwrap()
        };
        let xsum = add(&x1, &x2);
        let ysum = add(
            &UnrollConv.forward(&cfg, &x1, &w),
            &UnrollConv.forward(&cfg, &x2, &w),
        );

        let direct = UnrollConv.forward(&cfg, &xsum, &w);
        prop_assert!(direct.max_abs_diff(&ysum).unwrap() < 1e-3, "at {cfg}");
    }
}

/// Repeating a forward+backward pass with unchanged shapes must be
/// steady-state allocation-free: the second round draws every scratch
/// buffer (the backward passes' column matrices, GEMM packs, FFT
/// spectra) from the arena; the forward pass writes no column matrix.
#[test]
fn repeated_conv_is_steady_state_allocation_free() {
    let mut cfg = ConvConfig::with_channels(2, 3, 16, 4, 3, 1);
    cfg.pad = 1;
    let x = uniform_tensor(cfg.input_shape(), -1.0, 1.0, 21);
    let w = uniform_tensor(cfg.filter_shape(), -1.0, 1.0, 22);

    for algo in [&UnrollConv as &dyn ConvAlgorithm, &FftConv] {
        let round = || {
            let y = algo.forward(&cfg, &x, &w);
            let _gw = algo.backward_filters(&cfg, &x, &y);
            let _gx = algo.backward_data(&cfg, &y, &w);
        };
        // Width 1: the counted thread is the one warmed, and runs it all.
        let (_, misses) = gcnn_tensor::workspace::on_calling_thread(|| {
            round(); // warm the thread-local pools
            gcnn_tensor::workspace::alloc_scope(round)
        });
        assert_eq!(
            misses,
            0,
            "second identical {:?} round took {misses} fresh allocations",
            algo.strategy()
        );
    }
}
