//! Property-based tests for the model walker and synthetic data.

use gcnn_autotune::{Policy, SimSubstrate, Tuner, TuningCache};
use gcnn_models::data::synthetic_digits;
use gcnn_models::layer::{walk, InstanceKind, LayerSpec, ModelSpec, NamedLayer};
use gcnn_models::Network;
use gcnn_tensor::{Shape4, Tensor4};
use proptest::prelude::*;

/// Random small sequential CNNs (conv/relu/pool chains ending in FC).
fn arb_model() -> impl Strategy<Value = ModelSpec> {
    let stage = (1usize..16, 1usize..4, any::<bool>()).prop_map(|(f, k, pool)| (f, k, pool));
    (2usize..5, proptest::collection::vec(stage, 1..4)).prop_map(|(input_scale, stages)| {
        let input_size = 8 * input_scale;
        let mut layers = Vec::new();
        for (i, (f, k, pool)) in stages.into_iter().enumerate() {
            layers.push(NamedLayer::new(
                format!("conv{i}"),
                LayerSpec::Conv {
                    out: f,
                    kernel: 2 * k + 1,
                    stride: 1,
                    pad: k,
                },
            ));
            layers.push(NamedLayer::new(format!("relu{i}"), LayerSpec::Relu));
            if pool {
                layers.push(NamedLayer::new(
                    format!("pool{i}"),
                    LayerSpec::MaxPool {
                        window: 2,
                        stride: 2,
                        pad: 0,
                    },
                ));
            }
        }
        layers.push(NamedLayer::new("fc", LayerSpec::Fc { out: 10 }));
        ModelSpec {
            name: "random".into(),
            input_channels: 3,
            input_size,
            layers,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Element counts chain: each layer's input elements equal the
    /// previous layer's output elements.
    #[test]
    fn walker_elements_chain(model in arb_model(), batch in 1usize..5) {
        let instances = walk(&model, batch);
        for pair in instances.windows(2) {
            prop_assert_eq!(
                pair[0].out_elems,
                pair[1].in_elems,
                "{} → {}",
                pair[0].name.clone(),
                pair[1].name.clone()
            );
        }
    }

    /// Conv instances carry valid configurations consistent with their
    /// element counts.
    #[test]
    fn walker_conv_configs_consistent(model in arb_model(), batch in 1usize..4) {
        for inst in walk(&model, batch) {
            if inst.kind == InstanceKind::Conv {
                let cfg = inst.conv.expect("conv config");
                prop_assert!(cfg.is_valid());
                prop_assert_eq!(inst.in_elems, cfg.input_shape().len() as u64);
                prop_assert_eq!(inst.out_elems, cfg.output_shape().len() as u64);
            }
        }
    }

    /// Element counts scale exactly linearly with the batch.
    #[test]
    fn walker_linear_in_batch(model in arb_model()) {
        let one = walk(&model, 1);
        let four = walk(&model, 4);
        prop_assert_eq!(one.len(), four.len());
        for (a, b) in one.iter().zip(&four) {
            prop_assert_eq!(4 * a.in_elems, b.in_elems, "{}", a.name.clone());
            prop_assert_eq!(4 * a.out_elems, b.out_elems, "{}", a.name.clone());
        }
    }

    /// The executor and the tuner read the layer list the walker reads:
    /// inference ends at the last instance's shape, and the tuned conv
    /// configurations are the walked ones, in order.
    #[test]
    fn executor_and_tuner_follow_the_walk(model in arb_model(), batch in 1usize..4) {
        let instances = walk(&model, batch);
        let mut net = Network::from_spec(&model, gcnn_conv::Strategy::Unrolling, 3)
            .expect("arb_model pools tile their inputs exactly");
        let input = model.input_shape(batch);

        let last = instances.last().expect("a model has layers");
        let (_, classes) = last.fc.expect("arb_model ends in an FC layer");
        let logits = net.forward(&Tensor4::zeros(input));
        prop_assert_eq!(logits.shape(), Shape4::new(batch, classes, 1, 1));
        prop_assert_eq!(logits.shape().len() as u64, last.out_elems);

        let tuned = net.tune(
            input,
            &Tuner::new(Policy::Heuristic),
            &SimSubstrate::k40c(),
            &mut TuningCache::new(),
        );
        let walked: Vec<_> = instances.iter().filter_map(|i| i.conv).collect();
        prop_assert_eq!(tuned.iter().map(|t| t.cfg).collect::<Vec<_>>(), walked);
    }

    /// Synthetic datasets: deterministic, labeled in range, batchable.
    #[test]
    fn dataset_invariants(n in 1usize..64, size in 4usize..20, classes in 1usize..8, seed in 0u64..1000) {
        let d = synthetic_digits(n, size, classes, seed);
        prop_assert_eq!(d.len(), n);
        prop_assert!(d.labels.iter().all(|&l| l < classes));
        let d2 = synthetic_digits(n, size, classes, seed);
        prop_assert_eq!(&d.images, &d2.images);
        // Pixel values bounded: signal ∈ [0,1] plus ±0.25 noise.
        prop_assert!(d.images.as_slice().iter().all(|&x| (-0.5..=1.5).contains(&x)));
    }
}
