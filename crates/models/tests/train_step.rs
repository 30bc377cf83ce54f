//! The training walker on LeNet-5 at its benchmark shape (32×32 digits,
//! batch 32, every conv on `UnrollConv`): its weights do not depend on
//! the pool width, and its backward walk ends at conv1's filter gradient.

use gcnn_conv::Strategy;
use gcnn_models::data::synthetic_digits;
use gcnn_models::Network;
use gcnn_tensor::Workspace;

const SIZE: usize = 32;
const CLASSES: usize = 10;
const BATCH: usize = 32;
const SEED: u64 = 5;

/// `save_weights()` after `steps` SGD steps from a fresh network.
fn trained(steps: usize) -> Vec<u8> {
    let data = synthetic_digits(steps * BATCH, SIZE, CLASSES, SEED);
    let mut net = Network::lenet5(SIZE, CLASSES, Strategy::Unrolling, SEED);
    let mut ws = Workspace::new();
    for step in 0..steps {
        let (images, labels) = data.batch(step * BATCH, BATCH);
        assert!(net.train_batch_ws(&images, &labels, &mut ws).is_finite());
    }
    net.save_weights()
}

/// `body` on a pool of `width` threads.
fn at_width<R: Send>(width: usize, body: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("pool")
        .install(body)
}

#[test]
fn two_steps_give_the_same_weights_at_every_width() {
    let one = at_width(1, || trained(2));
    for width in 2..=4 {
        assert!(
            at_width(width, || trained(2)) == one,
            "weights differ at width {width}"
        );
    }
}

/// Conv1 is the lowest layer with parameters: its filter gradient runs,
/// its input gradient does not.
#[test]
fn conv1_computes_no_input_gradient() {
    trained(1);
    if !gcnn_trace::enabled() {
        return;
    }
    let snap = gcnn_trace::snapshot();
    let layer0 = "network.train_batch/network.backward/layer0.conv";
    let pass = |name: &str| snap.span(&format!("{layer0}/conv.unrolling.{name}"));
    assert!(pass("backward_filters").is_some_and(|s| s.count > 0));
    assert!(pass("backward_data").is_none());
}
