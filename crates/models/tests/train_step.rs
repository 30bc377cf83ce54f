//! The training walker on LeNet-5 at its benchmark shape (32×32 digits,
//! batch 32, every conv on `UnrollConv`): its weights do not depend on
//! the pool width, its backward walk ends at conv1's filter gradient, and
//! only conv2's input gradient writes a column matrix. Inference writes
//! none even at padded, strided convs.

use gcnn_conv::Strategy;
use gcnn_models::data::synthetic_digits;
use gcnn_models::Network;
use gcnn_tensor::{Shape4, Tensor4, Workspace};
use gcnn_trace::SpanNode;

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
    let snap = gcnn_trace::snapshot();
    let layer0 = "network.train_batch/network.backward/layer0.conv";
    let pass = |name: &str| snap.span(&format!("{layer0}/conv.unrolling.{name}"));
    assert!(pass("backward_filters").is_some_and(|s| s.count > 0));
    assert!(pass("backward_data").is_none());
}

/// Every span named `name` that ran, anywhere under `node`.
fn named<'a>(node: &'a SpanNode, name: &str, out: &mut Vec<&'a SpanNode>) {
    if node.name == name && node.count > 0 {
        out.push(node);
    }
    node.children.iter().for_each(|c| named(c, name, out));
}

/// Both convs are stride 1 and unpadded, so their forward and
/// filter-gradient products read the image in place: a step runs no
/// `im2col`. Conv2's input gradient still sums its columns with `col2im`.
#[test]
fn only_the_input_gradient_unrolls() {
    // Width 1: every per-image pass nests under its layer's span.
    at_width(1, || trained(1));
    let snap = gcnn_trace::snapshot();
    let (mut im2col, mut col2im) = (Vec::new(), Vec::new());
    for root in &snap.spans {
        named(root, "tensor.im2col", &mut im2col);
        named(root, "tensor.col2im", &mut col2im);
    }
    let paths = |v: &[&SpanNode]| v.iter().map(|s| s.path.clone()).collect::<Vec<_>>();
    assert!(im2col.is_empty(), "{:?}", paths(&im2col));
    assert!(
        col2im.iter().any(|s| s
            .path
            .ends_with("conv.unrolling.backward_data/tensor.col2im")),
        "{:?}",
        paths(&col2im)
    );
}

/// A padded, strided conv's forward pass gathers its columns from the
/// image as the GEMM packs them: a warm inference pass opens no
/// `tensor.im2col` span under `conv.unrolling.forward`.
#[test]
fn padded_strided_inference_unrolls_nothing() {
    let net = Network::new(0.01)
        .conv(3, 8, 5, 2, 2, Strategy::Unrolling, 1)
        .relu()
        .max_pool(2, 2)
        .conv(8, 8, 3, 1, 1, Strategy::Unrolling, 2)
        .fc(8 * 5 * 5, 10, 3);
    let input = Tensor4::full(Shape4::new(2, 3, 19, 19), 0.5);
    at_width(1, || {
        let mut ws = Workspace::new();
        (0..2).for_each(|_| drop(net.infer_ws(&input, &mut ws)));
    });
    let snap = gcnn_trace::snapshot();
    let (mut forward, mut im2col) = (Vec::new(), Vec::new());
    for root in &snap.spans {
        named(root, "conv.unrolling.forward", &mut forward);
        named(root, "tensor.im2col", &mut im2col);
    }
    let conv1 = "network.infer/layer0.conv/conv.unrolling.forward";
    assert!(forward.iter().any(|s| s.path == conv1 && s.count == 2));
    let paths: Vec<_> = im2col.iter().map(|s| s.path.clone()).collect();
    assert!(
        !paths.iter().any(|p| p.contains("conv.unrolling.forward")),
        "{paths:?}"
    );
}
