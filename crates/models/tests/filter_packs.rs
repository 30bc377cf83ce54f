//! A blocked conv layer packs its filter bank once per weight version:
//! a warm blocked `infer_ws` packs none, and a training step makes the
//! next pass pack again. Alone in its binary, because
//! `conv.nchwc.filter_packs` is a process-wide counter.

use gcnn_conv::Strategy;
use gcnn_models::data::synthetic_digits;
use gcnn_models::Network;
use gcnn_tensor::Workspace;

fn filter_packs() -> u64 {
    gcnn_trace::snapshot().counter("conv.nchwc.filter_packs")
}

#[test]
fn warm_blocked_inference_packs_no_filter_bank() {
    // Unrolling: the planar passes of the training step pack nothing
    // (`DirectConv::forward` packs its filters per call).
    let mut net = Network::lenet5(16, 4, Strategy::Unrolling, 5);
    for (idx, _) in net.conv_layouts() {
        net.set_conv_layout(idx, gcnn_tensor::nchwc::preferred_layout());
    }
    let data = synthetic_digits(4, 16, 4, 3);
    let (images, labels) = data.batch(0, 4);
    let mut ws = Workspace::new();
    let packed_since = |start| filter_packs() - start;

    let start = filter_packs();
    net.infer_ws(&images, &mut ws);
    assert_eq!(packed_since(start), 2, "the first pass packs both banks");
    for _ in 0..3 {
        net.infer_ws(&images, &mut ws);
    }
    // Another batch size reads the same banks: they depend on the
    // filter shape only.
    net.infer_ws(&data.batch(0, 3).0, &mut ws);
    assert_eq!(packed_since(start), 2, "a warm pass packs no bank");

    // A training step is a new weight version: the next blocked pass
    // packs again.
    net.train_batch_ws(&images, &labels, &mut ws);
    assert_eq!(packed_since(start), 2, "training packs no bank");
    net.infer_ws(&images, &mut ws);
    net.infer_ws(&images, &mut ws);
    assert_eq!(packed_since(start), 4, "one pack per bank per version");
}
