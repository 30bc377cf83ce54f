//! Each framework's numerics are the `gcnn-conv` strategy it follows,
//! and that strategy's passes record their spans whichever crate links
//! them: the per-strategy breakdown comes from the code that runs.

use gcnn_conv::{algorithm_for, ConvConfig};
use gcnn_frameworks::cuda_convnet2::CudaConvnet2;
use gcnn_frameworks::{all_implementations, ConvImplementation};
use gcnn_tensor::init::uniform_tensor;

#[test]
fn delegated_numerics_open_their_spans() {
    let cfg = ConvConfig::with_channels(2, 3, 12, 4, 3, 1);
    let x = uniform_tensor(cfg.input_shape(), -1.0, 1.0, 1);
    let w = uniform_tensor(cfg.filter_shape(), -1.0, 1.0, 2);
    for imp in all_implementations() {
        algorithm_for(imp.strategy()).forward(&cfg, &x, &w);
    }
    let snap = gcnn_trace::snapshot();
    for pass in ["direct", "unrolling", "fft"] {
        let name = format!("conv.{pass}.forward");
        let count = snap.span(&name).map_or(0, |s| s.count);
        assert!(count > 0, "{name} was not recorded");
    }
}

/// cuda-convnet2's direct convolution is one kernel: each backward pass
/// runs the forward tile once, under its own span.
#[test]
fn direct_backward_passes_run_the_forward_tile() {
    let cfg = ConvConfig::with_channels(2, 3, 11, 4, 3, 2);
    let x = uniform_tensor(cfg.input_shape(), -1.0, 1.0, 3);
    let w = uniform_tensor(cfg.filter_shape(), -1.0, 1.0, 4);
    let g = uniform_tensor(cfg.output_shape(), -1.0, 1.0, 5);
    let direct = algorithm_for(CudaConvnet2.strategy());
    direct.backward_data(&cfg, &g, &w);
    direct.backward_filters(&cfg, &x, &g);
    let snap = gcnn_trace::snapshot();
    for pass in ["backward_data", "backward_filters"] {
        let name = format!("conv.direct.{pass}/conv.direct.forward");
        let count = snap.span(&name).map_or(0, |s| s.count);
        assert_eq!(count, 1, "{name}");
    }
}
