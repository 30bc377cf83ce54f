//! Each framework's numerics are the `gcnn-conv` strategy it follows,
//! and that strategy's passes record their spans whichever crate links
//! them: the per-strategy breakdown comes from the code that runs.

use gcnn_conv::{algorithm_for, ConvConfig};
use gcnn_frameworks::all_implementations;
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
