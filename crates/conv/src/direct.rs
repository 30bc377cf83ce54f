//! Direct convolution — sliding-window dot products.
//!
//! Paper §II-B: *"During direct convolution, a small window slides
//! within an input feature map and a dot production between the filter
//! bank and local patch of the input feature map is computed."* This is
//! the strategy of cuda-convnet2 and Theano-legacy.
//!
//! The forward pass is the output-stationary register tile of
//! [`crate::nchwc`]: pack the input and the filters channel-blocked,
//! run [`nchwc::fused_conv_relu`] without its ReLU, unpack — the planar
//! entry to the fused direct path, every buffer from the arena. Both
//! backward passes are [`ConvAlgorithm`]'s defaults: each rearranges its
//! operands and runs this forward pass once at stride 1, so one kernel
//! serves every pass (maxDNN, arXiv:1501.06633).

use crate::config::ConvConfig;
use crate::nchwc;
use crate::strategy::{check, ConvAlgorithm, Strategy};
use gcnn_tensor::{simd, workspace, Tensor4};

/// The direct convolution algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectConv;

impl ConvAlgorithm for DirectConv {
    fn strategy(&self) -> Strategy {
        Strategy::Direct
    }

    fn forward(&self, cfg: &ConvConfig, input: &Tensor4, filters: &Tensor4) -> Tensor4 {
        let _span = gcnn_trace::span("conv.direct.forward");
        check(input, cfg.input_shape(), "forward: input");
        check(filters, cfg.filter_shape(), "forward: filters");
        let block = simd::preferred_block();
        let mut pin = workspace::take_f32(nchwc::packed_input_len(cfg, block));
        let mut pw = workspace::take_f32(nchwc::packed_filter_len(cfg, block));
        let mut pout = workspace::take_f32(nchwc::packed_output_len(cfg, block));
        nchwc::pack_input(cfg, input, block, pin.as_mut_slice());
        nchwc::pack_filters(cfg, filters, block, pw.as_mut_slice());
        nchwc::fused_conv_relu(
            cfg,
            block,
            pin.as_slice(),
            pw.as_slice(),
            pout.as_mut_slice(),
            false,
        );
        let mut out = Tensor4::zeros(cfg.output_shape());
        gcnn_tensor::nchwc::unpack_nchwc_from(
            pout.as_slice(),
            out.shape(),
            block,
            out.as_mut_slice(),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnn_tensor::Shape4;

    fn operands() -> (ConvConfig, Tensor4, Tensor4) {
        let cfg = ConvConfig::with_channels(2, 3, 8, 4, 3, 1);
        let (x, g) = (cfg.input_shape(), cfg.output_shape());
        (cfg, Tensor4::zeros(x), Tensor4::zeros(g))
    }

    /// A five-channel bank ran unchecked and gave a wrong input gradient.
    #[test]
    #[should_panic(expected = "backward_data: filters")]
    fn backward_data_checks_filters() {
        let (cfg, _, g) = operands();
        let five_channels = Shape4::new(4, 5, 3, 3);
        DirectConv.backward_data(&cfg, &g, &Tensor4::zeros(five_channels));
    }

    /// A larger input ran unchecked and gave a wrong filter gradient.
    #[test]
    #[should_panic(expected = "backward_filters: input")]
    fn backward_filters_checks_input() {
        let (cfg, _, g) = operands();
        let larger = Shape4::new(2, 3, 10, 10);
        DirectConv.backward_filters(&cfg, &Tensor4::zeros(larger), &g);
    }

    /// A larger gradient ran unchecked and gave a wrong filter gradient.
    #[test]
    #[should_panic(expected = "backward_filters: grad")]
    fn backward_filters_checks_grad() {
        let (cfg, x, _) = operands();
        let larger = Shape4::new(2, 4, 7, 7);
        DirectConv.backward_filters(&cfg, &x, &Tensor4::zeros(larger));
    }

    #[test]
    fn strategy_tag() {
        assert_eq!(DirectConv.strategy(), Strategy::Direct);
    }
}
