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
//! entry to the fused direct path, every buffer from the arena. The
//! backward passes are still scalar loops, parallel across images
//! (backward-data) or filters (backward-filters), with the innermost
//! loop over a filter row.

use crate::config::ConvConfig;
use crate::nchwc;
use crate::strategy::{ConvAlgorithm, Strategy};
use gcnn_tensor::{simd, workspace, Shape4, Tensor4};
use rayon::prelude::*;

/// Panic, naming `what` (`"<pass>: <operand>"`), unless `t` is `want`-shaped.
#[track_caller]
fn check(t: &Tensor4, want: Shape4, what: &str) {
    assert_eq!(t.shape(), want, "DirectConv::{what}");
}

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

    fn backward_data(&self, cfg: &ConvConfig, grad_out: &Tensor4, filters: &Tensor4) -> Tensor4 {
        let _span = gcnn_trace::span("conv.direct.backward_data");
        check(grad_out, cfg.output_shape(), "backward_data: grad");
        check(filters, cfg.filter_shape(), "backward_data: filters");
        let o = cfg.output();
        let (k, s, p, i) = (cfg.kernel, cfg.stride, cfg.pad, cfg.input);

        let mut grad_in = Tensor4::zeros(cfg.input_shape());
        let image_in = cfg.channels * i * i;
        grad_in
            .as_mut_slice()
            .par_chunks_mut(image_in)
            .enumerate()
            .for_each(|(n, gimg)| {
                for c in 0..cfg.channels {
                    let gplane = &mut gimg[c * i * i..(c + 1) * i * i];
                    for f in 0..cfg.filters {
                        let goplane = grad_out.plane(n, f);
                        let fplane = filters.plane(f, c);
                        for oy in 0..o {
                            for ky in 0..k {
                                let iy = oy * s + ky;
                                if iy < p || iy - p >= i {
                                    continue;
                                }
                                for ox in 0..o {
                                    let g = goplane[oy * o + ox];
                                    if g == 0.0 {
                                        continue;
                                    }
                                    for kx in 0..k {
                                        let ix = ox * s + kx;
                                        if ix >= p && ix - p < i {
                                            gplane[(iy - p) * i + (ix - p)] +=
                                                g * fplane[ky * k + kx];
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            });
        grad_in
    }

    fn backward_filters(&self, cfg: &ConvConfig, input: &Tensor4, grad_out: &Tensor4) -> Tensor4 {
        let _span = gcnn_trace::span("conv.direct.backward_filters");
        check(input, cfg.input_shape(), "backward_filters: input");
        check(grad_out, cfg.output_shape(), "backward_filters: grad");
        let o = cfg.output();
        let (k, s, p, i) = (cfg.kernel, cfg.stride, cfg.pad, cfg.input);

        // One owner per filter's slice of ΔW, each element summed over
        // (n, oy, ox) in that order: the gradient is the same bits at
        // any pool width (and the reference's).
        let mut grad_w = Tensor4::zeros(cfg.filter_shape());
        grad_w
            .as_mut_slice()
            .par_chunks_mut(cfg.channels * k * k)
            .enumerate()
            .for_each(|(f, wf)| {
                for n in 0..cfg.batch {
                    let gplane = grad_out.plane(n, f);
                    for oy in 0..o {
                        for ox in 0..o {
                            let g = gplane[oy * o + ox];
                            if g == 0.0 {
                                continue;
                            }
                            for c in 0..cfg.channels {
                                let iplane = input.plane(n, c);
                                for ky in 0..k {
                                    let iy = oy * s + ky;
                                    if iy < p || iy - p >= i {
                                        continue;
                                    }
                                    for kx in 0..k {
                                        let ix = ox * s + kx;
                                        if ix < p || ix - p >= i {
                                            continue;
                                        }
                                        wf[(c * k + ky) * k + kx] +=
                                            g * iplane[(iy - p) * i + (ix - p)];
                                    }
                                }
                            }
                        }
                    }
                }
            });
        grad_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn operands() -> (ConvConfig, Tensor4, Tensor4) {
        let cfg = ConvConfig::with_channels(2, 3, 8, 4, 3, 1);
        let (x, g) = (cfg.input_shape(), cfg.output_shape());
        (cfg, Tensor4::zeros(x), Tensor4::zeros(g))
    }

    /// A five-channel bank ran unchecked and gave a wrong input gradient.
    #[test]
    #[should_panic(expected = "DirectConv::backward_data: filters")]
    fn backward_data_checks_filters() {
        let (cfg, _, g) = operands();
        let five_channels = Shape4::new(4, 5, 3, 3);
        DirectConv.backward_data(&cfg, &g, &Tensor4::zeros(five_channels));
    }

    /// A larger input ran unchecked and gave a wrong filter gradient.
    #[test]
    #[should_panic(expected = "DirectConv::backward_filters: input")]
    fn backward_filters_checks_input() {
        let (cfg, _, g) = operands();
        let larger = Shape4::new(2, 3, 10, 10);
        DirectConv.backward_filters(&cfg, &Tensor4::zeros(larger), &g);
    }

    /// A larger gradient ran unchecked and gave a wrong filter gradient.
    #[test]
    #[should_panic(expected = "DirectConv::backward_filters: grad")]
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
