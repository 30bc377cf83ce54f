//! Direct convolution — sliding-window dot products.
//!
//! Paper §II-B: *"During direct convolution, a small window slides
//! within an input feature map and a dot production between the filter
//! bank and local patch of the input feature map is computed."* This is
//! the strategy of cuda-convnet2 and Theano-legacy. On the CPU we
//! parallelize across images of the mini-batch; per-image the loops are
//! ordered so the innermost runs contiguously over a filter row.

use crate::config::ConvConfig;
use crate::strategy::{ConvAlgorithm, Strategy};
use gcnn_tensor::Tensor4;
use rayon::prelude::*;

/// The direct convolution algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectConv;

impl DirectConv {
    /// Create a new instance.
    pub fn new() -> Self {
        DirectConv
    }
}

impl ConvAlgorithm for DirectConv {
    fn strategy(&self) -> Strategy {
        Strategy::Direct
    }

    fn forward(&self, cfg: &ConvConfig, input: &Tensor4, filters: &Tensor4) -> Tensor4 {
        let _span = gcnn_trace::span("conv.direct.forward");
        assert_eq!(
            input.shape(),
            cfg.input_shape(),
            "DirectConv::forward: input"
        );
        assert_eq!(
            filters.shape(),
            cfg.filter_shape(),
            "DirectConv::forward: filters"
        );
        let o = cfg.output();
        let (k, s, p, i) = (cfg.kernel, cfg.stride, cfg.pad, cfg.input);

        let mut out = Tensor4::zeros(cfg.output_shape());
        let image_out = cfg.filters * o * o;
        out.as_mut_slice()
            .par_chunks_mut(image_out)
            .enumerate()
            .for_each(|(n, oimg)| {
                for f in 0..cfg.filters {
                    let oplane = &mut oimg[f * o * o..(f + 1) * o * o];
                    for c in 0..cfg.channels {
                        let iplane = input.plane(n, c);
                        let fplane = filters.plane(f, c);
                        for oy in 0..o {
                            for ky in 0..k {
                                let iy = oy * s + ky;
                                if iy < p || iy - p >= i {
                                    continue;
                                }
                                let irow = &iplane[(iy - p) * i..(iy - p + 1) * i];
                                let frow = &fplane[ky * k..(ky + 1) * k];
                                for ox in 0..o {
                                    let mut acc = 0.0f32;
                                    for (kx, &fv) in frow.iter().enumerate() {
                                        let ix = ox * s + kx;
                                        if ix >= p && ix - p < i {
                                            acc += irow[ix - p] * fv;
                                        }
                                    }
                                    oplane[oy * o + ox] += acc;
                                }
                            }
                        }
                    }
                }
            });
        out
    }

    fn backward_data(&self, cfg: &ConvConfig, grad_out: &Tensor4, filters: &Tensor4) -> Tensor4 {
        let _span = gcnn_trace::span("conv.direct.backward_data");
        assert_eq!(
            grad_out.shape(),
            cfg.output_shape(),
            "DirectConv::backward_data: grad"
        );
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
    use crate::reference;
    use gcnn_tensor::init::uniform_tensor;

    fn configs() -> Vec<ConvConfig> {
        vec![
            ConvConfig::with_channels(2, 3, 8, 4, 3, 1),
            ConvConfig::with_channels(1, 1, 5, 1, 5, 1),
            ConvConfig::with_channels(3, 2, 9, 5, 3, 2),
            ConvConfig::with_channels(2, 4, 7, 2, 2, 3),
            {
                let mut c = ConvConfig::with_channels(2, 2, 6, 3, 3, 1);
                c.pad = 1;
                c
            },
        ]
    }

    #[test]
    fn forward_matches_reference() {
        for cfg in configs() {
            let x = uniform_tensor(cfg.input_shape(), -1.0, 1.0, 10);
            let w = uniform_tensor(cfg.filter_shape(), -1.0, 1.0, 11);
            let fast = DirectConv.forward(&cfg, &x, &w);
            let slow = reference::forward_ref(&cfg, &x, &w);
            assert!(
                fast.max_abs_diff(&slow).unwrap() < 1e-4,
                "forward mismatch at {cfg}"
            );
        }
    }

    #[test]
    fn backward_data_matches_reference() {
        for cfg in configs() {
            let g = uniform_tensor(cfg.output_shape(), -1.0, 1.0, 12);
            let w = uniform_tensor(cfg.filter_shape(), -1.0, 1.0, 13);
            let fast = DirectConv.backward_data(&cfg, &g, &w);
            let slow = reference::backward_data_ref(&cfg, &g, &w);
            assert!(
                fast.max_abs_diff(&slow).unwrap() < 1e-4,
                "backward_data mismatch at {cfg}"
            );
        }
    }

    #[test]
    fn backward_filters_matches_reference() {
        for cfg in configs() {
            let x = uniform_tensor(cfg.input_shape(), -1.0, 1.0, 14);
            let g = uniform_tensor(cfg.output_shape(), -1.0, 1.0, 15);
            let fast = DirectConv.backward_filters(&cfg, &x, &g);
            let slow = reference::backward_filters_ref(&cfg, &x, &g);
            assert!(
                fast.max_abs_diff(&slow).unwrap() < 1e-3,
                "backward_filters mismatch at {cfg}"
            );
        }
    }

    #[test]
    fn strategy_tag() {
        assert_eq!(DirectConv.strategy(), Strategy::Direct);
    }
}
