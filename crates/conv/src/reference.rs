//! Naive reference convolution — the ground truth every strategy is
//! tested against.
//!
//! Plain nested loops, written for obviousness rather than speed. CNNs
//! compute *cross-correlation* (no kernel flip); all passes here follow
//! that convention.

use crate::config::ConvConfig;
use gcnn_tensor::Tensor4;

/// Forward pass: `out[n,f,oy,ox] = Σ_{c,ky,kx} in[n,c,oy·s+ky−p,ox·s+kx−p] · w[f,c,ky,kx]`.
pub fn forward_ref(cfg: &ConvConfig, input: &Tensor4, filters: &Tensor4) -> Tensor4 {
    assert_eq!(input.shape(), cfg.input_shape(), "forward_ref: input shape");
    assert_eq!(
        filters.shape(),
        cfg.filter_shape(),
        "forward_ref: filter shape"
    );
    let o = cfg.output();
    let (k, s, p) = (cfg.kernel, cfg.stride, cfg.pad);
    let i = cfg.input;

    Tensor4::from_fn(cfg.output_shape(), |n, f, oy, ox| {
        let mut acc = 0.0f32;
        for c in 0..cfg.channels {
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
                    acc += input.get(n, c, iy - p, ix - p) * filters.get(f, c, ky, kx);
                }
            }
        }
        let _ = o;
        acc
    })
}

/// Backward-data pass: gradient of the loss w.r.t. the input, given the
/// gradient w.r.t. the output.
pub fn backward_data_ref(cfg: &ConvConfig, grad_out: &Tensor4, filters: &Tensor4) -> Tensor4 {
    assert_eq!(
        grad_out.shape(),
        cfg.output_shape(),
        "backward_data_ref: grad shape"
    );
    assert_eq!(
        filters.shape(),
        cfg.filter_shape(),
        "backward_data_ref: filter shape"
    );
    let o = cfg.output();
    let (k, s, p) = (cfg.kernel, cfg.stride, cfg.pad);

    let mut grad_in = Tensor4::zeros(cfg.input_shape());
    for n in 0..cfg.batch {
        for f in 0..cfg.filters {
            for oy in 0..o {
                for ox in 0..o {
                    let g = grad_out.get(n, f, oy, ox);
                    if g == 0.0 {
                        continue;
                    }
                    for c in 0..cfg.channels {
                        for ky in 0..k {
                            let iy = oy * s + ky;
                            if iy < p || iy - p >= cfg.input {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = ox * s + kx;
                                if ix < p || ix - p >= cfg.input {
                                    continue;
                                }
                                let (y, x) = (iy - p, ix - p);
                                let v = grad_in.get(n, c, y, x) + g * filters.get(f, c, ky, kx);
                                grad_in.set(n, c, y, x, v);
                            }
                        }
                    }
                }
            }
        }
    }
    grad_in
}

/// Backward-weights pass: gradient of the loss w.r.t. the filter bank.
pub fn backward_filters_ref(cfg: &ConvConfig, input: &Tensor4, grad_out: &Tensor4) -> Tensor4 {
    assert_eq!(
        input.shape(),
        cfg.input_shape(),
        "backward_filters_ref: input shape"
    );
    assert_eq!(
        grad_out.shape(),
        cfg.output_shape(),
        "backward_filters_ref: grad shape"
    );
    let o = cfg.output();
    let (k, s, p) = (cfg.kernel, cfg.stride, cfg.pad);

    let mut grad_w = Tensor4::zeros(cfg.filter_shape());
    for n in 0..cfg.batch {
        for f in 0..cfg.filters {
            for oy in 0..o {
                for ox in 0..o {
                    let g = grad_out.get(n, f, oy, ox);
                    if g == 0.0 {
                        continue;
                    }
                    for c in 0..cfg.channels {
                        for ky in 0..k {
                            let iy = oy * s + ky;
                            if iy < p || iy - p >= cfg.input {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = ox * s + kx;
                                if ix < p || ix - p >= cfg.input {
                                    continue;
                                }
                                let v =
                                    grad_w.get(f, c, ky, kx) + g * input.get(n, c, iy - p, ix - p);
                                grad_w.set(f, c, ky, kx, v);
                            }
                        }
                    }
                }
            }
        }
    }
    grad_w
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnn_tensor::Shape4;

    #[test]
    fn identity_filter_passes_input_through() {
        // 1x1 kernel of weight 1: output == input.
        let cfg = ConvConfig::with_channels(2, 1, 4, 1, 1, 1);
        let input = Tensor4::from_fn(cfg.input_shape(), |n, _, h, w| (n * 16 + h * 4 + w) as f32);
        let filters = Tensor4::full(cfg.filter_shape(), 1.0);
        let out = forward_ref(&cfg, &input, &filters);
        assert_eq!(out.as_slice(), input.as_slice());
    }

    #[test]
    fn box_filter_sums_window() {
        let cfg = ConvConfig::with_channels(1, 1, 3, 1, 2, 1);
        let input =
            Tensor4::from_vec(cfg.input_shape(), (0..9).map(|i| i as f32).collect()).unwrap();
        let filters = Tensor4::full(cfg.filter_shape(), 1.0);
        let out = forward_ref(&cfg, &input, &filters);
        // Windows: [0,1,3,4]=8, [1,2,4,5]=12, [3,4,6,7]=20, [4,5,7,8]=24.
        assert_eq!(out.as_slice(), &[8.0, 12.0, 20.0, 24.0]);
    }

    #[test]
    fn multi_channel_accumulates() {
        let cfg = ConvConfig::with_channels(1, 2, 2, 1, 2, 1);
        let input = Tensor4::full(cfg.input_shape(), 1.0);
        let filters = Tensor4::full(cfg.filter_shape(), 0.5);
        let out = forward_ref(&cfg, &input, &filters);
        // 2 channels × 4 taps × 1.0 × 0.5 = 4.
        assert_eq!(out.get(0, 0, 0, 0), 4.0);
    }

    #[test]
    fn stride_subsamples() {
        let cfg = ConvConfig::with_channels(1, 1, 5, 1, 1, 2);
        let input = Tensor4::from_fn(cfg.input_shape(), |_, _, h, w| (h * 5 + w) as f32);
        let filters = Tensor4::full(cfg.filter_shape(), 1.0);
        let out = forward_ref(&cfg, &input, &filters);
        assert_eq!(out.shape(), Shape4::new(1, 1, 3, 3));
        assert_eq!(out.get(0, 0, 1, 1), 12.0);
        assert_eq!(out.get(0, 0, 2, 2), 24.0);
    }

    #[test]
    fn padding_extends_border() {
        let mut cfg = ConvConfig::with_channels(1, 1, 2, 1, 3, 1);
        cfg.pad = 1;
        assert_eq!(cfg.output(), 2);
        let input = Tensor4::full(cfg.input_shape(), 1.0);
        let filters = Tensor4::full(cfg.filter_shape(), 1.0);
        let out = forward_ref(&cfg, &input, &filters);
        // Every 3x3 window sees exactly the 4 real pixels.
        assert!(out.as_slice().iter().all(|&v| v == 4.0));
    }

    /// <forward(x), g> == <x, backward_data(g)> — adjointness of the
    /// linear map, the defining property of a correct gradient.
    #[test]
    fn backward_data_is_adjoint_of_forward() {
        let cfg = ConvConfig::with_channels(2, 3, 6, 4, 3, 1);
        let x = gcnn_tensor::init::uniform_tensor(cfg.input_shape(), -1.0, 1.0, 1);
        let w = gcnn_tensor::init::uniform_tensor(cfg.filter_shape(), -1.0, 1.0, 2);
        let g = gcnn_tensor::init::uniform_tensor(cfg.output_shape(), -1.0, 1.0, 3);

        let y = forward_ref(&cfg, &x, &w);
        let gx = backward_data_ref(&cfg, &g, &w);

        let lhs: f32 = y
            .as_slice()
            .iter()
            .zip(g.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f32 = x
            .as_slice()
            .iter()
            .zip(gx.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    /// Same adjoint identity in the filter direction.
    #[test]
    fn backward_filters_is_adjoint_in_w() {
        let cfg = ConvConfig::with_channels(2, 2, 5, 3, 2, 2);
        let x = gcnn_tensor::init::uniform_tensor(cfg.input_shape(), -1.0, 1.0, 4);
        let w = gcnn_tensor::init::uniform_tensor(cfg.filter_shape(), -1.0, 1.0, 5);
        let g = gcnn_tensor::init::uniform_tensor(cfg.output_shape(), -1.0, 1.0, 6);

        let y = forward_ref(&cfg, &x, &w);
        let gw = backward_filters_ref(&cfg, &x, &g);

        let lhs: f32 = y
            .as_slice()
            .iter()
            .zip(g.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f32 = w
            .as_slice()
            .iter()
            .zip(gw.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }
}
