//! Spatial pooling layers.
//!
//! Paper §II-A: pooling layers "reduce the spatial size of feature map
//! and control the over-fitting problem to some extent". Max pooling
//! records argmax indices on the forward pass so the backward pass can
//! route gradients; average pooling distributes them uniformly.

use gcnn_tensor::{Shape4, Tensor4};
use rayon::prelude::*;

/// Pooling operator kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// Maximum over the window.
    Max,
    /// Arithmetic mean over the window.
    Average,
}

/// A pooling layer with square window and stride.
#[derive(Debug, Clone)]
pub struct PoolLayer {
    /// Operator kind.
    pub kind: PoolKind,
    /// Square window size.
    pub window: usize,
    /// Stride.
    pub stride: usize,
}

/// Forward result: pooled tensor plus (for max pooling) the flat input
/// index each output element was taken from.
pub struct PoolForward {
    /// Shape of the input that was pooled.
    pub input_shape: Shape4,
    /// Pooled output.
    pub output: Tensor4,
    /// For [`PoolKind::Max`]: per-output-element flat index into the
    /// input plane; empty for average pooling.
    pub argmax: Vec<u32>,
}

impl PoolLayer {
    /// Construct a pooling layer.
    pub fn new(kind: PoolKind, window: usize, stride: usize) -> Self {
        assert!(window > 0 && stride > 0, "PoolLayer: zero window/stride");
        PoolLayer {
            kind,
            window,
            stride,
        }
    }

    /// Output spatial size for an input of spatial size `i`.
    pub fn out_size(&self, i: usize) -> usize {
        assert!(i >= self.window, "PoolLayer: window exceeds input {i}");
        (i - self.window) / self.stride + 1
    }

    /// Forward pass.
    pub fn forward(&self, input: &Tensor4) -> PoolForward {
        let s = input.shape();
        let len = s.n * s.c * self.out_size(s.h) * self.out_size(s.w);
        let mut argmax = vec![0u32; if self.kind == PoolKind::Max { len } else { 0 }];
        PoolForward {
            input_shape: s,
            output: self.pool::<true>(input, &mut argmax),
            argmax,
        }
    }

    /// Forward pass for inference: the pooled output, no argmax.
    pub fn forward_values(&self, input: &Tensor4) -> Tensor4 {
        self.pool::<false>(input, &mut [])
    }

    /// The forward pass, filling `argmax` for max pooling when `ARGMAX`.
    fn pool<const ARGMAX: bool>(&self, input: &Tensor4, argmax: &mut [u32]) -> Tensor4 {
        let s = input.shape();
        let (oh, ow) = (self.out_size(s.h), self.out_size(s.w));
        let mut output = Tensor4::zeros(Shape4::new(s.n, s.c, oh, ow));
        let plane_out = oh * ow;
        let (win, st) = (self.window, self.stride);

        match self.kind {
            PoolKind::Max => {
                let maxes = |p: usize, oplane: &mut [f32], aplane: &mut [u32]| {
                    let iplane = input.plane(p / s.c, p % s.c);
                    for oy in 0..oh {
                        for ox in 0..ow {
                            // Start from the window's first element, as
                            // `max_pool_tile` does, so that the argmax of a
                            // window with nothing above −∞ stays inside it;
                            // a NaN is replaced by whatever follows it.
                            let mut best_idx = oy * st * s.w + ox * st;
                            let mut best = iplane[best_idx];
                            for ky in 0..win {
                                for kx in 0..win {
                                    let idx = (oy * st + ky) * s.w + ox * st + kx;
                                    let take = iplane[idx] > best || best.is_nan();
                                    best = if take { iplane[idx] } else { best };
                                    best_idx = if take { idx } else { best_idx };
                                }
                            }
                            oplane[oy * ow + ox] = best;
                            if ARGMAX {
                                aplane[oy * ow + ox] = best_idx as u32;
                            }
                        }
                    }
                };
                let oplanes = output.as_mut_slice().par_chunks_mut(plane_out);
                if ARGMAX {
                    let planes = oplanes.zip(argmax.par_chunks_mut(plane_out)).enumerate();
                    planes.for_each(|(p, (o, a))| maxes(p, o, a));
                } else {
                    oplanes.enumerate().for_each(|(p, o)| maxes(p, o, &mut []));
                }
            }
            PoolKind::Average => {
                let inv = 1.0 / (win * win) as f32;
                output
                    .as_mut_slice()
                    .par_chunks_mut(plane_out)
                    .enumerate()
                    .for_each(|(p, oplane)| {
                        let iplane = input.plane(p / s.c, p % s.c);
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let mut acc = 0.0f32;
                                for ky in 0..win {
                                    for kx in 0..win {
                                        acc += iplane[(oy * st + ky) * s.w + ox * st + kx];
                                    }
                                }
                                oplane[oy * ow + ox] = acc * inv;
                            }
                        }
                    });
            }
        }
        output
    }

    /// Backward pass: route `grad_out` back to the input positions.
    ///
    /// # Panics
    /// Unless `input_shape` is the shape `fwd` pooled and `grad_out` is
    /// `fwd.output`-shaped.
    pub fn backward(&self, input_shape: Shape4, fwd: &PoolForward, grad_out: &Tensor4) -> Tensor4 {
        let s = input_shape;
        assert_eq!(s, fwd.input_shape, "PoolLayer::backward: input");
        let go = grad_out.shape();
        assert_eq!(go, fwd.output.shape(), "PoolLayer::backward: grad shape");
        if self.kind == PoolKind::Max {
            return Self::route_max(s, &fwd.argmax, grad_out);
        }
        let mut grad_in = Tensor4::zeros(s);
        let plane_in = s.h * s.w;
        let plane_out = go.h * go.w;
        let (win, st) = (self.window, self.stride);
        let inv = 1.0 / (win * win) as f32;
        for p in 0..s.n * s.c {
            let gslice = &grad_out.as_slice()[p * plane_out..(p + 1) * plane_out];
            let gin = &mut grad_in.as_mut_slice()[p * plane_in..(p + 1) * plane_in];
            for oy in 0..go.h {
                for ox in 0..go.w {
                    let g = gslice[oy * go.w + ox] * inv;
                    for ky in 0..win {
                        for kx in 0..win {
                            gin[(oy * st + ky) * s.w + ox * st + kx] += g;
                        }
                    }
                }
            }
        }
        grad_in
    }

    /// Max pooling's backward pass from the forward pass's `argmax`
    /// alone: each element of `grad_out` is added to the input position
    /// its output was taken from.
    ///
    /// # Panics
    /// Unless `grad_out` has `input_shape`'s images and channels and one
    /// element per `argmax` entry.
    pub fn route_max(input_shape: Shape4, argmax: &[u32], grad_out: &Tensor4) -> Tensor4 {
        let (s, go) = (input_shape, grad_out.shape());
        assert!(
            (go.n, go.c, go.len()) == (s.n, s.c, argmax.len()),
            "PoolLayer::route_max: grad shape"
        );
        let mut grad_in = Tensor4::zeros(s);
        let plane_in = s.h * s.w;
        let plane_out = go.h * go.w;
        for p in 0..s.n * s.c {
            let gslice = &grad_out.as_slice()[p * plane_out..(p + 1) * plane_out];
            let aslice = &argmax[p * plane_out..(p + 1) * plane_out];
            let gin = &mut grad_in.as_mut_slice()[p * plane_in..(p + 1) * plane_in];
            for (g, &a) in gslice.iter().zip(aslice) {
                gin[a as usize] += g;
            }
        }
        grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_known_values() {
        let input = Tensor4::from_vec(Shape4::new(1, 1, 4, 4), (0..16).map(|i| i as f32).collect())
            .unwrap();
        let layer = PoolLayer::new(PoolKind::Max, 2, 2);
        let fwd = layer.forward(&input);
        assert_eq!(fwd.output.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
        assert_eq!(fwd.argmax, vec![5, 7, 13, 15]);
    }

    /// A window with no element above −∞ still routes its gradient to
    /// one of its own elements, never to the plane's first.
    #[test]
    fn max_pool_gradient_stays_in_its_window_without_a_finite_max() {
        let input =
            Tensor4::from_vec(Shape4::new(1, 1, 4, 4), vec![f32::NEG_INFINITY; 16]).unwrap();
        let layer = PoolLayer::new(PoolKind::Max, 2, 2);
        let fwd = layer.forward(&input);
        assert!(fwd
            .output
            .as_slice()
            .iter()
            .all(|&v| v == f32::NEG_INFINITY));
        let ones = Tensor4::from_vec(fwd.output.shape(), vec![1.0; 4]).unwrap();
        let grad = layer.backward(input.shape(), &fwd, &ones);
        for (oy, ox) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let window: f32 = (0..2)
                .flat_map(|ky| (0..2).map(move |kx| (2 * oy + ky) * 4 + 2 * ox + kx))
                .map(|i| grad.as_slice()[i])
                .sum();
            assert_eq!(window, 1.0, "window ({oy}, {ox}) lost its gradient");
        }
    }

    /// Both instantiations of the max-pool body give the branchy loop's
    /// values bit for bit (and `forward` its argmax) on windows holding
    /// NaN, ±0 and ±Inf, overlapping and not.
    #[test]
    fn max_pool_values_match_the_branchy_loop() {
        let palette = [
            f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.0,
            -1.0,
        ];
        let shape = Shape4::new(2, 3, 7, 7);
        let data = (0..shape.len())
            .map(|i| palette[i * 7919 % 11 % 7])
            .collect();
        let input = Tensor4::from_vec(shape, data).unwrap();
        for (win, st) in [(2, 2), (3, 2), (3, 1)] {
            let layer = PoolLayer::new(PoolKind::Max, win, st);
            let o = layer.out_size(7);
            let (mut want, mut want_idx) = (Vec::new(), Vec::new());
            for p in 0..shape.n * shape.c {
                let plane = input.plane(p / shape.c, p % shape.c);
                for (oy, ox) in (0..o).flat_map(|oy| (0..o).map(move |ox| (oy, ox))) {
                    let mut best_idx = oy * st * 7 + ox * st;
                    for (ky, kx) in (0..win).flat_map(|ky| (0..win).map(move |kx| (ky, kx))) {
                        let idx = (oy * st + ky) * 7 + ox * st + kx;
                        if plane[idx] > plane[best_idx] || plane[best_idx].is_nan() {
                            best_idx = idx;
                        }
                    }
                    want.push(plane[best_idx].to_bits());
                    want_idx.push(best_idx as u32);
                }
            }
            let bits = |t: &Tensor4| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let fwd = layer.forward(&input);
            assert_eq!(bits(&fwd.output), want, "forward {win}/{st}");
            assert_eq!(fwd.argmax, want_idx, "argmax {win}/{st}");
            assert_eq!(
                bits(&layer.forward_values(&input)),
                want,
                "values {win}/{st}"
            );
        }
    }

    #[test]
    fn avg_pool_known_values() {
        let input = Tensor4::from_vec(Shape4::new(1, 1, 2, 2), vec![1.0, 3.0, 5.0, 7.0]).unwrap();
        let layer = PoolLayer::new(PoolKind::Average, 2, 2);
        let fwd = layer.forward(&input);
        assert_eq!(fwd.output.as_slice(), &[4.0]);
    }

    #[test]
    fn overlapping_windows() {
        // AlexNet-style 3x3/2 overlapping pooling.
        let input = Tensor4::from_fn(Shape4::new(1, 1, 5, 5), |_, _, h, w| (h * 5 + w) as f32);
        let layer = PoolLayer::new(PoolKind::Max, 3, 2);
        let fwd = layer.forward(&input);
        assert_eq!(fwd.output.shape(), Shape4::new(1, 1, 2, 2));
        assert_eq!(fwd.output.as_slice(), &[12.0, 14.0, 22.0, 24.0]);
    }

    #[test]
    fn max_backward_routes_to_argmax() {
        let input = Tensor4::from_vec(Shape4::new(1, 1, 2, 2), vec![1.0, 9.0, 2.0, 3.0]).unwrap();
        let layer = PoolLayer::new(PoolKind::Max, 2, 2);
        let fwd = layer.forward(&input);
        let g = Tensor4::full(fwd.output.shape(), 5.0);
        let gin = layer.backward(input.shape(), &fwd, &g);
        assert_eq!(gin.as_slice(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn avg_backward_distributes_uniformly() {
        let input = Tensor4::full(Shape4::new(1, 1, 2, 2), 1.0);
        let layer = PoolLayer::new(PoolKind::Average, 2, 2);
        let fwd = layer.forward(&input);
        let g = Tensor4::full(fwd.output.shape(), 8.0);
        let gin = layer.backward(input.shape(), &fwd, &g);
        assert_eq!(gin.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    /// Adjoint identity for average pooling (a linear map).
    #[test]
    fn avg_pool_adjoint() {
        let shape = Shape4::new(2, 3, 6, 6);
        let x = gcnn_tensor::init::uniform_tensor(shape, -1.0, 1.0, 40);
        let layer = PoolLayer::new(PoolKind::Average, 2, 2);
        let fwd = layer.forward(&x);
        let g = gcnn_tensor::init::uniform_tensor(fwd.output.shape(), -1.0, 1.0, 41);
        let gin = layer.backward(shape, &fwd, &g);

        let lhs: f32 = fwd
            .output
            .as_slice()
            .iter()
            .zip(g.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f32 = x
            .as_slice()
            .iter()
            .zip(gin.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0));
    }

    #[test]
    fn multi_plane_batches() {
        let input = Tensor4::from_fn(Shape4::new(2, 2, 4, 4), |n, c, h, w| {
            (n * 100 + c * 50 + h * 4 + w) as f32
        });
        let layer = PoolLayer::new(PoolKind::Max, 2, 2);
        let fwd = layer.forward(&input);
        assert_eq!(fwd.output.shape(), Shape4::new(2, 2, 2, 2));
        assert_eq!(fwd.output.get(1, 1, 1, 1), input.get(1, 1, 3, 3));
    }

    /// A backward pass for an input shape other than the pooled one:
    /// max pooling read its argmax indices in the wrong plane width.
    fn backward_for_another_input(kind: PoolKind) {
        let layer = PoolLayer::new(kind, 2, 2);
        let fwd = layer.forward(&Tensor4::full(Shape4::new(1, 1, 4, 4), 1.0));
        let g = Tensor4::full(fwd.output.shape(), 1.0);
        layer.backward(Shape4::new(1, 1, 5, 5), &fwd, &g);
    }

    #[test]
    #[should_panic(expected = "PoolLayer::backward: input")]
    fn max_backward_checks_input_shape() {
        backward_for_another_input(PoolKind::Max);
    }

    #[test]
    #[should_panic(expected = "PoolLayer::backward: input")]
    fn avg_backward_checks_input_shape() {
        backward_for_another_input(PoolKind::Average);
    }

    #[test]
    #[should_panic(expected = "PoolLayer::route_max: grad shape")]
    fn route_max_checks_grad_against_argmax() {
        let layer = PoolLayer::new(PoolKind::Max, 2, 2);
        let input = Tensor4::full(Shape4::new(1, 2, 4, 4), 1.0);
        let fwd = layer.forward(&input);
        let one_channel = Tensor4::full(Shape4::new(1, 1, 2, 2), 1.0);
        PoolLayer::route_max(input.shape(), &fwd.argmax[..4], &one_channel);
    }

    #[test]
    #[should_panic(expected = "window exceeds input")]
    fn rejects_window_larger_than_input() {
        let layer = PoolLayer::new(PoolKind::Max, 5, 1);
        layer.out_size(3);
    }
}
