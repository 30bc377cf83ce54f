//! Winograd F(2×2, 3×3) convolution — the post-paper optimization.
//!
//! The paper closes by pointing researchers at "convolution optimization
//! on GPUs"; the optimization that actually landed next (cuDNN v5,
//! 2016) was Winograd's minimal-filtering algorithm, which computes a
//! 2×2 output tile from a 4×4 input tile with 16 multiplies instead of
//! the direct method's 36 — a 2.25× reduction in multiply count for
//! 3×3/stride-1 layers, precisely the shapes (VGG, GoogLeNet 3×3
//! branches, Table I's Conv2/Conv5) where fbfft loses to cuDNN.
//!
//! This module implements the real algorithm:
//!
//! ```text
//!   Y = Aᵀ [ (G g Gᵀ) ⊙ (Bᵀ d B) ] A
//! ```
//!
//! with the canonical F(2,3) matrices, tiled over the output plane and
//! accumulated over input channels in the transform domain. The forward
//! pass is Winograd; the backward passes delegate to the unrolling
//! strategy (as real frameworks did before dedicated Winograd gradient
//! kernels existed).

use crate::config::ConvConfig;
use crate::strategy::{ConvAlgorithm, Strategy, Unsupported};
use crate::unroll::UnrollConv;
use gcnn_tensor::{workspace, Tensor4};
use rayon::prelude::*;

/// The Winograd F(2×2, 3×3) convolution algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct WinogradConv;

impl WinogradConv {
    /// Create a new instance.
    pub fn new() -> Self {
        WinogradConv
    }

    /// Multiplies per output element: 16 transform-domain products per
    /// 2×2 tile = 4 per output, vs 9 for direct 3×3 — the 2.25×
    /// arithmetic saving.
    pub const MULTIPLY_REDUCTION: f64 = 2.25;
}

/// Filter transform `G g Gᵀ`: 3×3 → 4×4.
/// `G = [[1, 0, 0], [½, ½, ½], [½, −½, ½], [0, 0, 1]]`.
fn transform_filter(g: &[f32]) -> [f32; 16] {
    debug_assert_eq!(g.len(), 9);
    // Rows of G·g (4×3).
    let mut gg = [0.0f32; 12];
    for col in 0..3 {
        let (g0, g1, g2) = (g[col], g[3 + col], g[6 + col]);
        gg[col] = g0;
        gg[3 + col] = 0.5 * (g0 + g1 + g2);
        gg[6 + col] = 0.5 * (g0 - g1 + g2);
        gg[9 + col] = g2;
    }
    // (G·g)·Gᵀ (4×4).
    let mut out = [0.0f32; 16];
    for row in 0..4 {
        let (a, b, c) = (gg[row * 3], gg[row * 3 + 1], gg[row * 3 + 2]);
        out[row * 4] = a;
        out[row * 4 + 1] = 0.5 * (a + b + c);
        out[row * 4 + 2] = 0.5 * (a - b + c);
        out[row * 4 + 3] = c;
    }
    out
}

/// Input-tile transform `Bᵀ d B`: 4×4 → 4×4.
/// `Bᵀ = [[1, 0, −1, 0], [0, 1, 1, 0], [0, −1, 1, 0], [0, 1, 0, −1]]`.
fn transform_input(d: &[f32; 16]) -> [f32; 16] {
    // Bᵀ·d (4×4).
    let mut bd = [0.0f32; 16];
    for col in 0..4 {
        let (d0, d1, d2, d3) = (d[col], d[4 + col], d[8 + col], d[12 + col]);
        bd[col] = d0 - d2;
        bd[4 + col] = d1 + d2;
        bd[8 + col] = d2 - d1;
        bd[12 + col] = d1 - d3;
    }
    // (Bᵀ·d)·B (4×4).
    let mut out = [0.0f32; 16];
    for row in 0..4 {
        let (a, b, c, d4) = (
            bd[row * 4],
            bd[row * 4 + 1],
            bd[row * 4 + 2],
            bd[row * 4 + 3],
        );
        out[row * 4] = a - c;
        out[row * 4 + 1] = b + c;
        out[row * 4 + 2] = c - b;
        out[row * 4 + 3] = b - d4;
    }
    out
}

/// Output transform `Aᵀ m A`: 4×4 → 2×2.
/// `Aᵀ = [[1, 1, 1, 0], [0, 1, −1, −1]]`.
fn transform_output(m: &[f32; 16]) -> [f32; 4] {
    // Aᵀ·m (2×4).
    let mut am = [0.0f32; 8];
    for col in 0..4 {
        let (m0, m1, m2, m3) = (m[col], m[4 + col], m[8 + col], m[12 + col]);
        am[col] = m0 + m1 + m2;
        am[4 + col] = m1 - m2 - m3;
    }
    // (Aᵀ·m)·A (2×2).
    let mut out = [0.0f32; 4];
    for row in 0..2 {
        let (a, b, c, d) = (
            am[row * 4],
            am[row * 4 + 1],
            am[row * 4 + 2],
            am[row * 4 + 3],
        );
        out[row * 2] = a + b + c;
        out[row * 2 + 1] = b - c - d;
    }
    out
}

impl ConvAlgorithm for WinogradConv {
    fn strategy(&self) -> Strategy {
        // Classified with the transform-domain family.
        Strategy::Fft
    }

    fn supports(&self, cfg: &ConvConfig) -> Result<(), Unsupported> {
        if !cfg.is_valid() {
            return Err(Unsupported::InvalidGeometry {
                reason: format!("{cfg}"),
            });
        }
        if cfg.kernel != 3 {
            return Err(Unsupported::InvalidGeometry {
                reason: format!("Winograd F(2,3) requires 3×3 kernels, got {}", cfg.kernel),
            });
        }
        if cfg.stride != 1 {
            return Err(Unsupported::StrideNotOne { stride: cfg.stride });
        }
        Ok(())
    }

    fn forward(&self, cfg: &ConvConfig, input: &Tensor4, filters: &Tensor4) -> Tensor4 {
        let _span = gcnn_trace::span("conv.winograd.forward");
        self.supports(cfg)
            .expect("WinogradConv::forward: unsupported config");
        assert_eq!(
            input.shape(),
            cfg.input_shape(),
            "WinogradConv::forward: input"
        );
        assert_eq!(
            filters.shape(),
            cfg.filter_shape(),
            "WinogradConv::forward: filters"
        );

        let o = cfg.output();
        let i = cfg.input;
        let p = cfg.pad;
        let tiles = o.div_ceil(2);

        // Pre-transform all filters: U[f][c] = G g Gᵀ (flat 16-wide
        // records in arena scratch).
        let mut transformed_filters = workspace::take_f32(cfg.filters * cfg.channels * 16);
        for idx in 0..cfg.filters * cfg.channels {
            let (f, c) = (idx / cfg.channels, idx % cfg.channels);
            transformed_filters[idx * 16..(idx + 1) * 16]
                .copy_from_slice(&transform_filter(filters.plane(f, c)));
        }
        let transformed_filters = &transformed_filters;

        let mut out = Tensor4::zeros(cfg.output_shape());
        let image_out = cfg.filters * o * o;
        out.as_mut_slice()
            .par_chunks_mut(image_out)
            .enumerate()
            .for_each(|(n, oimg)| {
                // Transform every 4×4 input tile of every channel once
                // per image: V[c][tile] = Bᵀ d B. Arena scratch: every
                // record is fully written before it is read.
                let mut v = workspace::take_f32(cfg.channels * tiles * tiles * 16);
                for c in 0..cfg.channels {
                    let plane = input.plane(n, c);
                    for ty in 0..tiles {
                        for tx in 0..tiles {
                            let mut d = [0.0f32; 16];
                            for dy in 0..4 {
                                for dx in 0..4 {
                                    // Input coordinate of this tap,
                                    // offset by padding.
                                    let yy = (ty * 2 + dy) as isize - p as isize;
                                    let xx = (tx * 2 + dx) as isize - p as isize;
                                    if yy >= 0 && (yy as usize) < i && xx >= 0 && (xx as usize) < i
                                    {
                                        d[dy * 4 + dx] = plane[yy as usize * i + xx as usize];
                                    }
                                }
                            }
                            let rec = (c * tiles + ty) * tiles + tx;
                            v[rec * 16..(rec + 1) * 16].copy_from_slice(&transform_input(&d));
                        }
                    }
                }

                // Per filter: elementwise multiply-accumulate over
                // channels in the transform domain, then the output
                // transform per tile.
                for f in 0..cfg.filters {
                    let oplane = &mut oimg[f * o * o..(f + 1) * o * o];
                    for ty in 0..tiles {
                        for tx in 0..tiles {
                            let mut m = [0.0f32; 16];
                            for c in 0..cfg.channels {
                                let fi = (f * cfg.channels + c) * 16;
                                let u = &transformed_filters[fi..fi + 16];
                                let rec = ((c * tiles + ty) * tiles + tx) * 16;
                                let vv = &v[rec..rec + 16];
                                for t in 0..16 {
                                    m[t] += u[t] * vv[t];
                                }
                            }
                            let y = transform_output(&m);
                            for dy in 0..2 {
                                for dx in 0..2 {
                                    let (oy, ox) = (ty * 2 + dy, tx * 2 + dx);
                                    if oy < o && ox < o {
                                        oplane[oy * o + ox] = y[dy * 2 + dx];
                                    }
                                }
                            }
                        }
                    }
                }
            });
        out
    }

    fn backward_data(&self, cfg: &ConvConfig, grad_out: &Tensor4, filters: &Tensor4) -> Tensor4 {
        let _span = gcnn_trace::span("conv.winograd.backward_data");
        // Delegate: dedicated Winograd gradient kernels postdate the
        // paper's era; frameworks fell back to im2col for wgrad/dgrad.
        UnrollConv::new().backward_data(cfg, grad_out, filters)
    }

    fn backward_filters(&self, cfg: &ConvConfig, input: &Tensor4, grad_out: &Tensor4) -> Tensor4 {
        let _span = gcnn_trace::span("conv.winograd.backward_filters");
        UnrollConv::new().backward_filters(cfg, input, grad_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use gcnn_tensor::init::uniform_tensor;

    #[test]
    fn filter_transform_known_values() {
        // Identity-center filter: g = delta at (1,1). G g Gᵀ has the
        // ½·½ = ¼ pattern in the middle block.
        let mut g = [0.0f32; 9];
        g[4] = 1.0;
        let u = transform_filter(&g);
        assert_eq!(u[0], 0.0);
        assert!((u[5] - 0.25).abs() < 1e-6);
        assert!((u[6] + 0.25).abs() < 1e-6);
        assert!((u[9] + 0.25).abs() < 1e-6);
        assert!((u[10] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn winograd_identity_via_delta_filter() {
        // A delta filter at the top-left tap copies the input.
        let cfg = ConvConfig::with_channels(1, 1, 6, 1, 3, 1);
        let x = uniform_tensor(cfg.input_shape(), -1.0, 1.0, 82);
        let mut w = Tensor4::zeros(cfg.filter_shape());
        w.set(0, 0, 0, 0, 1.0);
        let y = WinogradConv.forward(&cfg, &x, &w);
        for oy in 0..4 {
            for ox in 0..4 {
                assert!((y.get(0, 0, oy, ox) - x.get(0, 0, oy, ox)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn rejects_non_3x3_and_strides() {
        assert!(WinogradConv
            .supports(&ConvConfig::with_channels(1, 1, 8, 1, 5, 1))
            .is_err());
        assert!(matches!(
            WinogradConv.supports(&ConvConfig::with_channels(1, 1, 8, 1, 3, 2)),
            Err(Unsupported::StrideNotOne { .. })
        ));
        assert!(WinogradConv
            .supports(&ConvConfig::with_channels(1, 1, 8, 1, 3, 1))
            .is_ok());
    }

    #[test]
    fn backward_delegates_correctly() {
        let cfg = ConvConfig::with_channels(2, 2, 8, 3, 3, 1);
        let x = uniform_tensor(cfg.input_shape(), -1.0, 1.0, 83);
        let w = uniform_tensor(cfg.filter_shape(), -1.0, 1.0, 84);
        let g = uniform_tensor(cfg.output_shape(), -1.0, 1.0, 85);
        let gd = WinogradConv.backward_data(&cfg, &g, &w);
        let gd_ref = reference::backward_data_ref(&cfg, &g, &w);
        assert!(gd.max_abs_diff(&gd_ref).unwrap() < 1e-3);
        let gw = WinogradConv.backward_filters(&cfg, &x, &g);
        let gw_ref = reference::backward_filters_ref(&cfg, &x, &g);
        assert!(gw.max_abs_diff(&gw_ref).unwrap() < 1e-2);
    }

    /// Full gradient check through the trait (forward is Winograd,
    /// backward is delegated — they must be consistent as a pair).
    #[test]
    fn gradcheck_hybrid() {
        let cfg = ConvConfig::with_channels(2, 2, 6, 3, 3, 1);
        let x = uniform_tensor(cfg.input_shape(), -1.0, 1.0, 86);
        let w = uniform_tensor(cfg.filter_shape(), -1.0, 1.0, 87);
        let g = uniform_tensor(cfg.output_shape(), -1.0, 1.0, 88);
        let e = crate::gradcheck::check_backward_data(&WinogradConv, &cfg, &x, &w, &g, 1e-2, 10);
        assert!(e < 0.05, "rel err {e}");
    }
}
