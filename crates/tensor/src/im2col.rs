//! `im2col` / `col2im` — the unrolling primitives.
//!
//! Paper §II-B, "Unrolling Based Convolution": *"The local regions of
//! input image are unrolled into columns and the filter banks are
//! unrolled into rows using im2col. The final convolution can be
//! converted into a clean and efficient matrix-matrix production […]
//! Finally, the results should be remapped back to the proper dimension
//! using col2im."*
//!
//! These are the CPU ground-truth versions of the `im2col_gpu_kernel` /
//! `col2im_gpu_kernel` hotspots the paper identifies in Caffe, Torch-cunn
//! and Theano-CorrMM (Fig. 4).

use crate::matrix::Matrix;

/// Spatial geometry of an unrolled convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input spatial height.
    pub in_h: usize,
    /// Input spatial width.
    pub in_w: usize,
    /// Number of input channels.
    pub channels: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Stride (same in both axes).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl ConvGeometry {
    /// Output spatial height: `(in_h + 2·pad − kernel) / stride + 1`.
    pub const fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Output spatial width.
    pub const fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Rows of the unrolled column matrix: `channels · kernel²`.
    pub const fn col_rows(&self) -> usize {
        self.channels * self.kernel * self.kernel
    }

    /// Columns of the unrolled column matrix: `out_h · out_w`.
    pub const fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Whether the geometry is valid (kernel fits inside the padded
    /// input and stride is non-zero).
    pub const fn is_valid(&self) -> bool {
        self.stride > 0
            && self.kernel > 0
            && self.channels > 0
            && self.in_h + 2 * self.pad >= self.kernel
            && self.in_w + 2 * self.pad >= self.kernel
    }
}

/// Valid output range `[lo, hi)` along one axis for kernel tap `kt`:
/// the outputs whose input coordinate `o·s + kt − p` lands inside
/// `[0, in_dim)`. Empty ranges come back as `(0, 0)`.
const fn tap_range(out_dim: usize, in_dim: usize, kt: usize, s: usize, p: usize) -> (usize, usize) {
    let lo = if kt >= p { 0 } else { (p - kt).div_ceil(s) };
    let hi = if in_dim + p > kt {
        let h = (in_dim + p - 1 - kt) / s + 1;
        if h < out_dim {
            h
        } else {
            out_dim
        }
    } else {
        0
    };
    if lo < hi {
        (lo, hi)
    } else {
        (0, 0)
    }
}

/// Unroll one image (`image` = the `c·h·w` slice of a [`Tensor4`](crate::Tensor4)) into a
/// row-major `(c·k·k) × (out_h·out_w)` column buffer.
///
/// Row `(c, kh, kw)` and column `(oh, ow)` holds input element
/// `(c, oh·s + kh − pad, ow·s + kw − pad)`, or zero when that falls in
/// the padding. Only the padding halo is zero-filled: each row's valid
/// `(oh, ow)` rectangle is computed up front and its interior copied
/// without per-element bounds tests (contiguously for stride 1 — the
/// overwhelmingly common case in the paper's configuration sweeps).
pub fn im2col_into(image: &[f32], geom: &ConvGeometry, cols: &mut [f32]) {
    let _span = gcnn_trace::span("tensor.im2col");
    debug_assert!(geom.is_valid(), "im2col: invalid geometry {geom:?}");
    debug_assert_eq!(image.len(), geom.channels * geom.in_h * geom.in_w);
    debug_assert_eq!(cols.len(), geom.col_rows() * geom.col_cols());

    let (out_h, out_w) = (geom.out_h(), geom.out_w());
    let (k, s, p) = (geom.kernel, geom.stride, geom.pad);
    let (in_h, in_w) = (geom.in_h, geom.in_w);
    let plane = in_h * in_w;
    let o2 = out_h * out_w;

    let mut row = 0;
    for c in 0..geom.channels {
        let src = &image[c * plane..(c + 1) * plane];
        for kh in 0..k {
            let (oh_lo, oh_hi) = tap_range(out_h, in_h, kh, s, p);
            for kw in 0..k {
                let dst = &mut cols[row * o2..(row + 1) * o2];
                row += 1;
                let (ow_lo, ow_hi) = tap_range(out_w, in_w, kw, s, p);
                if oh_lo == oh_hi || ow_lo == ow_hi {
                    // The tap never leaves the padding.
                    dst.fill(0.0);
                    continue;
                }
                // Zero only the halo: rows above/below the valid band…
                dst[..oh_lo * out_w].fill(0.0);
                dst[oh_hi * out_w..].fill(0.0);
                for oh in oh_lo..oh_hi {
                    let seg = &mut dst[oh * out_w..(oh + 1) * out_w];
                    // …and the left/right margins of each valid row.
                    seg[..ow_lo].fill(0.0);
                    seg[ow_hi..].fill(0.0);
                    let ih = oh * s + kh - p;
                    if s == 1 {
                        let iw0 = ow_lo + kw - p;
                        seg[ow_lo..ow_hi].copy_from_slice(
                            &src[ih * in_w + iw0..ih * in_w + iw0 + ow_hi - ow_lo],
                        );
                    } else {
                        for (ow, slot) in seg[ow_lo..ow_hi].iter_mut().enumerate() {
                            *slot = src[ih * in_w + (ow_lo + ow) * s + kw - p];
                        }
                    }
                }
            }
        }
    }
}

/// [`im2col_into`] writing into a [`Matrix`] of shape
/// `(c·k·k, out_h·out_w)`.
pub fn im2col(image: &[f32], geom: &ConvGeometry, cols: &mut Matrix) {
    debug_assert_eq!(cols.rows(), geom.col_rows());
    debug_assert_eq!(cols.cols(), geom.col_cols());
    im2col_into(image, geom, cols.as_mut_slice());
}

/// Fold a column matrix back into an image, *accumulating* overlapping
/// contributions — the adjoint of [`im2col`], used by the backward-data
/// pass.
pub fn col2im_from(cols: &[f32], geom: &ConvGeometry, image: &mut [f32]) {
    let _span = gcnn_trace::span("tensor.col2im");
    debug_assert!(geom.is_valid(), "col2im: invalid geometry {geom:?}");
    debug_assert_eq!(image.len(), geom.channels * geom.in_h * geom.in_w);
    debug_assert_eq!(cols.len(), geom.col_rows() * geom.col_cols());

    image.fill(0.0);
    let (out_h, out_w) = (geom.out_h(), geom.out_w());
    let (k, s, p) = (geom.kernel, geom.stride, geom.pad);
    let (in_h, in_w) = (geom.in_h, geom.in_w);
    let plane = in_h * in_w;
    let o2 = out_h * out_w;

    let mut row = 0;
    for c in 0..geom.channels {
        let dst = &mut image[c * plane..(c + 1) * plane];
        for kh in 0..k {
            let (oh_lo, oh_hi) = tap_range(out_h, in_h, kh, s, p);
            for kw in 0..k {
                let src = &cols[row * o2..(row + 1) * o2];
                row += 1;
                let (ow_lo, ow_hi) = tap_range(out_w, in_w, kw, s, p);
                if oh_lo == oh_hi || ow_lo == ow_hi {
                    // The tap never leaves the padding (and `ow_lo + kw`
                    // may then lie below `p`).
                    continue;
                }
                // Taps that land in the padding contribute nothing; only
                // the valid (oh, ow) band is walked.
                for oh in oh_lo..oh_hi {
                    let ih = oh * s + kh - p;
                    let srow = &src[oh * out_w + ow_lo..oh * out_w + ow_hi];
                    if s == 1 {
                        let iw0 = ow_lo + kw - p;
                        crate::simd::add_assign(
                            &mut dst[ih * in_w + iw0..ih * in_w + iw0 + ow_hi - ow_lo],
                            srow,
                        );
                    } else {
                        for (ow, v) in srow.iter().enumerate() {
                            dst[ih * in_w + (ow_lo + ow) * s + kw - p] += v;
                        }
                    }
                }
            }
        }
    }
}

/// [`col2im_from`] reading from a [`Matrix`].
pub fn col2im(cols: &Matrix, geom: &ConvGeometry, image: &mut [f32]) {
    debug_assert_eq!(cols.rows(), geom.col_rows());
    debug_assert_eq!(cols.cols(), geom.col_cols());
    col2im_from(cols.as_slice(), geom, image);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(in_hw: usize, c: usize, k: usize, s: usize, p: usize) -> ConvGeometry {
        ConvGeometry {
            in_h: in_hw,
            in_w: in_hw,
            channels: c,
            kernel: k,
            stride: s,
            pad: p,
        }
    }

    #[test]
    fn geometry_output_sizes() {
        let g = geom(128, 3, 11, 1, 0);
        assert_eq!(g.out_h(), 118);
        assert_eq!(g.col_rows(), 3 * 121);
        assert_eq!(g.col_cols(), 118 * 118);
        let g = geom(32, 1, 3, 2, 1);
        assert_eq!(g.out_h(), 16);
    }

    #[test]
    fn geometry_validity() {
        assert!(geom(8, 1, 3, 1, 0).is_valid());
        assert!(!geom(2, 1, 3, 1, 0).is_valid()); // kernel larger than input
        assert!(geom(2, 1, 3, 1, 1).is_valid()); // …but padding rescues it
        assert!(!geom(8, 1, 3, 0, 0).is_valid()); // zero stride
    }

    #[test]
    fn im2col_identity_kernel() {
        // k=1, s=1: the column matrix is just the image reshaped.
        let g = geom(3, 2, 1, 1, 0);
        let image: Vec<f32> = (0..18).map(|i| i as f32).collect();
        let mut cols = Matrix::zeros(g.col_rows(), g.col_cols());
        im2col(&image, &g, &mut cols);
        assert_eq!(cols.as_slice(), &image[..]);
    }

    #[test]
    fn im2col_known_values() {
        // 1 channel, 3x3 input [[0,1,2],[3,4,5],[6,7,8]], k=2, s=1, p=0.
        let g = geom(3, 1, 2, 1, 0);
        let image: Vec<f32> = (0..9).map(|i| i as f32).collect();
        let mut cols = Matrix::zeros(4, 4);
        im2col(&image, &g, &mut cols);
        // Row (kh=0,kw=0): top-left of each window.
        assert_eq!(cols.row(0), &[0.0, 1.0, 3.0, 4.0]);
        // Row (kh=1,kw=1): bottom-right of each window.
        assert_eq!(cols.row(3), &[4.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn im2col_padding_zeros() {
        let g = geom(2, 1, 3, 1, 1);
        let image = vec![1.0, 2.0, 3.0, 4.0];
        let mut cols = Matrix::zeros(9, 4);
        im2col(&image, &g, &mut cols);
        // Center tap (kh=1,kw=1) hits each input pixel once.
        assert_eq!(cols.row(4), &[1.0, 2.0, 3.0, 4.0]);
        // Corner tap (kh=0,kw=0) is always padding except the last window.
        assert_eq!(cols.row(0), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for all x, y — the defining
        // property of an adjoint pair, checked on a pseudo-random basis.
        // The second geometry has taps that never leave the padding, with
        // `kw < pad`: their column range is empty and must be skipped.
        for g in [geom(5, 2, 3, 2, 1), geom(1, 2, 6, 1, 3)] {
            let xlen = g.channels * g.in_h * g.in_w;
            let x: Vec<f32> = (0..xlen).map(|i| ((i * 37 % 11) as f32) - 5.0).collect();
            let mut cols = Matrix::zeros(g.col_rows(), g.col_cols());
            im2col(&x, &g, &mut cols);

            let y = Matrix::from_fn(g.col_rows(), g.col_cols(), |r, c| {
                ((r * 13 + c * 7) % 9) as f32 - 4.0
            });
            let mut folded = vec![0.0f32; xlen];
            col2im(&y, &g, &mut folded);

            let lhs: f32 = cols
                .as_slice()
                .iter()
                .zip(y.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let rhs: f32 = x.iter().zip(&folded).map(|(a, b)| a * b).sum();
            assert!((lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0), "{g:?}");
        }
    }
}
