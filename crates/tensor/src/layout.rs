//! Memory layouts for 4-D feature-map tensors.
//!
//! The seven implementations the paper studies disagree on layout:
//! Caffe/cuDNN/Torch/Theano use NCHW ("BDHW" in the fbfft paper's
//! terminology), cuda-convnet2 uses CHWN (images innermost), and fbfft
//! transposes BDHW → HWBD around its complex GEMM (paper §V-A: "the
//! `Transpose` kernel is used to convert the BDHW layout into HWBD").

use serde::{Deserialize, Serialize};
use std::fmt;

/// Layout of a 4-D tensor in linear memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Layout {
    /// Batch-major: `n` slowest, `w` fastest. Used by the unrolling-based
    /// implementations (Caffe, cuDNN, Torch-cunn, Theano-CorrMM).
    /// The fbfft paper calls this BDHW.
    Nchw,
    /// Image-minor: `c` slowest, `n` fastest. Used by cuda-convnet2,
    /// whose kernels read 32/64/128 images per memory transaction.
    Chwn,
    /// Spatial-major: `(h, w)` slowest, `n` fastest. fbfft's "HWBD"
    /// layout, produced by its `Transpose` kernel so the per-frequency
    /// complex GEMM reads contiguous `[c × n]` panels.
    Hwcn,
    /// Channel-blocked NCHW with an inner block of 8:
    /// `[n][⌈c/8⌉][h][w][8]`. The layout oneDNN and the cuDNN CPU
    /// backends converged on: the innermost 8 channels sit contiguously
    /// so a direct convolution broadcasts one input lane against a full
    /// SIMD vector of filter taps — no im2col expansion needed. When
    /// `c % 8 != 0` the trailing lanes of the last block are zero
    /// padding (see `crate::nchwc`), so the buffer is larger than the
    /// logical element count.
    Nchw8c,
    /// Channel-blocked NCHW with an inner block of 16
    /// (`[n][⌈c/16⌉][h][w][16]`), for 512-bit SIMD hosts. Stride math
    /// and pack/unpack are block-generic; the AVX2 kernels use
    /// [`Layout::Nchw8c`].
    Nchw16c,
}

impl Layout {
    /// Inner channel-block width, or `None` for the planar layouts.
    #[inline]
    pub const fn channel_block(&self) -> Option<usize> {
        match self {
            Layout::Nchw8c => Some(8),
            Layout::Nchw16c => Some(16),
            _ => None,
        }
    }

    /// Short name used in reports.
    pub const fn name(&self) -> &'static str {
        match self {
            Layout::Nchw => "NCHW",
            Layout::Chwn => "CHWN",
            Layout::Hwcn => "HWCN",
            Layout::Nchw8c => "NCHW8c",
            Layout::Nchw16c => "NCHW16c",
        }
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Linear offset of logical element `(n, c, h, w)` in a tensor of
    /// logical shape `(nn, cc, hh, ww)` stored in `layout`: the index
    /// oracle the layout and NCHWc pack tests check buffers against.
    pub(crate) const fn offset(
        layout: Layout,
        (nn, cc, hh, ww): (usize, usize, usize, usize),
        (n, c, h, w): (usize, usize, usize, usize),
    ) -> usize {
        match layout {
            Layout::Nchw => ((n * cc + c) * hh + h) * ww + w,
            Layout::Chwn => ((c * hh + h) * ww + w) * nn + n,
            Layout::Hwcn => ((h * ww + w) * cc + c) * nn + n,
            Layout::Nchw8c => blocked_offset(8, (cc, hh, ww), (n, c, h, w)),
            Layout::Nchw16c => blocked_offset(16, (cc, hh, ww), (n, c, h, w)),
        }
    }

    /// `[n][c/b][h][w][c%b]` stride math shared by the blocked variants.
    const fn blocked_offset(
        b: usize,
        (cc, hh, ww): (usize, usize, usize),
        (n, c, h, w): (usize, usize, usize, usize),
    ) -> usize {
        let blocks = cc.div_ceil(b);
        ((((n * blocks + c / b) * hh + h) * ww + w) * b) + c % b
    }

    /// Buffer length (in elements) a tensor of logical shape
    /// `(nn, cc, hh, ww)` occupies in `layout`: blocked layouts round the
    /// channel count up to whole blocks.
    fn buffer_len(layout: Layout, (nn, cc, hh, ww): (usize, usize, usize, usize)) -> usize {
        let b = layout.channel_block().unwrap_or(1);
        nn * cc.div_ceil(b) * b * hh * ww
    }

    #[test]
    fn nchw_offsets_are_row_major() {
        let shape = (2, 3, 4, 5);
        assert_eq!(offset(Layout::Nchw, shape, (0, 0, 0, 0)), 0);
        assert_eq!(offset(Layout::Nchw, shape, (0, 0, 0, 1)), 1);
        assert_eq!(offset(Layout::Nchw, shape, (1, 2, 3, 4)), 119);
    }

    #[test]
    fn chwn_puts_batch_innermost() {
        let shape = (2, 3, 4, 5);
        assert_eq!(offset(Layout::Chwn, shape, (0, 0, 0, 0)), 0);
        assert_eq!(offset(Layout::Chwn, shape, (1, 0, 0, 0)), 1);
        assert_eq!(offset(Layout::Chwn, shape, (0, 0, 0, 1)), 2);
    }

    #[test]
    fn hwcn_puts_spatial_outermost() {
        let shape = (2, 3, 4, 5);
        assert_eq!(offset(Layout::Hwcn, shape, (0, 0, 0, 0)), 0);
        assert_eq!(offset(Layout::Hwcn, shape, (1, 0, 0, 0)), 1);
        assert_eq!(offset(Layout::Hwcn, shape, (0, 1, 0, 0)), 2);
        assert_eq!(offset(Layout::Hwcn, shape, (0, 0, 1, 0)), 5 * 3 * 2);
    }

    #[test]
    fn blocked_offsets_interleave_channels() {
        // c=10, block=8: two blocks, the second 6 lanes of padding.
        let shape = (2, 10, 3, 4);
        let l = Layout::Nchw8c;
        assert_eq!(l.channel_block(), Some(8));
        assert_eq!(buffer_len(l, shape), 2 * 16 * 3 * 4);
        assert_eq!(offset(l, shape, (0, 0, 0, 0)), 0);
        // Channels within one block are adjacent...
        assert_eq!(offset(l, shape, (0, 1, 0, 0)), 1);
        assert_eq!(offset(l, shape, (0, 7, 0, 0)), 7);
        // ...the next spatial position starts a fresh lane group...
        assert_eq!(offset(l, shape, (0, 0, 0, 1)), 8);
        // ...and channel 8 lives in the second block plane.
        assert_eq!(offset(l, shape, (0, 8, 0, 0)), 8 * 3 * 4);
        // Images are buffer_len/n apart.
        assert_eq!(offset(l, shape, (1, 0, 0, 0)), 16 * 3 * 4);
    }

    #[test]
    fn blocked_offsets_are_injective_within_padded_buffer() {
        let shape = (2, 10, 3, 4);
        for layout in [Layout::Nchw8c, Layout::Nchw16c] {
            let len = buffer_len(layout, shape);
            let mut seen = vec![false; len];
            for n in 0..2 {
                for c in 0..10 {
                    for h in 0..3 {
                        for w in 0..4 {
                            let off = offset(layout, shape, (n, c, h, w));
                            assert!(off < len, "{layout}: offset {off} out of bounds");
                            assert!(!seen[off], "{layout}: duplicate offset {off}");
                            seen[off] = true;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn all_layouts_are_bijections() {
        let shape = (2, 3, 4, 5);
        for layout in [Layout::Nchw, Layout::Chwn, Layout::Hwcn] {
            let mut seen = [false; 120];
            for n in 0..2 {
                for c in 0..3 {
                    for h in 0..4 {
                        for w in 0..5 {
                            let off = offset(layout, shape, (n, c, h, w));
                            assert!(!seen[off], "{layout}: duplicate offset {off}");
                            seen[off] = true;
                        }
                    }
                }
            }
            assert!(seen.iter().all(|&s| s), "{layout}: not surjective");
        }
    }
}
