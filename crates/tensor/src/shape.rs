//! Shape types for 4-D feature-map tensors and 2-D matrices.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The shape of a 4-D feature-map tensor in NCHW order:
/// `n` images per mini-batch, `c` channels (feature maps), spatial
/// `h`×`w`.
///
/// This mirrors the paper's 5-tuple convention `(b, i, f, k, s)` where a
/// convolution input is the shape `(b, c, i, i)` and a filter bank is
/// `(f, c, k, k)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape4 {
    /// Mini-batch size (the paper's `b`).
    pub n: usize,
    /// Channel / feature-map count.
    pub c: usize,
    /// Spatial height.
    pub h: usize,
    /// Spatial width.
    pub w: usize,
}

impl Shape4 {
    /// Create a new shape.
    pub const fn new(n: usize, c: usize, h: usize, w: usize) -> Self {
        Shape4 { n, c, h, w }
    }

    /// Total number of scalar elements.
    pub const fn len(&self) -> usize {
        self.n * self.c * self.h * self.w
    }

    /// True when any dimension is zero.
    pub const fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of scalars in one image (all channels).
    pub const fn image_len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Number of scalars in one channel plane.
    pub const fn plane_len(&self) -> usize {
        self.h * self.w
    }

    /// Linear offset of element `(n, c, h, w)` under contiguous NCHW
    /// strides.
    #[inline]
    pub const fn offset(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        ((n * self.c + c) * self.h + h) * self.w + w
    }

    /// Size of the tensor in bytes at `f32` precision.
    pub const fn bytes(&self) -> usize {
        self.len() * std::mem::size_of::<f32>()
    }
}

impl fmt::Display for Shape4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}x{}", self.n, self.c, self.h, self.w)
    }
}

/// The shape of a row-major 2-D matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape2 {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl Shape2 {
    /// Create a new matrix shape.
    pub const fn new(rows: usize, cols: usize) -> Self {
        Shape2 { rows, cols }
    }

    /// Total number of scalar elements.
    pub const fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// True when either dimension is zero.
    pub const fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear offset of element `(r, c)` under row-major strides.
    #[inline]
    pub const fn offset(&self, r: usize, c: usize) -> usize {
        r * self.cols + c
    }

    /// The transposed shape.
    pub const fn transposed(&self) -> Self {
        Shape2 {
            rows: self.cols,
            cols: self.rows,
        }
    }
}

impl fmt::Display for Shape2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape4_len_and_offsets() {
        let s = Shape4::new(2, 3, 4, 5);
        assert_eq!(s.len(), 120);
        assert_eq!(s.image_len(), 60);
        assert_eq!(s.plane_len(), 20);
        assert_eq!(s.offset(0, 0, 0, 0), 0);
        assert_eq!(s.offset(1, 2, 3, 4), 119);
        assert_eq!(s.offset(0, 1, 0, 0), 20);
        assert_eq!(s.bytes(), 480);
    }

    #[test]
    fn shape4_display() {
        assert_eq!(Shape4::new(64, 3, 128, 128).to_string(), "64x3x128x128");
    }

    #[test]
    fn shape2_offsets_and_transpose() {
        let s = Shape2::new(3, 7);
        assert_eq!(s.len(), 21);
        assert_eq!(s.offset(2, 6), 20);
        assert_eq!(s.transposed(), Shape2::new(7, 3));
    }

    #[test]
    fn shape_is_empty() {
        assert!(Shape4::new(0, 3, 4, 5).is_empty());
        assert!(!Shape4::new(1, 1, 1, 1).is_empty());
        assert!(Shape2::new(3, 0).is_empty());
    }
}
