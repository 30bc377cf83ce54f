//! The owned 4-D feature-map tensor.

use crate::error::TensorError;
use crate::shape::Shape4;
use crate::Result;

/// An owned, contiguous, NCHW-ordered `f32` tensor.
///
/// This is the universal currency between layers and convolution
/// strategies in the workspace: inputs, filter banks (`n` = filter count,
/// `c` = input channels), gradients and feature maps are all `Tensor4`s.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor4 {
    shape: Shape4,
    data: Vec<f32>,
}

impl Tensor4 {
    /// A zero-filled tensor of the given shape.
    // AUDIT: cold-path — owned-tensor constructor for setup, weights, and
    // tests; hot paths check out workspace scratch instead.
    pub fn zeros(shape: Shape4) -> Self {
        Tensor4 {
            shape,
            data: vec![0.0; shape.len()],
        }
    }

    /// A tensor filled with a constant value.
    pub fn full(shape: Shape4, value: f32) -> Self {
        Tensor4 {
            shape,
            data: vec![value; shape.len()],
        }
    }

    /// Wrap an existing buffer. The buffer length must equal
    /// `shape.len()`.
    pub fn from_vec(shape: Shape4, data: Vec<f32>) -> Result<Self> {
        if data.len() != shape.len() {
            return Err(TensorError::shape(
                "Tensor4::from_vec",
                shape.len(),
                data.len(),
            ));
        }
        Ok(Tensor4 { shape, data })
    }

    /// Build a tensor by evaluating `f(n, c, h, w)` at every index.
    pub fn from_fn(shape: Shape4, mut f: impl FnMut(usize, usize, usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(shape.len());
        for n in 0..shape.n {
            for c in 0..shape.c {
                for h in 0..shape.h {
                    for w in 0..shape.w {
                        data.push(f(n, c, h, w));
                    }
                }
            }
        }
        Tensor4 { shape, data }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> Shape4 {
        self.shape
    }

    /// Immutable view of the backing buffer (NCHW order).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer (NCHW order).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.shape.offset(n, c, h, w)]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, n: usize, c: usize, h: usize, w: usize, v: f32) {
        let off = self.shape.offset(n, c, h, w);
        self.data[off] = v;
    }

    /// The contiguous `h×w` plane of image `n`, channel `c`.
    pub fn plane(&self, n: usize, c: usize) -> &[f32] {
        let start = self.shape.offset(n, c, 0, 0);
        &self.data[start..start + self.shape.plane_len()]
    }

    /// Mutable `h×w` plane of image `n`, channel `c`.
    pub fn plane_mut(&mut self, n: usize, c: usize) -> &mut [f32] {
        let start = self.shape.offset(n, c, 0, 0);
        let len = self.shape.plane_len();
        &mut self.data[start..start + len]
    }

    /// The contiguous image `n` (all channels).
    pub fn image(&self, n: usize) -> &[f32] {
        let start = self.shape.offset(n, 0, 0, 0);
        &self.data[start..start + self.shape.image_len()]
    }

    /// Mutable image `n` (all channels).
    pub fn image_mut(&mut self, n: usize) -> &mut [f32] {
        let start = self.shape.offset(n, 0, 0, 0);
        let len = self.shape.image_len();
        &mut self.data[start..start + len]
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Maximum absolute difference against another tensor of the same
    /// shape, the comparator of the cross-strategy correctness tests.
    /// NaN when any difference is NaN, so a NaN output never reads as
    /// close to a finite reference.
    pub fn max_abs_diff(&self, other: &Tensor4) -> Result<f32> {
        if self.shape != other.shape {
            return Err(TensorError::shape(
                "Tensor4::max_abs_diff",
                self.shape,
                other.shape,
            ));
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, |m, d| if d > m || d.is_nan() { d } else { m }))
    }

    /// Relative L2 distance `‖a−b‖₂ / max(‖a‖₂, ε)` against another
    /// tensor; tolerant comparison for FFT-vs-direct checks where f32
    /// rounding differs.
    pub fn rel_l2_dist(&self, other: &Tensor4) -> Result<f32> {
        if self.shape != other.shape {
            return Err(TensorError::shape(
                "Tensor4::rel_l2_dist",
                self.shape,
                other.shape,
            ));
        }
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for (a, b) in self.data.iter().zip(&other.data) {
            num += ((a - b) as f64).powi(2);
            den += (*a as f64).powi(2);
        }
        Ok((num.sqrt() / den.sqrt().max(1e-12)) as f32)
    }

    /// Fill with zeros, reusing the allocation.
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let t = Tensor4::zeros(Shape4::new(1, 2, 2, 2));
        assert_eq!(t.sum(), 0.0);
        let t = Tensor4::full(Shape4::new(1, 2, 2, 2), 1.5);
        assert_eq!(t.sum(), 12.0);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor4::from_vec(Shape4::new(1, 1, 2, 2), vec![0.0; 3]).is_err());
        assert!(Tensor4::from_vec(Shape4::new(1, 1, 2, 2), vec![0.0; 4]).is_ok());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor4::zeros(Shape4::new(2, 3, 4, 5));
        t.set(1, 2, 3, 4, 7.5);
        assert_eq!(t.get(1, 2, 3, 4), 7.5);
    }

    #[test]
    fn from_fn_indexing() {
        let t = Tensor4::from_fn(Shape4::new(2, 2, 2, 2), |n, c, h, w| {
            (n * 1000 + c * 100 + h * 10 + w) as f32
        });
        assert_eq!(t.get(1, 0, 1, 0), 1010.0);
        assert_eq!(t.get(0, 1, 0, 1), 101.0);
    }

    #[test]
    fn plane_and_image_views() {
        let t = Tensor4::from_fn(Shape4::new(2, 2, 2, 2), |n, c, h, w| {
            (n * 8 + c * 4 + h * 2 + w) as f32
        });
        assert_eq!(t.plane(1, 1), &[12.0, 13.0, 14.0, 15.0]);
        assert_eq!(t.image(0).len(), 8);
        assert_eq!(t.image(1)[0], 8.0);
    }

    #[test]
    fn max_abs_diff_sees_nan() {
        let a = Tensor4::full(Shape4::new(1, 1, 2, 2), 1.0);
        let b = Tensor4::full(Shape4::new(1, 1, 2, 2), 2.5);
        assert_eq!(b.max_abs_diff(&a).unwrap(), 1.5);
        // A NaN anywhere — first, last, or after a larger difference —
        // fails every `< tol` check instead of folding away.
        let s = Shape4::new(1, 1, 1, 2);
        let finite = Tensor4::from_vec(s, vec![1.0, 2.0]).unwrap();
        for data in [[f32::NAN, 2.0], [1.0, f32::NAN], [f32::NAN, 9.0]] {
            let d = Tensor4::from_vec(s, data.to_vec())
                .unwrap()
                .max_abs_diff(&finite);
            assert!(d.unwrap().is_nan(), "{data:?}");
        }
        let d = finite.max_abs_diff(&Tensor4::from_vec(s, vec![9.0, f32::NAN]).unwrap());
        assert!(d.unwrap().is_nan());
    }

    #[test]
    fn shape_mismatch_errors() {
        let a = Tensor4::zeros(Shape4::new(1, 1, 2, 2));
        let b = Tensor4::zeros(Shape4::new(1, 1, 2, 3));
        assert!(a.max_abs_diff(&b).is_err());
        assert!(a.rel_l2_dist(&b).is_err());
    }

    #[test]
    fn rel_l2_identical_is_zero() {
        let a = Tensor4::from_fn(Shape4::new(1, 2, 3, 4), |n, c, h, w| {
            (n + c + h + w) as f32 * 0.1
        });
        assert_eq!(a.rel_l2_dist(&a).unwrap(), 0.0);
    }
}
