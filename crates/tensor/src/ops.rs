//! Elementwise and reduction helpers shared by layers and tests.

use crate::matrix::Matrix;
use crate::tensor::Tensor4;
use rayon::prelude::*;

/// Parallel elementwise map over a tensor, in place.
pub fn map_inplace(t: &mut Tensor4, f: impl Fn(f32) -> f32 + Sync) {
    t.as_mut_slice().par_iter_mut().for_each(|x| *x = f(*x));
}

/// Parallel elementwise binary zip: `out[i] = f(a[i], b[i])`.
///
/// # Panics
/// Panics if the shapes differ.
pub fn zip_map(a: &Tensor4, b: &Tensor4, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor4 {
    assert_eq!(a.shape(), b.shape(), "zip_map: shape mismatch");
    let data: Vec<f32> = a
        .as_slice()
        .par_iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| f(x, y))
        .collect();
    Tensor4::from_vec(a.shape(), data).expect("zip_map: same length as input")
}

/// Index of the maximum element of a slice (first occurrence).
pub fn argmax(x: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in x.iter().enumerate() {
        if v > x[best] {
            best = i;
        }
    }
    best
}

/// Out-of-place blocked matrix transpose (cache-friendlier than the
/// naive loop in [`Matrix::transposed`] for large matrices).
pub fn transpose_blocked(src: &Matrix, block: usize) -> Matrix {
    assert!(block > 0, "transpose_blocked: zero block");
    let (r, c) = (src.rows(), src.cols());
    let mut out = Matrix::zeros(c, r);
    for rb in (0..r).step_by(block) {
        for cb in (0..c).step_by(block) {
            for i in rb..(rb + block).min(r) {
                for j in cb..(cb + block).min(c) {
                    out.set(j, i, src.get(i, j));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape4;

    #[test]
    fn map_and_zip() {
        let mut t = Tensor4::full(Shape4::new(1, 1, 2, 2), -2.0);
        map_inplace(&mut t, |x| x.max(0.0));
        assert_eq!(t.sum(), 0.0);

        let a = Tensor4::full(Shape4::new(1, 1, 2, 2), 3.0);
        let b = Tensor4::full(Shape4::new(1, 1, 2, 2), 4.0);
        let c = zip_map(&a, &b, |x, y| x * y);
        assert_eq!(c.sum(), 48.0);
    }

    #[test]
    fn argmax_first_occurrence() {
        assert_eq!(argmax(&[1.0, 5.0, 5.0, 2.0]), 1);
        assert_eq!(argmax(&[-3.0]), 0);
    }

    #[test]
    fn blocked_transpose_matches_naive() {
        let m = Matrix::from_fn(13, 29, |r, c| (r * 29 + c) as f32);
        for block in [1, 4, 8, 64] {
            assert_eq!(transpose_blocked(&m, block), m.transposed());
        }
    }
}
