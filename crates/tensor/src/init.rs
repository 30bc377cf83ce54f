//! Deterministic random initialization helpers.
//!
//! All experiment inputs in this workspace are synthetic (the paper's
//! measurements are shape-driven, not data-driven), so reproducibility
//! matters more than entropy: every generator takes an explicit seed.

use crate::matrix::Matrix;
use crate::shape::Shape4;
use crate::tensor::Tensor4;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A tensor with i.i.d. uniform values in `[lo, hi)`.
pub fn uniform_tensor(shape: Shape4, lo: f32, hi: f32, seed: u64) -> Tensor4 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let data = (0..shape.len()).map(|_| rng.gen_range(lo..hi)).collect();
    Tensor4::from_vec(shape, data).expect("uniform_tensor: length matches shape")
}

/// A matrix with i.i.d. uniform values in `[lo, hi)`.
pub fn uniform_matrix(rows: usize, cols: usize, lo: f32, hi: f32, seed: u64) -> Matrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let data = (0..rows * cols).map(|_| rng.gen_range(lo..hi)).collect();
    Matrix::from_vec(rows, cols, data).expect("uniform_matrix: length matches shape")
}

/// Xavier/Glorot-style uniform initialization for a filter bank of shape
/// `(f, c, k, k)`: bound `sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_filters(shape: Shape4, seed: u64) -> Tensor4 {
    let fan_in = (shape.c * shape.h * shape.w) as f32;
    let fan_out = (shape.n * shape.h * shape.w) as f32;
    let bound = (6.0 / (fan_in + fan_out)).sqrt();
    uniform_tensor(shape, -bound, bound, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_deterministic_per_seed() {
        let s = Shape4::new(2, 3, 4, 4);
        let a = uniform_tensor(s, -1.0, 1.0, 42);
        let b = uniform_tensor(s, -1.0, 1.0, 42);
        let c = uniform_tensor(s, -1.0, 1.0, 43);
        assert_eq!(a, b);
        assert!(a.max_abs_diff(&c).unwrap() > 0.0);
    }

    #[test]
    fn uniform_respects_bounds() {
        let t = uniform_tensor(Shape4::new(1, 1, 32, 32), 2.0, 3.0, 7);
        assert!(t.as_slice().iter().all(|&x| (2.0..3.0).contains(&x)));
    }

    #[test]
    fn xavier_bound_shrinks_with_fan() {
        let small = xavier_filters(Shape4::new(4, 1, 3, 3), 1);
        let large = xavier_filters(Shape4::new(512, 512, 3, 3), 1);
        let max_small = small.as_slice().iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let max_large = large.as_slice().iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        assert!(max_large < max_small);
    }

    #[test]
    fn uniform_matrix_shape() {
        let m = uniform_matrix(3, 5, 0.0, 1.0, 9);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 5);
    }
}
