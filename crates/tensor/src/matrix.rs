//! Row-major `f32` matrix used by the GEMM substrate and the unrolling
//! convolution strategy.

use crate::error::TensorError;
use crate::shape::Shape2;
use crate::Result;

/// An owned, contiguous, row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    shape: Shape2,
    data: Vec<f32>,
}

impl Matrix {
    /// A zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            shape: Shape2::new(rows, cols),
            data: vec![0.0; rows * cols],
        }
    }

    /// Wrap an existing buffer of length `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::shape(
                "Matrix::from_vec",
                rows * cols,
                data.len(),
            ));
        }
        Ok(Matrix {
            shape: Shape2::new(rows, cols),
            data,
        })
    }

    /// Build a matrix by evaluating `f(row, col)` everywhere.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix {
            shape: Shape2::new(rows, cols),
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.shape.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.shape.cols
    }

    /// The matrix shape.
    #[inline]
    pub fn shape(&self) -> Shape2 {
        self.shape
    }

    /// Immutable view of the backing buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[self.shape.offset(r, c)]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        let off = self.shape.offset(r, c);
        self.data[off] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        let start = r * self.shape.cols;
        &self.data[start..start + self.shape.cols]
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
    fn construction_and_access() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(1, 2), 12.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn from_vec_validates() {
        assert!(Matrix::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }
}
