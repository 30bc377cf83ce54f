//! A minimal single-precision complex number.
//!
//! The FFT-based convolution strategy (paper §II-B, implemented by fbfft
//! and Theano-fft) works in the Fourier domain. The production path
//! keeps spectra as split re/im `f32` planes; this type is the scalar
//! arithmetic of its kernels' tails and the element of the oracles
//! (`gcnn_fft::dft`, `gcnn_gemm::naive::cgemm_ref`).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f32` real and imaginary parts.
///
/// `#[repr(C)]` guarantees the `[re, im]` field order and no padding, so
/// a `&[Complex32]` can be soundly viewed as interleaved `f32` pairs.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[repr(C)]
pub struct Complex32 {
    /// Real part.
    pub re: f32,
    /// Imaginary part.
    pub im: f32,
}

// That interleaved-f32 view is only sound while `Complex32` is exactly
// two packed f32s; a compile error here means a field or attribute
// change broke that contract.
const _: () = assert!(std::mem::size_of::<Complex32>() == 2 * std::mem::size_of::<f32>());
const _: () = assert!(std::mem::align_of::<Complex32>() == std::mem::align_of::<f32>());

impl Complex32 {
    /// The additive identity.
    pub const ZERO: Complex32 = Complex32 { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex32 = Complex32 { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Complex32 = Complex32 { re: 0.0, im: 1.0 };

    /// Create a complex number from its parts.
    #[inline]
    pub const fn new(re: f32, im: f32) -> Self {
        Complex32 { re, im }
    }

    /// Create a purely real complex number.
    #[inline]
    pub const fn from_real(re: f32) -> Self {
        Complex32 { re, im: 0.0 }
    }

    /// `e^(i·theta)` — a point on the unit circle; the twiddle-factor
    /// constructor.
    #[inline]
    pub fn from_polar_unit(theta: f32) -> Self {
        Complex32 {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex32 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `re² + im²`.
    #[inline]
    pub fn norm_sqr(self) -> f32 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    #[inline]
    pub fn abs(self) -> f32 {
        self.norm_sqr().sqrt()
    }

    /// Multiply-accumulate: `self + a * b`, the inner-loop operation of
    /// the complex GEMM ("Cgemm" in the paper's fbfft hotspot analysis).
    #[inline]
    pub fn mul_add(self, a: Complex32, b: Complex32) -> Self {
        Complex32 {
            re: self.re + a.re * b.re - a.im * b.im,
            im: self.im + a.re * b.im + a.im * b.re,
        }
    }

    /// Scale by a real factor.
    #[inline]
    pub fn scale(self, s: f32) -> Self {
        Complex32 {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl Add for Complex32 {
    type Output = Complex32;
    #[inline]
    fn add(self, rhs: Complex32) -> Complex32 {
        Complex32::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex32 {
    #[inline]
    fn add_assign(&mut self, rhs: Complex32) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex32 {
    type Output = Complex32;
    #[inline]
    fn sub(self, rhs: Complex32) -> Complex32 {
        Complex32::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex32 {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex32) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex32 {
    type Output = Complex32;
    #[inline]
    fn mul(self, rhs: Complex32) -> Complex32 {
        Complex32::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex32 {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex32) {
        *self = *self * rhs;
    }
}

impl Mul<f32> for Complex32 {
    type Output = Complex32;
    #[inline]
    fn mul(self, rhs: f32) -> Complex32 {
        self.scale(rhs)
    }
}

impl Div<f32> for Complex32 {
    type Output = Complex32;
    #[inline]
    fn div(self, rhs: f32) -> Complex32 {
        self.scale(1.0 / rhs)
    }
}

impl Neg for Complex32 {
    type Output = Complex32;
    #[inline]
    fn neg(self) -> Complex32 {
        Complex32::new(-self.re, -self.im)
    }
}

impl Sum for Complex32 {
    fn sum<I: Iterator<Item = Complex32>>(iter: I) -> Self {
        iter.fold(Complex32::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Complex32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl From<f32> for Complex32 {
    fn from(re: f32) -> Self {
        Complex32::from_real(re)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex32, b: Complex32) -> bool {
        (a.re - b.re).abs() < 1e-6 && (a.im - b.im).abs() < 1e-6
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex32::new(3.0, -4.0);
        assert_eq!(z + Complex32::ZERO, z);
        assert_eq!(z * Complex32::ONE, z);
        assert_eq!(z - z, Complex32::ZERO);
        assert!(close(z * Complex32::I, Complex32::new(4.0, 3.0)));
    }

    #[test]
    fn multiplication() {
        let a = Complex32::new(1.0, 2.0);
        let b = Complex32::new(3.0, -1.0);
        // (1+2i)(3-i) = 3 - i + 6i - 2i² = 5 + 5i
        assert!(close(a * b, Complex32::new(5.0, 5.0)));
    }

    #[test]
    fn conjugate_and_norm() {
        let z = Complex32::new(3.0, 4.0);
        assert_eq!(z.conj(), Complex32::new(3.0, -4.0));
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.abs(), 5.0);
        // z * conj(z) == |z|² (purely real)
        assert!(close(z * z.conj(), Complex32::new(25.0, 0.0)));
    }

    #[test]
    fn polar_unit_is_on_unit_circle() {
        for k in 0..16 {
            let theta = 2.0 * std::f32::consts::PI * k as f32 / 16.0;
            let z = Complex32::from_polar_unit(theta);
            assert!((z.abs() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn mul_add_matches_explicit() {
        let acc = Complex32::new(1.0, 1.0);
        let a = Complex32::new(2.0, 3.0);
        let b = Complex32::new(-1.0, 0.5);
        assert!(close(acc.mul_add(a, b), acc + a * b));
    }

    #[test]
    fn sum_over_roots_of_unity_is_zero() {
        let n = 8;
        let s: Complex32 = (0..n)
            .map(|k| Complex32::from_polar_unit(2.0 * std::f32::consts::PI * k as f32 / n as f32))
            .sum();
        assert!(s.abs() < 1e-5);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex32::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex32::new(1.0, -2.0).to_string(), "1-2i");
    }
}
