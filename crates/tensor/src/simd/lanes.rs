//! The vector type the generic register-tile bodies are written over.
//!
//! One [`Lanes`] impl per ISA vector (`__m512`, `__m256`,
//! `float32x4_t`), each a single `lanes_impl!` line, is all an ISA
//! contributes to the three generic bodies in the workspace: the SGEMM
//! tile and the no-pack dot tile in `gcnn_gemm::kernel`, and the NCHWc
//! convolution tile in [`super::conv`].

/// The vector operations the generic tile bodies are written in: one
/// impl per ISA. Every method is a `std::arch` intrinsic of the
/// implementing ISA.
pub trait Lanes: Copy {
    /// f32 lanes per vector.
    const N: usize;

    /// `x` in every lane.
    ///
    /// # Safety
    /// The CPU must support the implementing ISA.
    unsafe fn splat(x: f32) -> Self;

    /// The `N` floats at `p`, unaligned.
    ///
    /// # Safety
    /// The CPU must support the implementing ISA and `p` must be valid
    /// for reading `N` floats.
    unsafe fn load(p: *const f32) -> Self;

    /// Write the lanes to the `N` floats at `p`, unaligned.
    ///
    /// # Safety
    /// The CPU must support the implementing ISA and `p` must be valid
    /// for writing `N` floats.
    unsafe fn store(self, p: *mut f32);

    /// Lane-wise `self·b`.
    ///
    /// # Safety
    /// The CPU must support the implementing ISA.
    unsafe fn mul(self, b: Self) -> Self;

    /// Lane-wise `self + a·b`, fused.
    ///
    /// # Safety
    /// The CPU must support the implementing ISA.
    unsafe fn fma(self, a: Self, b: Self) -> Self;

    /// Lane-wise `max(self, b)`; a NaN lane of `self` yields `b`'s, as
    /// `f32::max` does.
    ///
    /// # Safety
    /// The CPU must support the implementing ISA.
    unsafe fn max(self, b: Self) -> Self;
}

/// `impl Lanes for $ty` from the ISA's intrinsics (`$fma` spells the
/// ISA's operand order for `acc + a·b`).
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
macro_rules! lanes_impl {
    ($ty:ty, $n:expr, $splat:path, $load:path, $store:path, $mul:path, $max:path,
     |$acc:ident, $a:ident, $b:ident| $fma:expr) => {
        // Each method is one intrinsic of the ISA; its `unsafe fn` and
        // its `unsafe` block both rest on the trait's safety contract.
        impl Lanes for $ty {
            const N: usize = $n;
            /// Safety: the trait's.
            #[inline(always)]
            unsafe fn splat(x: f32) -> Self {
                // SAFETY: trait contract (ISA available).
                unsafe { $splat(x) }
            }
            /// Safety: the trait's.
            #[inline(always)]
            unsafe fn load(p: *const f32) -> Self {
                // SAFETY: trait contract (`N` floats readable at `p`).
                unsafe { $load(p) }
            }
            /// Safety: the trait's.
            #[inline(always)]
            unsafe fn store(self, p: *mut f32) {
                // SAFETY: trait contract (`N` floats writable at `p`).
                unsafe { $store(p, self) }
            }
            /// Safety: the trait's.
            #[inline(always)]
            unsafe fn mul(self, b: Self) -> Self {
                // SAFETY: trait contract (ISA available).
                unsafe { $mul(self, b) }
            }
            /// Safety: the trait's.
            #[inline(always)]
            unsafe fn fma(self, $a: Self, $b: Self) -> Self {
                let $acc = self;
                // SAFETY: trait contract (ISA available).
                unsafe { $fma }
            }
            /// Safety: the trait's.
            #[inline(always)]
            unsafe fn max(self, b: Self) -> Self {
                // SAFETY: trait contract (ISA available).
                unsafe { $max(self, b) }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Lanes;
    use std::arch::x86_64::*;

    // `maxps(self, b)` returns `b` when either operand is NaN, which
    // is the NaN-in-`self` behaviour the trait documents.
    lanes_impl!(
        __m256,
        8,
        _mm256_set1_ps,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_mul_ps,
        _mm256_max_ps,
        |acc, a, b| _mm256_fmadd_ps(a, b, acc)
    );
    lanes_impl!(
        __m512,
        16,
        _mm512_set1_ps,
        _mm512_loadu_ps,
        _mm512_storeu_ps,
        _mm512_mul_ps,
        _mm512_max_ps,
        |acc, a, b| _mm512_fmadd_ps(a, b, acc)
    );
}

#[cfg(target_arch = "aarch64")]
mod arm {
    use super::Lanes;
    use std::arch::aarch64::*;

    lanes_impl!(
        float32x4_t,
        4,
        vdupq_n_f32,
        vld1q_f32,
        vst1q_f32,
        vmulq_f32,
        vmaxnmq_f32,
        |acc, a, b| vfmaq_f32(acc, a, b)
    );
}
