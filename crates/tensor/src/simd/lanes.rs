//! The vector type every generic SIMD body in the workspace is written
//! over.
//!
//! One [`Lanes`] impl per ISA vector (`__m512`, `__m256`, `__m128`,
//! `float32x4_t`), each a single `lanes_impl!` line, is all an ISA
//! contributes to those bodies besides a `#[target_feature]` shim: the
//! slice primitives in [`super`], the NCHWc convolution tile in
//! [`super::conv`], the SGEMM, dot and split-CGEMM tiles in `gcnn-gemm`
//! and the FFT lane stages in `gcnn-fft` (DESIGN.md §4.6 has the table).

/// The vector operations the generic bodies are written in: one impl
/// per ISA, every method a single `std::arch` intrinsic of that ISA,
/// plus `f32` itself as the one-lane vector, so that a body which must
/// finish a row in place runs its remainder as the same code at
/// `V = f32` instead of transcribing its arithmetic a second time.
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

    /// Lane-wise `self + b`.
    ///
    /// # Safety
    /// The CPU must support the implementing ISA.
    unsafe fn add(self, b: Self) -> Self;

    /// Lane-wise `self − b`.
    ///
    /// # Safety
    /// The CPU must support the implementing ISA.
    unsafe fn sub(self, b: Self) -> Self;

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

    /// Lane-wise `self − a·b`, fused.
    ///
    /// # Safety
    /// The CPU must support the implementing ISA.
    unsafe fn fnma(self, a: Self, b: Self) -> Self;

    /// Lane-wise `max(self, b)`; a NaN lane of `self` yields `b`'s, as
    /// `f32::max` does.
    ///
    /// # Safety
    /// The CPU must support the implementing ISA.
    unsafe fn max(self, b: Self) -> Self;
}

/// `impl Lanes for $ty` from the ISA's intrinsics (`$fma` and `$fnma`
/// spell the ISA's operand order for `acc + a·b` and `acc − a·b`).
macro_rules! lanes_impl {
    ($ty:ty, $n:expr, $splat:path, $load:path, $store:path, $add:path, $sub:path, $mul:path,
     $max:path, |$acc:ident, $a:ident, $b:ident| $fma:expr, $fnma:expr) => {
        // Each method is one intrinsic of the ISA; its `unsafe fn` and
        // its `unsafe` block both rest on the trait's safety contract
        // (`f32`'s arithmetic needs neither).
        #[allow(unused_unsafe)]
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
            unsafe fn add(self, b: Self) -> Self {
                // SAFETY: trait contract (ISA available).
                unsafe { $add(self, b) }
            }
            /// Safety: the trait's.
            #[inline(always)]
            unsafe fn sub(self, b: Self) -> Self {
                // SAFETY: trait contract (ISA available).
                unsafe { $sub(self, b) }
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
            unsafe fn fnma(self, $a: Self, $b: Self) -> Self {
                let $acc = self;
                // SAFETY: trait contract (ISA available).
                unsafe { $fnma }
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

// One lane: plain float arithmetic, so no ISA to support and nothing
// unsafe but `load`/`store`; `fma`/`fnma` round once, like the vector
// lanes they stand in for. The accesses are volatile because a loop of
// `f32` lanes is a remainder shorter than one vector, and LLVM would
// otherwise auto-vectorize it behind run-time overlap checks or fold it
// into a masked vector op: more code, and slower on so short a loop.
lanes_impl!(
    f32,
    1,
    std::convert::identity,
    std::ptr::read_volatile,
    std::ptr::write_volatile,
    std::ops::Add::add,
    std::ops::Sub::sub,
    std::ops::Mul::mul,
    f32::max,
    |acc, a, b| a.mul_add(b, acc),
    (-a).mul_add(b, acc)
);

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Lanes;
    use std::arch::x86_64::*;

    // Half a ymm: what the slice primitives finish a short row with.
    lanes_impl!(
        __m128,
        4,
        _mm_set1_ps,
        _mm_loadu_ps,
        _mm_storeu_ps,
        _mm_add_ps,
        _mm_sub_ps,
        _mm_mul_ps,
        _mm_max_ps,
        |acc, a, b| _mm_fmadd_ps(a, b, acc),
        _mm_fnmadd_ps(a, b, acc)
    );
    // `maxps(self, b)` returns `b` when either operand is NaN, which
    // is the NaN-in-`self` behaviour the trait documents.
    lanes_impl!(
        __m256,
        8,
        _mm256_set1_ps,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_add_ps,
        _mm256_sub_ps,
        _mm256_mul_ps,
        _mm256_max_ps,
        |acc, a, b| _mm256_fmadd_ps(a, b, acc),
        _mm256_fnmadd_ps(a, b, acc)
    );
    lanes_impl!(
        __m512,
        16,
        _mm512_set1_ps,
        _mm512_loadu_ps,
        _mm512_storeu_ps,
        _mm512_add_ps,
        _mm512_sub_ps,
        _mm512_mul_ps,
        _mm512_max_ps,
        |acc, a, b| _mm512_fmadd_ps(a, b, acc),
        _mm512_fnmadd_ps(a, b, acc)
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
        vaddq_f32,
        vsubq_f32,
        vmulq_f32,
        vmaxnmq_f32,
        |acc, a, b| vfmaq_f32(acc, a, b),
        vfmsq_f32(acc, a, b)
    );
}
