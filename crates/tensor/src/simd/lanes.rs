//! The vector type every generic SIMD body in the workspace is written
//! over.
//!
//! One [`Lanes`] impl per ISA vector (`__m512`, `__m256`, `__m128`,
//! `float32x4_t`), each a single `lanes_impl!` line and a block
//! transpose, is all an ISA contributes to those bodies besides a
//! `#[target_feature]` shim: the slice primitives and the strided
//! transpose in [`super`], the NCHWc convolution tile in
//! [`super::conv`], the SGEMM, dot and split-CGEMM tiles in `gcnn-gemm`
//! and the FFT lane stages in `gcnn-fft` (DESIGN.md §4.6 has the table).

/// The vector operations the generic bodies are written in: one impl
/// per ISA, every method a single `std::arch` intrinsic of that ISA but
/// [`Lanes::transpose`] (a shuffle ladder of that ISA), plus `f32`
/// itself as the one-lane vector, so that a body which must finish a
/// row in place runs its remainder as the same code at `V = f32`
/// instead of transcribing its arithmetic a second time.
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

    /// The `N×N` block at `src` (row stride `src_ld`) transposed into
    /// `dst` (row stride `dst_ld`), `dst[c·dst_ld + r] = src[r·src_ld + c]`
    /// for `r, c < N`, by an in-register shuffle ladder; at `f32`, a copy.
    ///
    /// # Safety
    /// The CPU must support the implementing ISA; `N` rows of `N` floats
    /// readable at `src` and writable at `dst`, the source block not
    /// overlapping the destination (source rows may overlap each other).
    unsafe fn transpose(src: *const f32, src_ld: usize, dst: *mut f32, dst_ld: usize);
}

/// `impl Lanes for $ty` from the ISA's intrinsics (`$fma` and `$fnma`
/// spell the ISA's operand order for `acc + a·b` and `acc − a·b`) and
/// its block transpose.
macro_rules! lanes_impl {
    ($ty:ty, $n:expr, $splat:path, $load:path, $store:path, $add:path, $sub:path, $mul:path,
     $max:path, $transpose:expr, |$acc:ident, $a:ident, $b:ident| $fma:expr, $fnma:expr) => {
        // Each method is one intrinsic of the ISA, or one ladder of them;
        // its `unsafe fn` and its `unsafe` block both rest on the trait's
        // safety contract (`f32`'s arithmetic needs neither).
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
            /// Safety: the trait's.
            #[inline(always)]
            unsafe fn transpose(src: *const f32, src_ld: usize, dst: *mut f32, dst_ld: usize) {
                // SAFETY: trait contract (`N` rows of `N` floats each side).
                unsafe { ($transpose)(src, src_ld, dst, dst_ld) }
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
    |s: *const f32, _, d: *mut f32, _| d.write_volatile(s.read_volatile()),
    |acc, a, b| a.mul_add(b, acc),
    (-a).mul_add(b, acc)
);

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Lanes;
    use std::arch::x86_64::*;

    /// The x86 `N×N` block transposes: unpack row pairs, then shuffle
    /// pairs of pairs, after which 128-bit lane `L` of `s[4q + j]` holds
    /// column `4L + j` of rows `4q..4q + 4`; `$gather` stores row `c` of
    /// the result, assembled from those 128-bit lanes, with `row(c, v)`.
    macro_rules! x86_transpose {
        ($name:ident, $ty:ty, $lo:ident, $hi:ident, $shuffle:ident,
         |$s:ident, $row:ident| $gather:expr) => {
            /// # Safety
            /// [`Lanes::transpose`]'s.
            #[inline(always)]
            unsafe fn $name(src: *const f32, sld: usize, dst: *mut f32, dld: usize) {
                const N: usize = <$ty as Lanes>::N;
                // SAFETY: the caller's contract: `N` rows each side.
                unsafe {
                    let r: [$ty; N] = std::array::from_fn(|i| <$ty>::load(src.add(i * sld)));
                    let mut t = r;
                    for i in (0..N).step_by(2) {
                        (t[i], t[i + 1]) = ($lo(r[i], r[i + 1]), $hi(r[i], r[i + 1]));
                    }
                    let mut $s = t;
                    for i in (0..N).step_by(2) {
                        let (a, b) = (t[i - i % 4 / 2], t[i - i % 4 / 2 + 2]);
                        ($s[i], $s[i + 1]) = ($shuffle(a, b, 0x44), $shuffle(a, b, 0xEE));
                    }
                    let $row = |c: usize, v: $ty| v.store(dst.add(c * dld));
                    $gather;
                }
            }
        };
    }

    x86_transpose! {
        transpose4, __m128, _mm_unpacklo_ps, _mm_unpackhi_ps, _mm_shuffle_ps,
        |s, row| for (c, v) in s.into_iter().enumerate() { row(c, v) }
    }
    x86_transpose! {
        transpose8, __m256, _mm256_unpacklo_ps, _mm256_unpackhi_ps, _mm256_shuffle_ps,
        |s, row| for j in 0..4 {
            row(j, _mm256_permute2f128_ps(s[j], s[4 + j], 0x20));
            row(4 + j, _mm256_permute2f128_ps(s[j], s[4 + j], 0x31));
        }
    }
    x86_transpose! {
        transpose16, __m512, _mm512_unpacklo_ps, _mm512_unpackhi_ps, _mm512_shuffle_ps,
        // Even and odd 128-bit lanes of rows `j`, `4 + j` and of rows
        // `8 + j`, `12 + j`, then of those two pairs: rows `j + 4L`.
        |s, row| for j in 0..4 {
            let even_odd =
                |x, y| (_mm512_shuffle_f32x4(x, y, 0x88), _mm512_shuffle_f32x4(x, y, 0xDD));
            let ((lo, hi), (lo2, hi2)) = (even_odd(s[j], s[4 + j]), even_odd(s[8 + j], s[12 + j]));
            let ((r0, r2), (r1, r3)) = (even_odd(lo, lo2), even_odd(hi, hi2));
            for (l, v) in [r0, r1, r2, r3].into_iter().enumerate() {
                row(j + 4 * l, v);
            }
        }
    }

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
        transpose4,
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
        transpose8,
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
        transpose16,
        |acc, a, b| _mm512_fmadd_ps(a, b, acc),
        _mm512_fnmadd_ps(a, b, acc)
    );
}

#[cfg(target_arch = "aarch64")]
mod arm {
    use super::Lanes;
    use std::arch::aarch64::*;

    /// The 4×4 transpose: `vtrn1q/vtrn2q` on f32 pairs, then on the
    /// f64-reinterpreted halves.
    ///
    /// # Safety
    /// [`Lanes::transpose`]'s.
    #[inline(always)]
    unsafe fn transpose4(src: *const f32, sld: usize, dst: *mut f32, dld: usize) {
        // SAFETY: the caller's contract: four rows each side.
        unsafe {
            let r = |i: usize| vld1q_f32(src.add(i * sld));
            let (a, b, c, d) = (r(0), r(1), r(2), r(3));
            let pairs = [
                (vtrn1q_f32(a, b), vtrn1q_f32(c, d)), // a0 b0 a2 b2 | c0 d0 c2 d2
                (vtrn2q_f32(a, b), vtrn2q_f32(c, d)), // a1 b1 a3 b3 | c1 d1 c3 d3
            ];
            let row = |i: usize, v| vst1q_f32(dst.add(i * dld), vreinterpretq_f32_f64(v));
            for (j, (ab, cd)) in pairs.into_iter().enumerate() {
                let (ab, cd) = (vreinterpretq_f64_f32(ab), vreinterpretq_f64_f32(cd));
                row(j, vtrn1q_f64(ab, cd));
                row(j + 2, vtrn2q_f64(ab, cd));
            }
        }
    }

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
        transpose4,
        |acc, a, b| vfmaq_f32(acc, a, b),
        vfmsq_f32(acc, a, b)
    );
}
