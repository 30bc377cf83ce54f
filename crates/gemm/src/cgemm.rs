//! Complex GEMM — the Fourier-domain product of the FFT convolution
//! strategy.
//!
//! fbfft's hotspot profile (paper Fig. 4f) shows its runtime split
//! between FFT transforms, layout transposes and "Cgemm" — a batched
//! complex matrix product, one `[f×c]·[c×b]` GEMM per frequency bin.
//! This module provides that product on the CPU in the split-complex
//! layout the FFT lane engine emits, parallelized by the caller over
//! bins. [`crate::naive::cgemm_ref`] is its oracle.

use gcnn_tensor::Complex32;

/// `C ← opa(A)·opb(B)` for **split-complex** row-major matrices: every
/// operand is a pair of f32 planes (`re`, `im`) sharing one leading
/// dimension. Overwrite semantics (the batched frequency-domain product
/// always runs with `alpha = 1, beta = 0`). `conj_a`/`conj_b` conjugate
/// the operand elementwise (no transpose) — exactly the variant the
/// FFT-convolution passes need, where correlation in the spatial domain
/// is conjugation in the Fourier domain.
///
/// This is the split-complex CGEMM row kernel of the fbfft-style
/// pipeline: per k-step the AVX2 body broadcasts `a.re`/`a.im` and runs
/// four FMAs per vector of bins — no `permute`, no `addsub`, no
/// interleaved loads. Conjugation is a sign flip folded into the
/// broadcast (`conj_a`) or a bitwise xor on the imaginary plane
/// (`conj_b`), never a shuffle.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn cgemm_split(
    conj_a: bool,
    conj_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a_re: &[f32],
    a_im: &[f32],
    lda: usize,
    b_re: &[f32],
    b_im: &[f32],
    ldb: usize,
    c_re: &mut [f32],
    c_im: &mut [f32],
    ldc: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // Empty sum: the product is zero.
        for i in 0..m {
            c_re[i * ldc..i * ldc + n].fill(0.0);
            c_im[i * ldc..i * ldc + n].fill(0.0);
        }
        return;
    }

    #[cfg(target_arch = "x86_64")]
    if gcnn_tensor::simd::isa() == gcnn_tensor::simd::Isa::Avx2Fma {
        // SAFETY: reached only after runtime AVX2+FMA detection; the
        // operand-extent preconditions are debug-asserted inside.
        unsafe {
            cgemm_split_rows_avx2(
                conj_a, conj_b, m, n, k, a_re, a_im, lda, b_re, b_im, ldb, c_re, c_im, ldc,
            )
        };
        return;
    }

    match (conj_a, conj_b) {
        (false, false) => cgemm_split_kernel::<false, false>(
            m, n, k, a_re, a_im, lda, b_re, b_im, ldb, c_re, c_im, ldc,
        ),
        (false, true) => cgemm_split_kernel::<false, true>(
            m, n, k, a_re, a_im, lda, b_re, b_im, ldb, c_re, c_im, ldc,
        ),
        (true, false) => cgemm_split_kernel::<true, false>(
            m, n, k, a_re, a_im, lda, b_re, b_im, ldb, c_re, c_im, ldc,
        ),
        (true, true) => cgemm_split_kernel::<true, true>(
            m, n, k, a_re, a_im, lda, b_re, b_im, ldb, c_re, c_im, ldc,
        ),
    }
}

/// Monomorphized scalar body of [`cgemm_split`] — the fallback on
/// non-AVX2 dispatch, in per-element [`Complex32`] arithmetic.
/// `CONJ_A`/`CONJ_B` are const so conjugation costs nothing on the
/// `(false, false)` path.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
fn cgemm_split_kernel<const CONJ_A: bool, const CONJ_B: bool>(
    m: usize,
    n: usize,
    k: usize,
    a_re: &[f32],
    a_im: &[f32],
    lda: usize,
    b_re: &[f32],
    b_im: &[f32],
    ldb: usize,
    c_re: &mut [f32],
    c_im: &mut [f32],
    ldc: usize,
) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = Complex32::ZERO;
            for p in 0..k {
                let ai = a_im[i * lda + p];
                let av = Complex32::new(a_re[i * lda + p], if CONJ_A { -ai } else { ai });
                let bi = b_im[p * ldb + j];
                let bv = Complex32::new(b_re[p * ldb + j], if CONJ_B { -bi } else { bi });
                acc = acc.mul_add(av, bv);
            }
            c_re[i * ldc + j] = acc.re;
            c_im[i * ldc + j] = acc.im;
        }
    }
}

/// AVX2+FMA body of [`cgemm_split`]: row tiles of 32 bins (four ymm per
/// plane, eight independent FMA chains). Per k-step it broadcasts
/// `a.re`/`±a.im` and issues `c_re += ar·br − ai·bi`,
/// `c_im += ar·bi + ai·br` — four FMAs per eight complex bins and zero
/// shuffles.
///
/// # Safety
/// Caller must have verified AVX2 and FMA at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)] // BLAS-style signature
unsafe fn cgemm_split_rows_avx2(
    conj_a: bool,
    conj_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a_re: &[f32],
    a_im: &[f32],
    lda: usize,
    b_re: &[f32],
    b_im: &[f32],
    ldb: usize,
    c_re: &mut [f32],
    c_im: &mut [f32],
    ldc: usize,
) {
    use std::arch::x86_64::*;
    const LANES: usize = 8;
    const VECS: usize = 4;
    const JT: usize = VECS * LANES;

    debug_assert!(
        a_re.len() >= (m - 1) * lda + k && a_im.len() >= (m - 1) * lda + k,
        "cgemm_split_rows_avx2: A short"
    );
    debug_assert!(
        b_re.len() >= (k - 1) * ldb + n && b_im.len() >= (k - 1) * ldb + n,
        "cgemm_split_rows_avx2: B short"
    );
    debug_assert!(
        c_re.len() >= (m - 1) * ldc + n && c_im.len() >= (m - 1) * ldc + n,
        "cgemm_split_rows_avx2: C short"
    );
    // SAFETY: reached only after runtime AVX2+FMA detection. All loads
    // and stores go through raw pointers derived from the plane slices:
    // the vector loop touches columns `[j0, j0 + JT)` of B rows `p < k`
    // and C row `i < m` only while `j0 + JT <= n`, covered by the
    // extent debug-asserts above; the scalar tail uses safe indexing on
    // the same formulas after the final raw-pointer store of the tile.
    unsafe {
        let neg0 = _mm256_set1_ps(-0.0);
        let brp = b_re.as_ptr();
        let bip = b_im.as_ptr();
        let crp = c_re.as_mut_ptr();
        let cip = c_im.as_mut_ptr();

        for i in 0..m {
            let mut j0 = 0;
            while j0 + JT <= n {
                let mut acc_re = [_mm256_setzero_ps(); VECS];
                let mut acc_im = [_mm256_setzero_ps(); VECS];
                for p in 0..k {
                    let ar = _mm256_set1_ps(a_re[i * lda + p]);
                    let aim_s = a_im[i * lda + p];
                    let ai = _mm256_set1_ps(if conj_a { -aim_s } else { aim_s });
                    let brow = brp.add(p * ldb + j0);
                    let birow = bip.add(p * ldb + j0);
                    for t in 0..VECS {
                        let br = _mm256_loadu_ps(brow.add(LANES * t));
                        let mut bi = _mm256_loadu_ps(birow.add(LANES * t));
                        if conj_b {
                            bi = _mm256_xor_ps(bi, neg0);
                        }
                        acc_re[t] = _mm256_fmadd_ps(ar, br, acc_re[t]);
                        acc_re[t] = _mm256_fnmadd_ps(ai, bi, acc_re[t]);
                        acc_im[t] = _mm256_fmadd_ps(ar, bi, acc_im[t]);
                        acc_im[t] = _mm256_fmadd_ps(ai, br, acc_im[t]);
                    }
                }
                for t in 0..VECS {
                    _mm256_storeu_ps(crp.add(i * ldc + j0 + LANES * t), acc_re[t]);
                    _mm256_storeu_ps(cip.add(i * ldc + j0 + LANES * t), acc_im[t]);
                }
                j0 += JT;
            }
            for j in j0..n {
                let mut acc = Complex32::ZERO;
                for p in 0..k {
                    let aim_s = a_im[i * lda + p];
                    let av = Complex32::new(a_re[i * lda + p], if conj_a { -aim_s } else { aim_s });
                    let bim_s = b_im[p * ldb + j];
                    let bv = Complex32::new(b_re[p * ldb + j], if conj_b { -bim_s } else { bim_s });
                    acc = acc.mul_add(av, bv);
                }
                c_re[i * ldc + j] = acc.re;
                c_im[i * ldc + j] = acc.im;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::cgemm_ref;

    fn rand_cvec(len: usize, seed: u64) -> Vec<Complex32> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        (0..len)
            .map(|_| {
                let mut next = || {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
                };
                Complex32::new(next(), next())
            })
            .collect()
    }

    #[test]
    fn split_matches_reference_all_conj() {
        // Sizes straddle the 32-bin AVX2 j-tile to exercise the scalar
        // tail (n = 1, 31, 33, 40) and the full-tile path (n = 64).
        for (m, n, k) in [(1, 1, 1), (3, 31, 7), (2, 33, 4), (5, 40, 3), (4, 64, 6)] {
            let a = rand_cvec(m * k, 11);
            let b = rand_cvec(k * n, 12);
            let (a_re, a_im): (Vec<f32>, Vec<f32>) = a.iter().map(|z| (z.re, z.im)).unzip();
            let (b_re, b_im): (Vec<f32>, Vec<f32>) = b.iter().map(|z| (z.re, z.im)).unzip();

            for (conj_a, conj_b) in [(false, false), (false, true), (true, false), (true, true)] {
                let aj: Vec<_> = a
                    .iter()
                    .map(|z| if conj_a { z.conj() } else { *z })
                    .collect();
                let bj: Vec<_> = b
                    .iter()
                    .map(|z| if conj_b { z.conj() } else { *z })
                    .collect();
                let mut c_ref = vec![Complex32::ZERO; m * n];
                cgemm_ref(
                    m,
                    n,
                    k,
                    Complex32::ONE,
                    &aj,
                    k,
                    &bj,
                    n,
                    Complex32::ZERO,
                    &mut c_ref,
                    n,
                );

                // NaN prefill proves overwrite semantics.
                let mut c_re = vec![f32::NAN; m * n];
                let mut c_im = vec![f32::NAN; m * n];
                cgemm_split(
                    conj_a, conj_b, m, n, k, &a_re, &a_im, k, &b_re, &b_im, n, &mut c_re,
                    &mut c_im, n,
                );
                for (i, z) in c_ref.iter().enumerate() {
                    assert!(
                        (c_re[i] - z.re).abs() < 1e-4 && (c_im[i] - z.im).abs() < 1e-4,
                        "({m},{n},{k}) conj ({conj_a},{conj_b}) elem {i}: \
                         ({},{}) vs {z:?}",
                        c_re[i],
                        c_im[i]
                    );
                }
            }
        }
    }

    #[test]
    fn split_k_zero_zeroes_output() {
        let mut c_re = vec![f32::NAN; 6];
        let mut c_im = vec![f32::NAN; 6];
        cgemm_split(
            false,
            false,
            2,
            3,
            0,
            &[],
            &[],
            1,
            &[],
            &[],
            3,
            &mut c_re,
            &mut c_im,
            3,
        );
        assert!(c_re.iter().chain(c_im.iter()).all(|&x| x == 0.0));
    }

    #[test]
    fn split_respects_leading_dimensions() {
        // ldc > n: the gap columns must stay untouched.
        let (m, n, k, ldc) = (2usize, 3usize, 2usize, 5usize);
        let a = rand_cvec(m * k, 21);
        let b = rand_cvec(k * n, 22);
        let (a_re, a_im): (Vec<f32>, Vec<f32>) = a.iter().map(|z| (z.re, z.im)).unzip();
        let (b_re, b_im): (Vec<f32>, Vec<f32>) = b.iter().map(|z| (z.re, z.im)).unzip();
        let mut c_re = vec![7.0f32; m * ldc];
        let mut c_im = vec![7.0f32; m * ldc];
        cgemm_split(
            false, false, m, n, k, &a_re, &a_im, k, &b_re, &b_im, n, &mut c_re, &mut c_im, ldc,
        );
        let mut c_ref = vec![Complex32::ZERO; m * n];
        cgemm_ref(
            m,
            n,
            k,
            Complex32::ONE,
            &a,
            k,
            &b,
            n,
            Complex32::ZERO,
            &mut c_ref,
            n,
        );
        for i in 0..m {
            for j in 0..n {
                let z = c_ref[i * n + j];
                assert!((c_re[i * ldc + j] - z.re).abs() < 1e-4);
                assert!((c_im[i * ldc + j] - z.im).abs() < 1e-4);
            }
            for j in n..ldc {
                assert_eq!(c_re[i * ldc + j], 7.0, "gap column clobbered");
                assert_eq!(c_im[i * ldc + j], 7.0, "gap column clobbered");
            }
        }
    }
}
