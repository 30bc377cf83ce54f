//! Complex GEMM — the Fourier-domain product of the FFT convolution
//! strategy.
//!
//! fbfft's hotspot profile (paper Fig. 4f) shows its runtime split
//! between FFT transforms, layout transposes and "Cgemm" — a batched
//! complex matrix product, one `[f×c]·[c×b]` GEMM per frequency bin.
//! This module provides that product on the CPU in the split-complex
//! layout the FFT lane engine emits, parallelized by the caller over
//! bins: one generic row-tile body over [`Lanes`]
//! (`cgemm_split_rows`), instantiated at `__m256` and `float32x4_t`
//! inside a `#[target_feature]` shim per ISA, above a scalar kernel.
//! [`crate::naive::cgemm_ref`] is its oracle.

use crate::sgemm::check_operand;
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
use gcnn_tensor::simd::Lanes;
use gcnn_tensor::simd::{self, Isa};
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
/// pipeline: per k-step the SIMD body broadcasts `a.re`/`a.im` and runs
/// four FMAs per vector of bins — no `permute`, no `addsub`, no
/// interleaved loads. Conjugation is a sign flip folded into the
/// broadcast (`conj_a`) or the choice between an FMA and its negated
/// twin (`conj_b`), never a shuffle or a pass over an operand.
///
/// # Panics
/// If `lda`, `ldb` or `ldc` is smaller than the stored row of its
/// matrix (`k`, `n`, `n`), or a plane is shorter than
/// `(rows − 1)·ld + cols` of its matrix — the raw body loads B and
/// stores C through pointers on the strength of these checks.
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
    check_operand("cgemm_split", "a", a_re, m, k, lda);
    check_operand("cgemm_split", "a", a_im, m, k, lda);
    check_operand("cgemm_split", "b", b_re, k, n, ldb);
    check_operand("cgemm_split", "b", b_im, k, n, ldb);
    check_operand("cgemm_split", "c", c_re, m, n, ldc);
    check_operand("cgemm_split", "c", c_im, m, n, ldc);
    if k == 0 {
        // Empty sum: the product is zero (and A and B went unchecked).
        for i in 0..m {
            c_re[i * ldc..i * ldc + n].fill(0.0);
            c_im[i * ldc..i * ldc + n].fill(0.0);
        }
        return;
    }
    let p = Product {
        m,
        n,
        k,
        a_re,
        a_im,
        lda,
        b_re,
        b_im,
        ldb,
        c_re,
        c_im,
        ldc,
    };
    match (conj_a, conj_b) {
        (false, false) => p.run::<false, false>(),
        (false, true) => p.run::<false, true>(),
        (true, false) => p.run::<true, false>(),
        (true, true) => p.run::<true, true>(),
    }
}

/// One product with `k ≥ 1` whose operands [`cgemm_split`] has checked:
/// each plane covers `(rows − 1)·ld + cols` of its matrix, `ld ≥ cols`.
struct Product<'a> {
    m: usize,
    n: usize,
    k: usize,
    a_re: &'a [f32],
    a_im: &'a [f32],
    lda: usize,
    b_re: &'a [f32],
    b_im: &'a [f32],
    ldb: usize,
    c_re: &'a mut [f32],
    c_im: &'a mut [f32],
    ldc: usize,
}

impl Product<'_> {
    /// Dispatch on the ISA, the conjugation resolved at compile time.
    fn run<const CONJ_A: bool, const CONJ_B: bool>(self) {
        match simd::isa() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2Fma` is only selected after runtime AVX2+FMA
            // detection; `self` carries the body's extent contract.
            Isa::Avx2Fma => unsafe { cgemm_split_rows_avx2::<CONJ_A, CONJ_B>(self) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is baseline on AArch64; contract as above.
            Isa::Neon => unsafe { cgemm_split_rows_neon::<CONJ_A, CONJ_B>(self) },
            _ => cgemm_split_kernel::<CONJ_A, CONJ_B>(self, 0),
        }
    }
}

/// Monomorphized scalar body of [`cgemm_split`] over columns `j0..n`, in
/// per-element [`Complex32`] arithmetic: the scalar tier (`j0 = 0`),
/// and what the SIMD body hands the columns past its last whole tile.
/// `CONJ_A`/`CONJ_B` are const so conjugation costs nothing on the
/// `(false, false)` path.
fn cgemm_split_kernel<const CONJ_A: bool, const CONJ_B: bool>(p: Product<'_>, j0: usize) {
    for i in 0..p.m {
        for j in j0..p.n {
            let mut acc = Complex32::ZERO;
            for q in 0..p.k {
                let ai = p.a_im[i * p.lda + q];
                let av = Complex32::new(p.a_re[i * p.lda + q], if CONJ_A { -ai } else { ai });
                let bi = p.b_im[q * p.ldb + j];
                let bv = Complex32::new(p.b_re[q * p.ldb + j], if CONJ_B { -bi } else { bi });
                acc = acc.mul_add(av, bv);
            }
            p.c_re[i * p.ldc + j] = acc.re;
            p.c_im[i * p.ldc + j] = acc.im;
        }
    }
}

/// SIMD body of [`cgemm_split`]: row tiles of `VECS` vectors of bins
/// per plane. Per k-step it broadcasts `a.re`/`±a.im` and issues
/// `c_re += ar·br − ai·bi`, `c_im += ar·bi + ai·br` — four FMAs per
/// vector of complex bins and zero shuffles. Columns past the last
/// whole tile go to the scalar kernel.
///
/// # Safety
/// The CPU must support `V`'s ISA and `p` must hold what [`Product`]
/// documents. `#[inline(always)]` so the intrinsics inline into the
/// `#[target_feature]` caller.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[inline(always)]
unsafe fn cgemm_split_rows<V: Lanes, const CONJ_A: bool, const CONJ_B: bool>(p: Product<'_>) {
    // Vectors per plane of one row tile: with the imaginary plane, eight
    // independent FMA chains.
    const VECS: usize = 4;
    let tile = VECS * V::N;
    let tiled = p.n - p.n % tile;
    for i in 0..p.m {
        // In bounds: A covers `(m − 1)·lda + k`.
        let (a_re, a_im) = (&p.a_re[i * p.lda..][..p.k], &p.a_im[i * p.lda..][..p.k]);
        for j0 in (0..tiled).step_by(tile) {
            // SAFETY: the tile is columns `[j0, j0 + tile)` with
            // `j0 + tile <= n`, of B rows `q < k` and C row `i < m`:
            // inside the `(rows − 1)·ld + cols` extents `Product`
            // guarantees, all through raw pointers.
            unsafe {
                let mut acc_re = [V::splat(0.0); VECS];
                let mut acc_im = [V::splat(0.0); VECS];
                for (q, (&ar, &ai)) in a_re.iter().zip(a_im).enumerate() {
                    // conj(A) is a sign on the broadcast; conj(B) turns
                    // the two FMAs `bi` enters into their negated twins.
                    let (ar, ai) = (V::splat(ar), V::splat(if CONJ_A { -ai } else { ai }));
                    let b_re = p.b_re.as_ptr().add(q * p.ldb + j0);
                    let b_im = p.b_im.as_ptr().add(q * p.ldb + j0);
                    for (t, (re, im)) in acc_re.iter_mut().zip(&mut acc_im).enumerate() {
                        let (br, bi) = (V::load(b_re.add(t * V::N)), V::load(b_im.add(t * V::N)));
                        if CONJ_B {
                            *re = re.fma(ar, br).fma(ai, bi);
                            *im = im.fnma(ar, bi).fma(ai, br);
                        } else {
                            *re = re.fma(ar, br).fnma(ai, bi);
                            *im = im.fma(ar, bi).fma(ai, br);
                        }
                    }
                }
                for (t, (re, im)) in acc_re.iter().zip(&acc_im).enumerate() {
                    re.store(p.c_re.as_mut_ptr().add(i * p.ldc + j0 + t * V::N));
                    im.store(p.c_im.as_mut_ptr().add(i * p.ldc + j0 + t * V::N));
                }
            }
        }
    }
    if tiled < p.n {
        cgemm_split_kernel::<CONJ_A, CONJ_B>(p, tiled);
    }
}

/// # Safety
/// [`cgemm_split_rows`]'s contract; AVX2 and FMA detected.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn cgemm_split_rows_avx2<const CONJ_A: bool, const CONJ_B: bool>(p: Product<'_>) {
    // SAFETY: forwarded contract; this fn enables `__m256`'s ISA.
    unsafe { cgemm_split_rows::<std::arch::x86_64::__m256, CONJ_A, CONJ_B>(p) }
}

/// # Safety
/// [`cgemm_split_rows`]'s contract; NEON is baseline on AArch64.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn cgemm_split_rows_neon<const CONJ_A: bool, const CONJ_B: bool>(p: Product<'_>) {
    // SAFETY: forwarded contract; this fn enables the NEON ISA.
    unsafe { cgemm_split_rows::<std::arch::aarch64::float32x4_t, CONJ_A, CONJ_B>(p) }
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

    /// The re and im planes of a row-major `rows × cols` matrix at
    /// leading dimension `ld`, the gutter NaN so that a kernel reading
    /// it poisons its result.
    fn planes(z: &[Complex32], cols: usize, ld: usize) -> (Vec<f32>, Vec<f32>) {
        let mut out = (
            vec![f32::NAN; z.len() / cols * ld],
            vec![f32::NAN; z.len() / cols * ld],
        );
        for (i, row) in z.chunks(cols).enumerate() {
            for (j, v) in row.iter().enumerate() {
                (out.0[i * ld + j], out.1[i * ld + j]) = (v.re, v.im);
            }
        }
        out
    }

    /// Every instantiation of the row body this host can run — the
    /// host's vector through the dispatcher (scalar under
    /// `GCNN_FORCE_SCALAR=1`), and `f32` called directly — matches the
    /// reference for all four conjugations, on widths around the
    /// 32-bin and 4-bin tiles (all-remainder, exact, one over, several
    /// tiles), with padded leading dimensions and a NaN-poisoned C;
    /// and two runs agree bit for bit.
    #[test]
    fn split_matches_reference_all_conj() {
        /// # Safety
        /// [`cgemm_split_rows`]'s contract.
        type Rows = unsafe fn(Product<'_>);
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        let one_lane: [[Rows; 2]; 2] = [
            [
                cgemm_split_rows::<f32, false, false>,
                cgemm_split_rows::<f32, false, true>,
            ],
            [
                cgemm_split_rows::<f32, true, false>,
                cgemm_split_rows::<f32, true, true>,
            ],
        ];
        let (m, k) = (3, 7);
        for (n, pad) in [(1usize, 0usize), (4, 2), (31, 0), (32, 3), (33, 1), (96, 5)] {
            let (lda, ldb, ldc) = (k + pad, n + pad, n + pad);
            let a = rand_cvec(m * k, 11 + n as u64);
            let b = rand_cvec(k * n, 12 + n as u64);
            let ((a_re, a_im), (b_re, b_im)) = (planes(&a, k, lda), planes(&b, n, ldb));
            for (conj_a, conj_b) in [(false, false), (false, true), (true, false), (true, true)] {
                let conj = |z: &[Complex32], on: bool| -> Vec<Complex32> {
                    z.iter().map(|z| if on { z.conj() } else { *z }).collect()
                };
                let (aj, bj) = (conj(&a, conj_a), conj(&b, conj_b));
                let mut want = vec![Complex32::ZERO; m * n];
                let (one, zero) = (Complex32::ONE, Complex32::ZERO);
                cgemm_ref(m, n, k, one, &aj, k, &bj, n, zero, &mut want, n);

                let check = |what: &str, product: &dyn Fn(&mut [f32], &mut [f32])| {
                    // NaN prefill proves overwrite semantics, and that
                    // the gutter columns stay untouched.
                    let run = || {
                        let mut c = (vec![f32::NAN; m * ldc], vec![f32::NAN; m * ldc]);
                        product(&mut c.0, &mut c.1);
                        c
                    };
                    let (c_re, c_im) = run();
                    let bits = |c: &(Vec<f32>, Vec<f32>)| -> Vec<u32> {
                        c.0.iter().chain(&c.1).map(|v| v.to_bits()).collect()
                    };
                    let what = format!("{what} n {n} pad {pad} conj ({conj_a},{conj_b})");
                    assert_eq!(bits(&(c_re.clone(), c_im.clone())), bits(&run()), "{what}");
                    for (i, (re, im)) in c_re.iter().zip(&c_im).enumerate() {
                        if i % ldc < n {
                            let z = want[i / ldc * n + i % ldc];
                            assert!(
                                (re - z.re).abs() < 1e-4 && (im - z.im).abs() < 1e-4,
                                "{what} elem {i}: ({re},{im}) vs {z:?}"
                            );
                        } else {
                            assert!(re.is_nan() && im.is_nan(), "{what}: gutter {i} written");
                        }
                    }
                };
                check("dispatched", &|c_re, c_im| {
                    cgemm_split(
                        conj_a, conj_b, m, n, k, &a_re, &a_im, lda, &b_re, &b_im, ldb, c_re, c_im,
                        ldc,
                    )
                });
                #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
                check("f32", &|c_re, c_im| {
                    let (a_re, a_im, b_re, b_im) = (&a_re[..], &a_im[..], &b_re[..], &b_im[..]);
                    let p = Product {
                        m,
                        n,
                        k,
                        a_re,
                        a_im,
                        lda,
                        b_re,
                        b_im,
                        ldb,
                        c_re,
                        c_im,
                        ldc,
                    };
                    // SAFETY: `f32` lanes need no ISA; every plane
                    // covers `(rows − 1)·ld + cols` of its matrix.
                    unsafe { one_lane[conj_a as usize][conj_b as usize](p) }
                });
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
