//! Complex GEMM — the Fourier-domain product of the FFT convolution
//! strategy.
//!
//! fbfft's hotspot profile (paper Fig. 4f) shows its runtime split
//! between FFT transforms, layout transposes and "Cgemm" — a batched
//! complex matrix product, one `[f×c]·[c×b]` GEMM per frequency bin.
//! This module provides that product on the CPU in the split-complex
//! layout the FFT lane engine emits, parallelized by the caller over
//! bins, as two generic bodies over [`Lanes`] (`__m256`/`float32x4_t` in
//! a `#[target_feature]` shim per ISA, `f32` for leftovers and the scalar
//! tier): with B stored `[k×n]` the **row** body puts output columns on
//! the vector, with B `[n×k]` the **dot** body the summed axis. The caller
//! picks by shape alone: with both output axes under [`ROW_TILE`], the
//! row body would be all remainder. [`crate::naive::cgemm_ref`] is the
//! oracle of both.

use crate::sgemm::{check_operand, Transpose};
use gcnn_tensor::simd::{self, Isa, Lanes};
use std::ops::Range;

/// Output columns of a row-body tile at `__m256`: fixed, so a caller's
/// choice of body does not depend on the ISA.
pub const ROW_TILE: usize = 32;

/// `C ← opa(A)·opb(B)` for **split-complex** row-major matrices: every
/// operand is a pair of f32 planes (`re`, `im`) sharing one leading
/// dimension. Overwrite semantics (the batched frequency-domain product
/// always runs with `alpha = 1, beta = 0`). `conj_a`/`conj_b` conjugate
/// the operand elementwise — exactly the variant the FFT-convolution
/// passes need, where correlation in the spatial domain is conjugation in
/// the Fourier domain; `transb` stores B `[k×n]` (`No`, the row body) or
/// `[n×k]` (`Yes`, the dot body).
///
/// # Panics
/// If `lda`, `ldb` or `ldc` is smaller than the stored row of its
/// matrix, or a plane is shorter than `(rows − 1)·ld + cols` of its
/// matrix — the raw bodies load and store through pointers on the
/// strength of these checks.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn cgemm_split(
    transb: Transpose,
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
    let dots = transb == Transpose::Yes;
    let (b_rows, b_cols) = if dots { (n, k) } else { (k, n) };
    check_operand("cgemm_split", "a", a_re, m, k, lda);
    check_operand("cgemm_split", "a", a_im, m, k, lda);
    check_operand("cgemm_split", "b", b_re, b_rows, b_cols, ldb);
    check_operand("cgemm_split", "b", b_im, b_rows, b_cols, ldb);
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
        dots,
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
/// each plane covers `(rows − 1)·ld + cols` of its matrix, `ld ≥ cols`,
/// B being `[n×k]` if `dots`, else `[k×n]`.
struct Product<'a> {
    dots: bool,
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
            // detection; `self` carries the bodies' extent contract.
            Isa::Avx2Fma => unsafe { cgemm_split_avx2::<CONJ_A, CONJ_B>(self) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is baseline on AArch64; contract as above.
            Isa::Neon => unsafe { cgemm_split_neon::<CONJ_A, CONJ_B>(self) },
            // SAFETY: `f32` lanes need no ISA; contract as above.
            _ => unsafe { cgemm_split_body::<f32, CONJ_A, CONJ_B>(self) },
        }
    }
}

/// The body of `p`'s orientation at `V`.
///
/// # Safety
/// The CPU must support `V`'s ISA and `p` must hold what [`Product`]
/// documents.
#[inline(always)]
unsafe fn cgemm_split_body<V: Lanes, const CONJ_A: bool, const CONJ_B: bool>(p: Product<'_>) {
    // SAFETY: forwarded contract.
    unsafe {
        match p.dots {
            true => cgemm_split_dots::<V, CONJ_A, CONJ_B>(p),
            false => cgemm_split_rows::<V, 4, CONJ_A, CONJ_B>(0..p.n, p),
        }
    }
}

/// Row body of [`cgemm_split`] (B `[k×n]`) over output columns `cols`, in
/// tiles of `VECS` vectors: per k-step it broadcasts `a.re`/`±a.im` and
/// issues `c_re += ar·br − ai·bi`, `c_im += ar·bi + ai·br` — four FMAs per
/// vector and zero shuffles. Columns past the last whole tile run as this
/// body at `f32` lanes.
///
/// # Safety
/// The CPU must support `V`'s ISA, `p` must hold what [`Product`]
/// documents and `cols` lie inside `0..n`. `#[inline(always)]` so the
/// intrinsics inline into the `#[target_feature]` caller.
#[inline(always)]
unsafe fn cgemm_split_rows<V: Lanes, const VECS: usize, const CONJ_A: bool, const CONJ_B: bool>(
    cols: Range<usize>,
    p: Product<'_>,
) {
    let tile = VECS * V::N;
    let tiled = cols.end - cols.len() % tile;
    for i in 0..p.m {
        // In bounds: A covers `(m − 1)·lda + k`.
        let (a_re, a_im) = (&p.a_re[i * p.lda..][..p.k], &p.a_im[i * p.lda..][..p.k]);
        for j0 in (cols.start..tiled).step_by(tile) {
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
    let rest = tiled..cols.end;
    // SAFETY: the columns left over, at `f32` lanes: four a tile, then one.
    unsafe {
        match tile > 4 {
            _ if rest.is_empty() => {}
            true => cgemm_split_rows::<f32, 4, CONJ_A, CONJ_B>(rest, p),
            false => cgemm_split_rows::<f32, 1, CONJ_A, CONJ_B>(rest, p),
        }
    }
}

/// Dot body of [`cgemm_split`] (B `[n×k]`): each output is one dot
/// product of an A row and a B row — whole vectors through [`split_dot`]
/// at `V`, the `k % V::N` remainder through it at `V = f32`, added last.
///
/// # Safety
/// The CPU must support `V`'s ISA and `p` must hold what [`Product`]
/// documents. `#[inline(always)]` as for the row body.
#[inline(always)]
unsafe fn cgemm_split_dots<V: Lanes, const CONJ_A: bool, const CONJ_B: bool>(p: Product<'_>) {
    let main = p.k - p.k % V::N;
    for i in 0..p.m {
        // In bounds: A covers `(m − 1)·lda + k`, B `(n − 1)·ldb + k`.
        let a = (&p.a_re[i * p.lda..][..p.k], &p.a_im[i * p.lda..][..p.k]);
        for j in 0..p.n {
            let b = (&p.b_re[j * p.ldb..][..p.k], &p.b_im[j * p.ldb..][..p.k]);
            // SAFETY: whole vectors of `V` inside rows of `k` floats; the
            // caller vouches for `V`'s ISA.
            let (re, im) = unsafe { split_dot::<V, CONJ_A, CONJ_B>(a, b, 0..main) };
            // SAFETY: the rest, at one `f32` lane.
            let (tail_re, tail_im) = unsafe { split_dot::<f32, CONJ_A, CONJ_B>(a, b, main..p.k) };
            p.c_re[i * p.ldc + j] = re + tail_re;
            p.c_im[i * p.ldc + j] = im + tail_im;
        }
    }
}

/// `Σ_q opa(a_q)·opb(b_q)` over `q` in `range`, as `(re, im)`: four
/// accumulators (`re·re`, `im·im`, `re·im`, `im·re`), combined by the
/// conjugations' signs (`re = rr − sa·sb·ii`, `im = sb·ri + sa·ir`), each
/// sum's lanes then added in order.
///
/// # Safety
/// The CPU must support `V`'s ISA, and `range` must be whole `V` vectors
/// inside all four rows.
#[inline(always)]
unsafe fn split_dot<V: Lanes, const CONJ_A: bool, const CONJ_B: bool>(
    (a_re, a_im): (&[f32], &[f32]),
    (b_re, b_im): (&[f32], &[f32]),
    range: Range<usize>,
) -> (f32, f32) {
    // SAFETY: every load reads `[q, q + V::N)` inside `range`, which the
    // caller keeps inside the rows; a store writes `V::N <= 16` floats
    // into a 16-float array.
    unsafe {
        let mut acc = [V::splat(0.0); 4];
        for q in range.step_by(V::N) {
            let [ar, ai, br, bi] = [a_re, a_im, b_re, b_im].map(|row| V::load(row.as_ptr().add(q)));
            for (acc, (x, y)) in acc.iter_mut().zip([(ar, br), (ai, bi), (ar, bi), (ai, br)]) {
                *acc = acc.fma(x, y);
            }
        }
        let [rr, ii, ri, ir] = acc;
        let (re, im) = match (CONJ_A, CONJ_B) {
            (false, false) | (true, true) => (rr.sub(ii), ri.add(ir)),
            (true, false) => (rr.add(ii), ri.sub(ir)),
            (false, true) => (rr.add(ii), ir.sub(ri)),
        };
        let mut lanes = [[0.0f32; 16]; 2];
        re.store(lanes[0].as_mut_ptr());
        im.store(lanes[1].as_mut_ptr());
        let [re, im] = lanes.map(|l| l.iter().take(V::N).sum::<f32>());
        (re, if CONJ_A && CONJ_B { -im } else { im })
    }
}

/// # Safety
/// The bodies' contract; AVX2 and FMA detected.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn cgemm_split_avx2<const CONJ_A: bool, const CONJ_B: bool>(p: Product<'_>) {
    // SAFETY: forwarded contract; this fn enables `__m256`'s ISA.
    unsafe { cgemm_split_body::<std::arch::x86_64::__m256, CONJ_A, CONJ_B>(p) }
}

/// # Safety
/// The bodies' contract; NEON is baseline on AArch64.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn cgemm_split_neon<const CONJ_A: bool, const CONJ_B: bool>(p: Product<'_>) {
    // SAFETY: forwarded contract; this fn enables the NEON ISA.
    unsafe { cgemm_split_body::<std::arch::aarch64::float32x4_t, CONJ_A, CONJ_B>(p) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::cgemm_ref;
    use gcnn_tensor::Complex32;

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

    /// One product of `m×n` outputs over `k`, with B stored as `transb`
    /// says, for all four conjugations: every instantiation of its body
    /// this host can run — the host's vector through the dispatcher
    /// (scalar under `GCNN_FORCE_SCALAR=1`), and `f32` called directly —
    /// matches the reference, with every leading dimension padded by
    /// `pad` (the gutters NaN) and a NaN-poisoned C whose gutter stays
    /// NaN; and two runs agree bit for bit.
    fn check_product(transb: Transpose, (m, n, k): (usize, usize, usize), pad: usize) {
        /// # Safety
        /// [`cgemm_split_body`]'s contract.
        type Body = unsafe fn(Product<'_>);
        let one_lane: [[Body; 2]; 2] = [
            [
                cgemm_split_body::<f32, false, false>,
                cgemm_split_body::<f32, false, true>,
            ],
            [
                cgemm_split_body::<f32, true, false>,
                cgemm_split_body::<f32, true, true>,
            ],
        ];
        let dots = transb == Transpose::Yes;
        let b_cols = if dots { k } else { n };
        let (lda, ldb, ldc) = (k + pad, b_cols + pad, n + pad);
        let seed = (m * 1000 + n * 100 + k) as u64;
        let (a, b) = (rand_cvec(m * k, seed), rand_cvec(k * n, seed + 1));
        // `b` is `[k×n]`; stored `[n×k]`, it is transposed.
        let stored: Vec<Complex32> = match transb {
            Transpose::No => b.clone(),
            Transpose::Yes => (0..n * k).map(|e| b[e % k * n + e / k]).collect(),
        };
        let ((a_re, a_im), (b_re, b_im)) = (planes(&a, k, lda), planes(&stored, b_cols, ldb));
        for (conj_a, conj_b) in [(false, false), (false, true), (true, false), (true, true)] {
            let conj = |z: &[Complex32], on: bool| -> Vec<Complex32> {
                z.iter().map(|z| if on { z.conj() } else { *z }).collect()
            };
            let (aj, bj) = (conj(&a, conj_a), conj(&b, conj_b));
            let mut want = vec![Complex32::ZERO; m * n];
            let (one, zero) = (Complex32::ONE, Complex32::ZERO);
            cgemm_ref(m, n, k, one, &aj, k, &bj, n, zero, &mut want, n);

            let check = |what: &str, product: &dyn Fn(&mut [f32], &mut [f32])| {
                // NaN prefill proves overwrite semantics, and that the
                // gutter columns stay untouched.
                let run = || {
                    let mut c = (vec![f32::NAN; m * ldc], vec![f32::NAN; m * ldc]);
                    product(&mut c.0, &mut c.1);
                    c
                };
                let (c_re, c_im) = run();
                let bits = |c: &(Vec<f32>, Vec<f32>)| -> Vec<u32> {
                    c.0.iter().chain(&c.1).map(|v| v.to_bits()).collect()
                };
                let what = format!("{what} {transb:?} m {m} n {n} k {k} conj ({conj_a},{conj_b})");
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
                    transb, conj_a, conj_b, m, n, k, &a_re, &a_im, lda, &b_re, &b_im, ldb, c_re,
                    c_im, ldc,
                )
            });
            check("f32", &|c_re, c_im| {
                let (a_re, a_im, b_re, b_im) = (&a_re[..], &a_im[..], &b_re[..], &b_im[..]);
                let p = Product {
                    dots,
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
                // SAFETY: `f32` lanes need no ISA; every plane covers
                // `(rows − 1)·ld + cols` of its matrix.
                unsafe { one_lane[conj_a as usize][conj_b as usize](p) }
            });
        }
    }

    /// The row body (B `[k×n]`) on widths around the 32-column and
    /// 4-column tiles: all remainder, exact, one over, several tiles.
    #[test]
    fn split_matches_reference_all_conj() {
        for (n, pad) in [(1usize, 0usize), (4, 2), (31, 0), (32, 3), (33, 1), (96, 5)] {
            check_product(Transpose::No, (3, n, 7), pad);
        }
    }

    /// The dot body (B `[n×k]`) on sums around the vector widths — all
    /// remainder, whole vectors, one over — and up to Conv1's 96 filters
    /// and one past, at every output shape of `m, n ∈ {1, 3, 4}`.
    #[test]
    fn transposed_matches_reference_all_conj() {
        for k in [1, 7, 8, 9, 16, 17, 96, 97] {
            for (m, n) in [1, 3, 4]
                .into_iter()
                .flat_map(|m| [1, 3, 4].map(|n| (m, n)))
            {
                check_product(Transpose::Yes, (m, n, k), 1 + k % 3);
            }
        }
    }

    #[test]
    fn split_k_zero_zeroes_output() {
        let mut c_re = vec![f32::NAN; 6];
        let mut c_im = vec![f32::NAN; 6];
        cgemm_split(
            Transpose::No,
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
            Transpose::No,
            false,
            false,
            m,
            n,
            k,
            &a_re,
            &a_im,
            k,
            &b_re,
            &b_im,
            n,
            &mut c_re,
            &mut c_im,
            ldc,
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
