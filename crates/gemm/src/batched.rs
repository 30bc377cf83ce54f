//! Batched split-complex GEMM over independent problem instances: the
//! FFT convolution does one complex GEMM per frequency bin, embarrassingly
//! parallel across bins.

use crate::cgemm::cgemm_split;
use crate::sgemm::Transpose;
use rayon::prelude::*;

/// Batched **split-complex** GEMM: one `m×k · k×n` product per instance
/// with every operand a pair of re/im f32 planes, instances in parallel.
/// The frequency-domain stage of the FFT convolution calls this once
/// per pass, one instance per bin — the split layout the lane
/// transforms emit flows straight in.
/// Overwrite semantics (see [`crate::cgemm::cgemm_split`]).
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn batched_cgemm_split(
    conj_a: bool,
    conj_b: bool,
    m: usize,
    n: usize,
    k: usize,
    batch: usize,
    a_re: &[f32],
    a_im: &[f32],
    stride_a: usize,
    b_re: &[f32],
    b_im: &[f32],
    stride_b: usize,
    c_re: &mut [f32],
    c_im: &mut [f32],
    stride_c: usize,
) {
    let a = (a_re, a_im, stride_a);
    let (b, c) = ((b_re, b_im, stride_b), (c_re, c_im, stride_c));
    batched_cgemm_split_op(Transpose::No, conj_a, conj_b, m, n, k, batch, a, b, c);
}

/// [`batched_cgemm_split`] with the storage of every instance's B chosen
/// by `transb`: `[k×n]` or `[n×k]`, each at its tight leading dimension.
/// Each operand is its two planes and its instance stride.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn batched_cgemm_split_op(
    transb: Transpose,
    conj_a: bool,
    conj_b: bool,
    m: usize,
    n: usize,
    k: usize,
    batch: usize,
    (a_re, a_im, stride_a): (&[f32], &[f32], usize),
    (b_re, b_im, stride_b): (&[f32], &[f32], usize),
    (c_re, c_im, stride_c): (&mut [f32], &mut [f32], usize),
) {
    assert!(
        stride_c >= m * n || batch <= 1,
        "batched_cgemm_split: C stride too small"
    );
    let ldb = if transb == Transpose::Yes { k } else { n };
    c_re.par_chunks_mut(stride_c.max(1))
        .zip(c_im.par_chunks_mut(stride_c.max(1)))
        .take(batch)
        .enumerate()
        .for_each(|(i, (cre, cim))| {
            let a = i * stride_a..i * stride_a + m * k;
            let b = i * stride_b..i * stride_b + k * n;
            cgemm_split(
                transb,
                conj_a,
                conj_b,
                m,
                n,
                k,
                &a_re[a.clone()],
                &a_im[a],
                k,
                &b_re[b.clone()],
                &b_im[b],
                ldb,
                &mut cre[..m * n],
                &mut cim[..m * n],
                n,
            );
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::cgemm_ref;
    use gcnn_tensor::Complex32;

    /// Every instance equals the naive complex GEMM on (pre-conjugated)
    /// interleaved operands, for all four conjugation combinations and
    /// both storages of B; `n` straddles the AVX2 j-tile and the NaN
    /// prefill proves overwrite.
    #[test]
    fn batched_cgemm_split_matches_loop_of_references() {
        let (m, n, k, batch) = (3, 37, 4, 5);
        let a: Vec<Complex32> = (0..batch * m * k)
            .map(|i| Complex32::new((i % 5) as f32 - 2.0, (i % 3) as f32))
            .collect();
        let b: Vec<Complex32> = (0..batch * k * n)
            .map(|i| Complex32::new((i % 4) as f32, (i % 7) as f32 - 3.0))
            .collect();
        // Each instance's B stored `[n×k]`.
        let bt: Vec<Complex32> = (0..batch * k * n)
            .map(|e| {
                let (i, j, q) = (e / (k * n), e / k % n, e % k);
                b[i * k * n + q * n + j]
            })
            .collect();
        let planes =
            |z: &[Complex32]| -> (Vec<f32>, Vec<f32>) { z.iter().map(|z| (z.re, z.im)).unzip() };
        let (a_re, a_im) = planes(&a);

        for (transb, b_stored) in [(Transpose::No, &b), (Transpose::Yes, &bt)] {
            let (b_re, b_im) = planes(b_stored);
            for (conj_a, conj_b) in [(false, false), (false, true), (true, false), (true, true)] {
                let mut c_re = vec![f32::NAN; batch * m * n];
                let mut c_im = vec![f32::NAN; batch * m * n];
                // `[k×n]` through the wrapper the benchmark calls.
                if transb == Transpose::No {
                    batched_cgemm_split(
                        conj_a,
                        conj_b,
                        m,
                        n,
                        k,
                        batch,
                        &a_re,
                        &a_im,
                        m * k,
                        &b_re,
                        &b_im,
                        k * n,
                        &mut c_re,
                        &mut c_im,
                        m * n,
                    );
                } else {
                    let c = (&mut c_re[..], &mut c_im[..], m * n);
                    let (a_op, b_op) =
                        ((&a_re[..], &a_im[..], m * k), (&b_re[..], &b_im[..], k * n));
                    batched_cgemm_split_op(transb, conj_a, conj_b, m, n, k, batch, a_op, b_op, c);
                }

                let conj = |v: &[Complex32], on: bool| -> Vec<Complex32> {
                    v.iter().map(|z| if on { z.conj() } else { *z }).collect()
                };
                let (aj, bj) = (conj(&a, conj_a), conj(&b, conj_b));
                for i in 0..batch {
                    let mut c_ref = vec![Complex32::ZERO; m * n];
                    cgemm_ref(
                        m,
                        n,
                        k,
                        Complex32::ONE,
                        &aj[i * m * k..],
                        k,
                        &bj[i * k * n..],
                        n,
                        Complex32::ZERO,
                        &mut c_ref,
                        n,
                    );
                    for (e, z) in c_ref.iter().enumerate() {
                        let (re, im) = (c_re[i * m * n + e], c_im[i * m * n + e]);
                        assert!(
                            (re - z.re).abs() < 1e-4 && (im - z.im).abs() < 1e-4,
                            "{transb:?} conj ({conj_a},{conj_b}) instance {i} elem {e}: ({re},{im}) vs {z:?}"
                        );
                    }
                }
            }
        }
    }
}
