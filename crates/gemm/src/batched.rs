//! Batched split-complex GEMM over independent problem instances: one
//! complex GEMM per frequency bin, embarrassingly parallel across bins.
//! The FFT convolution itself runs [`crate::cgemm_split`] per bin inside
//! `gcnn_fft`'s fused column stage; this is the whole-spectrum form.

use crate::cgemm::cgemm_split;
use crate::sgemm::Transpose;
use rayon::prelude::*;

/// Batched **split-complex** GEMM: one `m×k · k×n` product per instance
/// with every operand a pair of re/im f32 planes, instances in parallel;
/// instance `i`'s A, B and C start at `i·stride_a`, `i·stride_b` and
/// `i·stride_c`. Overwrite semantics (see [`crate::cgemm::cgemm_split`]).
///
/// # Panics
/// Unless `c_re` and `c_im` are one length that holds every instance's C,
/// `(batch − 1)·stride_c + m·n` floats with `stride_c >= m·n` (when `batch >
/// 1`): a short C would leave its last instances uncomputed.
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
    assert!(
        stride_c >= m * n || batch <= 1,
        "batched_cgemm_split: C stride too small"
    );
    assert_eq!(
        c_re.len(),
        c_im.len(),
        "batched_cgemm_split: C planes differ in length"
    );
    let c_len = batch.saturating_sub(1) * stride_c + m * n;
    assert!(
        batch == 0 || c_re.len() >= c_len,
        "batched_cgemm_split: C short for {batch} instances"
    );
    c_re.par_chunks_mut(stride_c.max(1))
        .zip(c_im.par_chunks_mut(stride_c.max(1)))
        .take(batch)
        .enumerate()
        .for_each(|(i, (cre, cim))| {
            let a = i * stride_a..i * stride_a + m * k;
            let b = i * stride_b..i * stride_b + k * n;
            cgemm_split(
                Transpose::No,
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
                n,
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
    /// interleaved operands, for all four conjugation combinations; `n`
    /// straddles the AVX2 j-tile and the NaN prefill proves overwrite.
    #[test]
    fn batched_cgemm_split_matches_loop_of_references() {
        let (m, n, k, batch) = (3, 37, 4, 5);
        let a: Vec<Complex32> = (0..batch * m * k)
            .map(|i| Complex32::new((i % 5) as f32 - 2.0, (i % 3) as f32))
            .collect();
        let b: Vec<Complex32> = (0..batch * k * n)
            .map(|i| Complex32::new((i % 4) as f32, (i % 7) as f32 - 3.0))
            .collect();
        let planes =
            |z: &[Complex32]| -> (Vec<f32>, Vec<f32>) { z.iter().map(|z| (z.re, z.im)).unzip() };
        let ((a_re, a_im), (b_re, b_im)) = (planes(&a), planes(&b));

        for (conj_a, conj_b) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut c_re = vec![f32::NAN; batch * m * n];
            let mut c_im = vec![f32::NAN; batch * m * n];
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
                        "conj ({conj_a},{conj_b}) instance {i} elem {e}: ({re},{im}) vs {z:?}"
                    );
                }
            }
        }
    }

    /// Five `2×4 · 4×3` instances into C planes of `re` and `im` floats.
    fn five_instances_into(re: usize, im: usize) {
        let (m, n, k, batch) = (2, 3, 4, 5);
        let (a, b) = (vec![1.0f32; batch * m * k], vec![1.0f32; batch * k * n]);
        let (mut c_re, mut c_im) = (vec![0.0f32; re], vec![0.0f32; im]);
        batched_cgemm_split(
            false,
            false,
            m,
            n,
            k,
            batch,
            &a,
            &a,
            m * k,
            &b,
            &b,
            k * n,
            &mut c_re,
            &mut c_im,
            m * n,
        );
    }

    /// A C one instance short used to return with that instance never
    /// computed: the parallel loop ran out of chunks first.
    #[test]
    #[should_panic(expected = "batched_cgemm_split: C short for 5 instances")]
    fn rejects_c_one_instance_short() {
        five_instances_into(4 * 6, 4 * 6);
    }

    /// Likewise a C whose imaginary plane is short.
    #[test]
    #[should_panic(expected = "batched_cgemm_split: C planes differ in length")]
    fn rejects_c_planes_of_two_lengths() {
        five_instances_into(5 * 6, 4 * 6);
    }
}
