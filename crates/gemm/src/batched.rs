//! Batched GEMM over independent problem instances.
//!
//! The unrolling convolution does one GEMM per image of the mini-batch
//! (Caffe-style) and the FFT convolution does one complex GEMM per
//! frequency bin; both are embarrassingly parallel across instances.

use crate::sgemm::{sgemm, Transpose};
use rayon::prelude::*;

/// Geometry shared by every instance of a batched real GEMM.
#[derive(Debug, Clone, Copy)]
pub struct BatchedGemmDesc {
    /// Transpose flag for A.
    pub transa: Transpose,
    /// Transpose flag for B.
    pub transb: Transpose,
    /// Rows of `op(A)` and C.
    pub m: usize,
    /// Columns of `op(B)` and C.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// Scale on the product.
    pub alpha: f32,
    /// Scale on the existing C.
    pub beta: f32,
}

/// Run `desc` over equal-size strided batches: instance `i` uses
/// `a[i·stride_a ..]`, `b[i·stride_b ..]`, `c[i·stride_c ..]`.
///
/// Instances run in parallel; C strides must be at least `m·n` so the
/// output chunks are disjoint.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn batched_sgemm(
    desc: &BatchedGemmDesc,
    batch: usize,
    a: &[f32],
    stride_a: usize,
    b: &[f32],
    stride_b: usize,
    c: &mut [f32],
    stride_c: usize,
) {
    assert!(
        stride_c >= desc.m * desc.n || batch <= 1,
        "batched_sgemm: C stride {stride_c} smaller than one output ({}x{})",
        desc.m,
        desc.n
    );
    let (ar, ac) = match desc.transa {
        Transpose::No => (desc.m, desc.k),
        Transpose::Yes => (desc.k, desc.m),
    };
    let (br, bc) = match desc.transb {
        Transpose::No => (desc.k, desc.n),
        Transpose::Yes => (desc.n, desc.k),
    };
    let _ = (ar, br);

    c.par_chunks_mut(stride_c.max(1))
        .take(batch)
        .enumerate()
        .for_each(|(i, cchunk)| {
            let abase = &a[i * stride_a..i * stride_a + ar * ac];
            let bbase = &b[i * stride_b..i * stride_b + br * bc];
            sgemm(
                desc.transa,
                desc.transb,
                desc.m,
                desc.n,
                desc.k,
                desc.alpha,
                abase,
                ac,
                bbase,
                bc,
                desc.beta,
                &mut cchunk[..desc.m * desc.n],
                desc.n,
            );
        });
}

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
    assert!(
        stride_c >= m * n || batch <= 1,
        "batched_cgemm_split: C stride too small"
    );
    c_re.par_chunks_mut(stride_c.max(1))
        .zip(c_im.par_chunks_mut(stride_c.max(1)))
        .take(batch)
        .enumerate()
        .for_each(|(i, (cre, cim))| {
            crate::cgemm::cgemm_split(
                conj_a,
                conj_b,
                m,
                n,
                k,
                &a_re[i * stride_a..i * stride_a + m * k],
                &a_im[i * stride_a..i * stride_a + m * k],
                k,
                &b_re[i * stride_b..i * stride_b + k * n],
                &b_im[i * stride_b..i * stride_b + k * n],
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
    use crate::naive::{cgemm_ref, sgemm_ref};
    use gcnn_tensor::Complex32;

    #[test]
    fn batched_matches_loop_of_references() {
        let desc = BatchedGemmDesc {
            transa: Transpose::No,
            transb: Transpose::No,
            m: 5,
            n: 4,
            k: 3,
            alpha: 1.0,
            beta: 0.0,
        };
        let batch = 6;
        let a: Vec<f32> = (0..batch * 15).map(|i| (i % 7) as f32 - 3.0).collect();
        let b: Vec<f32> = (0..batch * 12).map(|i| (i % 5) as f32 - 2.0).collect();
        let mut c = vec![0.0f32; batch * 20];
        batched_sgemm(&desc, batch, &a, 15, &b, 12, &mut c, 20);

        for i in 0..batch {
            let mut c_ref = vec![0.0f32; 20];
            sgemm_ref(
                false,
                false,
                5,
                4,
                3,
                1.0,
                &a[i * 15..],
                3,
                &b[i * 12..],
                4,
                0.0,
                &mut c_ref,
                4,
            );
            assert_eq!(&c[i * 20..(i + 1) * 20], &c_ref[..]);
        }
    }

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
        let (a_re, a_im): (Vec<f32>, Vec<f32>) = a.iter().map(|z| (z.re, z.im)).unzip();
        let (b_re, b_im): (Vec<f32>, Vec<f32>) = b.iter().map(|z| (z.re, z.im)).unzip();

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

    #[test]
    fn single_instance_allows_tight_stride() {
        let desc = BatchedGemmDesc {
            transa: Transpose::No,
            transb: Transpose::No,
            m: 2,
            n: 2,
            k: 2,
            alpha: 1.0,
            beta: 0.0,
        };
        let a = [1.0, 0.0, 0.0, 1.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [0.0f32; 4];
        batched_sgemm(&desc, 1, &a, 0, &b, 0, &mut c, 4);
        assert_eq!(c, b);
    }
}
