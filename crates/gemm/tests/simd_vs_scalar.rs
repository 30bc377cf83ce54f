//! SIMD kernels vs the scalar oracle.
//!
//! The dispatched micro-kernels ([`gcnn_gemm::kernel::microkernel`], the
//! split cgemm inner loop, the full blocked driver) must agree with the scalar
//! reference on randomized shapes, including remainder tiles
//! (`m_eff < MR`, `n_eff < NR`) and non-contiguous `ldc`. Tolerances are
//! stated in ulps where the comparison is elementwise: FMA contraction
//! and reassociated accumulation legally perturb the last bits, and the
//! divergence grows with the reduction depth `k` — so the budget is
//! `max(small_abs, ulps(~2k + 16))` rather than a flat epsilon.
//!
//! Both dispatch paths are exercised: these tests run the *native* table
//! (SIMD on capable hosts) against directly-invoked scalar bodies, and
//! CI re-runs the entire suite under `GCNN_FORCE_SCALAR=1`, where the
//! same assertions pin the scalar-vs-scalar identity.

use gcnn_gemm::blocking::{BlockSizes, MR, NR};
use gcnn_gemm::kernel::{microkernel, microkernel_scalar, writeback_tile};
use gcnn_gemm::naive::{cgemm_ref, sgemm_ref};
use gcnn_gemm::{cgemm_split, sgemm::sgemm_blocked, Transpose};
use gcnn_tensor::Complex32;
use proptest::prelude::*;

/// Distance in units-in-the-last-place between two finite f32s.
fn ulp_diff(a: f32, b: f32) -> u32 {
    if a == b {
        return 0;
    }
    // Map the sign-magnitude bit pattern onto a monotone integer line.
    fn key(x: f32) -> i64 {
        let bits = x.to_bits() as i32;
        (if bits < 0 {
            i32::MIN.wrapping_sub(bits)
        } else {
            bits
        }) as i64
    }
    (key(a) - key(b)).unsigned_abs().min(u32::MAX as u64) as u32
}

/// Elementwise closeness for reassociated/FMA'd reductions of depth `k`:
/// pass on a small absolute slack (subtractive cancellation near zero)
/// or an ulp budget that scales with the reduction depth.
fn close(a: f32, b: f32, k: usize) -> bool {
    (a - b).abs() <= 1e-5 * (k as f32).sqrt().max(1.0) || ulp_diff(a, b) <= 2 * k as u32 + 16
}

fn lcg_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        })
        .collect()
}

fn lcg_cvec(len: usize, seed: u64) -> Vec<Complex32> {
    let raw = lcg_vec(2 * len, seed);
    raw.chunks(2).map(|p| Complex32::new(p[0], p[1])).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The dispatched micro-kernel equals the scalar oracle on full and
    /// zero-padded strips (packing pads partial tiles with zeros, so a
    /// random prefix of zeros per group is exactly the remainder case).
    #[test]
    fn microkernel_matches_oracle(
        kc in 1usize..64,
        pad_rows in 0usize..MR,
        pad_cols in 0usize..NR,
        alpha in -2.0f32..2.0,
        seed in 0u64..1u64 << 32,
    ) {
        let mut a = lcg_vec(kc * MR, seed);
        let mut b = lcg_vec(kc * NR, seed ^ 0xdead);
        // Zero the padded tail of each group, as pack_a/pack_b would for
        // an (MR - pad_rows) × (NR - pad_cols) edge tile.
        for p in 0..kc {
            for r in MR - pad_rows..MR {
                a[p * MR + r] = 0.0;
            }
            for c in NR - pad_cols..NR {
                b[p * NR + c] = 0.0;
            }
        }
        let init = lcg_vec(MR * NR, seed ^ 0xbeef);
        let mut acc = init.clone();
        let mut oracle = init;
        microkernel(kc, alpha, &a, &b, &mut acc);
        microkernel_scalar(kc, alpha, &a, &b, &mut oracle);
        for (i, (&x, &y)) in acc.iter().zip(&oracle).enumerate() {
            prop_assert!(close(x, y, kc), "elem {i}: {x} vs {y} ({} ulp)", ulp_diff(x, y));
        }
    }

    /// `writeback_tile` with a partial tile and non-contiguous ldc only
    /// touches the `m_eff × n_eff` window and adds exactly the
    /// accumulator values.
    #[test]
    fn writeback_remainder_tiles(
        m_eff in 1usize..=MR,
        n_eff in 1usize..=NR,
        ldc_pad in 0usize..5,
        row0 in 0usize..3,
        col0 in 0usize..3,
        seed in 0u64..1u64 << 32,
    ) {
        let ldc = col0 + n_eff + ldc_pad;
        let rows = row0 + m_eff + 1;
        let acc = lcg_vec(MR * NR, seed);
        let before = lcg_vec(rows * ldc, seed ^ 0xabc);
        let mut c = before.clone();
        writeback_tile(&acc, &mut c, ldc, row0, col0, m_eff, n_eff);
        for r in 0..rows {
            for col in 0..ldc {
                let inside = (row0..row0 + m_eff).contains(&r)
                    && (col0..col0 + n_eff).contains(&col);
                let want = if inside {
                    before[r * ldc + col] + acc[(r - row0) * NR + (col - col0)]
                } else {
                    before[r * ldc + col]
                };
                prop_assert!(
                    close(c[r * ldc + col], want, 1),
                    "({r},{col}): {} vs {want}", c[r * ldc + col]
                );
            }
        }
    }

    /// Full blocked SGEMM under the native dispatch table vs the naive
    /// reference, over shapes that force remainder tiles on every edge
    /// and a non-contiguous C (`ldc > n`).
    #[test]
    fn sgemm_matches_reference(
        m in 1usize..48,
        n in 1usize..48,
        k in 1usize..48,
        ldc_pad in 0usize..4,
        alpha in -1.5f32..1.5,
        beta in -1.0f32..1.0,
        tiny in any::<bool>(),
        seed in 0u64..1u64 << 32,
    ) {
        let ldc = n + ldc_pad;
        let a = lcg_vec(m * k, seed);
        let b = lcg_vec(k * n, seed ^ 0x11);
        let c0 = lcg_vec(m * ldc, seed ^ 0x22);
        let blocks = if tiny { BlockSizes::tiny() } else { BlockSizes::default_sizes() };

        let mut c_simd = c0.clone();
        sgemm_blocked(
            Transpose::No, Transpose::No, m, n, k, alpha,
            &a, k, &b, n, beta, &mut c_simd, ldc, blocks,
        );
        let mut c_ref = c0.clone();
        sgemm_ref(false, false, m, n, k, alpha, &a, k, &b, n, beta, &mut c_ref, ldc);

        for i in 0..m {
            for j in 0..n {
                let (x, y) = (c_simd[i * ldc + j], c_ref[i * ldc + j]);
                prop_assert!(close(x, y, k), "({i},{j}): {x} vs {y} ({} ulp)", ulp_diff(x, y));
            }
            // The ldc gutter is beta-scaled by neither path.
            for j in n..ldc {
                prop_assert_eq!(c_simd[i * ldc + j], c0[i * ldc + j]);
            }
        }
    }

    /// Split-complex GEMM (AVX2 plane FMAs on capable hosts) vs the naive
    /// reference, across both conjugation flags, vector-tail widths and
    /// a padded `ldc` whose gutter must stay untouched.
    #[test]
    fn cgemm_split_matches_reference(
        m in 1usize..12,
        n in 1usize..72,
        k in 1usize..24,
        ldc_pad in 0usize..4,
        conj_a in any::<bool>(),
        conj_b in any::<bool>(),
        seed in 0u64..1u64 << 32,
    ) {
        let ldc = n + ldc_pad;
        let a = lcg_cvec(m * k, seed);
        let b = lcg_cvec(k * n, seed ^ 0x33);
        let (a_re, a_im): (Vec<f32>, Vec<f32>) = a.iter().map(|z| (z.re, z.im)).unzip();
        let (b_re, b_im): (Vec<f32>, Vec<f32>) = b.iter().map(|z| (z.re, z.im)).unzip();

        let mut c_re = vec![7.0f32; m * ldc];
        let mut c_im = vec![7.0f32; m * ldc];
        cgemm_split(
            conj_a, conj_b, m, n, k, &a_re, &a_im, k, &b_re, &b_im, n, &mut c_re, &mut c_im, ldc,
        );

        // Reference on pre-conjugated operands (cgemm_ref has no flags).
        let ar: Vec<Complex32> = if conj_a { a.iter().map(|z| z.conj()).collect() } else { a };
        let br: Vec<Complex32> = if conj_b { b.iter().map(|z| z.conj()).collect() } else { b };
        let mut c_ref = vec![Complex32::ZERO; m * n];
        cgemm_ref(m, n, k, Complex32::ONE, &ar, k, &br, n, Complex32::ZERO, &mut c_ref, n);

        for i in 0..m {
            for j in 0..n {
                let (x, y) = (c_re[i * ldc + j], c_im[i * ldc + j]);
                let z = c_ref[i * n + j];
                prop_assert!(
                    close(x, z.re, 2 * k) && close(y, z.im, 2 * k),
                    "({i},{j}): ({x},{y}) vs {z}"
                );
            }
            for j in n..ldc {
                prop_assert_eq!((c_re[i * ldc + j], c_im[i * ldc + j]), (7.0, 7.0));
            }
        }
    }
}

/// The honored override: with the table forced scalar, the dispatched
/// micro-kernel is bit-identical to the directly-called scalar body.
#[test]
fn forced_scalar_dispatch_is_bit_identical() {
    let kc = 19;
    let a = lcg_vec(kc * MR, 7);
    let b = lcg_vec(kc * NR, 8);
    // Restore the state we found (isa() is already Scalar when the env
    // forced it — or on a genuinely scalar host, where re-forcing is a
    // no-op), so a GCNN_FORCE_SCALAR=1 run stays forced afterwards.
    let was_scalar = gcnn_tensor::simd::isa() == gcnn_tensor::simd::Isa::Scalar;
    gcnn_tensor::simd::set_force_scalar(true);
    let mut acc = vec![0.5; MR * NR];
    microkernel(kc, 1.5, &a, &b, &mut acc);
    gcnn_tensor::simd::set_force_scalar(was_scalar);
    let mut oracle = vec![0.5; MR * NR];
    microkernel_scalar(kc, 1.5, &a, &b, &mut oracle);
    assert_eq!(acc, oracle);
}
