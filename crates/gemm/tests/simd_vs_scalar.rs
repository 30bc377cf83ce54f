//! SIMD kernels vs the scalar oracle.
//!
//! Every micro-kernel body this host can run
//! ([`gcnn_gemm::kernel::available`] — scalar, AVX2, and AVX-512 where
//! detected, each called directly at its own `mr × nr`), the split cgemm
//! inner loop and the full blocked driver must agree with the scalar
//! reference on randomized shapes, including remainder tiles
//! (`m_eff < mr`, `n_eff < nr`) and non-contiguous `ldc`. Tolerances are
//! stated in ulps where the comparison is elementwise: FMA contraction
//! and reassociated accumulation legally perturb the last bits, and the
//! divergence grows with the reduction depth `k` — so the budget is
//! `max(small_abs, ulps(~2k + 16))` rather than a flat epsilon.
//!
//! Both dispatch paths are exercised: these tests run the *native* table
//! (SIMD on capable hosts) against directly-invoked scalar bodies, and
//! CI re-runs the entire suite under `GCNN_FORCE_SCALAR=1`, where the
//! same assertions pin the scalar-vs-scalar identity.

use gcnn_gemm::blocking::BlockSizes;
use gcnn_gemm::kernel::{self, microkernel_scalar, MicroKernel};
use gcnn_gemm::naive::{cgemm_ref, sgemm_ref};
use gcnn_gemm::{cgemm_split, pack::OperandView, sgemm::sgemm_blocked, Transpose};
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

    /// Every available micro-kernel body equals the scalar oracle run
    /// at that body's shape, on full and zero-padded strips (packing
    /// pads partial tiles with zeros, so a random suffix of zeros per
    /// group is exactly the remainder case), for overwrite (`beta = 0`,
    /// C poisoned), accumulate and general `beta`, into a padded `ldc`.
    #[test]
    fn microkernel_matches_oracle(
        kc in 1usize..64,
        pad_rows in 0usize..6,
        pad_cols in 0usize..8,
        alpha in -2.0f32..2.0,
        beta in prop_oneof![Just(0.0f32), Just(1.0f32), -1.5f32..1.5],
        ldc_pad in 0usize..4,
        seed in 0u64..1u64 << 32,
    ) {
        for k in kernel::available() {
            let (mr, nr) = (k.mr(), k.nr());
            let ldc = nr + ldc_pad;
            let mut a = lcg_vec(kc * mr, seed);
            let mut b = lcg_vec(kc * nr, seed ^ 0xdead);
            for p in 0..kc {
                a[p * mr + mr - pad_rows..(p + 1) * mr].fill(0.0);
                b[p * nr + nr - pad_cols..(p + 1) * nr].fill(0.0);
            }
            let mut init = lcg_vec(mr * ldc, seed ^ 0xbeef);
            if beta == 0.0 {
                // Overwrite must not read C: poison the tile, not the gutter.
                for row in init.chunks_mut(ldc) {
                    row[..nr].fill(f32::NAN);
                }
            }
            let mut c = init.clone();
            let mut oracle = init.clone();
            k.run(kc, alpha, &a, &b, beta, &mut c, ldc);
            microkernel_scalar(mr, nr, kc, alpha, &a, &b, beta, &mut oracle, ldc);
            for (i, (&x, &y)) in c.iter().zip(&oracle).enumerate() {
                if i % ldc < nr {
                    prop_assert!(close(x, y, kc), "{k:?} elem {i}: {x} vs {y} ({} ulp)", ulp_diff(x, y));
                } else {
                    prop_assert_eq!(x, init[i], "{:?} wrote the ldc gutter at {}", k, i);
                }
            }
        }
    }

    /// An edge tile only touches its `m_eff × n_eff` corner of a
    /// non-contiguous C, and what it leaves there is what the full tile
    /// would have.
    #[test]
    fn edge_tiles_store_only_valid_corner(
        kc in 1usize..24,
        cut_rows in 0usize..6,
        cut_cols in 0usize..8,
        ldc_pad in 0usize..5,
        beta in prop_oneof![Just(0.0f32), Just(1.0f32), -1.5f32..1.5],
        seed in 0u64..1u64 << 32,
    ) {
        for k in kernel::available() {
            let (mr, nr) = (k.mr(), k.nr());
            let (m_eff, n_eff) = (mr - cut_rows, nr - cut_cols);
            let ldc = nr + ldc_pad;
            let a = lcg_vec(kc * mr, seed);
            let b = lcg_vec(kc * nr, seed ^ 0xabc);
            let before = lcg_vec(mr * ldc, seed ^ 0x123);
            let mut full = before.clone();
            k.run(kc, 0.75, &a, &b, beta, &mut full, ldc);
            let mut c = before.clone();
            k.run_edge(kc, 0.75, &a, &b, beta, &mut c, ldc, m_eff, n_eff);
            for (idx, &got) in c.iter().enumerate() {
                let (i, j) = (idx / ldc, idx % ldc);
                if i < m_eff && j < n_eff {
                    prop_assert!(close(got, full[idx], kc), "{k:?} ({i},{j}): {got} vs {}", full[idx]);
                } else {
                    prop_assert_eq!(got, before[idx], "{:?} touched ({}, {})", k, i, j);
                }
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
        let (av, bv) = (OperandView::new(&a, k, false), OperandView::new(&b, n, false));
        sgemm_blocked(m, n, k, alpha, &av, &bv, beta, &mut c_simd, ldc, blocks);
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
    /// reference, across both conjugation flags, both storages of B (so
    /// both bodies), vector-tail widths and a padded `ldc` whose gutter
    /// must stay untouched.
    #[test]
    fn cgemm_split_matches_reference(
        m in 1usize..12,
        n in 1usize..72,
        k in 1usize..24,
        ldc_pad in 0usize..4,
        conj_a in any::<bool>(),
        conj_b in any::<bool>(),
        b_by_rows in any::<bool>(),
        seed in 0u64..1u64 << 32,
    ) {
        let ldc = n + ldc_pad;
        let a = lcg_cvec(m * k, seed);
        let b = lcg_cvec(k * n, seed ^ 0x33);
        // `b` is `[k×n]`; `Transpose::Yes` stores its transpose.
        let (transb, stored, ldb) = if b_by_rows {
            (Transpose::No, b.clone(), n)
        } else {
            (Transpose::Yes, (0..n * k).map(|e| b[e % k * n + e / k]).collect(), k)
        };
        let (a_re, a_im): (Vec<f32>, Vec<f32>) = a.iter().map(|z| (z.re, z.im)).unzip();
        let (b_re, b_im): (Vec<f32>, Vec<f32>) = stored.iter().map(|z| (z.re, z.im)).unzip();

        let mut c_re = vec![7.0f32; m * ldc];
        let mut c_im = vec![7.0f32; m * ldc];
        cgemm_split(
            transb, conj_a, conj_b, m, n, k, &a_re, &a_im, k, &b_re, &b_im, ldb,
            &mut c_re, &mut c_im, ldc,
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

/// The honored override: with the table forced scalar, the selected
/// micro-kernel is the scalar body, bit-identical to the directly-called
/// oracle at its shape.
#[test]
fn forced_scalar_dispatch_is_bit_identical() {
    let kc = 19;
    // Restore the state we found (isa() is already Scalar when the env
    // forced it — or on a genuinely scalar host, where re-forcing is a
    // no-op), so a GCNN_FORCE_SCALAR=1 run stays forced afterwards.
    let was_scalar = gcnn_tensor::simd::isa() == gcnn_tensor::simd::Isa::Scalar;
    gcnn_tensor::simd::set_force_scalar(true);
    let k: MicroKernel = kernel::select();
    gcnn_tensor::simd::set_force_scalar(was_scalar);
    assert_eq!(k.name(), "scalar");
    let (mr, nr) = (k.mr(), k.nr());
    let a = lcg_vec(kc * mr, 7);
    let b = lcg_vec(kc * nr, 8);
    let mut c = vec![0.5; mr * nr];
    k.run(kc, 1.5, &a, &b, 1.0, &mut c, nr);
    let mut oracle = vec![0.5; mr * nr];
    microkernel_scalar(mr, nr, kc, 1.5, &a, &b, 1.0, &mut oracle, nr);
    assert_eq!(c, oracle);
}

/// Detecting AVX-512F must widen the SGEMM tile and demote nothing:
/// the split CGEMM keys on `isa() == Avx2Fma`, which must still hold.
#[test]
fn avx512_host_selects_no_scalar_body() {
    use gcnn_tensor::simd;
    if !simd::avx512f() {
        return;
    }
    assert_eq!(simd::isa(), simd::Isa::Avx2Fma);
    let names: Vec<_> = kernel::available().map(|k| k.name()).collect();
    assert_eq!(names, ["scalar", "avx2+fma", "avx512f"]);
}
