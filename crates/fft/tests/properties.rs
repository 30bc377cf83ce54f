//! Property-based tests for the FFT substrate: the batch-major lane
//! engine and the 2-D real transforms built on it, against the O(n²)
//! [`dft`] oracle on randomized inputs — odd lane counts, remainder
//! vector tails, both directions. Tolerances follow the GEMM suite's
//! convention: FMA contraction and reassociation legally perturb the
//! last bits and the divergence grows with the reduction depth, so the
//! budget is `max(small_abs·scale, ulps(~2·depth + 16))` rather than a
//! flat epsilon.
//!
//! The final test pins the dispatch contract: with the table forced to
//! scalar, every kernel dispatcher is *bit-identical* to its
//! directly-invoked scalar body (mirroring
//! `gemm/tests/simd_vs_scalar.rs`).

use gcnn_fft::dft::dft;
use gcnn_fft::{fft_lanes_inplace, simd, Direction, FftPlan, RfftPlan};
use gcnn_tensor::simd::Isa;
use gcnn_tensor::Complex32;
use proptest::prelude::*;

/// Distance in units-in-the-last-place between two finite f32s.
fn ulp_diff(a: f32, b: f32) -> u32 {
    if a == b {
        return 0;
    }
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

/// Closeness for reassociated reductions of depth `depth` over values
/// of magnitude ~`scale`.
fn close(a: f32, b: f32, depth: usize, scale: f32) -> bool {
    (a - b).abs() <= 1e-5 * scale.max(1.0) * (depth as f32).sqrt().max(1.0)
        || ulp_diff(a, b) <= 2 * depth as u32 + 16
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

/// One transform through the lane engine (`lanes = 1`).
fn fft(x: &[Complex32], dir: Direction) -> Vec<Complex32> {
    let plan = FftPlan::cached(x.len());
    let mut re: Vec<f32> = x.iter().map(|z| z.re).collect();
    let mut im: Vec<f32> = x.iter().map(|z| z.im).collect();
    fft_lanes_inplace(&mut re, &mut im, &plan, dir, 1);
    re.iter()
        .zip(&im)
        .map(|(&r, &i)| Complex32::new(r, i))
        .collect()
}

fn cvec(len: usize) -> impl Strategy<Value = Vec<Complex32>> {
    proptest::collection::vec((-4.0f32..4.0, -4.0f32..4.0), len).prop_map(|v| {
        v.into_iter()
            .map(|(re, im)| Complex32::new(re, im))
            .collect()
    })
}

fn pow2(max_log: u32) -> impl Strategy<Value = usize> {
    (0u32..=max_log).prop_map(|l| 1usize << l)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn roundtrip(x in pow2(9).prop_flat_map(cvec)) {
        let n = x.len();
        let back = fft(&fft(&x, Direction::Forward), Direction::Inverse);
        for (a, b) in x.iter().zip(&back) {
            prop_assert!((*a - *b).abs() < 1e-3 * (n as f32).sqrt());
        }
    }

    /// The lane engine at an arbitrary (odd, remainder-producing) lane
    /// count equals one DFT per lane, both directions.
    #[test]
    fn lane_engine_matches_per_lane_dft(
        log2n in 0u32..7,
        lanes in 1usize..20,
        inverse in any::<bool>(),
        seed in 0u64..1u64 << 32,
    ) {
        let n = 1usize << log2n;
        let plan = FftPlan::cached(n);
        let dir = if inverse { Direction::Inverse } else { Direction::Forward };
        let re0 = lcg_vec(n * lanes, seed);
        let im0 = lcg_vec(n * lanes, seed ^ 0x5a5a);

        let mut re = re0.clone();
        let mut im = im0.clone();
        fft_lanes_inplace(&mut re, &mut im, &plan, dir, lanes);

        for l in 0..lanes {
            let line: Vec<Complex32> = (0..n)
                .map(|r| Complex32::new(re0[r * lanes + l], im0[r * lanes + l]))
                .collect();
            let want = dft(&line, dir);
            for r in 0..n {
                let (gr, gi) = (re[r * lanes + l], im[r * lanes + l]);
                let w = want[r];
                prop_assert!(
                    close(gr, w.re, 4 * n, n as f32) && close(gi, w.im, 4 * n, n as f32),
                    "lane {l} row {r}: ({gr},{gi}) vs {w:?}"
                );
            }
        }
    }

    /// Parseval: ‖x‖² == ‖X‖²/n.
    #[test]
    fn parseval(x in pow2(8).prop_flat_map(cvec)) {
        let n = x.len();
        let f = fft(&x, Direction::Forward);
        let et: f32 = x.iter().map(|z| z.norm_sqr()).sum();
        let ef: f32 = f.iter().map(|z| z.norm_sqr()).sum::<f32>() / n as f32;
        prop_assert!((et - ef).abs() < 1e-2 * et.max(1.0), "{et} vs {ef}");
    }

    /// Real input ⇒ Hermitian spectrum: X[k] == conj(X[n−k]) — the
    /// symmetry the half-spectrum layout relies on.
    #[test]
    fn real_input_hermitian(v in pow2(7).prop_flat_map(|n| proptest::collection::vec(-4.0f32..4.0, n))) {
        let n = v.len();
        let x: Vec<Complex32> = v.iter().map(|&x| Complex32::from_real(x)).collect();
        let f = fft(&x, Direction::Forward);
        let scale = v.iter().map(|x| x.abs()).fold(1.0f32, f32::max) * n as f32;
        for k in 1..n {
            prop_assert!((f[k] - f[n - k].conj()).abs() < 1e-4 * scale.max(1.0));
        }
    }

    /// The 2-D rfft equals a naive 2-D DFT (the 1-D oracle over every
    /// row, then every column), bin for bin over the Hermitian
    /// half-spectrum.
    #[test]
    fn rfft_matches_naive_2d_dft(
        log2n in 0u32..6,
        seed in 0u64..1u64 << 32,
    ) {
        let n = 1usize << log2n;
        let half = n / 2 + 1;
        let plane = lcg_vec(n * n, seed);

        let plan = RfftPlan::cached(n);
        let mut sre = vec![0.0f32; plan.spectrum_len()];
        let mut sim = vec![0.0f32; plan.spectrum_len()];
        plan.forward_split_into(&plane, &mut sre, &mut sim);

        let mut full: Vec<Complex32> = plane.iter().map(|&v| Complex32::from_real(v)).collect();
        for row in full.chunks_mut(n) {
            row.copy_from_slice(&dft(row, Direction::Forward));
        }
        for c in 0..half {
            let col: Vec<Complex32> = (0..n).map(|r| full[r * n + c]).collect();
            for (r, z) in dft(&col, Direction::Forward).into_iter().enumerate() {
                full[r * n + c] = z;
            }
        }
        // The inputs sum coherently at the DC bin: scale ~ n².
        let scale = n as f32 * n as f32;
        for r in 0..n {
            for c in 0..half {
                let (gr, gi) = (sre[r * half + c], sim[r * half + c]);
                let want = full[r * n + c];
                prop_assert!(
                    close(gr, want.re, 4 * n, scale) && close(gi, want.im, 4 * n, scale),
                    "n {n} bin ({r},{c}): ({gr},{gi}) vs {want:?}"
                );
            }
        }
    }

    /// Forward→inverse through the batch entry points recovers the
    /// input.
    #[test]
    fn batch_roundtrip(
        log2n in 0u32..7,
        count in 1usize..5,
        seed in 0u64..1u64 << 32,
    ) {
        let n = 1usize << log2n;
        let plan = RfftPlan::cached(n);
        let spec_len = plan.spectrum_len();
        let x = lcg_vec(count * n * n, seed);

        let mut sre = vec![0.0f32; count * spec_len];
        let mut sim = vec![0.0f32; count * spec_len];
        gcnn_fft::rfft_forward_batch_split(&plan, &x, &mut sre, &mut sim);
        let mut back = vec![0.0f32; x.len()];
        gcnn_fft::rfft_inverse_batch_split(&plan, &sre, &sim, &mut back);

        for (i, (a, b)) in x.iter().zip(&back).enumerate() {
            prop_assert!(close(*a, *b, 4 * n, n as f32), "elem {i}: {a} vs {b}");
        }
    }

    /// The dispatched transpose equals the scalar blocked transpose on
    /// arbitrary (including non-multiple-of-8) shapes — pure data
    /// movement, so bit-exact.
    #[test]
    fn transpose_matches_scalar_any_shape(
        rows in 1usize..40,
        cols in 1usize..40,
        seed in 0u64..1u64 << 32,
    ) {
        let src = lcg_vec(rows * cols, seed);
        let mut a = vec![0.0f32; rows * cols];
        simd::transpose_f32(&src, rows, cols, &mut a, gcnn_tensor::simd::isa());
        let mut b = vec![0.0f32; rows * cols];
        simd::transpose_f32_scalar(&src, rows, cols, &mut b);
        prop_assert_eq!(a, b);
    }
}

/// The honored override: with the dispatch table forced to scalar,
/// each kernel dispatcher is bit-identical to its directly-invoked
/// scalar body (the fused double stage to two single scalar stages).
#[test]
fn forced_scalar_kernels_are_bit_identical() {
    let (n, lanes) = (16, 37); // odd lanes: exercises every remainder path
    let plan = FftPlan::cached(n);
    let (tw_re, tw_im) = plan.table_split();

    let was_scalar = gcnn_tensor::simd::isa() == Isa::Scalar;
    gcnn_tensor::simd::set_force_scalar(true);
    let isa = gcnn_tensor::simd::isa();
    assert_eq!(isa, Isa::Scalar, "force_scalar not honored by isa()");

    let (re0, im0) = (lcg_vec(n * lanes, 11), lcg_vec(n * lanes, 12));
    for conj_w in [false, true] {
        // Single stage at span 2, fused double stage at spans 2 and 4.
        let (span, stride, stride_b) = (2, n / 4, n / 8);
        let (mut re, mut im) = (re0.clone(), im0.clone());
        let (mut rs, mut is) = (re0.clone(), im0.clone());
        simd::lane_stage_dit(
            &mut re, &mut im, n, lanes, span, stride, tw_re, tw_im, conj_w, isa,
        );
        simd::lane_stage_dit_scalar(
            &mut rs, &mut is, n, lanes, span, stride, tw_re, tw_im, conj_w,
        );
        assert_eq!((&re, &im), (&rs, &is), "lane_stage_dit conj={conj_w}");

        let (mut re, mut im) = (re0.clone(), im0.clone());
        simd::lane_stage2_dit(
            &mut re, &mut im, n, lanes, span, stride, stride_b, tw_re, tw_im, conj_w, isa,
        );
        simd::lane_stage_dit_scalar(
            &mut rs,
            &mut is,
            n,
            lanes,
            span * 2,
            stride_b,
            tw_re,
            tw_im,
            conj_w,
        );
        assert_eq!((&re, &im), (&rs, &is), "lane_stage2_dit conj={conj_w}");
    }

    let (rows, cols) = (13, 21);
    let src = lcg_vec(rows * cols, 33);
    let mut t = vec![0.0f32; rows * cols];
    simd::transpose_f32(&src, rows, cols, &mut t, isa);
    let mut ts = vec![0.0f32; rows * cols];
    simd::transpose_f32_scalar(&src, rows, cols, &mut ts);
    assert_eq!(t, ts, "transpose_f32");

    // Restore the state we found so a GCNN_FORCE_SCALAR=1 run stays
    // forced afterwards.
    gcnn_tensor::simd::set_force_scalar(was_scalar);
}
