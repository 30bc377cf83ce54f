//! Batch-major split-complex transforms — the fbfft layout, and the
//! crate's one FFT engine.
//!
//! `lanes` simultaneous transforms are stored as two f32 planes in
//! **bin-major** layout — `re[bin·lanes + lane]` — so one butterfly
//! applies a single broadcast twiddle across `lanes` contiguous floats:
//! pure FMA, no shuffle, and every stage (including span 1) runs at
//! full vector width. That is fbfft's "transform many rows per pass"
//! design (PAPERS.md arXiv:1412.7580) mapped onto CPU vectors; the
//! batch dimension the lanes come from is the paper's first sweep axis.
//!
//! [`fft_lanes_inplace`] is the whole engine: a bit-reversal, the DIT
//! stages and the inverse's `1/n`; the lane passes of [`crate::rfft`] run
//! the stages alone, between loads and stores that do the other two. The
//! O(n²) [`crate::dft`] is its oracle.

use crate::plan::FftPlan;
use crate::{simd, Direction};

/// Bit-reversal permutation over transform bins: swaps whole lane rows
/// (`lanes` contiguous floats per bin), so even the permutation runs as
/// block copies instead of per-element swaps.
pub(crate) fn bitrev_rows(re: &mut [f32], im: &mut [f32], plan: &FftPlan, lanes: usize) {
    for (i, &j) in plan.bitrev_table().iter().enumerate() {
        let j = j as usize;
        if i < j {
            let (lo, hi) = re.split_at_mut(j * lanes);
            lo[i * lanes..i * lanes + lanes].swap_with_slice(&mut hi[..lanes]);
            let (lo, hi) = im.split_at_mut(j * lanes);
            lo[i * lanes..i * lanes + lanes].swap_with_slice(&mut hi[..lanes]);
        }
    }
}

/// In-place radix-2 DIT over `lanes` simultaneous transforms in
/// bin-major split layout: `re[bin·lanes + lane]`, `im[bin·lanes +
/// lane]`, natural bin order in and out. `Direction::Inverse` applies
/// the usual `1/n` scaling.
///
/// Equivalent to one [`crate::dft::dft`] per lane (the test suite pins
/// this), with every butterfly a broadcast-twiddle FMA across
/// contiguous lanes.
pub fn fft_lanes_inplace(
    re: &mut [f32],
    im: &mut [f32],
    plan: &FftPlan,
    dir: Direction,
    lanes: usize,
) {
    let n = plan.len();
    assert_eq!(re.len(), n * lanes, "fft_lanes_inplace: re plane size");
    assert_eq!(im.len(), n * lanes, "fft_lanes_inplace: im plane size");
    if lanes == 0 || n <= 1 {
        return;
    }
    bitrev_rows(re, im, plan, lanes);
    stages_from(re, im, plan, dir, lanes, 1);
    if dir == Direction::Inverse {
        let s = 1.0 / n as f32;
        gcnn_tensor::simd::sscal(s, re);
        gcnn_tensor::simd::sscal(s, im);
    }
}

/// The DIT stages of [`fft_lanes_inplace`] from span `g` on, over rows in
/// bit-reversed order, unscaled: with each row `g·j` copied over the `g − 1`
/// after it, the transform of a signal that is zero from bin `n/g` on.
pub(crate) fn stages_from(
    re: &mut [f32],
    im: &mut [f32],
    plan: &FftPlan,
    dir: Direction,
    lanes: usize,
    g: usize,
) {
    let n = plan.len();
    // One dispatch read and one split-table borrow per transform pass;
    // each stage then runs as a single kernel call with the whole block
    // × butterfly-row schedule inside the dispatch boundary
    // ([`simd::lane_stage_dit`]), instead of one dispatched call per
    // `lanes`-float row.
    let isa = gcnn_tensor::simd::isa();
    let (tw_re, tw_im) = plan.table_split();
    let conj_w = dir == Direction::Inverse;
    // Fused double stages (the radix-4 data flow) as long as two whole
    // stages remain, then at most one single stage for an odd count.
    let mut span = g;
    while span * 4 <= n {
        let stride_a = n / (span * 2);
        let stride_b = n / (span * 4);
        simd::lane_stage2_dit(
            re, im, n, lanes, span, stride_a, stride_b, tw_re, tw_im, conj_w, isa,
        );
        span *= 4;
    }
    if span * 2 <= n {
        let stride = n / (span * 2);
        simd::lane_stage_dit(re, im, n, lanes, span, stride, tw_re, tw_im, conj_w, isa);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft;
    use gcnn_tensor::Complex32;

    fn lane_signal(n: usize, lanes: usize, seed: f32) -> (Vec<f32>, Vec<f32>) {
        let re: Vec<f32> = (0..n * lanes)
            .map(|i| (i as f32 * seed + 0.2).sin())
            .collect();
        let im: Vec<f32> = (0..n * lanes)
            .map(|i| (i as f32 * (seed + 0.13) + 0.7).cos())
            .collect();
        (re, im)
    }

    /// The lane engine equals one O(n²) DFT per lane at every size up
    /// to 128, both directions, including odd lane counts that force
    /// remainder handling in every kernel.
    #[test]
    fn lanes_match_dft() {
        for n in [1usize, 2, 4, 8, 16, 32, 64, 128] {
            let plan = FftPlan::new(n);
            for lanes in [1usize, 3, 8, 33] {
                for dir in [Direction::Forward, Direction::Inverse] {
                    let (mut re, mut im) = lane_signal(n, lanes, 0.37);
                    let expect: Vec<Vec<Complex32>> = (0..lanes)
                        .map(|l| {
                            let line: Vec<Complex32> = (0..n)
                                .map(|bin| Complex32::new(re[bin * lanes + l], im[bin * lanes + l]))
                                .collect();
                            dft(&line, dir)
                        })
                        .collect();
                    fft_lanes_inplace(&mut re, &mut im, &plan, dir, lanes);
                    // Forward bins grow like n; the inverse is scaled back.
                    let scale = if dir == Direction::Forward {
                        n as f32
                    } else {
                        1.0
                    };
                    for (l, line) in expect.iter().enumerate() {
                        for (bin, &want) in line.iter().enumerate() {
                            let got = Complex32::new(re[bin * lanes + l], im[bin * lanes + l]);
                            assert!(
                                (got - want).abs() < 2e-4 * scale.max(1.0),
                                "n {n} lanes {lanes} {dir:?} lane {l} bin {bin}: {got:?} vs {want:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Forward then inverse is the identity (up to fp error).
    #[test]
    fn lanes_roundtrip() {
        let n = 32;
        let lanes = 17;
        let plan = FftPlan::new(n);
        let (re0, im0) = lane_signal(n, lanes, 0.19);
        let (mut re, mut im) = (re0.clone(), im0.clone());
        fft_lanes_inplace(&mut re, &mut im, &plan, Direction::Forward, lanes);
        fft_lanes_inplace(&mut re, &mut im, &plan, Direction::Inverse, lanes);
        for i in 0..n * lanes {
            assert!((re[i] - re0[i]).abs() < 1e-4, "re[{i}]");
            assert!((im[i] - im0[i]).abs() < 1e-4, "im[{i}]");
        }
    }

    /// From span `g`, over a signal zero from bin `n/g` on that landed
    /// bit-reversed with each row `g·j` copied over the `g − 1` rows after
    /// it, the stages are [`fft_lanes_inplace`] of that signal (the inverse
    /// scaled here): the same bits at `g = 1`, within 1e-5 of the bins'
    /// scale at every larger first span.
    #[test]
    fn stages_from_span_g_skip_the_zero_stages() {
        for n in [1usize, 2, 4, 8, 16, 32, 64, 128] {
            let plan = FftPlan::new(n);
            let rev = plan.bitrev_table();
            for lanes in [1usize, 3, 8, 33] {
                for dir in [Direction::Forward, Direction::Inverse] {
                    for g in (0..=n.trailing_zeros()).map(|e| 1usize << e) {
                        let (mut re, mut im) = lane_signal(n, lanes, 0.43);
                        re[n / g * lanes..].fill(0.0);
                        im[n / g * lanes..].fill(0.0);
                        let (mut got_re, mut got_im) =
                            (vec![f32::NAN; n * lanes], vec![f32::NAN; n * lanes]);
                        for (y, &head) in rev[..n / g].iter().enumerate() {
                            let from = y * lanes..(y + 1) * lanes;
                            for r in head as usize..head as usize + g {
                                got_re[r * lanes..][..lanes].copy_from_slice(&re[from.clone()]);
                                got_im[r * lanes..][..lanes].copy_from_slice(&im[from.clone()]);
                            }
                        }
                        stages_from(&mut got_re, &mut got_im, &plan, dir, lanes, g);
                        let scale = if dir == Direction::Inverse {
                            let s = 1.0 / n as f32;
                            gcnn_tensor::simd::sscal(s, &mut got_re);
                            gcnn_tensor::simd::sscal(s, &mut got_im);
                            1.0
                        } else {
                            n as f32
                        };
                        fft_lanes_inplace(&mut re, &mut im, &plan, dir, lanes);
                        let what = format!("n {n} lanes {lanes} {dir:?} g {g}");
                        if g == 1 {
                            let bits =
                                |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                            assert_eq!(bits(&got_re), bits(&re), "{what}: re");
                            assert_eq!(bits(&got_im), bits(&im), "{what}: im");
                        }
                        for i in 0..n * lanes {
                            let off = (got_re[i] - re[i]).abs().max((got_im[i] - im[i]).abs());
                            assert!(off < 1e-5 * scale, "{what} elem {i}: {off}");
                        }
                    }
                }
            }
        }
    }

    /// Row-block bit reversal is an involution and matches the
    /// element-wise permutation.
    #[test]
    fn bitrev_rows_matches_permutation() {
        let n = 16;
        let lanes = 5;
        let plan = FftPlan::new(n);
        let (re0, im0) = lane_signal(n, lanes, 0.29);
        let (mut re, mut im) = (re0.clone(), im0.clone());
        bitrev_rows(&mut re, &mut im, &plan, lanes);
        for (i, &j) in plan.bitrev_table().iter().enumerate() {
            for l in 0..lanes {
                assert_eq!(re[i * lanes + l], re0[j as usize * lanes + l]);
            }
        }
        bitrev_rows(&mut re, &mut im, &plan, lanes);
        assert_eq!(re, re0);
        assert_eq!(im, im0);
    }

    #[test]
    fn size_one_is_identity() {
        let plan = FftPlan::new(1);
        let mut re = vec![2.5f32; 4];
        let mut im = vec![-1.5f32; 4];
        fft_lanes_inplace(&mut re, &mut im, &plan, Direction::Forward, 4);
        assert_eq!(re, vec![2.5f32; 4]);
        fft_lanes_inplace(&mut re, &mut im, &plan, Direction::Inverse, 4);
        assert_eq!(im, vec![-1.5f32; 4]);
    }
}
