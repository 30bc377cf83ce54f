//! Precondition tests for the lane-kernel entry points: an ISA the host
//! does not run, a plane that does not cover `n·lanes`, an impossible
//! stage geometry, a short twiddle table or a short transpose buffer
//! must panic with a message at the API boundary — the raw bodies load and store through pointers
//! on the strength of these checks, so they are `assert!`s, live in
//! release builds too. Likewise the lane transforms, whose units write a
//! shared output side by side: extents and lane order are rejected up
//! front, before any unit has written anything.

use gcnn_fft::rfft::BLOCK_LANES;
use gcnn_fft::simd::{lane_stage2_dit, lane_stage_dit, transpose_f32};
use gcnn_fft::{Columns, LaneOrder, RfftPlan};
use gcnn_tensor::simd::{isa, Isa};

const N: usize = 8;
const LANES: usize = 4;

#[test]
#[should_panic(expected = "plane extent mismatch")]
fn stage_rejects_short_plane() {
    let mut re = [0.0f32; N * LANES];
    let mut im = [0.0f32; N * LANES - 1];
    let tw = [1.0f32; N / 2];
    lane_stage_dit(&mut re, &mut im, N, LANES, 1, N / 2, &tw, &tw, false, isa());
}

#[test]
#[should_panic(expected = "invalid stage geometry")]
fn stage_rejects_span_past_half() {
    let mut re = [0.0f32; N * LANES];
    let mut im = [0.0f32; N * LANES];
    let tw = [1.0f32; N];
    lane_stage_dit(&mut re, &mut im, N, LANES, N, 1, &tw, &tw, false, isa());
}

#[test]
#[should_panic(expected = "twiddle table short")]
fn stage_rejects_strided_short_twiddle_table() {
    let mut re = [0.0f32; N * LANES];
    let mut im = [0.0f32; N * LANES];
    // span 4 at stride 2 reads up to tw[(4 − 1)·2] = tw[6].
    let tw = [1.0f32; 4];
    lane_stage_dit(&mut re, &mut im, N, LANES, 4, 2, &tw, &tw, false, isa());
}

#[test]
#[should_panic(expected = "invalid fused geometry")]
fn stage2_rejects_span_past_quarter() {
    let mut re = [0.0f32; N * LANES];
    let mut im = [0.0f32; N * LANES];
    let tw = [1.0f32; N];
    lane_stage2_dit(&mut re, &mut im, N, LANES, 4, 1, 1, &tw, &tw, false, isa());
}

#[test]
#[should_panic(expected = "stride mismatch")]
fn stage2_rejects_inconsistent_strides() {
    let mut re = [0.0f32; N * LANES];
    let mut im = [0.0f32; N * LANES];
    let tw = [1.0f32; N];
    // s = 1 needs stride_a = n/2 = 4 and stride_b = n/4 = 2.
    lane_stage2_dit(&mut re, &mut im, N, LANES, 1, 4, 1, &tw, &tw, false, isa());
}

#[test]
#[should_panic(expected = "src short")]
fn transpose_rejects_short_source() {
    let src = [0.0f32; 11];
    let mut dst = [0.0f32; 12];
    transpose_f32(&src, 3, 4, &mut dst, isa());
}

#[test]
#[should_panic(expected = "dst short")]
fn transpose_rejects_short_destination() {
    let src = [0.0f32; 12];
    let mut dst = [0.0f32; 11];
    transpose_f32(&src, 3, 4, &mut dst, isa());
}

/// A vector ISA this host cannot execute (on a host with no SIMD at all,
/// either one).
fn foreign_isa() -> Isa {
    let foreign = [Isa::Avx2Fma, Isa::Neon]
        .into_iter()
        .find(|isa| !isa.runs_here());
    foreign.expect("no host runs both AVX2 and NEON")
}

#[test]
#[should_panic(expected = "host lacks")]
fn stage_rejects_foreign_isa() {
    let mut re = [0.0f32; N * LANES];
    let mut im = [0.0f32; N * LANES];
    let tw = [1.0f32; N / 2];
    let foreign = foreign_isa();
    lane_stage_dit(
        &mut re,
        &mut im,
        N,
        LANES,
        1,
        N / 2,
        &tw,
        &tw,
        false,
        foreign,
    );
}

#[test]
#[should_panic(expected = "host lacks")]
fn stage2_rejects_foreign_isa() {
    let mut re = [0.0f32; N * LANES];
    let mut im = [0.0f32; N * LANES];
    let tw = [1.0f32; N / 2];
    let foreign = foreign_isa();
    lane_stage2_dit(
        &mut re, &mut im, N, LANES, 1, 4, 2, &tw, &tw, false, foreign,
    );
}

#[test]
#[should_panic(expected = "host lacks")]
fn transpose_rejects_foreign_isa() {
    let src = [0.0f32; 12];
    let mut dst = [0.0f32; 12];
    transpose_f32(&src, 3, 4, &mut dst, foreign_isa());
}

/// The forced-scalar override narrows what `isa()` selects, not what the
/// host runs: naming the detected ISA explicitly stays legal under it.
#[test]
fn detected_isa_stays_callable_under_forced_scalar() {
    let host = [Isa::Avx2Fma, Isa::Neon, Isa::Scalar]
        .into_iter()
        .find(|isa| isa.runs_here());
    let src = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
    let mut dst = [0.0f32; 6];
    transpose_f32(&src, 2, 3, &mut dst, host.expect("scalar always runs"));
    assert_eq!(dst, [1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
}

/// `lanes` windows of 2×2 through the 8×8 plan's lane forward, with
/// `src_len` source floats.
fn forward_lanes(src_len: usize, order: LaneOrder, lanes: usize) {
    let p = RfftPlan::new(N);
    let mut sre = vec![0.0f32; p.spectrum_len() * lanes];
    let mut sim = sre.clone();
    let src = vec![1.0f32; src_len];
    p.forward_lanes_into(&src, (2, 2), 0, order, lanes, &mut sre, &mut sim);
}

/// The cropped lane inverse of `lanes` zero spectra into `out_len`
/// floats.
fn inverse_lanes(out_len: usize, size: usize, order: LaneOrder, lanes: usize) {
    let p = RfftPlan::new(N);
    let mut sre = vec![0.0f32; p.spectrum_len() * lanes];
    let mut sim = sre.clone();
    let mut out = vec![f32::NAN; out_len];
    p.inverse_lanes_into(&mut sre, &mut sim, lanes, (size, 0), order, &mut out);
}

#[test]
#[should_panic(expected = "forward_lanes: src size")]
fn forward_lanes_rejects_a_window_outside_src() {
    forward_lanes(6 * 4 - 1, LaneOrder::Identity, 6);
}

#[test]
#[should_panic(expected = "the grid is not the lanes")]
fn forward_lanes_rejects_a_grid_of_other_lanes() {
    forward_lanes(6 * 4, LaneOrder::Transposed { rows: 2, cols: 2 }, 6);
}

#[test]
#[should_panic(expected = "inverse_lanes: out size")]
fn inverse_lanes_rejects_short_out() {
    inverse_lanes(6 * 9 - 1, 3, LaneOrder::Identity, 6);
}

#[test]
#[should_panic(expected = "inverse_lanes: out size")]
fn inverse_lanes_rejects_long_out() {
    inverse_lanes(6 * 9 + 1, 3, LaneOrder::Identity, 6);
}

#[test]
#[should_panic(expected = "inverse_lanes: im size")]
fn inverse_lanes_rejects_short_spectra() {
    let p = RfftPlan::new(N);
    let mut sre = vec![0.0f32; p.spectrum_len() * 6];
    let mut sim = vec![0.0f32; p.spectrum_len() * 6 - 1];
    let mut out = [0.0f32; 6 * 9];
    p.inverse_lanes_into(&mut sre, &mut sim, 6, (3, 0), LaneOrder::Identity, &mut out);
}

#[test]
#[should_panic(expected = "the grid is not the lanes")]
fn inverse_lanes_rejects_a_grid_that_wraps() {
    // 2⁶³·2 wraps to 0 and (2⁶³ + 3)·2 to 6: `checked_mul` sees both.
    let rows = (1usize << (usize::BITS - 1)) + 3;
    inverse_lanes(6 * 9, 3, LaneOrder::Transposed { rows, cols: 2 }, 6);
}

/// No lanes: nothing to check out, nothing written, no division by a
/// zero block.
#[test]
fn zero_lanes_is_a_no_op() {
    forward_lanes(0, LaneOrder::Identity, 0);
    inverse_lanes(0, 3, LaneOrder::Transposed { rows: 0, cols: 5 }, 0);
}

/// A rejected call panics before its first region opens, with nothing
/// written, and the pool serves the next call: three lane blocks at width
/// 2 give the bits width 1 gives.
#[test]
fn pool_serves_the_call_after_a_rejected_one() {
    let p = RfftPlan::new(N);
    let lanes = 2 * BLOCK_LANES + 7;
    let src: Vec<f32> = (0..lanes * 4).map(|i| (i as f32 * 0.61).cos()).collect();
    let spectra = |width: usize, src: &[f32]| {
        let mut sre = vec![f32::NAN; p.spectrum_len() * lanes];
        let mut sim = sre.clone();
        let pool = rayon::ThreadPoolBuilder::new().num_threads(width);
        let outcome = pool.build().expect("pool").install(|| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                p.forward_lanes_into(
                    src,
                    (2, 2),
                    1,
                    LaneOrder::Identity,
                    lanes,
                    &mut sre,
                    &mut sim,
                )
            }))
        });
        (outcome.is_ok(), sre, sim)
    };
    let (ok, sre, _) = spectra(2, &src[1..]);
    assert!(
        !ok && sre.iter().all(|v| v.is_nan()),
        "rejected before any unit wrote"
    );
    let wide = spectra(2, &src);
    assert!(wide.0 && wide == spectra(1, &src));
}

/// The fused column stage of the 8×8 plan (5 columns): factors of 6 and 4
/// lanes over rows `1..3` and `0..2`, the product's 3 lanes over crop rows
/// `crop`; `cut` drops that many floats from the operand it names. A
/// rejected call must leave the product's NaN planes untouched; its panic
/// is then passed on.
fn product_columns(
    cut: (&str, usize),
    a_rows: std::ops::Range<usize>,
    crop: std::ops::Range<usize>,
) {
    let p = RfftPlan::new(N);
    let half = p.half_cols();
    let len = |what: &str, lanes: usize, rows: usize| {
        half * rows * lanes - if cut.0 == what { cut.1 } else { 0 }
    };
    let (a, b) = (vec![1.0f32; len("a", 6, 2)], vec![1.0f32; len("b", 4, 2)]);
    let mut c_re = vec![f32::NAN; half * crop.len() * 3];
    let mut c_im = vec![f32::NAN; len("c", 3, crop.len())];
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        p.product_columns(
            Columns {
                re: &a[..],
                im: &a[..],
                lanes: 6,
                rows: a_rows.clone(),
            },
            Columns {
                re: &b[..],
                im: &b[..],
                lanes: 4,
                rows: 0..2,
            },
            Columns {
                re: &mut c_re[..],
                im: &mut c_im[..],
                lanes: 3,
                rows: crop.clone(),
            },
            |_, _, (re, im)| {
                re.fill(0.0);
                im.fill(0.0);
            },
        )
    }));
    assert!(
        c_re.iter().all(|v| v.is_nan()),
        "rejected before any unit wrote"
    );
    if let Err(panic) = outcome {
        std::panic::resume_unwind(panic);
    }
}

#[test]
#[should_panic(expected = "product_columns: a re size")]
fn product_columns_rejects_short_factor_rows() {
    product_columns(("a", 1), 1..3, 5..8);
}

#[test]
#[should_panic(expected = "product_columns: b re size")]
fn product_columns_rejects_short_second_factor() {
    product_columns(("b", 1), 1..3, 5..8);
}

#[test]
#[should_panic(expected = "product_columns: c im size")]
fn product_columns_rejects_short_product() {
    product_columns(("c", 1), 1..3, 5..8);
}

#[test]
#[should_panic(expected = "product_columns: a rows exceed plan")]
fn product_columns_rejects_a_window_outside_the_plan() {
    product_columns(("", 0), 7..9, 5..8);
}

#[test]
#[should_panic(expected = "product_columns: c rows exceed plan")]
fn product_columns_rejects_a_crop_outside_the_plan() {
    product_columns(("", 0), 1..3, 6..9);
}

#[test]
#[should_panic(expected = "forward_rows: re size")]
fn forward_rows_rejects_rows_of_another_height() {
    let p = RfftPlan::new(N);
    let mut re = vec![0.0f32; p.half_cols() * 3 * 6];
    let mut im = re.clone();
    p.forward_rows_into(
        &[1.0; 6 * 4],
        (2, 2),
        0,
        LaneOrder::Identity,
        6,
        &mut re,
        &mut im,
    );
}

#[test]
#[should_panic(expected = "inverse_rows: out size")]
fn inverse_rows_rejects_short_out() {
    let p = RfftPlan::new(N);
    let rows = vec![0.0f32; p.half_cols() * 3 * 6];
    let mut out = vec![0.0f32; 6 * 9 - 1];
    p.inverse_rows_into(&rows, &rows, 6, (3, 0), LaneOrder::Identity, &mut out);
}

/// The inverse consumes its spectra, but only once it runs: a call
/// rejected on its last check (the lane order) leaves the spectra and `out`
/// as they were.
#[test]
fn rejected_inverse_leaves_spectra_and_out_untouched() {
    let p = RfftPlan::new(N);
    let lanes = 2 * BLOCK_LANES + 7;
    let spectra: Vec<f32> = (0..p.spectrum_len() * lanes)
        .map(|i| (i as f32 * 0.29).sin())
        .collect();
    let (mut sre, mut sim) = (spectra.clone(), spectra.clone());
    let mut out = vec![f32::NAN; lanes * 9];
    let wraps = LaneOrder::Transposed {
        rows: 2,
        cols: lanes / 2 + 1,
    };
    let pool = rayon::ThreadPoolBuilder::new().num_threads(2);
    let outcome = pool.build().expect("pool").install(|| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.inverse_lanes_into(&mut sre, &mut sim, lanes, (3, 0), wraps, &mut out)
        }))
    });
    assert!(outcome.is_err(), "a grid of other lanes is rejected");
    assert!(sre == spectra && sim == spectra, "spectra untouched");
    assert!(out.iter().all(|v| v.is_nan()), "out untouched");
}
