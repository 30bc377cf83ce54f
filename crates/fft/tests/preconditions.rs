//! Precondition tests for the lane-kernel entry points: an ISA the host
//! does not run, a plane that does not cover `n·lanes`, an impossible
//! stage geometry, a short twiddle table or a short transpose buffer
//! must panic with a message at the API boundary — the raw bodies load and store through pointers
//! on the strength of these checks, so they are `assert!`s, live in
//! release builds too.

use gcnn_fft::simd::{lane_stage2_dit, lane_stage_dit, transpose_f32};
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
