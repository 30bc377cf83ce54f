//! SIMD kernels of the batch-major split-complex lane engine.
//!
//! The engine ([`crate::split::fft_lanes_inplace`]) stores `lanes`
//! simultaneous transforms as two f32 planes in bin-major layout, so a
//! butterfly applies one broadcast twiddle across `lanes` contiguous
//! floats: pure FMA, no shuffle, vectorized at every stage including
//! span 1 (the fbfft layout, PAPERS.md arXiv:1412.7580). Three kernels
//! carry it:
//!
//! * [`lane_stage_dit`] — one whole radix-2 DIT stage per call.
//! * [`lane_stage2_dit`] — two consecutive stages fused into one pass
//!   (the radix-4 data flow).
//! * [`transpose_f32`] — the blocked transpose that converts between
//!   the row and column passes of the 2-D transform.
//!
//! Each stage is one generic body over [`Lanes`] (`lane_stage`,
//! `lane_stage2`), instantiated at `__m256` and `float32x4_t` inside a
//! `#[target_feature]` shim per ISA; the `lanes % V::N` floats a row
//! has left over run through the same row code at `V = f32`, so every
//! butterfly is written once. The transpose is `gcnn_tensor`'s strided
//! [`gcnn_tensor::simd::transpose`], in [`Lanes::transpose`] blocks.
//!
//! Dispatch is on an [`Isa`] the caller resolves once per transform
//! (`gcnn_tensor::simd::isa`); each entry asserts that the host runs it
//! ([`Isa::runs_here`]), so safe code cannot name an ISA the CPU lacks. The `*_scalar` functions are the scalar
//! tier of the engine — what runs on hosts without SIMD and under
//! `GCNN_FORCE_SCALAR=1`, bit-identically through the dispatchers — and
//! the oracle the generic bodies are tested against.

// Targets with no vector ISA here reach only the `*_scalar` tier.
#![cfg_attr(
    not(any(target_arch = "x86_64", target_arch = "aarch64")),
    allow(dead_code, unused_variables)
)]

use gcnn_tensor::simd::{Isa, Lanes};
use gcnn_tensor::Complex32;

/// One stage call in raw form: what the generic bodies take.
struct Stage<'a> {
    /// The two planes, each valid for `n·lanes` floats.
    re: *mut f32,
    im: *mut f32,
    n: usize,
    lanes: usize,
    tw_re: &'a [f32],
    tw_im: &'a [f32],
    conj_w: bool,
}

impl<'a> Stage<'a> {
    /// # Panics
    /// Unless both planes are exactly `n·lanes` floats, which the raw
    /// pointers then stand for.
    #[allow(clippy::too_many_arguments)]
    fn new(
        entry: &str,
        re: &mut [f32],
        im: &mut [f32],
        n: usize,
        lanes: usize,
        tw_re: &'a [f32],
        tw_im: &'a [f32],
        conj_w: bool,
    ) -> Self {
        assert!(
            n.checked_mul(lanes) == Some(re.len()) && im.len() == re.len(),
            "{entry}: plane extent mismatch"
        );
        let (re, im) = (re.as_mut_ptr(), im.as_mut_ptr());
        Stage {
            re,
            im,
            n,
            lanes,
            tw_re,
            tw_im,
            conj_w,
        }
    }

    /// Twiddle `k` in this stage's direction. The reads are
    /// bounds-checked, so a short table panics and never over-reads.
    #[inline(always)]
    fn twiddle(&self, k: usize) -> (f32, f32) {
        let wi = self.tw_im[k];
        (self.tw_re[k], if self.conj_w { -wi } else { wi })
    }
}

/// A vector of complex lanes: `(re, im)`.
type C<V> = (V, V);

/// The `V::N` complex lanes at offset `at` of the planes.
///
/// # Safety
/// The CPU must support `V`'s ISA and both planes must be valid for
/// `at + V::N` floats.
#[inline(always)]
unsafe fn load<V: Lanes>(s: &Stage<'_>, at: usize) -> C<V> {
    // SAFETY: forwarded contract.
    unsafe { (V::load(s.re.add(at)), V::load(s.im.add(at))) }
}

/// Write `x` to offset `at` of the planes.
///
/// # Safety
/// As [`load`].
#[inline(always)]
unsafe fn store<V: Lanes>(s: &Stage<'_>, at: usize, x: C<V>) {
    // SAFETY: forwarded contract.
    unsafe {
        x.0.store(s.re.add(at));
        x.1.store(s.im.add(at));
    }
}

/// `(x + y, x − y)` per lane.
///
/// # Safety
/// The CPU must support `V`'s ISA.
#[inline(always)]
unsafe fn butterfly<V: Lanes>(x: C<V>, y: C<V>) -> (C<V>, C<V>) {
    // SAFETY: forwarded contract.
    unsafe { ((x.0.add(y.0), x.1.add(y.1)), (x.0.sub(y.0), x.1.sub(y.1))) }
}

/// `x·w` per lane: `re = x.re·w.re − x.im·w.im`,
/// `im = x.im·w.re + x.re·w.im`, one multiply and one fused
/// multiply-add each.
///
/// # Safety
/// The CPU must support `V`'s ISA.
#[inline(always)]
unsafe fn cmul<V: Lanes>(x: C<V>, w: C<V>) -> C<V> {
    // SAFETY: forwarded contract.
    unsafe { (x.0.mul(w.0).fnma(x.1, w.1), x.1.mul(w.0).fma(x.0, w.1)) }
}

/// Lanes `from..to` (a whole number of `V`s) of one radix-2 row pair:
/// the rows at plane offsets `a` and `b` become `a + w·b`, `a − w·b`.
/// `w = None` is the `w = 1` row every block starts with, which skips
/// the complex multiply entirely.
///
/// # Safety
/// The CPU must support `V`'s ISA and both planes must be valid for
/// `a + to` and `b + to` floats.
#[inline(always)]
unsafe fn radix2_row<V: Lanes>(
    s: &Stage<'_>,
    (a, b): (usize, usize),
    (from, to): (usize, usize),
    w: Option<(f32, f32)>,
) {
    // SAFETY: every access is `V::N` floats at `row + l` with
    // `l + V::N <= to`, inside the extent the caller guarantees.
    unsafe {
        let Some(w) = w else {
            for l in (from..to).step_by(V::N) {
                let (sum, diff) = butterfly(load::<V>(s, a + l), load(s, b + l));
                store(s, a + l, sum);
                store(s, b + l, diff);
            }
            return;
        };
        let w = (V::splat(w.0), V::splat(w.1));
        for l in (from..to).step_by(V::N) {
            let (sum, diff) = butterfly(load::<V>(s, a + l), cmul(load(s, b + l), w));
            store(s, a + l, sum);
            store(s, b + l, diff);
        }
    }
}

/// Lanes `from..to` (a whole number of `V`s) of one fused row group:
/// the four rows at plane offsets `r` are loaded once, carried through
/// both butterfly levels in registers and stored once. `w` is
/// `[wa, wb1, wb2]`: stage A's twiddle (shared by both of its pairs)
/// and stage B's two. `w = None` is the `j = 0` group, where
/// `wa = wb1 = 1` and `wb2 = tw[n/4] = ∓i`, so `wb2·u3` is a
/// swap-and-negate, folded into the last butterfly as FMAs against a
/// broadcast ±1 (exact, so they round like the adds and subtracts they
/// stand for, and the direction costs neither a branch nor a pointer).
///
/// # Safety
/// The CPU must support `V`'s ISA and both planes must be valid for
/// `r[q] + to` floats, `q < 4`.
#[inline(always)]
unsafe fn radix4_row<V: Lanes>(
    s: &Stage<'_>,
    r: [usize; 4],
    (from, to): (usize, usize),
    w: Option<[(f32, f32); 3]>,
) {
    // SAFETY: every access is `V::N` floats at `r[q] + l` with
    // `l + V::N <= to`, inside the extent the caller guarantees.
    unsafe {
        let Some(w) = w else {
            let sign = V::splat(if s.conj_w { -1.0 } else { 1.0 });
            for l in (from..to).step_by(V::N) {
                let (u0, u1) = butterfly(load::<V>(s, r[0] + l), load(s, r[1] + l));
                let (u2, u3) = butterfly(load::<V>(s, r[2] + l), load(s, r[3] + l));
                let (v0, v2) = butterfly(u0, u2);
                store(s, r[0] + l, v0);
                store(s, r[2] + l, v2);
                // Rows 1, 3 ← u1 ± wb2·u3, with ∓i·u3 = ±(u3.im, −u3.re).
                store(s, r[1] + l, (u1.0.fma(sign, u3.1), u1.1.fnma(sign, u3.0)));
                store(s, r[3] + l, (u1.0.fnma(sign, u3.1), u1.1.fma(sign, u3.0)));
            }
            return;
        };
        let [wa, wb1, wb2] = w.map(|w| (V::splat(w.0), V::splat(w.1)));
        for l in (from..to).step_by(V::N) {
            // Stage A: rows 0, 1 ← a ± wa·b; rows 2, 3 ← c ± wa·d.
            let (u0, u1) = butterfly(load::<V>(s, r[0] + l), cmul(load(s, r[1] + l), wa));
            let (u2, u3) = butterfly(load::<V>(s, r[2] + l), cmul(load(s, r[3] + l), wa));
            // Stage B: rows 0, 2 ← u0 ± wb1·u2; rows 1, 3 ← u1 ± wb2·u3.
            let (v0, v2) = butterfly(u0, cmul(u2, wb1));
            let (v1, v3) = butterfly(u1, cmul(u3, wb2));
            store(s, r[0] + l, v0);
            store(s, r[1] + l, v1);
            store(s, r[2] + l, v2);
            store(s, r[3] + l, v3);
        }
    }
}

/// SIMD body of [`lane_stage_dit`]: every `(start, j)` row pair of the
/// stage schedule, each row as whole `V` vectors and then one lane at
/// a time over the `lanes % V::N` floats left.
///
/// # Safety
/// The CPU must support `V`'s ISA, `s.re`/`s.im` must be valid for
/// `s.n·s.lanes` floats and the geometry a radix-2 stage (`span ≥ 1`,
/// `s.n` a multiple of `2·span`). `#[inline(always)]` so the intrinsics
/// inline into the `#[target_feature]` caller.
#[inline(always)]
unsafe fn lane_stage<V: Lanes>(s: &Stage<'_>, span: usize, stride: usize) {
    let whole = s.lanes - s.lanes % V::N;
    for start in (0..s.n).step_by(span * 2) {
        for j in 0..span {
            let rows = ((start + j) * s.lanes, (start + j + span) * s.lanes);
            let w = (j != 0).then(|| s.twiddle(j * stride));
            // SAFETY: the schedule keeps `start + j + span <= n − 1`,
            // so both rows' `lanes` floats lie inside the planes.
            unsafe {
                radix2_row::<V>(s, rows, (0, whole), w);
                radix2_row::<f32>(s, rows, (whole, s.lanes), w);
            }
        }
    }
}

/// SIMD body of [`lane_stage2_dit`]: every `(start, j)` group of four
/// rows (`start + j`, `+span`, `+2·span`, `+3·span`) of the fused
/// schedule, vectors then single lanes as in [`lane_stage`].
///
/// # Safety
/// The CPU must support `V`'s ISA, `s.re`/`s.im` must be valid for
/// `s.n·s.lanes` floats and the geometry a fused pair of stages
/// (`span ≥ 1`, `s.n` a multiple of `4·span`). `#[inline(always)]` so
/// the intrinsics inline into the `#[target_feature]` caller.
#[inline(always)]
unsafe fn lane_stage2<V: Lanes>(s: &Stage<'_>, span: usize, stride_a: usize, stride_b: usize) {
    let whole = s.lanes - s.lanes % V::N;
    for start in (0..s.n).step_by(span * 4) {
        for j in 0..span {
            let rows = [0, 1, 2, 3].map(|q| (start + j + q * span) * s.lanes);
            let w = [j * stride_a, j * stride_b, (j + span) * stride_b];
            let w = (j != 0).then(|| w.map(|k| s.twiddle(k)));
            // SAFETY: the schedule keeps `start + j + 3·span <= n − 1`,
            // so all four rows' `lanes` floats lie inside the planes.
            unsafe {
                radix4_row::<V>(s, rows, (0, whole), w);
                radix4_row::<f32>(s, rows, (whole, s.lanes), w);
            }
        }
    }
}

/// The AVX2+FMA shims of the generic stages.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{lane_stage, lane_stage2, Stage};
    use std::arch::x86_64::__m256;

    /// # Safety
    /// [`lane_stage`]'s contract; AVX2 and FMA detected.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn lane_stage_avx2(s: &Stage<'_>, span: usize, stride: usize) {
        // SAFETY: forwarded contract; this fn enables `__m256`'s ISA.
        unsafe { lane_stage::<__m256>(s, span, stride) }
    }

    /// # Safety
    /// [`lane_stage2`]'s contract; AVX2 and FMA detected.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn lane_stage2_avx2(s: &Stage<'_>, span: usize, sa: usize, sb: usize) {
        // SAFETY: forwarded contract; this fn enables `__m256`'s ISA.
        unsafe { lane_stage2::<__m256>(s, span, sa, sb) }
    }
}

/// The NEON shims of the generic stages.
#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{lane_stage, lane_stage2, Stage};
    use std::arch::aarch64::float32x4_t;

    /// # Safety
    /// [`lane_stage`]'s contract; NEON is baseline on AArch64.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn lane_stage_neon(s: &Stage<'_>, span: usize, stride: usize) {
        // SAFETY: forwarded contract; this fn enables the NEON ISA.
        unsafe { lane_stage::<float32x4_t>(s, span, stride) }
    }

    /// # Safety
    /// [`lane_stage2`]'s contract; NEON is baseline on AArch64.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn lane_stage2_neon(s: &Stage<'_>, span: usize, sa: usize, sb: usize) {
        // SAFETY: forwarded contract; this fn enables the NEON ISA.
        unsafe { lane_stage2::<float32x4_t>(s, span, sa, sb) }
    }
}

/// One whole radix-2 DIT stage over bin-major split planes: for every
/// block `start` (step `2·span`) and butterfly row `j < span`, rows
/// `a = start + j` and `b = start + j + span` become
/// `a + w·b, a − w·b` in every lane, with the one broadcast twiddle
/// `w = tw[j·stride]` (conjugated when `conj_w`).
///
/// The whole stage schedule — including the multiply-free `w = 1` row
/// every block starts with — runs inside one dispatched call: a
/// dispatch match, an un-inlinable `target_feature` call and a pointer
/// prologue per `lanes`-float row would rival the row's own FMA work at
/// the row lengths the 2-D rfft produces.
///
/// # Panics
/// Unless `isa` is one this host runs ([`Isa::runs_here`]), the planes
/// are `n·lanes` floats, `span` is a stage of `n` and the tables reach
/// `(span − 1)·stride`: the raw bodies rely on these.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn lane_stage_dit(
    re: &mut [f32],
    im: &mut [f32],
    n: usize,
    lanes: usize,
    span: usize,
    stride: usize,
    tw_re: &[f32],
    tw_im: &[f32],
    conj_w: bool,
    isa: Isa,
) {
    assert!(isa.runs_here(), "lane_stage_dit: host lacks {isa:?}");
    let s = Stage::new("lane_stage_dit", re, im, n, lanes, tw_re, tw_im, conj_w);
    assert!(
        span >= 1 && span * 2 <= n && n.is_multiple_of(span * 2),
        "lane_stage_dit: invalid stage geometry"
    );
    assert!(
        tw_re.len() > (span - 1) * stride && tw_im.len() > (span - 1) * stride,
        "lane_stage_dit: twiddle table short"
    );
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa.runs_here()` was asserted, so AVX2+FMA were
        // detected; the asserts above are the body's whole contract.
        Isa::Avx2Fma => unsafe { avx2::lane_stage_avx2(&s, span, stride) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is baseline on AArch64; contract as above.
        Isa::Neon => unsafe { neon::lane_stage_neon(&s, span, stride) },
        _ => lane_stage_dit_scalar(re, im, n, lanes, span, stride, tw_re, tw_im, conj_w),
    }
}

/// Scalar body of [`lane_stage_dit`]: per-lane [`Complex32`]
/// arithmetic over the same stage schedule. Runs on non-SIMD hosts and
/// under `GCNN_FORCE_SCALAR=1`, and is the oracle for the SIMD bodies.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn lane_stage_dit_scalar(
    re: &mut [f32],
    im: &mut [f32],
    n: usize,
    lanes: usize,
    span: usize,
    stride: usize,
    tw_re: &[f32],
    tw_im: &[f32],
    conj_w: bool,
) {
    let mut start = 0;
    while start < n {
        for j in 0..span {
            let k = j * stride;
            let w = Complex32::new(tw_re[k], if conj_w { -tw_im[k] } else { tw_im[k] });
            let a = (start + j) * lanes;
            let b = (start + j + span) * lanes;
            let (re_lo, re_hi) = re.split_at_mut(b);
            let (im_lo, im_hi) = im.split_at_mut(b);
            let (ar, ai) = (&mut re_lo[a..a + lanes], &mut im_lo[a..a + lanes]);
            let (br, bi) = (&mut re_hi[..lanes], &mut im_hi[..lanes]);
            for l in 0..lanes {
                let x = Complex32::new(ar[l], ai[l]);
                let y = Complex32::new(br[l], bi[l]) * w;
                let (s, d) = (x + y, x - y);
                ar[l] = s.re;
                ai[l] = s.im;
                br[l] = d.re;
                bi[l] = d.im;
            }
        }
        start += span * 2;
    }
}

/// Two consecutive radix-2 DIT stages (spans `s` and `2s`) over
/// bin-major split planes, fused into one pass — the radix-4 data
/// flow: each group of four rows is loaded once, carried through both
/// butterfly levels in registers, and stored once. The single-stage
/// kernel is store-port bound, so halving the pass count is worth more
/// than the (unchanged) FMA count suggests.
///
/// Equivalent to `lane_stage_dit(span = s)` followed by
/// `lane_stage_dit(span = 2s)` up to floating-point rounding (the
/// fused form keeps intermediates in registers and resolves the
/// `tw[n/4] = ∓i` twiddle as a swap-and-negate). Every SIMD ISA fuses;
/// the scalar tier runs the two stages through
/// [`lane_stage_dit_scalar`], bit-identical to the unfused schedule.
///
/// # Panics
/// Unless `isa` is one this host runs ([`Isa::runs_here`]), the planes
/// are `n·lanes` floats, `s` and `2s` are stages of `n`, the strides are
/// `n/(2s)` and `n/(4s)` and the tables reach `(2s − 1)·stride_b`: the
/// raw bodies rely on these.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn lane_stage2_dit(
    re: &mut [f32],
    im: &mut [f32],
    n: usize,
    lanes: usize,
    s: usize,
    stride_a: usize,
    stride_b: usize,
    tw_re: &[f32],
    tw_im: &[f32],
    conj_w: bool,
    isa: Isa,
) {
    assert!(isa.runs_here(), "lane_stage2_dit: host lacks {isa:?}");
    let st = Stage::new("lane_stage2_dit", re, im, n, lanes, tw_re, tw_im, conj_w);
    assert!(
        s >= 1 && s * 4 <= n && n.is_multiple_of(s * 4),
        "lane_stage2_dit: invalid fused geometry"
    );
    assert!(
        stride_a == n / (s * 2) && stride_b == n / (s * 4),
        "lane_stage2_dit: stride mismatch"
    );
    assert!(
        tw_re.len() > (2 * s - 1) * stride_b && tw_im.len() > (2 * s - 1) * stride_b,
        "lane_stage2_dit: twiddle table short"
    );
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa.runs_here()` was asserted, so AVX2+FMA were
        // detected; the asserts above are the body's whole contract.
        Isa::Avx2Fma => unsafe { avx2::lane_stage2_avx2(&st, s, stride_a, stride_b) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is baseline on AArch64; contract as above.
        Isa::Neon => unsafe { neon::lane_stage2_neon(&st, s, stride_a, stride_b) },
        _ => {
            lane_stage_dit_scalar(re, im, n, lanes, s, stride_a, tw_re, tw_im, conj_w);
            lane_stage_dit_scalar(re, im, n, lanes, s * 2, stride_b, tw_re, tw_im, conj_w);
        }
    }
}

/// Out-of-place f32 transpose: `dst[c·rows + r] = src[r·cols + c]`.
/// This is the lane-layout conversion between the row and column passes
/// of the batch-major 2-D transform; a vector `isa` runs
/// [`gcnn_tensor::simd::transpose`] (the host's widest block transpose),
/// the scalar one [`transpose_f32_scalar`].
///
/// # Panics
/// If this host does not run `isa` ([`Isa::runs_here`]), or `src` or
/// `dst` is shorter than `rows·cols` — the block loads and stores rely
/// on exactly this.
#[inline]
pub fn transpose_f32(src: &[f32], rows: usize, cols: usize, dst: &mut [f32], isa: Isa) {
    assert!(isa.runs_here(), "transpose_f32: host lacks {isa:?}");
    let short = |have: usize| rows.checked_mul(cols).is_none_or(|len| have < len);
    assert!(!short(src.len()), "transpose_f32: src short");
    assert!(!short(dst.len()), "transpose_f32: dst short");
    match isa {
        Isa::Scalar => transpose_f32_scalar(src, rows, cols, dst),
        _ => gcnn_tensor::simd::transpose(src, cols, rows, cols, dst, rows),
    }
}

/// Scalar oracle for [`transpose_f32`]: blocked loops so even the
/// fallback stays cache-aware.
pub fn transpose_f32_scalar(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    const B: usize = 32;
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + B).min(rows);
        let mut c0 = 0;
        while c0 < cols {
            let c1 = (c0 + B).min(cols);
            for r in r0..r1 {
                for c in c0..c1 {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
            c0 = c1;
        }
        r0 = r1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FftPlan;
    use gcnn_tensor::simd::isa;

    /// Full vectors at 4, 8 and 16 lanes, every remainder around them,
    /// the all-remainder rows and the `n/2 + 1` row lengths of the 2-D
    /// rfft (9, 17, 33, 65).
    const LANES: [usize; 10] = [1, 3, 7, 8, 9, 13, 16, 17, 33, 65];

    type Planes = (Vec<f32>, Vec<f32>);

    fn planes(len: usize, seed: f32) -> Planes {
        let plane = |seed: f32| (0..len).map(|i| (i as f32 * seed + seed).sin()).collect();
        (plane(seed), plane(seed + 0.16))
    }

    /// `stage` on a fresh copy of `input` must land within 1e-5 of
    /// `want`, and a second run must reproduce the first bit for bit.
    fn check(what: &str, input: &Planes, want: &Planes, stage: impl Fn(&mut [f32], &mut [f32])) {
        let run = || {
            let (mut re, mut im) = input.clone();
            stage(&mut re, &mut im);
            (re, im)
        };
        let got = run();
        assert_eq!(got, run(), "{what}: two runs differ");
        for i in 0..got.0.len() {
            assert!(
                (got.0[i] - want.0[i]).abs() < 1e-5 && (got.1[i] - want.1[i]).abs() < 1e-5,
                "{what} elem {i}"
            );
        }
    }

    /// AVX-512F is a capability beside the ISA, not a fourth variant:
    /// a host that has it must keep the AVX2 lane kernels rather than
    /// fall through the dispatch sites' `_ => scalar` arms.
    #[test]
    fn avx512_host_keeps_avx2_lane_kernels() {
        if gcnn_tensor::simd::avx512f() {
            assert_eq!(isa(), Isa::Avx2Fma);
        }
    }

    /// Both instantiations of the single-stage body this host can run —
    /// the host's vector through the dispatcher, and `f32` over whole
    /// rows — match the scalar body for every stage geometry of a
    /// radix-2 schedule, both directions, every lane count.
    #[test]
    fn lane_stage_matches_scalar_all_stages() {
        let n = 32;
        let plan = FftPlan::new(n);
        let (tw_re, tw_im) = plan.table_split();
        for lanes in LANES {
            for conj_w in [false, true] {
                for span in [1, 2, 4, 8, 16] {
                    let stride = n / (span * 2);
                    let input = planes(n * lanes, 0.31);
                    let mut want = input.clone();
                    lane_stage_dit_scalar(
                        &mut want.0,
                        &mut want.1,
                        n,
                        lanes,
                        span,
                        stride,
                        tw_re,
                        tw_im,
                        conj_w,
                    );
                    let what = format!("lanes {lanes} span {span} conj {conj_w}");
                    check(&format!("{what} dispatched"), &input, &want, |re, im| {
                        lane_stage_dit(re, im, n, lanes, span, stride, tw_re, tw_im, conj_w, isa())
                    });
                    check(&format!("{what} f32"), &input, &want, |re, im| {
                        let (re, im) = (re.as_mut_ptr(), im.as_mut_ptr());
                        let s = Stage {
                            re,
                            im,
                            n,
                            lanes,
                            tw_re,
                            tw_im,
                            conj_w,
                        };
                        // SAFETY: `f32` lanes need no ISA; the planes are
                        // `n·lanes` floats and `span` is a stage of `n`.
                        unsafe { lane_stage::<f32>(&s, span, stride) }
                    });
                }
            }
        }
    }

    /// Both instantiations of the fused double stage equal two scalar
    /// single stages (spans `s` and `2s`) at every fused geometry,
    /// including the `j == 0` swap-and-negate row.
    #[test]
    fn lane_stage2_matches_two_scalar_stages() {
        let n = 32;
        let plan = FftPlan::new(n);
        let (tw_re, tw_im) = plan.table_split();
        for lanes in LANES {
            for conj_w in [false, true] {
                for s in [1, 2, 4, 8] {
                    let (sa, sb) = (n / (s * 2), n / (s * 4));
                    let input = planes(n * lanes, 0.59);
                    let mut want = input.clone();
                    for (span, stride) in [(s, sa), (s * 2, sb)] {
                        lane_stage_dit_scalar(
                            &mut want.0,
                            &mut want.1,
                            n,
                            lanes,
                            span,
                            stride,
                            tw_re,
                            tw_im,
                            conj_w,
                        );
                    }
                    let what = format!("lanes {lanes} s {s} conj {conj_w}");
                    check(&format!("{what} dispatched"), &input, &want, |re, im| {
                        lane_stage2_dit(re, im, n, lanes, s, sa, sb, tw_re, tw_im, conj_w, isa())
                    });
                    check(&format!("{what} f32"), &input, &want, |re, im| {
                        let (re, im) = (re.as_mut_ptr(), im.as_mut_ptr());
                        let st = Stage {
                            re,
                            im,
                            n,
                            lanes,
                            tw_re,
                            tw_im,
                            conj_w,
                        };
                        // SAFETY: `f32` lanes need no ISA; the planes are
                        // `n·lanes` floats and `s` is a fused stage of `n`.
                        unsafe { lane_stage2::<f32>(&st, s, sa, sb) }
                    });
                }
            }
        }
    }

    /// The strided body under [`transpose_f32`] matches its scalar
    /// oracle bit for bit at every row and column remainder of the
    /// widest block (16) and past it, read and written at odd strides,
    /// and writes nothing between the rows it owns.
    #[test]
    fn strided_transpose_matches_scalar_oracle() {
        let extents: Vec<usize> = (0..=17).chain([31, 33]).collect();
        for &rows in &extents {
            for &cols in &extents {
                let (sld, dld) = ((cols + 1) | 1, (rows + 1) | 1);
                let strided = planes(rows * sld, 0.23).0;
                let dense: Vec<f32> = (0..rows * cols)
                    .map(|i| strided[i / cols * sld + i % cols])
                    .collect();
                let mut want = vec![0.0f32; rows * cols];
                transpose_f32_scalar(&dense, rows, cols, &mut want);
                let mut got = vec![f32::NAN; cols * dld];
                gcnn_tensor::simd::transpose(&strided, sld, rows, cols, &mut got, dld);
                for (i, v) in got.iter().enumerate() {
                    let (c, r) = (i / dld, i % dld);
                    let w = if r < rows {
                        want[c * rows + r]
                    } else {
                        f32::NAN
                    };
                    assert_eq!(v.to_bits(), w.to_bits(), "{rows}x{cols} ({r}, {c})");
                }
            }
        }
    }

    /// Blocked SIMD transpose matches the scalar body bit-exactly on
    /// square, tall, wide, and remainder-heavy shapes.
    #[test]
    fn transpose_matches_scalar() {
        for (rows, cols) in [(1, 1), (8, 8), (16, 16), (5, 9), (9, 5), (33, 17), (64, 33)] {
            let src = planes(rows * cols, 0.17).0;
            let mut got = vec![0.0f32; rows * cols];
            let mut want = vec![0.0f32; rows * cols];
            transpose_f32(&src, rows, cols, &mut got, isa());
            transpose_f32_scalar(&src, rows, cols, &mut want);
            assert_eq!(got, want, "{rows}x{cols}");
            // And it really is the transpose.
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(
                        got[c * rows + r],
                        src[r * cols + c],
                        "{rows}x{cols} ({r},{c})"
                    );
                }
            }
        }
    }
}
