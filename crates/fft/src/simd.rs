//! SIMD kernels of the batch-major split-complex lane engine.
//!
//! The engine ([`crate::split::fft_lanes_inplace`]) stores `lanes`
//! simultaneous transforms as two f32 planes in bin-major layout, so a
//! butterfly applies one broadcast twiddle across `lanes` contiguous
//! floats: pure FMA, no shuffle, vectorized at every stage including
//! span 1 (the fbfft layout, PAPERS.md arXiv:1412.7580). Three kernels
//! carry it, each as an AVX2+FMA body, a NEON body and a scalar body:
//!
//! * [`lane_stage_dit`] — one whole radix-2 DIT stage per call.
//! * [`lane_stage2_dit`] — two consecutive stages fused into one pass
//!   (the radix-4 data flow); AVX2 fuses, other ISAs run two single
//!   stages.
//! * [`transpose_f32`] — the blocked transpose that converts between
//!   the row and column passes of the 2-D transform (AVX2 8×8
//!   unpack/shuffle/permute2f128, NEON 4×4 `vtrn1q/vtrn2q`).
//!
//! Dispatch is on an [`Isa`] resolved once per transform
//! ([`split_isa`]). The scalar bodies are the scalar tier of the engine
//! — what runs on hosts without SIMD and under `GCNN_FORCE_SCALAR=1`,
//! bit-identically through the dispatchers — and the oracle the SIMD
//! bodies are tested against.

use gcnn_tensor::simd::Isa;
use gcnn_tensor::Complex32;

/// AVX2+FMA bodies. Split layout means every complex multiply is plain
/// FMA over two f32 vectors; the only shuffles are inside the transpose.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::Complex32;
    use std::arch::x86_64::*;

    /// One whole radix-2 DIT stage over the bin-major planes: every
    /// `(start, j)` butterfly row pair of the stage schedule runs inside
    /// this single `target_feature` call, so the per-row cost is the
    /// vector loop alone — no dispatch, no call, no pointer-prologue per
    /// row (all three would dominate when a row is only `lanes/8`
    /// vectors long). The `k == 0` twiddle is always `1 + 0i`, so that
    /// row skips the complex multiply entirely: pure add/sub.
    ///
    /// # Safety
    /// Caller must have verified AVX2 and FMA at runtime, pass planes
    /// covering `n·lanes`, twiddle tables covering `(span − 1)·stride`,
    /// and a valid radix-2 stage geometry (`span·2 ≤ n`, `n` a multiple
    /// of `span·2`).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn lane_stage_dit_avx2(
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
        debug_assert!(
            re.len() >= n * lanes && im.len() >= n * lanes,
            "planes cover n*lanes"
        );
        debug_assert!(
            span == 0 || (tw_re.len() > (span - 1) * stride && tw_im.len() > (span - 1) * stride),
            "twiddles cover the stage"
        );
        // SAFETY: post-detection execution. For every (start, j) the
        // stage schedule gives `start + j + span ≤ n − 1`, so rows `a`
        // and `b` live inside the `n·lanes` extent the caller
        // guarantees; the vector loop stays in `[l, l + 8)` while
        // `l + 8 <= lv ≤ lanes` and the per-element tails stay below
        // `lanes`, all through the two raw plane pointers (no safe
        // re-borrow aliases them while they are live). Twiddle reads at
        // `j·stride` are covered by the caller's table precondition.
        unsafe {
            let rp = re.as_mut_ptr();
            let ip = im.as_mut_ptr();
            let lv = lanes / 8 * 8;
            let mut start = 0;
            while start < n {
                for j in 0..span {
                    let a = (start + j) * lanes;
                    let b = (start + j + span) * lanes;
                    let arp = rp.add(a);
                    let aip = ip.add(a);
                    let brp = rp.add(b);
                    let bip = ip.add(b);
                    let k = j * stride;
                    if k == 0 {
                        // w = 1: a, b ← a + b, a − b.
                        let mut l = 0;
                        while l < lv {
                            let arv = _mm256_loadu_ps(arp.add(l));
                            let brv = _mm256_loadu_ps(brp.add(l));
                            _mm256_storeu_ps(arp.add(l), _mm256_add_ps(arv, brv));
                            _mm256_storeu_ps(brp.add(l), _mm256_sub_ps(arv, brv));
                            let aiv = _mm256_loadu_ps(aip.add(l));
                            let biv = _mm256_loadu_ps(bip.add(l));
                            _mm256_storeu_ps(aip.add(l), _mm256_add_ps(aiv, biv));
                            _mm256_storeu_ps(bip.add(l), _mm256_sub_ps(aiv, biv));
                            l += 8;
                        }
                        while l < lanes {
                            let (x, y) = (*arp.add(l), *brp.add(l));
                            *arp.add(l) = x + y;
                            *brp.add(l) = x - y;
                            let (x, y) = (*aip.add(l), *bip.add(l));
                            *aip.add(l) = x + y;
                            *bip.add(l) = x - y;
                            l += 1;
                        }
                        continue;
                    }
                    let wre = tw_re[k];
                    let wim = if conj_w { -tw_im[k] } else { tw_im[k] };
                    let wr = _mm256_set1_ps(wre);
                    let wi = _mm256_set1_ps(wim);
                    let mut l = 0;
                    while l < lv {
                        let brv = _mm256_loadu_ps(brp.add(l));
                        let biv = _mm256_loadu_ps(bip.add(l));
                        // y = w·b: yr = br·wr − bi·wi, yi = br·wi + bi·wr.
                        let yr = _mm256_fmsub_ps(brv, wr, _mm256_mul_ps(biv, wi));
                        let yi = _mm256_fmadd_ps(brv, wi, _mm256_mul_ps(biv, wr));
                        let arv = _mm256_loadu_ps(arp.add(l));
                        let aiv = _mm256_loadu_ps(aip.add(l));
                        _mm256_storeu_ps(arp.add(l), _mm256_add_ps(arv, yr));
                        _mm256_storeu_ps(aip.add(l), _mm256_add_ps(aiv, yi));
                        _mm256_storeu_ps(brp.add(l), _mm256_sub_ps(arv, yr));
                        _mm256_storeu_ps(bip.add(l), _mm256_sub_ps(aiv, yi));
                        l += 8;
                    }
                    while l < lanes {
                        // Same Complex32 arithmetic as the scalar
                        // oracle's per-lane body.
                        let y = Complex32::new(*brp.add(l), *bip.add(l)) * Complex32::new(wre, wim);
                        let (xr, xi) = (*arp.add(l), *aip.add(l));
                        *arp.add(l) = xr + y.re;
                        *aip.add(l) = xi + y.im;
                        *brp.add(l) = xr - y.re;
                        *bip.add(l) = xi - y.im;
                        l += 1;
                    }
                }
                start += span * 2;
            }
        }
    }

    /// Two consecutive radix-2 DIT stages (spans `s` and `2s`) fused
    /// into one pass over the planes — the radix-4 data flow. Each
    /// group of four rows (`start + j`, `+s`, `+2s`, `+3s`) is loaded
    /// once, carried through both butterfly levels in registers, and
    /// stored once, halving the load/store traffic of the store-port-
    /// bound single-stage kernel. Twiddles stay broadcast scalars:
    /// stage A uses `tw[j·stride_a]` (shared by both of its pairs),
    /// stage B uses `tw[j·stride_b]` and `tw[(j + s)·stride_b]`.
    ///
    /// # Safety
    /// Caller must have verified AVX2 and FMA at runtime, pass planes
    /// covering `n·lanes`, twiddle tables covering
    /// `(2s − 1)·stride_b`, and a valid fused geometry (`4s ≤ n`, `n` a
    /// multiple of `4s`, `stride_a = n/(2s)`, `stride_b = n/(4s)`).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn lane_stage2_dit_avx2(
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
    ) {
        debug_assert!(
            re.len() >= n * lanes && im.len() >= n * lanes,
            "planes cover n*lanes"
        );
        debug_assert!(
            s == 0
                || (tw_re.len() > (2 * s - 1) * stride_b
                    && tw_im.len() > (2 * s - 1) * stride_b
                    && tw_re.len() > (s - 1) * stride_a
                    && tw_im.len() > (s - 1) * stride_a),
            "twiddles cover the fused schedule"
        );
        // SAFETY: post-detection execution. The fused schedule keeps
        // `start + j + 3s ≤ n − 1`, so all four rows live inside the
        // caller-guaranteed `n·lanes` extent; the vector loop stays in
        // `[l, l + 8)` while `l + 8 <= lv ≤ lanes` and the per-element
        // tails stay below `lanes`, all through the two raw plane
        // pointers. Twiddle reads at `j·stride_a`, `j·stride_b` and
        // `(j + s)·stride_b` are covered by the caller's table
        // precondition.
        unsafe {
            let rp = re.as_mut_ptr();
            let ip = im.as_mut_ptr();
            let lv = lanes / 8 * 8;
            let mut start = 0;
            while start < n {
                for j in 0..s {
                    let r0 = (start + j) * lanes;
                    let r1 = (start + j + s) * lanes;
                    let r2 = (start + j + 2 * s) * lanes;
                    let r3 = (start + j + 3 * s) * lanes;
                    let (p0r, p0i) = (rp.add(r0), ip.add(r0));
                    let (p1r, p1i) = (rp.add(r1), ip.add(r1));
                    let (p2r, p2i) = (rp.add(r2), ip.add(r2));
                    let (p3r, p3i) = (rp.add(r3), ip.add(r3));
                    if j == 0 {
                        // wa = wb1 = 1, but the second stage-B pair's
                        // twiddle is tw[s·stride_b] = tw[n/4] = ∓i, so
                        // s1 = ∓i·u3 is a swap-and-negate, not a
                        // multiply: forward s1 = (u3i, −u3r), inverse
                        // (conj) s1 = (−u3i, u3r).
                        let mut l = 0;
                        while l < lv {
                            let a_r = _mm256_loadu_ps(p0r.add(l));
                            let a_i = _mm256_loadu_ps(p0i.add(l));
                            let b_r = _mm256_loadu_ps(p1r.add(l));
                            let b_i = _mm256_loadu_ps(p1i.add(l));
                            let c_r = _mm256_loadu_ps(p2r.add(l));
                            let c_i = _mm256_loadu_ps(p2i.add(l));
                            let d_r = _mm256_loadu_ps(p3r.add(l));
                            let d_i = _mm256_loadu_ps(p3i.add(l));
                            let u0r = _mm256_add_ps(a_r, b_r);
                            let u0i = _mm256_add_ps(a_i, b_i);
                            let u1r = _mm256_sub_ps(a_r, b_r);
                            let u1i = _mm256_sub_ps(a_i, b_i);
                            let u2r = _mm256_add_ps(c_r, d_r);
                            let u2i = _mm256_add_ps(c_i, d_i);
                            let u3r = _mm256_sub_ps(c_r, d_r);
                            let u3i = _mm256_sub_ps(c_i, d_i);
                            _mm256_storeu_ps(p0r.add(l), _mm256_add_ps(u0r, u2r));
                            _mm256_storeu_ps(p0i.add(l), _mm256_add_ps(u0i, u2i));
                            _mm256_storeu_ps(p2r.add(l), _mm256_sub_ps(u0r, u2r));
                            _mm256_storeu_ps(p2i.add(l), _mm256_sub_ps(u0i, u2i));
                            let (s1r, s1i) = if conj_w {
                                // +i·u3 = (−u3i, u3r)
                                (_mm256_sub_ps(_mm256_setzero_ps(), u3i), u3r)
                            } else {
                                // −i·u3 = (u3i, −u3r)
                                (u3i, _mm256_sub_ps(_mm256_setzero_ps(), u3r))
                            };
                            _mm256_storeu_ps(p1r.add(l), _mm256_add_ps(u1r, s1r));
                            _mm256_storeu_ps(p1i.add(l), _mm256_add_ps(u1i, s1i));
                            _mm256_storeu_ps(p3r.add(l), _mm256_sub_ps(u1r, s1r));
                            _mm256_storeu_ps(p3i.add(l), _mm256_sub_ps(u1i, s1i));
                            l += 8;
                        }
                        while l < lanes {
                            let (ar, ai) = (*p0r.add(l), *p0i.add(l));
                            let (br, bi) = (*p1r.add(l), *p1i.add(l));
                            let (cr, ci) = (*p2r.add(l), *p2i.add(l));
                            let (dr, di) = (*p3r.add(l), *p3i.add(l));
                            let (u0r, u0i) = (ar + br, ai + bi);
                            let (u1r, u1i) = (ar - br, ai - bi);
                            let (u2r, u2i) = (cr + dr, ci + di);
                            let (u3r, u3i) = (cr - dr, ci - di);
                            *p0r.add(l) = u0r + u2r;
                            *p0i.add(l) = u0i + u2i;
                            *p2r.add(l) = u0r - u2r;
                            *p2i.add(l) = u0i - u2i;
                            let (s1r, s1i) = if conj_w { (-u3i, u3r) } else { (u3i, -u3r) };
                            *p1r.add(l) = u1r + s1r;
                            *p1i.add(l) = u1i + s1i;
                            *p3r.add(l) = u1r - s1r;
                            *p3i.add(l) = u1i - s1i;
                            l += 1;
                        }
                        continue;
                    }
                    let ka = j * stride_a;
                    let kb1 = j * stride_b;
                    let kb2 = (j + s) * stride_b;
                    let (war, mut wai) = (tw_re[ka], tw_im[ka]);
                    let (wb1r, mut wb1i) = (tw_re[kb1], tw_im[kb1]);
                    let (wb2r, mut wb2i) = (tw_re[kb2], tw_im[kb2]);
                    if conj_w {
                        wai = -wai;
                        wb1i = -wb1i;
                        wb2i = -wb2i;
                    }
                    let war_v = _mm256_set1_ps(war);
                    let wai_v = _mm256_set1_ps(wai);
                    let wb1r_v = _mm256_set1_ps(wb1r);
                    let wb1i_v = _mm256_set1_ps(wb1i);
                    let wb2r_v = _mm256_set1_ps(wb2r);
                    let wb2i_v = _mm256_set1_ps(wb2i);
                    let mut l = 0;
                    while l < lv {
                        let b_r = _mm256_loadu_ps(p1r.add(l));
                        let b_i = _mm256_loadu_ps(p1i.add(l));
                        let d_r = _mm256_loadu_ps(p3r.add(l));
                        let d_i = _mm256_loadu_ps(p3i.add(l));
                        // Stage A: t1 = wa·b, t2 = wa·d.
                        let t1r = _mm256_fmsub_ps(b_r, war_v, _mm256_mul_ps(b_i, wai_v));
                        let t1i = _mm256_fmadd_ps(b_r, wai_v, _mm256_mul_ps(b_i, war_v));
                        let t2r = _mm256_fmsub_ps(d_r, war_v, _mm256_mul_ps(d_i, wai_v));
                        let t2i = _mm256_fmadd_ps(d_r, wai_v, _mm256_mul_ps(d_i, war_v));
                        let a_r = _mm256_loadu_ps(p0r.add(l));
                        let a_i = _mm256_loadu_ps(p0i.add(l));
                        let c_r = _mm256_loadu_ps(p2r.add(l));
                        let c_i = _mm256_loadu_ps(p2i.add(l));
                        let u0r = _mm256_add_ps(a_r, t1r);
                        let u0i = _mm256_add_ps(a_i, t1i);
                        let u1r = _mm256_sub_ps(a_r, t1r);
                        let u1i = _mm256_sub_ps(a_i, t1i);
                        let u2r = _mm256_add_ps(c_r, t2r);
                        let u2i = _mm256_add_ps(c_i, t2i);
                        let u3r = _mm256_sub_ps(c_r, t2r);
                        let u3i = _mm256_sub_ps(c_i, t2i);
                        // Stage B: s0 = wb1·u2, s1 = wb2·u3.
                        let s0r = _mm256_fmsub_ps(u2r, wb1r_v, _mm256_mul_ps(u2i, wb1i_v));
                        let s0i = _mm256_fmadd_ps(u2r, wb1i_v, _mm256_mul_ps(u2i, wb1r_v));
                        let s1r = _mm256_fmsub_ps(u3r, wb2r_v, _mm256_mul_ps(u3i, wb2i_v));
                        let s1i = _mm256_fmadd_ps(u3r, wb2i_v, _mm256_mul_ps(u3i, wb2r_v));
                        _mm256_storeu_ps(p0r.add(l), _mm256_add_ps(u0r, s0r));
                        _mm256_storeu_ps(p0i.add(l), _mm256_add_ps(u0i, s0i));
                        _mm256_storeu_ps(p2r.add(l), _mm256_sub_ps(u0r, s0r));
                        _mm256_storeu_ps(p2i.add(l), _mm256_sub_ps(u0i, s0i));
                        _mm256_storeu_ps(p1r.add(l), _mm256_add_ps(u1r, s1r));
                        _mm256_storeu_ps(p1i.add(l), _mm256_add_ps(u1i, s1i));
                        _mm256_storeu_ps(p3r.add(l), _mm256_sub_ps(u1r, s1r));
                        _mm256_storeu_ps(p3i.add(l), _mm256_sub_ps(u1i, s1i));
                        l += 8;
                    }
                    while l < lanes {
                        let a = Complex32::new(*p0r.add(l), *p0i.add(l));
                        let b = Complex32::new(*p1r.add(l), *p1i.add(l));
                        let c = Complex32::new(*p2r.add(l), *p2i.add(l));
                        let d = Complex32::new(*p3r.add(l), *p3i.add(l));
                        let wa = Complex32::new(war, wai);
                        let t1 = b * wa;
                        let t2 = d * wa;
                        let (u0, u1) = (a + t1, a - t1);
                        let (u2, u3) = (c + t2, c - t2);
                        let s0 = u2 * Complex32::new(wb1r, wb1i);
                        let s1 = u3 * Complex32::new(wb2r, wb2i);
                        let (v0, v2) = (u0 + s0, u0 - s0);
                        let (v1, v3) = (u1 + s1, u1 - s1);
                        *p0r.add(l) = v0.re;
                        *p0i.add(l) = v0.im;
                        *p1r.add(l) = v1.re;
                        *p1i.add(l) = v1.im;
                        *p2r.add(l) = v2.re;
                        *p2i.add(l) = v2.im;
                        *p3r.add(l) = v3.re;
                        *p3i.add(l) = v3.im;
                        l += 1;
                    }
                }
                start += s * 4;
            }
        }
    }

    /// In-register 8×8 f32 transpose (classic unpack → shuffle →
    /// permute2f128 ladder).
    ///
    /// # Safety
    /// Caller must have verified AVX2 at runtime.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn transpose8x8(v: [__m256; 8]) -> [__m256; 8] {
        // Pure register arithmetic inside a target-feature fn.
        let t0 = _mm256_unpacklo_ps(v[0], v[1]);
        let t1 = _mm256_unpackhi_ps(v[0], v[1]);
        let t2 = _mm256_unpacklo_ps(v[2], v[3]);
        let t3 = _mm256_unpackhi_ps(v[2], v[3]);
        let t4 = _mm256_unpacklo_ps(v[4], v[5]);
        let t5 = _mm256_unpackhi_ps(v[4], v[5]);
        let t6 = _mm256_unpacklo_ps(v[6], v[7]);
        let t7 = _mm256_unpackhi_ps(v[6], v[7]);
        let s0 = _mm256_shuffle_ps(t0, t2, 0x44);
        let s1 = _mm256_shuffle_ps(t0, t2, 0xEE);
        let s2 = _mm256_shuffle_ps(t1, t3, 0x44);
        let s3 = _mm256_shuffle_ps(t1, t3, 0xEE);
        let s4 = _mm256_shuffle_ps(t4, t6, 0x44);
        let s5 = _mm256_shuffle_ps(t4, t6, 0xEE);
        let s6 = _mm256_shuffle_ps(t5, t7, 0x44);
        let s7 = _mm256_shuffle_ps(t5, t7, 0xEE);
        [
            _mm256_permute2f128_ps(s0, s4, 0x20),
            _mm256_permute2f128_ps(s1, s5, 0x20),
            _mm256_permute2f128_ps(s2, s6, 0x20),
            _mm256_permute2f128_ps(s3, s7, 0x20),
            _mm256_permute2f128_ps(s0, s4, 0x31),
            _mm256_permute2f128_ps(s1, s5, 0x31),
            _mm256_permute2f128_ps(s2, s6, 0x31),
            _mm256_permute2f128_ps(s3, s7, 0x31),
        ]
    }

    /// # Safety
    /// Caller must have verified AVX2 at runtime and pass slices
    /// covering `rows·cols`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn transpose_f32_avx2(
        src: &[f32],
        rows: usize,
        cols: usize,
        dst: &mut [f32],
    ) {
        debug_assert!(
            src.len() >= rows * cols && dst.len() >= rows * cols,
            "rows*cols extent"
        );
        let rb = rows / 8 * 8;
        let cb = cols / 8 * 8;
        // SAFETY: post-detection execution. Block loads read
        // `src[(r + k)·cols + c .. + 8]` and stores write
        // `dst[(c + k)·rows + r .. + 8]` with `r + 8 <= rb <= rows` and
        // `c + 8 <= cb <= cols`, all inside the `rows·cols` extent the
        // caller guarantees; edge elements are handled through safe
        // indexing after the last raw-pointer access.
        unsafe {
            let sp = src.as_ptr();
            let dp = dst.as_mut_ptr();
            let mut r = 0;
            while r < rb {
                let mut c = 0;
                while c < cb {
                    let block = [
                        _mm256_loadu_ps(sp.add(r * cols + c)),
                        _mm256_loadu_ps(sp.add((r + 1) * cols + c)),
                        _mm256_loadu_ps(sp.add((r + 2) * cols + c)),
                        _mm256_loadu_ps(sp.add((r + 3) * cols + c)),
                        _mm256_loadu_ps(sp.add((r + 4) * cols + c)),
                        _mm256_loadu_ps(sp.add((r + 5) * cols + c)),
                        _mm256_loadu_ps(sp.add((r + 6) * cols + c)),
                        _mm256_loadu_ps(sp.add((r + 7) * cols + c)),
                    ];
                    let t = transpose8x8(block);
                    for (k, row) in t.iter().enumerate() {
                        _mm256_storeu_ps(dp.add((c + k) * rows + r), *row);
                    }
                    c += 8;
                }
                c = cb;
                while c < cols {
                    for k in 0..8 {
                        dst[c * rows + r + k] = src[(r + k) * cols + c];
                    }
                    c += 1;
                }
                r += 8;
            }
            while r < rows {
                for c in 0..cols {
                    dst[c * rows + r] = src[r * cols + c];
                }
                r += 1;
            }
        }
    }
}

/// NEON bodies: `vfmaq/vfmsq` butterflies over broadcast twiddles and a
/// 4×4 `vtrn1q/vtrn2q` transpose block.
#[cfg(target_arch = "aarch64")]
mod neon {
    use super::Complex32;
    use std::arch::aarch64::*;

    /// One whole radix-2 DIT stage inside a single `target_feature`
    /// call — NEON mirror of the AVX2 stage kernel, including the
    /// multiply-free `k == 0` (`w = 1`) row.
    ///
    /// # Safety
    /// NEON must be available; planes must cover `n·lanes`, twiddle
    /// tables `(span − 1)·stride`, and the stage geometry must be a
    /// valid radix-2 schedule (`span·2 ≤ n`, `n` a multiple of
    /// `span·2`).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn lane_stage_dit_neon(
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
        debug_assert!(
            re.len() >= n * lanes && im.len() >= n * lanes,
            "planes cover n*lanes"
        );
        debug_assert!(
            span == 0 || (tw_re.len() > (span - 1) * stride && tw_im.len() > (span - 1) * stride),
            "twiddles cover the stage"
        );
        // SAFETY: the stage schedule keeps `start + j + span ≤ n − 1`,
        // so rows `a`/`b` are inside the caller-guaranteed `n·lanes`
        // extent; the vector loop stays in `[l, l + 4)` while
        // `l + 4 <= lv ≤ lanes` and the per-element tails stay below
        // `lanes`, all through the raw plane pointers. Twiddle reads at
        // `j·stride` are covered by the caller's table precondition.
        unsafe {
            let rp = re.as_mut_ptr();
            let ip = im.as_mut_ptr();
            let lv = lanes / 4 * 4;
            let mut start = 0;
            while start < n {
                for j in 0..span {
                    let a = (start + j) * lanes;
                    let b = (start + j + span) * lanes;
                    let arp = rp.add(a);
                    let aip = ip.add(a);
                    let brp = rp.add(b);
                    let bip = ip.add(b);
                    let k = j * stride;
                    if k == 0 {
                        // w = 1: a, b ← a + b, a − b.
                        let mut l = 0;
                        while l < lv {
                            let arv = vld1q_f32(arp.add(l));
                            let brv = vld1q_f32(brp.add(l));
                            vst1q_f32(arp.add(l), vaddq_f32(arv, brv));
                            vst1q_f32(brp.add(l), vsubq_f32(arv, brv));
                            let aiv = vld1q_f32(aip.add(l));
                            let biv = vld1q_f32(bip.add(l));
                            vst1q_f32(aip.add(l), vaddq_f32(aiv, biv));
                            vst1q_f32(bip.add(l), vsubq_f32(aiv, biv));
                            l += 4;
                        }
                        while l < lanes {
                            let (x, y) = (*arp.add(l), *brp.add(l));
                            *arp.add(l) = x + y;
                            *brp.add(l) = x - y;
                            let (x, y) = (*aip.add(l), *bip.add(l));
                            *aip.add(l) = x + y;
                            *bip.add(l) = x - y;
                            l += 1;
                        }
                        continue;
                    }
                    let wre = tw_re[k];
                    let wim = if conj_w { -tw_im[k] } else { tw_im[k] };
                    let wr = vdupq_n_f32(wre);
                    let wi = vdupq_n_f32(wim);
                    let mut l = 0;
                    while l < lv {
                        let brv = vld1q_f32(brp.add(l));
                        let biv = vld1q_f32(bip.add(l));
                        // y = w·b: yr = br·wr − bi·wi, yi = br·wi + bi·wr.
                        let yr = vfmsq_f32(vmulq_f32(brv, wr), biv, wi);
                        let yi = vfmaq_f32(vmulq_f32(biv, wr), brv, wi);
                        let arv = vld1q_f32(arp.add(l));
                        let aiv = vld1q_f32(aip.add(l));
                        vst1q_f32(arp.add(l), vaddq_f32(arv, yr));
                        vst1q_f32(aip.add(l), vaddq_f32(aiv, yi));
                        vst1q_f32(brp.add(l), vsubq_f32(arv, yr));
                        vst1q_f32(bip.add(l), vsubq_f32(aiv, yi));
                        l += 4;
                    }
                    while l < lanes {
                        // Same Complex32 arithmetic as the scalar
                        // oracle's per-lane body.
                        let y = Complex32::new(*brp.add(l), *bip.add(l)) * Complex32::new(wre, wim);
                        let (xr, xi) = (*arp.add(l), *aip.add(l));
                        *arp.add(l) = xr + y.re;
                        *aip.add(l) = xi + y.im;
                        *brp.add(l) = xr - y.re;
                        *bip.add(l) = xi - y.im;
                        l += 1;
                    }
                }
                start += span * 2;
            }
        }
    }

    /// In-register 4×4 f32 transpose via the `vtrn1q/vtrn2q` lane
    /// shuffles (f32 pairs, then f64-reinterpreted quads).
    ///
    /// # Safety
    /// NEON must be available.
    #[target_feature(enable = "neon")]
    #[inline]
    unsafe fn transpose4x4(
        a: float32x4_t,
        b: float32x4_t,
        c: float32x4_t,
        d: float32x4_t,
    ) -> (float32x4_t, float32x4_t, float32x4_t, float32x4_t) {
        // Pure register arithmetic inside a target-feature fn.
        let ab0 = vtrn1q_f32(a, b); // a0 b0 a2 b2
        let ab1 = vtrn2q_f32(a, b); // a1 b1 a3 b3
        let cd0 = vtrn1q_f32(c, d);
        let cd1 = vtrn2q_f32(c, d);
        let col0 = vreinterpretq_f32_f64(vtrn1q_f64(
            vreinterpretq_f64_f32(ab0),
            vreinterpretq_f64_f32(cd0),
        ));
        let col2 = vreinterpretq_f32_f64(vtrn2q_f64(
            vreinterpretq_f64_f32(ab0),
            vreinterpretq_f64_f32(cd0),
        ));
        let col1 = vreinterpretq_f32_f64(vtrn1q_f64(
            vreinterpretq_f64_f32(ab1),
            vreinterpretq_f64_f32(cd1),
        ));
        let col3 = vreinterpretq_f32_f64(vtrn2q_f64(
            vreinterpretq_f64_f32(ab1),
            vreinterpretq_f64_f32(cd1),
        ));
        (col0, col1, col2, col3)
    }

    /// # Safety
    /// NEON must be available; slices must cover `rows·cols`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn transpose_f32_neon(
        src: &[f32],
        rows: usize,
        cols: usize,
        dst: &mut [f32],
    ) {
        debug_assert!(
            src.len() >= rows * cols && dst.len() >= rows * cols,
            "rows*cols extent"
        );
        let rb = rows / 4 * 4;
        let cb = cols / 4 * 4;
        // SAFETY: block loads read `src[(r + k)·cols + c .. + 4]` and
        // stores write `dst[(c + k)·rows + r .. + 4]` with
        // `r + 4 <= rb <= rows`, `c + 4 <= cb <= cols`, inside the
        // caller-guaranteed `rows·cols` extent; edges use safe
        // indexing.
        unsafe {
            let sp = src.as_ptr();
            let dp = dst.as_mut_ptr();
            let mut r = 0;
            while r < rb {
                let mut c = 0;
                while c < cb {
                    let (c0, c1, c2, c3) = transpose4x4(
                        vld1q_f32(sp.add(r * cols + c)),
                        vld1q_f32(sp.add((r + 1) * cols + c)),
                        vld1q_f32(sp.add((r + 2) * cols + c)),
                        vld1q_f32(sp.add((r + 3) * cols + c)),
                    );
                    vst1q_f32(dp.add(c * rows + r), c0);
                    vst1q_f32(dp.add((c + 1) * rows + r), c1);
                    vst1q_f32(dp.add((c + 2) * rows + r), c2);
                    vst1q_f32(dp.add((c + 3) * rows + r), c3);
                    c += 4;
                }
                c = cb;
                while c < cols {
                    for k in 0..4 {
                        dst[c * rows + r + k] = src[(r + k) * cols + c];
                    }
                    c += 1;
                }
                r += 4;
            }
            while r < rows {
                for c in 0..cols {
                    dst[c * rows + r] = src[r * cols + c];
                }
                r += 1;
            }
        }
    }
}

/// Resolve the dispatch decision for a whole split-layout transform.
/// One dispatch-table read per transform; the split kernels then branch
/// on the returned [`Isa`] without touching atomics again.
#[inline]
pub fn split_isa() -> Isa {
    gcnn_tensor::simd::isa()
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
    debug_assert!(
        re.len() == n * lanes && im.len() == n * lanes,
        "lane_stage_dit: plane extent mismatch"
    );
    debug_assert!(
        span * 2 <= n && n.is_multiple_of(span * 2),
        "lane_stage_dit: invalid stage geometry"
    );
    debug_assert!(
        span == 0 || tw_re.len() > (span - 1) * stride && tw_im.len() > (span - 1) * stride,
        "lane_stage_dit: twiddle table short"
    );
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => {
            // SAFETY: Avx2Fma is only returned after runtime AVX2+FMA
            // detection; extents, table coverage and stage geometry are
            // debug-asserted above and guaranteed by the radix-2
            // schedule in `fft_lanes_inplace`.
            unsafe {
                avx2::lane_stage_dit_avx2(re, im, n, lanes, span, stride, tw_re, tw_im, conj_w)
            }
        }
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => {
            // SAFETY: NEON is baseline on AArch64; same precondition
            // argument as the AVX2 arm.
            unsafe {
                neon::lane_stage_dit_neon(re, im, n, lanes, span, stride, tw_re, tw_im, conj_w)
            }
        }
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
/// `tw[n/4] = ∓i` twiddle as a swap-and-negate). The AVX2 body fuses;
/// other ISAs run the two stages through their single-stage kernels,
/// which keeps the scalar arm bit-identical to the unfused schedule.
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
    debug_assert!(
        re.len() == n * lanes && im.len() == n * lanes,
        "lane_stage2_dit: plane extent mismatch"
    );
    debug_assert!(
        s * 4 <= n && n.is_multiple_of(s * 4),
        "lane_stage2_dit: invalid fused geometry"
    );
    debug_assert!(
        stride_a == n / (s * 2) && stride_b == n / (s * 4),
        "lane_stage2_dit: stride mismatch"
    );
    debug_assert!(
        tw_re.len() > (2 * s - 1) * stride_b && tw_im.len() > (2 * s - 1) * stride_b,
        "lane_stage2_dit: twiddle table short"
    );
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => {
            // SAFETY: Avx2Fma is only returned after runtime AVX2+FMA
            // detection; extents, table coverage and the fused stage
            // geometry are debug-asserted above and guaranteed by the
            // radix-2 schedule in `fft_lanes_inplace`.
            unsafe {
                avx2::lane_stage2_dit_avx2(
                    re, im, n, lanes, s, stride_a, stride_b, tw_re, tw_im, conj_w,
                )
            }
        }
        _ => {
            lane_stage_dit(re, im, n, lanes, s, stride_a, tw_re, tw_im, conj_w, isa);
            lane_stage_dit(re, im, n, lanes, s * 2, stride_b, tw_re, tw_im, conj_w, isa);
        }
    }
}

/// Out-of-place f32 transpose: `dst[c·rows + r] = src[r·cols + c]`.
/// This is the lane-layout conversion between the row and column passes
/// of the batch-major 2-D transform; the SIMD bodies work in 8×8 (AVX2
/// unpack/shuffle/permute2f128) or 4×4 (NEON `vtrn1q/vtrn2q`) blocks.
#[inline]
pub fn transpose_f32(src: &[f32], rows: usize, cols: usize, dst: &mut [f32], isa: Isa) {
    debug_assert!(src.len() >= rows * cols, "transpose_f32: src short");
    debug_assert!(dst.len() >= rows * cols, "transpose_f32: dst short");
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => {
            // SAFETY: Avx2Fma is only returned after runtime AVX2+FMA
            // detection; src/dst cover rows·cols per the debug asserts
            // (callers pass exact-size planes).
            unsafe { avx2::transpose_f32_avx2(src, rows, cols, dst) }
        }
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => {
            // SAFETY: NEON is baseline on AArch64.
            unsafe { neon::transpose_f32_neon(src, rows, cols, dst) }
        }
        _ => transpose_f32_scalar(src, rows, cols, dst),
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

    fn plane(n: usize, seed: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * seed + seed).sin()).collect()
    }

    /// AVX-512F is a capability beside the ISA, not a fourth variant:
    /// a host that has it must keep the AVX2 lane kernels rather than
    /// fall through the dispatch sites' `_ => scalar` arms.
    #[test]
    fn avx512_host_keeps_avx2_lane_kernels() {
        if gcnn_tensor::simd::avx512f() {
            assert_eq!(split_isa(), Isa::Avx2Fma);
        }
    }

    /// The dispatched single-stage kernel matches the scalar body for
    /// every stage geometry of a radix-2 schedule, both directions, on
    /// lane counts that exercise full vectors, tails and the all-tail
    /// case.
    #[test]
    fn lane_stage_matches_scalar_all_stages() {
        let n = 32;
        let plan = FftPlan::new(n);
        let (tw_re, tw_im) = plan.table_split();
        for lanes in [1usize, 3, 8, 13, 33] {
            for conj_w in [false, true] {
                let mut span = 1;
                while span * 2 <= n {
                    let stride = n / (span * 2);
                    let mut re = plane(n * lanes, 0.31);
                    let mut im = plane(n * lanes, 0.47);
                    let (mut xr, mut xi) = (re.clone(), im.clone());
                    lane_stage_dit(
                        &mut re,
                        &mut im,
                        n,
                        lanes,
                        span,
                        stride,
                        tw_re,
                        tw_im,
                        conj_w,
                        split_isa(),
                    );
                    lane_stage_dit_scalar(
                        &mut xr, &mut xi, n, lanes, span, stride, tw_re, tw_im, conj_w,
                    );
                    for i in 0..n * lanes {
                        assert!(
                            (re[i] - xr[i]).abs() < 1e-5 && (im[i] - xi[i]).abs() < 1e-5,
                            "lanes {lanes} span {span} conj {conj_w} elem {i}"
                        );
                    }
                    span *= 2;
                }
            }
        }
    }

    /// The fused double stage equals two scalar single stages (spans
    /// `s` and `2s`) at every fused geometry, including the `j == 0`
    /// swap-and-negate row.
    #[test]
    fn lane_stage2_matches_two_scalar_stages() {
        let n = 32;
        let plan = FftPlan::new(n);
        let (tw_re, tw_im) = plan.table_split();
        for lanes in [1usize, 3, 8, 13, 33] {
            for conj_w in [false, true] {
                let mut s = 1;
                while s * 4 <= n {
                    let (stride_a, stride_b) = (n / (s * 2), n / (s * 4));
                    let mut re = plane(n * lanes, 0.59);
                    let mut im = plane(n * lanes, 0.73);
                    let (mut xr, mut xi) = (re.clone(), im.clone());
                    lane_stage2_dit(
                        &mut re,
                        &mut im,
                        n,
                        lanes,
                        s,
                        stride_a,
                        stride_b,
                        tw_re,
                        tw_im,
                        conj_w,
                        split_isa(),
                    );
                    lane_stage_dit_scalar(
                        &mut xr, &mut xi, n, lanes, s, stride_a, tw_re, tw_im, conj_w,
                    );
                    lane_stage_dit_scalar(
                        &mut xr,
                        &mut xi,
                        n,
                        lanes,
                        s * 2,
                        stride_b,
                        tw_re,
                        tw_im,
                        conj_w,
                    );
                    for i in 0..n * lanes {
                        assert!(
                            (re[i] - xr[i]).abs() < 1e-5 && (im[i] - xi[i]).abs() < 1e-5,
                            "lanes {lanes} s {s} conj {conj_w} elem {i}"
                        );
                    }
                    s *= 2;
                }
            }
        }
    }

    /// Blocked SIMD transpose matches the scalar body bit-exactly on
    /// square, tall, wide, and remainder-heavy shapes.
    #[test]
    fn transpose_matches_scalar() {
        for (rows, cols) in [(1, 1), (8, 8), (16, 16), (5, 9), (9, 5), (33, 17), (64, 33)] {
            let src = plane(rows * cols, 0.17);
            let mut got = vec![0.0f32; rows * cols];
            let mut want = vec![0.0f32; rows * cols];
            transpose_f32(&src, rows, cols, &mut got, split_isa());
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
