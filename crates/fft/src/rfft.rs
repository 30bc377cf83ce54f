//! Real-input 2-D transforms with Hermitian half-spectra.
//!
//! fbfft (and cuFFT's R2C/C2R paths) exploit that a real signal's
//! spectrum is Hermitian: `X[k] = conj(X[n−k])`, so only `n/2 + 1`
//! columns of an `n×n` spectrum need to be stored, multiplied and
//! inverse-transformed. This module provides that layout — it halves
//! the Fourier-domain work of the convolution strategy, exactly the
//! saving the real implementations take.
//!
//! Layout: an `n×n` real plane transforms to `n` rows × `(n/2 + 1)`
//! columns, row-major, held as **split-complex** planes (`re`/`im` at
//! `[r·half + c]`) — the native format of the frequency-domain product
//! stage, so no interleaved complex value exists between the transform
//! and the per-bin GEMM.
//!
//! The transform is two passes of the batch-major lane engine
//! ([`crate::split`]) joined by blocked transposes: a transpose loads
//! the plane into lane layout, one [`split::fft_lanes_inplace`] pass
//! transforms all `n` rows at once, a second transpose + lane pass
//! transforms the `n/2 + 1` retained columns — every butterfly a
//! broadcast-twiddle FMA over contiguous lanes. The same code runs on
//! every ISA; under scalar dispatch (`GCNN_FORCE_SCALAR=1` or no SIMD)
//! the lane kernels' scalar bodies execute.

use crate::plan::{FftPlan, PlanLru, PLAN_CACHE_CAP};
use crate::{simd, split, Direction};
use gcnn_tensor::workspace;
use std::sync::{Arc, Mutex, OnceLock};

/// Plan for `n×n` real-input transforms (power-of-two `n`).
#[derive(Debug, Clone)]
pub struct RfftPlan {
    n: usize,
    half: usize,
    plan: Arc<FftPlan>,
}

impl RfftPlan {
    /// Build a plan for `n×n` planes. The twiddle/bit-reversal tables
    /// come from the process-wide [`FftPlan`] cache, so plans of one
    /// size share storage.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        RfftPlan {
            n,
            half: n / 2 + 1,
            plan: FftPlan::cached(n),
        }
    }

    /// Fetch the shared plan for `n×n` planes from the process-wide
    /// cache — the cuFFT `cufftPlan2d`-once / execute-many split.
    /// Entries are LRU-bounded at [`PLAN_CACHE_CAP`] so plan memory
    /// stays bounded under many-size workloads.
    pub fn cached(n: usize) -> Arc<RfftPlan> {
        static CACHE: OnceLock<Mutex<PlanLru<Arc<RfftPlan>>>> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(PlanLru::new(PLAN_CACHE_CAP)));
        let mut lru = cache.lock().expect("RfftPlan cache poisoned");
        match lru.get(n) {
            Some(plan) => {
                gcnn_trace::counter_inc("fft.rfft_plan_cache.hits");
                plan
            }
            None => {
                gcnn_trace::counter_inc("fft.rfft_plan_cache.misses");
                let plan = Arc::new(RfftPlan::new(n));
                if lru.insert(n, Arc::clone(&plan)) {
                    gcnn_trace::counter_inc("fft.rfft_plan_cache.evictions");
                }
                plan
            }
        }
    }

    /// Spatial size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Stored spectrum columns: `n/2 + 1`.
    pub fn half_cols(&self) -> usize {
        self.half
    }

    /// Stored spectrum elements per plane: `n · (n/2 + 1)`.
    pub fn spectrum_len(&self) -> usize {
        self.n * self.half
    }

    /// Forward transform of a row-major `n×n` real plane into
    /// split-complex spectrum planes (`re`/`im` at `[r·half + c]`).
    /// Scratch comes from the thread-local workspace arena, so
    /// steady-state calls allocate nothing. Two lane-engine passes
    /// joined by blocked SIMD transposes:
    ///
    /// 1. transpose the real plane into bin-major lane layout
    ///    (`buf[c·n + r]`), imaginary plane zero;
    /// 2. one [`split::fft_lanes_inplace`] pass = all `n` row
    ///    transforms at once (bins `c`, lanes `r`);
    /// 3. keep bins `c < half` — a contiguous prefix in this layout —
    ///    and transpose them into `[r·half + c]`;
    /// 4. a second lane pass = all `half` column transforms (bins `r`,
    ///    lanes `c`).
    pub fn forward_split_into(&self, plane: &[f32], sre: &mut [f32], sim: &mut [f32]) {
        assert_eq!(
            plane.len(),
            self.n * self.n,
            "RfftPlan::forward_split: plane size"
        );
        assert_eq!(
            sre.len(),
            self.spectrum_len(),
            "RfftPlan::forward_split: re plane size"
        );
        assert_eq!(
            sim.len(),
            self.spectrum_len(),
            "RfftPlan::forward_split: im plane size"
        );
        // No per-plane trace span: at small n the span bookkeeping is a
        // measurable fraction of the whole transform, and every caller
        // is already inside a batch-level `fft.*` span.
        let (n, half) = (self.n, self.half);
        let isa = gcnn_tensor::simd::isa();

        let mut bufs2 = workspace::take_f32(2 * n * n);
        let (buf_re, buf_im) = bufs2.split_at_mut(n * n);
        simd::transpose_f32(plane, n, n, buf_re, isa);
        buf_im.fill(0.0);
        split::fft_lanes_inplace(buf_re, buf_im, &self.plan, Direction::Forward, n);

        // Bins c < half are the first half·n floats — the Hermitian
        // truncation is free in lane layout.
        simd::transpose_f32(&buf_re[..half * n], half, n, sre, isa);
        simd::transpose_f32(&buf_im[..half * n], half, n, sim, isa);
        split::fft_lanes_inplace(sre, sim, &self.plan, Direction::Forward, half);
    }

    /// Inverse transform from **split-complex** spectrum planes into a
    /// real plane — the mirror of [`Self::forward_split_into`]: a lane
    /// pass inverts the `half` stored columns, Hermitian symmetry
    /// reconstructs the missing bins as whole-row block copies (bin
    /// `c ≥ half` of a row is `conj` of bin `n − c`, which in lane
    /// layout is a contiguous `n`-float row with the imaginary plane
    /// negated), a second lane pass inverts all `n` rows, and a final
    /// transpose drops the (numerically zero) imaginary plane.
    pub fn inverse_split_into(&self, sre: &[f32], sim: &[f32], out: &mut [f32]) {
        assert_eq!(
            sre.len(),
            self.spectrum_len(),
            "RfftPlan::inverse_split: re plane size"
        );
        assert_eq!(
            sim.len(),
            self.spectrum_len(),
            "RfftPlan::inverse_split: im plane size"
        );
        assert_eq!(
            out.len(),
            self.n * self.n,
            "RfftPlan::inverse_split: plane size"
        );
        // Column inverses run on a scratch copy — the caller's spectrum
        // is borrowed immutably. Callers that own their spectrum planes
        // (the conv pipeline) use [`Self::inverse_split_inplace`] and
        // skip this copy.
        let mut cols2 = workspace::take_f32(2 * self.spectrum_len());
        let (col_re, col_im) = cols2.split_at_mut(self.spectrum_len());
        col_re.copy_from_slice(sre);
        col_im.copy_from_slice(sim);
        self.inverse_split_inplace(col_re, col_im, out);
    }

    /// [`Self::inverse_split_into`] minus the defensive spectrum copy:
    /// the column lane pass runs **in place** on the caller's spectrum
    /// planes, destroying them. For callers whose split spectra are
    /// scratch they own anyway, this removes a `2·n·(n/2+1)`-float copy
    /// per plane from the hot path.
    pub fn inverse_split_inplace(&self, sre: &mut [f32], sim: &mut [f32], out: &mut [f32]) {
        assert_eq!(
            sre.len(),
            self.spectrum_len(),
            "RfftPlan::inverse_split: re plane size"
        );
        assert_eq!(
            sim.len(),
            self.spectrum_len(),
            "RfftPlan::inverse_split: im plane size"
        );
        assert_eq!(
            out.len(),
            self.n * self.n,
            "RfftPlan::inverse_split: plane size"
        );
        // No per-plane trace span — same reasoning as the forward path.
        let (n, half) = (self.n, self.half);
        let isa = gcnn_tensor::simd::isa();

        // Column inverses in place: bins r over lanes c.
        split::fft_lanes_inplace(sre, sim, &self.plan, Direction::Inverse, half);

        // Rebuild full rows in lane layout (bins c over lanes r).
        let mut rows2 = workspace::take_f32(2 * n * n);
        let (row_re, row_im) = rows2.split_at_mut(n * n);
        simd::transpose_f32(sre, n, half, &mut row_re[..half * n], isa);
        simd::transpose_f32(sim, n, half, &mut row_im[..half * n], isa);
        for c in half..n {
            // After the column inverse each row is a real signal's
            // spectrum again, hence Hermitian within the row:
            // T[r][c] = conj(T[r][n − c]).
            let src = (n - c) * n;
            let dst = c * n;
            row_re.copy_within(src..src + n, dst);
            row_im.copy_within(src..src + n, dst);
            gcnn_tensor::simd::sscal(-1.0, &mut row_im[dst..dst + n]);
        }
        split::fft_lanes_inplace(row_re, row_im, &self.plan, Direction::Inverse, n);

        // Back to row-major; the imaginary plane is zero up to fp noise
        // and is simply not transposed out.
        simd::transpose_f32(row_re, n, n, out, isa);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnn_tensor::Complex32;

    fn plane(n: usize, seed: u64) -> Vec<f32> {
        (0..n * n)
            .map(|i| {
                (((i as u64).wrapping_mul(2654435761).wrapping_add(seed * 97)) % 1000) as f32
                    / 100.0
                    - 5.0
            })
            .collect()
    }

    fn forward(p: &RfftPlan, x: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let mut re = vec![0.0f32; p.spectrum_len()];
        let mut im = vec![0.0f32; p.spectrum_len()];
        p.forward_split_into(x, &mut re, &mut im);
        (re, im)
    }

    fn inverse(p: &RfftPlan, re: &[f32], im: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; p.n() * p.n()];
        p.inverse_split_into(re, im, &mut out);
        out
    }

    /// Inverse of the pointwise product `fa · fb` (or `fa · conj(fb)`)
    /// of two real planes' half-spectra.
    fn product_through_half_spectrum(p: &RfftPlan, a: &[f32], b: &[f32], conj_b: bool) -> Vec<f32> {
        let (ar, ai) = forward(p, a);
        let (br, bi) = forward(p, b);
        let (mut pr, mut pi) = (vec![0.0f32; ar.len()], vec![0.0f32; ar.len()]);
        for k in 0..ar.len() {
            let fb = Complex32::new(br[k], bi[k]);
            let z = Complex32::new(ar[k], ai[k]) * if conj_b { fb.conj() } else { fb };
            pr[k] = z.re;
            pi[k] = z.im;
        }
        inverse(p, &pr, &pi)
    }

    #[test]
    fn roundtrip() {
        for n in [1usize, 2, 4, 8, 16, 32] {
            let p = RfftPlan::new(n);
            let x = plane(n, 1);
            let (mut re, mut im) = forward(&p, &x);
            // The copying inverse leaves the spectrum intact …
            let spectrum = (re.clone(), im.clone());
            let back = inverse(&p, &re, &im);
            assert_eq!(
                (&re, &im),
                (&spectrum.0, &spectrum.1),
                "n={n}: spectrum clobbered"
            );
            // … and the in-place inverse produces the same plane.
            let mut back_inplace = vec![0.0f32; n * n];
            p.inverse_split_inplace(&mut re, &mut im, &mut back_inplace);
            assert_eq!(back, back_inplace, "n={n}");
            for (a, b) in x.iter().zip(&back) {
                assert!((a - b).abs() < 1e-3, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn dc_bin_is_sum() {
        let n = 8;
        let p = RfftPlan::new(n);
        let (re, im) = forward(&p, &vec![0.5f32; n * n]);
        assert!((re[0] - 32.0).abs() < 1e-3);
        assert!(im[0].abs() < 1e-4);
        assert!(re[1..].iter().chain(&im[1..]).all(|v| v.abs() < 1e-3));
    }

    #[test]
    fn impulse_spectrum_is_flat() {
        let n = 8;
        let p = RfftPlan::new(n);
        let mut x = vec![0.0f32; n * n];
        x[0] = 1.0;
        let (re, im) = forward(&p, &x);
        assert!(re.iter().all(|v| (v - 1.0).abs() < 1e-4));
        assert!(im.iter().all(|v| v.abs() < 1e-4));
    }

    #[test]
    fn spectrum_is_half_size() {
        let p = RfftPlan::new(64);
        assert_eq!(p.half_cols(), 33);
        assert_eq!(p.spectrum_len(), 64 * 33);
    }

    /// Circular convolution theorem: ifft(fft(a)·fft(b)) equals the
    /// circular convolution computed directly. Works on the half
    /// spectrum because products of Hermitian spectra stay Hermitian.
    #[test]
    fn convolution_theorem_2d() {
        let n = 8usize;
        let p = RfftPlan::new(n);
        let a: Vec<f32> = (0..n * n).map(|i| ((i * 7) % 5) as f32 - 2.0).collect();
        let b: Vec<f32> = (0..n * n).map(|i| ((i * 13) % 3) as f32 - 1.0).collect();
        let mut direct = vec![0.0f32; n * n];
        for oy in 0..n {
            for ox in 0..n {
                let mut acc = 0.0;
                for ky in 0..n {
                    for kx in 0..n {
                        acc += a[((oy + n - ky) % n) * n + (ox + n - kx) % n] * b[ky * n + kx];
                    }
                }
                direct[oy * n + ox] = acc;
            }
        }
        let via_fft = product_through_half_spectrum(&p, &a, &b, false);
        for (x, y) in direct.iter().zip(&via_fft) {
            assert!((x - y).abs() < 1e-2, "{x} vs {y}");
        }
    }

    /// Correlation theorem: conjugating one spectrum yields circular
    /// cross-correlation — what the conv passes compute.
    #[test]
    fn correlation_theorem_2d() {
        let n = 4usize;
        let p = RfftPlan::new(n);
        let a: Vec<f32> = (0..16).map(|i| (i % 7) as f32).collect();
        let b: Vec<f32> = (0..16).map(|i| ((i * 3) % 5) as f32).collect();
        let mut direct = vec![0.0f32; n * n];
        for oy in 0..n {
            for ox in 0..n {
                let mut acc = 0.0;
                for ky in 0..n {
                    for kx in 0..n {
                        acc += a[((oy + ky) % n) * n + (ox + kx) % n] * b[ky * n + kx];
                    }
                }
                direct[oy * n + ox] = acc;
            }
        }
        // corr(a, b)[o] = Σ_k a[o + k]·b[k]  ⇔  fa · conj(fb).
        let via_fft = product_through_half_spectrum(&p, &a, &b, true);
        for (x, y) in direct.iter().zip(&via_fft) {
            assert!((x - y).abs() < 1e-2, "{x} vs {y}");
        }
    }

    #[test]
    #[should_panic(expected = "plane size")]
    fn forward_checks_length() {
        let p = RfftPlan::new(8);
        let (mut re, mut im) = (vec![0.0; p.spectrum_len()], vec![0.0; p.spectrum_len()]);
        p.forward_split_into(&[0.0; 63], &mut re, &mut im);
    }
}
