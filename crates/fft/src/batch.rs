//! Batched real 2-D transforms over plane sets.
//!
//! Every FFT-convolution pass transforms `b·c` (inputs), `f·c`
//! (filters) or `b·f` (gradients) planes of one size — the paper's
//! fbfft profile is dominated by exactly this batch (Fig. 4f). This
//! module executes the batch rayon-parallel over planes; each worker
//! draws its line/spectrum scratch from its own thread-local
//! [`gcnn_tensor::workspace`] pool, so the batch performs zero heap
//! allocation in steady state regardless of pool width.

use crate::rfft::RfftPlan;
use rayon::prelude::*;

/// Forward-transform `count` contiguous `n×n` real planes into
/// split-complex spectrum planes (`re`/`im` separate, `spectrum_len`
/// floats per plane) — the entry point of the fbfft-style pipeline.
/// `planes.len()` must be `count·n²` and `sre`/`sim` `count·spectrum_len`
/// each; `count` is inferred.
pub fn rfft_forward_batch_split(plan: &RfftPlan, planes: &[f32], sre: &mut [f32], sim: &mut [f32]) {
    let _span = gcnn_trace::span("fft.rfft_forward");
    let plane_len = plan.n() * plan.n();
    let spec_len = plan.spectrum_len();
    assert_eq!(planes.len() % plane_len, 0, "forward_split: plane size");
    let count = planes.len() / plane_len;
    gcnn_trace::counter_add("fft.batch_planes", count as u64);
    assert_eq!(
        sre.len(),
        count * spec_len,
        "forward_split: re size for {count} planes"
    );
    assert_eq!(
        sim.len(),
        count * spec_len,
        "forward_split: im size for {count} planes"
    );
    if count == 1 {
        // Single plane: skip the rayon fork/join machinery, whose
        // fixed cost rivals a small transform.
        return plan.forward_split_into(planes, sre, sim);
    }
    sre.par_chunks_mut(spec_len)
        .zip(sim.par_chunks_mut(spec_len))
        .zip(planes.par_chunks(plane_len))
        .for_each(|((re, im), plane)| plan.forward_split_into(plane, re, im));
}

/// Inverse-transform contiguous **split-complex** spectra into real
/// planes — mirror of [`rfft_forward_batch_split`].
pub fn rfft_inverse_batch_split(plan: &RfftPlan, sre: &[f32], sim: &[f32], planes: &mut [f32]) {
    let _span = gcnn_trace::span("fft.rfft_inverse");
    let plane_len = plan.n() * plan.n();
    let spec_len = plan.spectrum_len();
    assert_eq!(sre.len() % spec_len, 0, "inverse_split: spectra size");
    let count = sre.len() / spec_len;
    gcnn_trace::counter_add("fft.batch_planes", count as u64);
    assert_eq!(sim.len(), sre.len(), "inverse_split: im size");
    assert_eq!(
        planes.len(),
        count * plane_len,
        "inverse_split: planes size for {count} spectra"
    );
    if count == 1 {
        return plan.inverse_split_into(sre, sim, planes);
    }
    planes
        .par_chunks_mut(plane_len)
        .zip(sre.par_chunks(spec_len).zip(sim.par_chunks(spec_len)))
        .for_each(|(plane, (re, im))| plan.inverse_split_into(re, im, plane));
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnn_tensor::workspace::{alloc_scope, on_calling_thread};

    fn planes(count: usize, n: usize) -> Vec<f32> {
        (0..count * n * n)
            .map(|i| (((i as u64).wrapping_mul(2654435761)) % 1000) as f32 / 100.0 - 5.0)
            .collect()
    }

    #[test]
    fn batch_matches_single_plane_calls() {
        let n = 16;
        let count = 5;
        let plan = RfftPlan::cached(n);
        let spec_len = plan.spectrum_len();
        let x = planes(count, n);

        let mut sre = vec![0.0f32; count * spec_len];
        let mut sim = vec![0.0f32; count * spec_len];
        rfft_forward_batch_split(&plan, &x, &mut sre, &mut sim);

        for p in 0..count {
            let mut re = vec![0.0f32; spec_len];
            let mut im = vec![0.0f32; spec_len];
            plan.forward_split_into(&x[p * n * n..(p + 1) * n * n], &mut re, &mut im);
            assert_eq!(re, sre[p * spec_len..(p + 1) * spec_len], "plane {p} re");
            assert_eq!(im, sim[p * spec_len..(p + 1) * spec_len], "plane {p} im");
        }
    }

    #[test]
    fn batch_roundtrip() {
        let n = 8;
        let count = 7;
        let plan = RfftPlan::cached(n);
        let x = planes(count, n);

        let mut sre = vec![0.0f32; count * plan.spectrum_len()];
        let mut sim = vec![0.0f32; count * plan.spectrum_len()];
        rfft_forward_batch_split(&plan, &x, &mut sre, &mut sim);
        let mut back = vec![0.0f32; count * n * n];
        rfft_inverse_batch_split(&plan, &sre, &sim, &mut back);

        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn second_batch_allocates_nothing() {
        let n = 32;
        let count = 3;
        let plan = RfftPlan::cached(n);
        let x = planes(count, n);
        let mut sre = vec![0.0f32; count * plan.spectrum_len()];
        let mut sim = vec![0.0f32; count * plan.spectrum_len()];
        let mut back = vec![0.0f32; count * n * n];

        let mut both = || {
            rfft_forward_batch_split(&plan, &x, &mut sre, &mut sim);
            rfft_inverse_batch_split(&plan, &sre, &sim, &mut back);
        };
        // Width 1: the counted thread is the one warmed, and runs it all.
        let (_, misses) = on_calling_thread(|| {
            both(); // warm the thread-local pools
            alloc_scope(both)
        });
        assert_eq!(misses, 0, "steady-state batch FFT hit the allocator");
    }
}
