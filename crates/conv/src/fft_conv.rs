//! FFT-based convolution.
//!
//! Paper §II-B: *"First, inputs and filter banks are transformed from
//! the spatial domain to the Fourier domain […] Second, those
//! transformed matrices are multiplied in the Fourier domain. Finally,
//! the product results are inversed."* We follow fbfft's exact pipeline
//! (§V-A): per-plane 2-D FFTs, a layout transpose from plane-major
//! ("BDHW") to bin-major ("HWBD"), one complex GEMM per frequency bin,
//! a transpose back, and an inverse FFT.
//!
//! Transforms are padded to the next power of two ≥ the (padded) input
//! size — enough for *valid* correlation, since every needed output lag
//! stays below the transform size and circular wrap-around never
//! contaminates it. The kernel size does not enter the transform size at
//! all, which is exactly why the paper's Fig. 3d shows fbfft's runtime
//! flat in `k` while the unrolling strategies grow as `k²`.
//!
//! Plans come from the process-wide [`RfftPlan`] cache and every
//! intermediate (spectra, transposes, bin matrices) is checked out of
//! the thread-local [`gcnn_tensor::workspace`] arena, so repeated
//! passes at one configuration are steady-state allocation-free apart
//! from the output tensor itself.

use crate::config::ConvConfig;
use crate::strategy::{ConvAlgorithm, Strategy, Unsupported};
use gcnn_fft::RfftPlan;
use gcnn_gemm::batched_cgemm_split;
use gcnn_tensor::workspace::{self, Scratch};
use gcnn_tensor::{Shape4, Tensor4};
use rayon::prelude::*;

/// The FFT convolution algorithm (stride-1 only, like fbfft and
/// Theano-fft).
#[derive(Debug, Clone, Copy, Default)]
pub struct FftConv;

impl FftConv {
    /// Create a new instance.
    pub fn new() -> Self {
        FftConv
    }
}

/// Forward-transform every `h×w` plane of `t`, zero-padded to the plan's
/// `n×n`,
/// into plane-major split-complex Hermitian half-spectra
/// (`sre/sim[plane · bins + bin]`) — the layout the lane engine emits
/// and fbfft's R2C transforms store. Per-plane pad buffers come from the
/// workspace arena.
fn plane_spectra_into(t: &Tensor4, plan: &RfftPlan, sre: &mut [f32], sim: &mut [f32]) {
    let s = t.shape();
    let n = plan.n();
    let bins = plan.spectrum_len();
    debug_assert_eq!(sre.len(), s.n * s.c * bins);
    debug_assert_eq!(sim.len(), sre.len());
    sre.par_chunks_mut(bins)
        .zip(sim.par_chunks_mut(bins))
        .enumerate()
        .for_each(|(p, (re, im))| {
            let (pn, pc) = (p / s.c, p % s.c);
            let src = t.plane(pn, pc);
            // Zero-pad the h×w plane into the n×n transform buffer —
            // copied rows zero only their right margin, the bottom band
            // is cleared wholesale (halo-only fill on reused scratch).
            let mut buf = workspace::take_f32(n * n);
            for h in 0..s.h {
                buf[h * n..h * n + s.w].copy_from_slice(&src[h * s.w..(h + 1) * s.w]);
                buf[h * n + s.w..(h + 1) * n].fill(0.0);
            }
            buf[s.h * n..].fill(0.0);
            plan.forward_split_into(&buf, re, im);
        });
}

/// Plane-major → bin-major with the two plane axes swapped on the way:
/// `out[bin · d0·d1 + i1·d0 + i0] = spec[(i0·d1 + i1) · bins + bin]`.
/// One pass is fbfft's `Transpose` kernel (BDHW → HWBD); `d0 = 1`
/// degenerates to the plain gather `out[bin · d1 + p] = spec[p · bins +
/// bin]`. Call once per re/im plane.
fn gather_bins(spec: &[f32], d0: usize, d1: usize, bins: usize, out: &mut [f32]) {
    debug_assert_eq!(spec.len(), d0 * d1 * bins);
    debug_assert_eq!(out.len(), spec.len());
    out.par_chunks_mut(d0 * d1)
        .enumerate()
        .for_each(|(bin, chunk)| {
            for i0 in 0..d0 {
                for i1 in 0..d1 {
                    chunk[i1 * d0 + i0] = spec[(i0 * d1 + i1) * bins + bin];
                }
            }
        });
}

/// Bin-major → plane-major, the inverse-side mirror of [`gather_bins`]:
/// the bin-major product row `i0·d1 + i1` lands at plane `i1·d0 + i0`,
/// so `out[(i1·d0 + i0) · bins + bin] = binmat[bin · d0·d1 + i0·d1 + i1]`;
/// `d1 = 1` degenerates to the plain scatter.
fn scatter_bins(binmat: &[f32], d0: usize, d1: usize, bins: usize, out: &mut [f32]) {
    debug_assert_eq!(binmat.len(), d0 * d1 * bins);
    debug_assert_eq!(out.len(), binmat.len());
    out.par_chunks_mut(bins).enumerate().for_each(|(q, chunk)| {
        let (i1, i0) = (q / d0, q % d0);
        for (bin, slot) in chunk.iter_mut().enumerate() {
            *slot = binmat[bin * d0 * d1 + i0 * d1 + i1];
        }
    });
}

/// The `size×size` window, `offset` rows and columns in, that each
/// inverse-transformed `n×n` plane is cropped to.
#[derive(Debug, Clone, Copy)]
struct Crop {
    size: usize,
    offset: usize,
}

/// Inverse-transform plane-major split half-spectra and crop each plane,
/// writing into a fresh tensor of shape `(d0, d1, size, size)`. Takes
/// the spectra mutably and runs [`RfftPlan::inverse_split_inplace`] on
/// each plane — the caller owns the (arena-backed) spectrum scratch and
/// never reads it again, so the in-place column pass saves a defensive
/// spectrum copy per plane.
fn planes_to_tensor(
    sre: &mut [f32],
    sim: &mut [f32],
    d0: usize,
    d1: usize,
    plan: &RfftPlan,
    crop: Crop,
) -> Tensor4 {
    let (n, bins) = (plan.n(), plan.spectrum_len());
    let Crop { size, offset } = crop;
    let mut out = Tensor4::zeros(Shape4::new(d0, d1, size, size));
    out.as_mut_slice()
        .par_chunks_mut(size * size)
        .zip(sre.par_chunks_mut(bins).zip(sim.par_chunks_mut(bins)))
        .for_each(|(dst, (pre, pim))| {
            let mut real = workspace::take_f32(n * n);
            plan.inverse_split_inplace(pre, pim, &mut real);
            for h in 0..size {
                for w in 0..size {
                    dst[h * size + w] = real[(h + offset) * n + (w + offset)];
                }
            }
        });
    out
}

/// One operand of the per-bin product: the tensor whose planes (axes
/// `[d0][d1] = [t.n][t.c]`) are transformed, and whether those two axes
/// are swapped on the way to bin-major.
#[derive(Clone, Copy)]
struct Operand<'a> {
    t: &'a Tensor4,
    swap: bool,
}

/// `t` with its plane axes kept: per-bin matrix `[t.n × t.c]`.
fn planes(t: &Tensor4) -> Operand<'_> {
    Operand { t, swap: false }
}

/// `t` with its plane axes swapped: per-bin matrix `[t.c × t.n]`.
fn swapped(t: &Tensor4) -> Operand<'_> {
    Operand { t, swap: true }
}

impl Operand<'_> {
    /// `(rows, cols)` of this operand's per-bin matrix.
    fn dims(&self) -> (usize, usize) {
        let s = self.t.shape();
        if self.swap {
            (s.c, s.n)
        } else {
            (s.n, s.c)
        }
    }

    /// Transform every plane and lay the spectra out bin-major for the
    /// per-bin GEMM: `[bin][rows×cols]` of [`Self::dims`]. Returns the
    /// re/im planes.
    fn bin_major_spectra(&self, plan: &RfftPlan) -> (Scratch<f32>, Scratch<f32>) {
        let s = self.t.shape();
        let bins = plan.spectrum_len();
        let len = s.n * s.c * bins;
        let mut sre = workspace::take_f32(len);
        let mut sim = workspace::take_f32(len);
        plane_spectra_into(self.t, plan, &mut sre, &mut sim);
        let (d0, d1) = if self.swap {
            (s.n, s.c)
        } else {
            (1, s.n * s.c)
        };
        let mut bre = workspace::take_f32(len);
        let mut bim = workspace::take_f32(len);
        gather_bins(&sre, d0, d1, bins, &mut bre);
        gather_bins(&sim, d0, d1, bins, &mut bim);
        (bre, bim)
    }
}

/// fbfft's pipeline, shared by all three passes: (1) batch-major lane
/// transforms of both operands into split spectrum planes, (2) the
/// BDHW → HWBD transpose, (3) one split-complex `[m×k]·[k×n]` GEMM per
/// bin (`conj_a` turns the circular product into correlation), (4) the
/// transpose back — with the output plane axes swapped when `swap_out`
/// — and (5) inverse transform + crop. The passes differ only in
/// operands, conjugation and crop; every intermediate lives in the
/// workspace arena.
fn fft_pass(
    a: Operand<'_>,
    conj_a: bool,
    b: Operand<'_>,
    swap_out: bool,
    crop: Crop,
    plan: &RfftPlan,
) -> Tensor4 {
    let bins = plan.spectrum_len();
    let ((m, k), (kb, cols)) = (a.dims(), b.dims());
    debug_assert_eq!(k, kb, "fft_pass: inner dimensions");

    let (a_re, a_im) = a.bin_major_spectra(plan); // [bin][m×k]
    let (b_re, b_im) = b.bin_major_spectra(plan); // [bin][k×cols]

    let mut c_re = workspace::take_f32(bins * m * cols); // [bin][m×cols]
    let mut c_im = workspace::take_f32(bins * m * cols);
    batched_cgemm_split(
        conj_a,
        false,
        m,
        cols,
        k,
        bins,
        &a_re,
        &a_im,
        m * k,
        &b_re,
        &b_im,
        k * cols,
        &mut c_re,
        &mut c_im,
        m * cols,
    );

    let mut out_re = workspace::take_f32(bins * m * cols);
    let mut out_im = workspace::take_f32(bins * m * cols);
    let (g0, g1, d0, d1) = if swap_out {
        (m, cols, cols, m)
    } else {
        (m * cols, 1, m, cols)
    };
    scatter_bins(&c_re, g0, g1, bins, &mut out_re);
    scatter_bins(&c_im, g0, g1, bins, &mut out_im);
    planes_to_tensor(&mut out_re, &mut out_im, d0, d1, plan, crop)
}

/// `input` zero-padded by `cfg.pad` on every side, borrowed unchanged
/// when the layer does not pad.
fn padded_input<'a>(
    cfg: &ConvConfig,
    input: &'a Tensor4,
    storage: &'a mut Option<Tensor4>,
) -> &'a Tensor4 {
    if cfg.pad == 0 {
        return input;
    }
    let s = input.shape();
    storage.insert(gcnn_tensor::pad::pad_planes(
        input,
        s.h + 2 * cfg.pad,
        s.w + 2 * cfg.pad,
        cfg.pad,
        cfg.pad,
    ))
}

/// The cached plan for `cfg`'s transform size: the next power of two ≥
/// the padded input.
fn plan_for(cfg: &ConvConfig) -> std::sync::Arc<RfftPlan> {
    RfftPlan::cached((cfg.input + 2 * cfg.pad).next_power_of_two())
}

impl ConvAlgorithm for FftConv {
    fn strategy(&self) -> Strategy {
        Strategy::Fft
    }

    fn supports(&self, cfg: &ConvConfig) -> Result<(), Unsupported> {
        if !cfg.is_valid() {
            return Err(Unsupported::InvalidGeometry {
                reason: format!("{cfg}"),
            });
        }
        // Paper §IV-B: "fbfft and Theano-conv2d_fft only support stride
        // size of 1".
        if cfg.stride != 1 {
            return Err(Unsupported::StrideNotOne { stride: cfg.stride });
        }
        Ok(())
    }

    fn forward(&self, cfg: &ConvConfig, input: &Tensor4, filters: &Tensor4) -> Tensor4 {
        let _span = gcnn_trace::span("conv.fft.forward");
        self.supports(cfg)
            .expect("FftConv::forward: unsupported config");
        assert_eq!(input.shape(), cfg.input_shape(), "FftConv::forward: input");
        assert_eq!(
            filters.shape(),
            cfg.filter_shape(),
            "FftConv::forward: filters"
        );
        let mut storage = None;
        let padded = padded_input(cfg, input, &mut storage);
        let plan = plan_for(cfg);
        // out[f,n] = Σ_c conj(filt[f,c]) · in[c,n] per bin: conjugated
        // filters → correlation (what CNNs compute).
        let crop = Crop {
            size: cfg.output(),
            offset: 0,
        };
        fft_pass(planes(filters), true, swapped(padded), true, crop, &plan)
    }

    fn backward_data(&self, cfg: &ConvConfig, grad_out: &Tensor4, filters: &Tensor4) -> Tensor4 {
        let _span = gcnn_trace::span("conv.fft.backward_data");
        self.supports(cfg)
            .expect("FftConv::backward_data: unsupported config");
        assert_eq!(
            grad_out.shape(),
            cfg.output_shape(),
            "FftConv::backward_data: grad"
        );
        let plan = plan_for(cfg);
        // gin[c,n] = Σ_f filt[c,f] · gout[f,n] per bin (true convolution
        // — no conjugation); crop the interior when the forward pass
        // padded the input.
        let crop = Crop {
            size: cfg.input,
            offset: cfg.pad,
        };
        fft_pass(
            swapped(filters),
            false,
            swapped(grad_out),
            true,
            crop,
            &plan,
        )
    }

    fn backward_filters(&self, cfg: &ConvConfig, input: &Tensor4, grad_out: &Tensor4) -> Tensor4 {
        let _span = gcnn_trace::span("conv.fft.backward_filters");
        self.supports(cfg)
            .expect("FftConv::backward_filters: unsupported config");
        let mut storage = None;
        let padded = padded_input(cfg, input, &mut storage);
        let plan = plan_for(cfg);
        // gw[f,c] = Σ_n conj(gout[f,n]) · in[n,c] per bin: correlation of
        // the (padded) input with the output gradient, reduced over the
        // batch axis.
        let crop = Crop {
            size: cfg.kernel,
            offset: 0,
        };
        fft_pass(swapped(grad_out), true, planes(padded), false, crop, &plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use gcnn_tensor::init::uniform_tensor;

    fn configs() -> Vec<ConvConfig> {
        vec![
            ConvConfig::with_channels(2, 3, 8, 4, 3, 1),
            ConvConfig::with_channels(1, 1, 7, 2, 5, 1), // non-pow2 input
            ConvConfig::with_channels(3, 2, 12, 5, 6, 1),
            ConvConfig::with_channels(2, 4, 5, 2, 1, 1), // 1x1 kernel
            {
                let mut c = ConvConfig::with_channels(2, 2, 6, 3, 3, 1);
                c.pad = 1;
                c
            },
        ]
    }

    #[test]
    fn forward_matches_reference() {
        for cfg in configs() {
            let x = uniform_tensor(cfg.input_shape(), -1.0, 1.0, 30);
            let w = uniform_tensor(cfg.filter_shape(), -1.0, 1.0, 31);
            let fast = FftConv.forward(&cfg, &x, &w);
            let slow = reference::forward_ref(&cfg, &x, &w);
            let dist = fast.rel_l2_dist(&slow).unwrap();
            assert!(dist < 1e-4, "forward mismatch at {cfg}: rel l2 {dist}");
        }
    }

    #[test]
    fn backward_data_matches_reference() {
        for cfg in configs() {
            let g = uniform_tensor(cfg.output_shape(), -1.0, 1.0, 32);
            let w = uniform_tensor(cfg.filter_shape(), -1.0, 1.0, 33);
            let fast = FftConv.backward_data(&cfg, &g, &w);
            let slow = reference::backward_data_ref(&cfg, &g, &w);
            let dist = fast.rel_l2_dist(&slow).unwrap();
            assert!(
                dist < 1e-4,
                "backward_data mismatch at {cfg}: rel l2 {dist}"
            );
        }
    }

    #[test]
    fn backward_filters_matches_reference() {
        for cfg in configs() {
            let x = uniform_tensor(cfg.input_shape(), -1.0, 1.0, 34);
            let g = uniform_tensor(cfg.output_shape(), -1.0, 1.0, 35);
            let fast = FftConv.backward_filters(&cfg, &x, &g);
            let slow = reference::backward_filters_ref(&cfg, &x, &g);
            let dist = fast.rel_l2_dist(&slow).unwrap();
            assert!(
                dist < 1e-4,
                "backward_filters mismatch at {cfg}: rel l2 {dist}"
            );
        }
    }

    #[test]
    fn rejects_stride_two() {
        let cfg = ConvConfig::with_channels(1, 1, 8, 1, 3, 2);
        assert!(matches!(
            FftConv.supports(&cfg),
            Err(Unsupported::StrideNotOne { stride: 2 })
        ));
    }

    #[test]
    #[should_panic(expected = "unsupported config")]
    fn forward_panics_on_stride_two() {
        let cfg = ConvConfig::with_channels(1, 1, 8, 1, 3, 2);
        let x = Tensor4::zeros(cfg.input_shape());
        let w = Tensor4::zeros(cfg.filter_shape());
        FftConv.forward(&cfg, &x, &w);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let planes = 6;
        let bins = 16;
        let spec: Vec<f32> = (0..planes * bins).map(|i| i as f32).collect();
        let mut gathered = vec![0.0f32; spec.len()];
        gather_bins(&spec, 1, planes, bins, &mut gathered);
        let mut back = vec![0.0f32; spec.len()];
        scatter_bins(&gathered, planes, 1, bins, &mut back);
        assert_eq!(back, spec);
        // Spot-check the layout: bin-major element (bin=3, plane=2).
        assert_eq!(gathered[3 * planes + 2], spec[2 * bins + 3]);
    }

    /// Gathering with the plane axes swapped then scattering with them
    /// swapped back is the identity, and the gathered rows really are
    /// `[d1×d0]` per bin.
    #[test]
    fn swap_planes_involution() {
        let (d0, d1, bins) = (3, 4, 8);
        let spec: Vec<f32> = (0..d0 * d1 * bins).map(|i| i as f32).collect();
        let mut gathered = vec![0.0f32; spec.len()];
        gather_bins(&spec, d0, d1, bins, &mut gathered);
        assert_eq!(
            gathered[5 * d0 * d1 + 2 * d0 + 1],
            spec[(d1 + 2) * bins + 5]
        );
        let mut back = vec![0.0f32; spec.len()];
        scatter_bins(&gathered, d1, d0, bins, &mut back);
        assert_eq!(back, spec);
    }
}
