//! FFT-based convolution.
//!
//! Paper §II-B: *"First, inputs and filter banks are transformed from
//! the spatial domain to the Fourier domain […] Second, those
//! transformed matrices are multiplied in the Fourier domain. Finally,
//! the product results are inversed."* fbfft's profile of that pipeline
//! (§V-A, Fig. 4f) is transforms, layout transposes and "Cgemm"; its own
//! cure is a batch-major layout in which the FFT *emits* what the
//! per-bin product consumes. That is the pipeline here, three stages and
//! no pass that only moves data:
//!
//! 1. **row passes**: both operands go through
//!    [`RfftPlan::forward_rows_into`], which row-transforms the planes
//!    **with the planes as the lanes**, two real rows to a complex
//!    transform. Each plane's real window is read straight from the
//!    tensor — the layer's `pad` is a landing offset, the plane-axis swap
//!    an operand may need is the lane order — and only its data rows are
//!    transformed and stored, as the [`Columns`] of the half-spectrum;
//! 2. **fused column stage**: [`RfftPlan::product_columns`] runs the rest
//!    of the Fourier domain one spectrum column at a time, in one
//!    participant's buffers: it column-transforms both factors' column (a
//!    window that ends at or before `n/2`, every filter bank at Table I,
//!    skips the DIT stages that would add only zeros), runs one
//!    split-complex GEMM per frequency bin ([`cgemm_split`]), inverts the
//!    product's column and stores only its crop rows. The GEMM is oriented
//!    by the shapes: the longer of the product's two output axes is the
//!    kernel's vectorized `n`, unless both are shorter than one row tile —
//!    then the summed axis is the vector, each output one dot product
//!    (conjugation travels with the operand: `conj_a` or `conj_b`);
//! 3. **inverse row pass**: [`RfftPlan::inverse_rows_into`] row-inverts
//!    those crop rows, two to a transform, and writes the crop straight
//!    into the output tensor.
//!
//! All three stages are pool regions: the row passes' participants claim
//! units of a row pair × a block of lanes, the column stage's a whole
//! column, each with its own unit buffers, writing disjoint runs of their
//! output (disjoint rows of output planes, in the inverse). One owner per
//! output float and a fixed order of arithmetic per lane and per bin, so a
//! pass is the same bits at every pool width.
//!
//! Transforms are padded to [`ConvConfig::fft_size`], the next power of
//! two ≥ the (padded) input size — enough for *valid* correlation, since
//! every needed output lag stays below the transform size and circular
//! wrap-around never contaminates it. The kernel size does not enter the
//! transform size at all, which is exactly why the paper's Fig. 3d shows
//! fbfft's runtime flat in `k` while the unrolling strategies grow as
//! `k²`.
//!
//! Plans come from the process-wide [`RfftPlan`] cache and every
//! intermediate is checked out of the thread-local
//! [`gcnn_tensor::workspace`] arena, so repeated passes at one
//! configuration are steady-state allocation-free apart from the output
//! tensor itself (`gcnn-fft`'s `conv_allocs` test counts the heap). The
//! intermediates are only rows that exist: the factors' data rows and the
//! product's crop rows, `n/2 + 1` columns each, and one column of all three
//! operands per participant of the column stage. No operand's full
//! `n·(n/2 + 1)`-bin spectrum is ever stored.

use crate::config::ConvConfig;
use crate::strategy::{ConvAlgorithm, Strategy, Unsupported};
use gcnn_fft::{Columns, LaneOrder, RfftPlan};
use gcnn_gemm::cgemm::ROW_TILE;
use gcnn_gemm::{cgemm_split, Transpose};
use gcnn_tensor::workspace::{self, Scratch};
use gcnn_tensor::{Shape4, Tensor4};

/// The FFT convolution algorithm (stride-1 only, like fbfft and
/// Theano-fft).
#[derive(Debug, Clone, Copy, Default)]
pub struct FftConv;

/// The `size×size` window, `offset` rows and columns in, that each
/// inverse-transformed `n×n` plane is cropped to.
#[derive(Debug, Clone, Copy)]
struct Crop {
    size: usize,
    offset: usize,
}

/// One factor of the per-bin product: a tensor whose planes are
/// transformed, landing `pad` rows and columns into the plan's `n×n`;
/// which of its two plane axes the product sums over (the other one is
/// an axis of the output); and whether its spectrum enters conjugated.
#[derive(Clone, Copy)]
struct Factor<'a> {
    t: &'a Tensor4,
    /// The sum runs over `t`'s channel axis (else over its batch axis).
    sum_c: bool,
    conj: bool,
    pad: usize,
}

impl Factor<'_> {
    /// `(kept, summed)` extents of the two plane axes.
    fn extents(&self) -> (usize, usize) {
        let s = self.t.shape();
        if self.sum_c {
            (s.n, s.c)
        } else {
            (s.c, s.n)
        }
    }

    /// Row-transform every plane into the column-major data rows of the
    /// fused stage's factor, over `[rows×cols]` lanes: `[kept×summed]` when
    /// `kept_is_row` (its A, or its B stored `[n×k]`), else
    /// `[summed×kept]`. Which tensor axis ends up as the row is only the
    /// order the planes are read in.
    fn spectra(&self, plan: &RfftPlan, kept_is_row: bool) -> (Scratch<f32>, Scratch<f32>) {
        let s = self.t.shape();
        let (kept, summed) = self.extents();
        let lanes = kept * summed;
        // The tensor's planes are `[n][c]`: a row axis of `c` reads them
        // transposed.
        let order = if kept_is_row != self.sum_c {
            LaneOrder::Transposed {
                rows: s.c,
                cols: s.n,
            }
        } else {
            LaneOrder::Identity
        };
        let mut re = workspace::take_f32(plan.half_cols() * s.h * lanes);
        let mut im = workspace::take_f32(plan.half_cols() * s.h * lanes);
        plan.forward_rows_into(
            self.t.as_slice(),
            (s.h, s.w),
            self.pad,
            order,
            lanes,
            &mut re,
            &mut im,
        );
        (re, im)
    }

    /// What [`Self::spectra`] wrote, as a factor of the column stage: its
    /// planes' data rows, `pad` rows into the plan.
    fn columns<'s>(&self, (re, im): &'s (Scratch<f32>, Scratch<f32>)) -> Columns<&'s [f32]> {
        let (kept, summed) = self.extents();
        let h = self.t.shape().h;
        Columns {
            re,
            im,
            lanes: kept * summed,
            rows: self.pad..self.pad + h,
        }
    }
}

/// All three passes: `out[i, j] = Σ_s first[i, s] · second[s, j]` per
/// frequency bin (each factor conjugated as it says), inverse-transformed
/// and cropped into a tensor of shape `(i, j, size, size)`. The passes
/// differ only in factors and crop.
///
/// The orientation is a function of the shapes alone ([`dot_products`]).
/// The CGEMM's row body vectorizes along its `n`, so the product is
/// issued as `first·second` when `j` is the longer output axis and as
/// `secondᵀ·firstᵀ` otherwise (complex multiplication commutes, so each
/// factor keeps its own conjugation); the inverse then reads the
/// transposed product in the output's plane order. When both output axes
/// are short, both factors are transformed with their kept axis as the
/// row, `[m×k]` and `[n×k]`, and the dot body sums along the vector. At
/// Table I's extents and batch 4 the long axis is the filter or channel
/// axis (64–128) in eight of the nine products; Conv1 backward-data
/// (`c = 3` against batch 4) has none, and runs the dot body.
fn fft_pass(first: Factor<'_>, second: Factor<'_>, crop: Crop, plan: &RfftPlan) -> Tensor4 {
    let ((d0, k), (d1, k2)) = (first.extents(), second.extents());
    assert_eq!(k, k2, "fft_pass: summed extents");
    let dots = dot_products(d0, d1);
    let flip = !dots && d0 > d1;
    let (a, b, m, n) = if flip {
        (second, first, d1, d0)
    } else {
        (first, second, d0, d1)
    };

    let crop_rows = crop.offset..crop.offset + crop.size;
    let mut c_re = workspace::take_f32(plan.half_cols() * crop.size * m * n); // [c][row][m×n]
    let mut c_im = workspace::take_f32(plan.half_cols() * crop.size * m * n);
    {
        let a_rows = a.spectra(plan, true); // [c][row][m×k]
        let b_rows = b.spectra(plan, dots); // [c][row][n×k] or [c][row][k×n]
        let (transb, ldb) = if dots {
            (Transpose::Yes, k)
        } else {
            (Transpose::No, n)
        };
        let (conj_a, conj_b) = (a.conj, b.conj);
        plan.product_columns(
            a.columns(&a_rows),
            b.columns(&b_rows),
            Columns {
                re: &mut c_re[..],
                im: &mut c_im[..],
                lanes: m * n,
                rows: crop_rows,
            },
            |(ar, ai), (br, bi), (cr, ci)| {
                cgemm_split(
                    transb, conj_a, conj_b, m, n, k, ar, ai, k, br, bi, ldb, cr, ci, n,
                )
            },
        );
    }

    let mut out = Tensor4::zeros(Shape4::new(d0, d1, crop.size, crop.size));
    // The product is `[m×n]`; flipped, that is the output's `[d0][d1]`
    // planes transposed.
    let order = if flip {
        LaneOrder::Transposed { rows: m, cols: n }
    } else {
        LaneOrder::Identity
    };
    let window = (crop.size, crop.offset);
    let planes = out.as_mut_slice();
    plan.inverse_rows_into(&c_re, &c_im, m * n, window, order, planes);
    out
}

/// Whether the per-bin products of `d0×d1` outputs run as dot products
/// along the summed axis (B stored `[n×k]`): when both output axes are
/// shorter than the CGEMM's row tile, which would otherwise run only its
/// `f32` leftover path. Neither the ISA nor the pool width enters,
/// and neither does the sum's length (EXPERIMENTS, "Two real rows per
/// transform, dot products for short outputs", sweeps the two bodies over
/// `n` at `k = 96`).
fn dot_products(d0: usize, d1: usize) -> bool {
    d0.max(d1) < ROW_TILE
}

/// The cached plan for `cfg`'s transform size, [`ConvConfig::fft_size`].
fn plan_for(cfg: &ConvConfig) -> std::sync::Arc<RfftPlan> {
    RfftPlan::cached(cfg.fft_size())
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
        // out[n,f] = Σ_c in[n,c] · conj(filt[f,c]) per bin: conjugated
        // filters → correlation (what CNNs compute).
        let crop = Crop {
            size: cfg.output(),
            offset: 0,
        };
        let x = Factor {
            t: input,
            sum_c: true,
            conj: false,
            pad: cfg.pad,
        };
        let w = Factor {
            t: filters,
            sum_c: true,
            conj: true,
            pad: 0,
        };
        fft_pass(x, w, crop, &plan_for(cfg))
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
        assert_eq!(
            filters.shape(),
            cfg.filter_shape(),
            "FftConv::backward_data: filters"
        );
        // gin[n,c] = Σ_f gout[n,f] · filt[f,c] per bin (true convolution
        // — no conjugation); crop the interior when the forward pass
        // padded the input.
        let crop = Crop {
            size: cfg.input,
            offset: cfg.pad,
        };
        let g = Factor {
            t: grad_out,
            sum_c: true,
            conj: false,
            pad: 0,
        };
        let w = Factor {
            t: filters,
            sum_c: false,
            conj: false,
            pad: 0,
        };
        fft_pass(g, w, crop, &plan_for(cfg))
    }

    fn backward_filters(&self, cfg: &ConvConfig, input: &Tensor4, grad_out: &Tensor4) -> Tensor4 {
        let _span = gcnn_trace::span("conv.fft.backward_filters");
        self.supports(cfg)
            .expect("FftConv::backward_filters: unsupported config");
        assert_eq!(
            input.shape(),
            cfg.input_shape(),
            "FftConv::backward_filters: input"
        );
        assert_eq!(
            grad_out.shape(),
            cfg.output_shape(),
            "FftConv::backward_filters: grad"
        );
        // gw[f,c] = Σ_n conj(gout[n,f]) · in[n,c] per bin: correlation of
        // the (padded) input with the output gradient, reduced over the
        // batch axis.
        let crop = Crop {
            size: cfg.kernel,
            offset: 0,
        };
        let g = Factor {
            t: grad_out,
            sum_c: false,
            conj: true,
            pad: 0,
        };
        let x = Factor {
            t: input,
            sum_c: false,
            conj: false,
            pad: cfg.pad,
        };
        fft_pass(g, x, crop, &plan_for(cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_stride_two() {
        let cfg = ConvConfig::with_channels(1, 1, 8, 1, 3, 2);
        assert!(matches!(
            FftConv.supports(&cfg),
            Err(Unsupported::StrideNotOne { stride: 2 })
        ));
    }

    /// Every pass plans at [`ConvConfig::fft_size`], the smallest power of
    /// two that holds the padded input — also where the padding crosses
    /// one (31 + 2·1 → 64).
    #[test]
    fn plans_at_the_config_fft_size() {
        for (input, pad) in [(31, 1), (30, 1), (9, 0), (1, 3), (13, 1), (128, 0)] {
            let mut cfg = ConvConfig::with_channels(1, 1, input, 1, 3, 1);
            cfg.pad = pad;
            let n = plan_for(&cfg).n();
            assert_eq!(n, cfg.fft_size(), "input {input} pad {pad}");
            let padded = input + 2 * pad;
            assert!(n.is_power_of_two() && n >= padded && n / 2 < padded);
        }
    }

    /// The dot body takes a product exactly when its longer output axis
    /// is below one row tile (32 outputs, on every ISA).
    #[test]
    fn dot_products_below_one_row_tile() {
        assert_eq!(ROW_TILE, 32);
        for (d0, d1) in [(4, 3), (1, 1), (31, 4), (4, 31), (31, 31)] {
            assert!(dot_products(d0, d1), "{d0}x{d1}");
        }
        for (d0, d1) in [(32, 4), (4, 32), (33, 1), (32, 32), (96, 4), (4, 128)] {
            assert!(!dot_products(d0, d1), "{d0}x{d1}");
        }
    }

    #[test]
    #[should_panic(expected = "unsupported config")]
    fn forward_panics_on_stride_two() {
        let cfg = ConvConfig::with_channels(1, 1, 8, 1, 3, 2);
        let x = Tensor4::zeros(cfg.input_shape());
        let w = Tensor4::zeros(cfg.filter_shape());
        FftConv.forward(&cfg, &x, &w);
    }

    /// Batch 2, 3 channels, 8×8 input, 4 filters of 3×3: the right input
    /// and output gradient.
    fn operands() -> (ConvConfig, Tensor4, Tensor4) {
        let cfg = ConvConfig::with_channels(2, 3, 8, 4, 3, 1);
        let (x, g) = (cfg.input_shape(), cfg.output_shape());
        (cfg, Tensor4::zeros(x), Tensor4::zeros(g))
    }

    #[test]
    #[should_panic(expected = "FftConv::backward_data: filters")]
    fn backward_data_checks_filters() {
        let (cfg, _, g) = operands();
        let two_channels = Shape4::new(4, 2, 3, 3);
        FftConv.backward_data(&cfg, &g, &Tensor4::zeros(two_channels));
    }

    #[test]
    #[should_panic(expected = "FftConv::backward_filters: input")]
    fn backward_filters_checks_input() {
        let (cfg, _, g) = operands();
        let larger = Shape4::new(2, 3, 10, 10);
        FftConv.backward_filters(&cfg, &Tensor4::zeros(larger), &g);
    }

    /// A smaller gradient ran unchecked and gave a wrong filter gradient.
    #[test]
    #[should_panic(expected = "FftConv::backward_filters: grad")]
    fn backward_filters_checks_grad() {
        let (cfg, x, _) = operands();
        let smaller = Shape4::new(2, 4, 5, 5);
        FftConv.backward_filters(&cfg, &x, &Tensor4::zeros(smaller));
    }
}
