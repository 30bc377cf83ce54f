//! Unrolling-based convolution: im2col + GEMM.
//!
//! Paper §II-B: the input's local regions are unrolled into the columns
//! of a matrix, the filter bank into rows, and the convolution becomes
//! one GEMM per image (Caffe, Torch-cunn, Theano-CorrMM; cuDNN fuses the
//! unroll into its tiled GEMM but is mathematically identical).
//!
//! * forward:           `Y(f × o²)  = W(f × ck²) · cols(ck² × o²)`
//! * backward-data:     `cols       = Wᵀ · G`, then `col2im`
//! * backward-weights:  `ΔW        += G · colsᵀ`, image after image
//!
//! The forward pass writes no column matrix, as cuDNN's fused unroll
//! does not. At stride 1 without padding, row `(c, ky, kx)` of `cols`
//! is the image itself from `c·i² + ky·i + kx` on, taken at the image's
//! row pitch, so the forward and weight-gradient GEMMs pack it straight
//! from the image ([`OperandView::windows`]). That product has `(o −
//! 1)·i + o` columns: the outputs, plus `i − o` positions per output row
//! that no output uses. The forward pass drops those columns from its
//! result. The weight gradient widens `G` to the same pitch with zeros
//! there, so an Inf or NaN input pixel that no output reads still
//! reaches `ΔW` (`0 · Inf` is NaN). A padded or strided forward pass
//! gathers each packed strip of `cols` from the image at the output
//! pitch ([`OperandView::gathered`]); at LeNet-5's unpadded stride-1
//! shapes that gather took 1.8–2.2× as long as the windows. Padded or
//! strided weight gradients unroll with `im2col`, on the calling core.
//! Backward-data keeps `cols` and `col2im`: the transposed product
//! scatters into overlapping windows, which a view cannot sum.
//!
//! `ΔW`'s `f ≤ 128` rows are one SGEMM row block, so the window weight
//! gradient runs on both cores by columns instead: two participants
//! ([`rayon::join`]) each own a group of `ΔW`'s columns, cut at
//! [`column_grain`], and sum the whole batch into it in image order with
//! `beta = 1`. Every element gets the bits of one accumulator.

use crate::config::ConvConfig;
use crate::strategy::{ConvAlgorithm, Strategy};
use gcnn_gemm::pack::OperandView;
use gcnn_gemm::sgemm::{column_grain, sgemm_blocked, sgemm_blocked_cols};
use gcnn_gemm::{sgemm, BlockSizes, Transpose};
use gcnn_tensor::im2col::{col2im_from, im2col_into};
use gcnn_tensor::{workspace, Shape4, Tensor4};
use rayon::prelude::*;
use std::ops::Range;

/// Panic, naming `what` (`"<pass>: <operand>"`), unless `t` is `want`-shaped.
#[track_caller]
fn check(t: &Tensor4, want: Shape4, what: &str) {
    assert_eq!(t.shape(), want, "UnrollConv::{what}");
}

/// Columns of the product over image windows, `(o − 1)·i + o`, for a
/// stride-1, unpadded layer; `None` for the layers `im2col` unrolls.
fn window_span(cfg: &ConvConfig) -> Option<usize> {
    let o = cfg.output();
    (cfg.stride == 1 && cfg.pad == 0).then(|| (o - 1) * cfg.input + o)
}

/// `C(m × n) ← op(A)·op(B) + beta·C`, C dense, at the default blocking.
fn gemm(m: usize, n: usize, k: usize, a: &OperandView, b: &OperandView, beta: f32, c: &mut [f32]) {
    sgemm_blocked(m, n, k, 1.0, a, b, beta, c, n, BlockSizes::default());
}

/// The unrolling (im2col + GEMM) convolution algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnrollConv;

impl ConvAlgorithm for UnrollConv {
    fn strategy(&self) -> Strategy {
        Strategy::Unrolling
    }

    fn forward(&self, cfg: &ConvConfig, input: &Tensor4, filters: &Tensor4) -> Tensor4 {
        let _span = gcnn_trace::span("conv.unrolling.forward");
        check(input, cfg.input_shape(), "forward: input");
        check(filters, cfg.filter_shape(), "forward: filters");
        let geom = cfg.geometry();
        let (i, o) = (cfg.input, cfg.output());
        let o2 = o * o;
        let ckk = cfg.channels * cfg.kernel * cfg.kernel;
        let w = OperandView::new(filters.as_slice(), ckk, false);

        let mut out = Tensor4::zeros(cfg.output_shape());
        let image_out = cfg.filters * o2;
        out.as_mut_slice()
            .par_chunks_mut(image_out)
            .enumerate()
            .for_each(|(n, oimg)| {
                let image = input.image(n);
                // Scratch from the thread-local arena, not zeroed: the
                // product (beta = 0) writes every element.
                if let Some(span) = window_span(cfg) {
                    let mut wide = workspace::take_f32(cfg.filters * span);
                    let cols = OperandView::windows(image, i, cfg.kernel, false);
                    gemm(cfg.filters, span, ckk, &w, &cols, 0.0, &mut wide);
                    for (oplane, wplane) in oimg.chunks_exact_mut(o2).zip(wide.chunks_exact(span)) {
                        for (orow, wrow) in oplane.chunks_exact_mut(o).zip(wplane.chunks(i)) {
                            orow.copy_from_slice(&wrow[..o]);
                        }
                    }
                } else {
                    // The `im2col_gpu_kernel` workspace the paper's Fig. 5
                    // charges to Caffe/Torch/Theano-CorrMM, never written:
                    // the GEMM gathers each packed strip from the image.
                    let cols = OperandView::gathered(image, &geom);
                    gemm(cfg.filters, o2, ckk, &w, &cols, 0.0, oimg);
                }
            });
        out
    }

    fn backward_data(&self, cfg: &ConvConfig, grad_out: &Tensor4, filters: &Tensor4) -> Tensor4 {
        let _span = gcnn_trace::span("conv.unrolling.backward_data");
        check(grad_out, cfg.output_shape(), "backward_data: grad");
        check(filters, cfg.filter_shape(), "backward_data: filters");
        let geom = cfg.geometry();
        let o2 = cfg.output() * cfg.output();
        let ckk = cfg.channels * cfg.kernel * cfg.kernel;

        let mut grad_in = Tensor4::zeros(cfg.input_shape());
        let image_in = cfg.channels * cfg.input * cfg.input;
        grad_in
            .as_mut_slice()
            .par_chunks_mut(image_in)
            .enumerate()
            .for_each(|(n, gimg)| {
                // Arena scratch; sgemm's beta = 0 overwrites every entry.
                let mut cols = workspace::take_f32(ckk * o2);
                sgemm(
                    Transpose::Yes,
                    Transpose::No,
                    ckk,
                    o2,
                    cfg.filters,
                    1.0,
                    filters.as_slice(),
                    ckk,
                    grad_out.image(n),
                    o2,
                    0.0,
                    &mut cols,
                    o2,
                );
                col2im_from(&cols, &geom, gimg);
            });
        grad_in
    }

    fn backward_filters(&self, cfg: &ConvConfig, input: &Tensor4, grad_out: &Tensor4) -> Tensor4 {
        let _span = gcnn_trace::span("conv.unrolling.backward_filters");
        check(input, cfg.input_shape(), "backward_filters: input");
        check(grad_out, cfg.output_shape(), "backward_filters: grad");
        let geom = cfg.geometry();
        let (i, o) = (cfg.input, cfg.output());
        let o2 = o * o;
        let ckk = cfg.channels * cfg.kernel * cfg.kernel;

        // Every ΔW element is summed over the images in batch order with
        // `beta = 1`, as one accumulator would, so its bits are the same at
        // any pool width. ΔW's f ≤ 128 rows are one SGEMM row block, so
        // the parallel axis is its columns: each of two participants owns
        // a group of them, cut at SGEMM's column grain, and walks the
        // whole batch into its own accumulator.
        let mut grad_w = Tensor4::zeros(cfg.filter_shape());
        let dw = grad_w.as_mut_slice();
        if let Some(span) = window_span(cfg) {
            // Columns `cols` of ΔW into `acc` (`f × cols.len()`, zeroed).
            let part = |cols: Range<usize>, acc: &mut [f32]| {
                // G at the image's row pitch: the positions no output
                // uses are zeroed once here and never written.
                let mut wide = workspace::take_f32(cfg.filters * span);
                wide.fill(0.0);
                for n in 0..cfg.batch {
                    let g = grad_out.image(n);
                    for (wplane, gplane) in wide.chunks_exact_mut(span).zip(g.chunks_exact(o2)) {
                        for (wrow, grow) in wplane.chunks_mut(i).zip(gplane.chunks_exact(o)) {
                            wrow[..o].copy_from_slice(grow);
                        }
                    }
                    let g = OperandView::new(&wide, span, false);
                    let x = OperandView::windows(input.image(n), i, cfg.kernel, true);
                    let (f, ld) = (cfg.filters, cols.len());
                    let blocks = BlockSizes::default();
                    sgemm_blocked_cols(f, cols.clone(), span, 1.0, &g, &x, 1.0, acc, ld, blocks);
                }
            };
            // G as stored, the windows transposed: all the grain reads.
            let (g, x) = (
                OperandView::new(&[], span, false),
                OperandView::new(&[], span, true),
            );
            let grain = column_grain(cfg.filters, &g, &x);
            let mid = ckk / 2 / grain * grain;
            if mid == 0 {
                part(0..ckk, dw);
            } else {
                let mut left = workspace::take_f32(cfg.filters * mid);
                let mut right = workspace::take_f32(cfg.filters * (ckk - mid));
                left.fill(0.0);
                right.fill(0.0);
                // The caller starts the first closure at once and the other
                // participant wakes first: the caller takes the larger group.
                rayon::join(|| part(mid..ckk, &mut right), || part(0..mid, &mut left));
                let halves = left.chunks_exact(mid).zip(right.chunks_exact(ckk - mid));
                for (row, (l, r)) in dw.chunks_exact_mut(ckk).zip(halves) {
                    row[..mid].copy_from_slice(l);
                    row[mid..].copy_from_slice(r);
                }
            }
        } else {
            let mut cols = workspace::take_f32(ckk * o2);
            for n in 0..cfg.batch {
                im2col_into(input.image(n), &geom, &mut cols);
                let g = OperandView::new(grad_out.image(n), o2, false);
                let cols = OperandView::new(&cols, o2, true);
                gemm(cfg.filters, ckk, o2, &g, &cols, 1.0, dw);
            }
        }
        grad_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn operands() -> (ConvConfig, Tensor4, Tensor4) {
        let cfg = ConvConfig::with_channels(2, 3, 8, 4, 3, 1);
        let (x, g) = (cfg.input_shape(), cfg.output_shape());
        (cfg, Tensor4::zeros(x), Tensor4::zeros(g))
    }

    #[test]
    #[should_panic(expected = "UnrollConv::backward_data: filters")]
    fn backward_data_checks_filters() {
        let (cfg, _, g) = operands();
        let five_channels = Shape4::new(4, 5, 3, 3);
        UnrollConv.backward_data(&cfg, &g, &Tensor4::zeros(five_channels));
    }

    #[test]
    #[should_panic(expected = "UnrollConv::backward_filters: input")]
    fn backward_filters_checks_input() {
        let (cfg, _, g) = operands();
        let larger = Shape4::new(2, 3, 10, 10);
        UnrollConv.backward_filters(&cfg, &Tensor4::zeros(larger), &g);
    }

    /// A larger gradient ran unchecked and gave a wrong filter gradient.
    #[test]
    #[should_panic(expected = "UnrollConv::backward_filters: grad")]
    fn backward_filters_checks_grad() {
        let (cfg, x, _) = operands();
        let larger = Shape4::new(2, 4, 7, 7);
        UnrollConv.backward_filters(&cfg, &x, &Tensor4::zeros(larger));
    }

    #[test]
    fn strategy_tag() {
        assert_eq!(UnrollConv.strategy(), Strategy::Unrolling);
    }

    fn noise(shape: Shape4, seed: u32) -> Tensor4 {
        let data = (0..shape.len() as u32)
            .map(|v| ((v.wrapping_mul(2_654_435_761) ^ seed) % 2001) as f32 / 1000.0 - 1.0)
            .collect();
        Tensor4::from_vec(shape, data).expect("sized to its shape")
    }

    /// ΔW as one accumulator sums it: one SGEMM over all of ΔW per
    /// image, in batch order, with `beta = 1`.
    fn one_accumulator(cfg: &ConvConfig, input: &Tensor4, grad: &Tensor4) -> Vec<f32> {
        let (i, o, f) = (cfg.input, cfg.output(), cfg.filters);
        let ckk = cfg.channels * cfg.kernel * cfg.kernel;
        let span = window_span(cfg).expect("a stride-1, unpadded layer");
        let mut dw = vec![0.0; f * ckk];
        let mut wide = vec![0.0; f * span];
        for n in 0..cfg.batch {
            for (row, grow) in grad.image(n).chunks_exact(o).enumerate() {
                let at = row / o * span + row % o * i;
                wide[at..at + o].copy_from_slice(grow);
            }
            let g = OperandView::new(&wide, span, false);
            let x = OperandView::windows(input.image(n), i, cfg.kernel, true);
            let blocks = BlockSizes::default();
            sgemm_blocked(f, ckk, span, 1.0, &g, &x, 1.0, &mut dw, ckk, blocks);
        }
        dw
    }

    /// The column groups give every ΔW element the bits of one
    /// accumulator at pool widths 1–4: LeNet-5's conv1 (`f = 6`, the dot
    /// path), its conv2 (`f = 16`, `c·k² = 150`: packed strips and an
    /// edge strip) and a layer whose `c·k²` fits in one strip.
    #[test]
    fn column_groups_keep_one_accumulators_bits() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (seed, cfg) in [
            ConvConfig::with_channels(32, 1, 32, 6, 5, 1),
            ConvConfig::with_channels(32, 6, 14, 16, 5, 1),
            ConvConfig::with_channels(5, 1, 9, 16, 2, 1),
        ]
        .into_iter()
        .enumerate()
        {
            let input = noise(cfg.input_shape(), seed as u32);
            let grad = noise(cfg.output_shape(), 7 + seed as u32);
            let want = bits(&one_accumulator(&cfg, &input, &grad));
            for width in 1..=4 {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(width);
                let got = pool
                    .build()
                    .expect("pool")
                    .install(|| UnrollConv.backward_filters(&cfg, &input, &grad));
                assert!(bits(got.as_slice()) == want, "{cfg} at width {width}");
            }
        }
    }
}
