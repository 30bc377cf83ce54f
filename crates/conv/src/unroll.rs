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

use crate::config::ConvConfig;
use crate::strategy::{ConvAlgorithm, Strategy};
use gcnn_gemm::{sgemm, Transpose};
use gcnn_tensor::im2col::{col2im_from, im2col_into};
use gcnn_tensor::{workspace, Tensor4};
use rayon::prelude::*;

/// The unrolling (im2col + GEMM) convolution algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnrollConv;

impl UnrollConv {
    /// Create a new instance.
    pub fn new() -> Self {
        UnrollConv
    }
}

impl ConvAlgorithm for UnrollConv {
    fn strategy(&self) -> Strategy {
        Strategy::Unrolling
    }

    fn forward(&self, cfg: &ConvConfig, input: &Tensor4, filters: &Tensor4) -> Tensor4 {
        let _span = gcnn_trace::span("conv.unrolling.forward");
        assert_eq!(
            input.shape(),
            cfg.input_shape(),
            "UnrollConv::forward: input"
        );
        assert_eq!(
            filters.shape(),
            cfg.filter_shape(),
            "UnrollConv::forward: filters"
        );
        let geom = cfg.geometry();
        let o2 = cfg.output() * cfg.output();
        let ckk = cfg.channels * cfg.kernel * cfg.kernel;

        let mut out = Tensor4::zeros(cfg.output_shape());
        let image_out = cfg.filters * o2;
        out.as_mut_slice()
            .par_chunks_mut(image_out)
            .enumerate()
            .for_each(|(n, oimg)| {
                // Per-image unroll buffer — the `im2col_gpu_kernel`
                // workspace the paper's Fig. 5 memory analysis charges to
                // Caffe/Torch/Theano-CorrMM. Checked out of the
                // thread-local arena: steady-state iterations allocate
                // nothing. Not zeroed — im2col writes every element.
                let mut cols = workspace::take_f32(ckk * o2);
                im2col_into(input.image(n), &geom, &mut cols);
                sgemm(
                    Transpose::No,
                    Transpose::No,
                    cfg.filters,
                    o2,
                    ckk,
                    1.0,
                    filters.as_slice(),
                    ckk,
                    cols.as_slice(),
                    o2,
                    0.0,
                    oimg,
                    o2,
                );
            });
        out
    }

    fn backward_data(&self, cfg: &ConvConfig, grad_out: &Tensor4, filters: &Tensor4) -> Tensor4 {
        let _span = gcnn_trace::span("conv.unrolling.backward_data");
        assert_eq!(
            grad_out.shape(),
            cfg.output_shape(),
            "UnrollConv::backward_data: grad"
        );
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
        let geom = cfg.geometry();
        let o2 = cfg.output() * cfg.output();
        let ckk = cfg.channels * cfg.kernel * cfg.kernel;

        // One accumulator, images in batch order with `beta = 1`: the
        // order of the sum, and so every bit of ΔW, is the same at any
        // pool width. The parallelism is SGEMM's, over ΔW's row blocks.
        let mut grad_w = Tensor4::zeros(cfg.filter_shape());
        let mut cols = workspace::take_f32(ckk * o2);
        for n in 0..cfg.batch {
            im2col_into(input.image(n), &geom, &mut cols);
            sgemm(
                Transpose::No,
                Transpose::Yes,
                cfg.filters,
                ckk,
                o2,
                1.0,
                grad_out.image(n),
                o2,
                cols.as_slice(),
                o2,
                1.0,
                grad_w.as_mut_slice(),
                ckk,
            );
        }
        grad_w
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
            ConvConfig::with_channels(1, 1, 6, 2, 1, 1),
            ConvConfig::with_channels(3, 2, 9, 5, 3, 2),
            ConvConfig::with_channels(2, 4, 7, 16, 2, 3),
            {
                let mut c = ConvConfig::with_channels(2, 2, 6, 3, 3, 1);
                c.pad = 2;
                c
            },
        ]
    }

    #[test]
    fn forward_matches_reference() {
        for cfg in configs() {
            let x = uniform_tensor(cfg.input_shape(), -1.0, 1.0, 20);
            let w = uniform_tensor(cfg.filter_shape(), -1.0, 1.0, 21);
            let fast = UnrollConv.forward(&cfg, &x, &w);
            let slow = reference::forward_ref(&cfg, &x, &w);
            assert!(
                fast.max_abs_diff(&slow).unwrap() < 1e-3,
                "forward mismatch at {cfg}"
            );
        }
    }

    #[test]
    fn backward_data_matches_reference() {
        for cfg in configs() {
            let g = uniform_tensor(cfg.output_shape(), -1.0, 1.0, 22);
            let w = uniform_tensor(cfg.filter_shape(), -1.0, 1.0, 23);
            let fast = UnrollConv.backward_data(&cfg, &g, &w);
            let slow = reference::backward_data_ref(&cfg, &g, &w);
            assert!(
                fast.max_abs_diff(&slow).unwrap() < 1e-3,
                "backward_data mismatch at {cfg}"
            );
        }
    }

    #[test]
    fn backward_filters_matches_reference() {
        for cfg in configs() {
            let x = uniform_tensor(cfg.input_shape(), -1.0, 1.0, 24);
            let g = uniform_tensor(cfg.output_shape(), -1.0, 1.0, 25);
            let fast = UnrollConv.backward_filters(&cfg, &x, &g);
            let slow = reference::backward_filters_ref(&cfg, &x, &g);
            assert!(
                fast.max_abs_diff(&slow).unwrap() < 1e-2,
                "backward_filters mismatch at {cfg}"
            );
        }
    }

    #[test]
    fn agrees_with_direct_strategy() {
        let cfg = ConvConfig::with_channels(2, 3, 10, 6, 4, 2);
        let x = uniform_tensor(cfg.input_shape(), -1.0, 1.0, 26);
        let w = uniform_tensor(cfg.filter_shape(), -1.0, 1.0, 27);
        let a = UnrollConv.forward(&cfg, &x, &w);
        let b = crate::direct::DirectConv.forward(&cfg, &x, &w);
        assert!(a.max_abs_diff(&b).unwrap() < 1e-3);
    }

    #[test]
    fn strategy_tag() {
        assert_eq!(UnrollConv.strategy(), Strategy::Unrolling);
    }
}
