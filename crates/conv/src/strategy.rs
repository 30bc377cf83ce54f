//! The convolution-strategy abstraction.
//!
//! Paper §II-B: *"mainstream CNN implementations follow three convolution
//! strategies: direct convolution, unrolling-based convolution, and
//! FFT-based convolution."* Each strategy is a [`ConvAlgorithm`]; the
//! seven framework models in `gcnn-frameworks` each delegate their
//! numerics to one of them.
//!
//! Both backward passes have defaults that are one stride-1 call of the
//! strategy's own forward pass over rearranged operands, the way fbfft
//! (arXiv:1412.7580) computes bprop and accGradParameters as
//! convolutions: a strategy with only a forward kernel ([`crate::DirectConv`])
//! trains on it, and one with faster gradients of its own overrides them.

use crate::config::ConvConfig;
use gcnn_tensor::{Shape4, Tensor4, Workspace};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The three convolution strategies of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// Sliding-window dot products (cuda-convnet2, Theano-legacy).
    Direct,
    /// im2col + GEMM (Caffe, Torch-cunn, Theano-CorrMM, cuDNN).
    Unrolling,
    /// Fourier-domain pointwise product (fbfft, Theano-fft).
    Fft,
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Strategy::Direct => "direct",
            Strategy::Unrolling => "unrolling",
            Strategy::Fft => "fft",
        })
    }
}

/// Why a strategy (or framework) rejects a configuration — the paper's
/// "shape limitations" (§IV-B Summary).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Unsupported {
    /// FFT-based convolutions only support stride 1.
    StrideNotOne {
        /// The offending stride.
        stride: usize,
    },
    /// cuda-convnet2 requires the mini-batch to be a multiple of 32.
    BatchNotMultipleOf {
        /// Required divisor.
        multiple: usize,
        /// The offending batch size.
        batch: usize,
    },
    /// cuda-convnet2 requires the filter count to be a multiple of 16.
    FiltersNotMultipleOf {
        /// Required divisor.
        multiple: usize,
        /// The offending filter count.
        filters: usize,
    },
    /// The geometry itself is impossible (kernel larger than padded
    /// input, zero stride, …).
    InvalidGeometry {
        /// Human-readable description.
        reason: String,
    },
    /// The configuration exceeds the device's memory.
    OutOfMemory {
        /// Bytes requested.
        required: u64,
        /// Bytes available.
        available: u64,
    },
}

impl fmt::Display for Unsupported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Unsupported::StrideNotOne { stride } => {
                write!(f, "FFT-based convolution requires stride 1, got {stride}")
            }
            Unsupported::BatchNotMultipleOf { multiple, batch } => {
                write!(f, "mini-batch {batch} is not a multiple of {multiple}")
            }
            Unsupported::FiltersNotMultipleOf { multiple, filters } => {
                write!(f, "filter count {filters} is not a multiple of {multiple}")
            }
            Unsupported::InvalidGeometry { reason } => write!(f, "invalid geometry: {reason}"),
            Unsupported::OutOfMemory {
                required,
                available,
            } => write!(
                f,
                "out of device memory: need {required} bytes, have {available}"
            ),
        }
    }
}

impl std::error::Error for Unsupported {}

/// Panic, naming `what` (`"<pass>: <operand>"`), unless `t` is `want`-shaped.
#[track_caller]
pub(crate) fn check(t: &Tensor4, want: Shape4, what: &str) {
    assert_eq!(t.shape(), want, "{what}");
}

/// `(ry, rx, c)` of plane `rc` of a `(ry, rx, c)`-major phase stack.
fn phase(rc: usize, c: usize, s: usize) -> (usize, usize, usize) {
    (rc / c / s, rc / c % s, rc % c)
}

/// The spans `conv.<strategy>.backward_{data,filters}` the default
/// backward passes open.
fn backward_spans(strategy: Strategy) -> [&'static str; 2] {
    match strategy {
        Strategy::Direct => ["conv.direct.backward_data", "conv.direct.backward_filters"],
        Strategy::Unrolling => [
            "conv.unrolling.backward_data",
            "conv.unrolling.backward_filters",
        ],
        Strategy::Fft => ["conv.fft.backward_data", "conv.fft.backward_filters"],
    }
}

/// A convolution algorithm: forward plus both backward passes.
///
/// Implementations must produce results matching
/// [`crate::reference`] up to `f32` rounding; the test suite enforces
/// this for every strategy.
pub trait ConvAlgorithm: Send + Sync {
    /// Which of the paper's three strategies this is.
    fn strategy(&self) -> Strategy;

    /// Shape restrictions. The default accepts any valid geometry.
    fn supports(&self, cfg: &ConvConfig) -> Result<(), Unsupported> {
        if !cfg.is_valid() {
            return Err(Unsupported::InvalidGeometry {
                reason: format!("{cfg}"),
            });
        }
        Ok(())
    }

    /// Forward pass: `(b,c,i,i) ⊛ (f,c,k,k) → (b,f,o,o)`.
    fn forward(&self, cfg: &ConvConfig, input: &Tensor4, filters: &Tensor4) -> Tensor4;

    /// Gradient w.r.t. the input, as one stride-1 forward pass.
    ///
    /// Padded input row `y + p = q·s + ry` meets only the taps
    /// `ky = ry + j·s`, `j < K = ⌈k/s⌉`, of output row `q − j`. So each of
    /// the `s²` phases `(ry, rx)` is a `K`-tap sub-filter (zero past `k`),
    /// rotated 180° and with `c`/`f` swapped, correlated with the gradient
    /// padded by `K − 1`. The phases stack as `c·s²` output channels of one
    /// forward pass, and input pixel `(y, x)` reads its phase plane at
    /// `(q_y, q_x)`: pad above the kernel is a crop, a phase without taps
    /// stays zero, and a pixel past the last window (`q` beyond the planes)
    /// gets 0.
    fn backward_data(&self, cfg: &ConvConfig, grad_out: &Tensor4, filters: &Tensor4) -> Tensor4 {
        let _span = gcnn_trace::span(backward_spans(self.strategy())[0]);
        check(grad_out, cfg.output_shape(), "backward_data: grad");
        check(filters, cfg.filter_shape(), "backward_data: filters");
        let (c, k, s, p) = (cfg.channels, cfg.kernel, cfg.stride, cfg.pad);
        let taps = k.div_ceil(s);
        let phases = ConvConfig {
            pad: taps - 1,
            ..ConvConfig::with_channels(cfg.batch, cfg.filters, cfg.output(), c * s * s, taps, 1)
        };
        let bank = Tensor4::from_fn(phases.filter_shape(), |rc, f, ty, tx| {
            let (ry, rx, ci) = phase(rc, c, s);
            let (ky, kx) = (ry + (taps - 1 - ty) * s, rx + (taps - 1 - tx) * s);
            if ky < k && kx < k {
                filters.get(f, ci, ky, kx)
            } else {
                0.0
            }
        });
        let planes = self.forward(&phases, grad_out, &bank);
        let q = phases.output();
        Tensor4::from_fn(cfg.input_shape(), |n, ci, y, x| {
            let ((qy, ry), (qx, rx)) = (((y + p) / s, (y + p) % s), ((x + p) / s, (x + p) % s));
            if qy < q && qx < q {
                planes.get(n, (ry * s + rx) * c + ci, qy, qx)
            } else {
                0.0
            }
        })
    }

    /// Gradient w.r.t. the filter bank, as one stride-1 forward pass.
    ///
    /// Tap `ky = ry + j·s` reads padded input row `(oy + j)·s + ry`, which
    /// is row `oy + j` of the phase image `x_r[u] = x_padded[u·s + ry]`.
    /// The `s²·c` phase images (each `⌈(i + 2p)/s⌉` square, zero past the
    /// edge) stack along the batch axis `(ry, rx, c)`-major with the images
    /// as channels, and the gradient transposed to `(f, n, o, o)` is the
    /// filter bank of one pad-0 forward pass; each phase plane holds its
    /// taps at `(j_y, j_x)`.
    fn backward_filters(&self, cfg: &ConvConfig, input: &Tensor4, grad_out: &Tensor4) -> Tensor4 {
        let _span = gcnn_trace::span(backward_spans(self.strategy())[1]);
        check(input, cfg.input_shape(), "backward_filters: input");
        check(grad_out, cfg.output_shape(), "backward_filters: grad");
        let (c, s, p, i) = (cfg.channels, cfg.stride, cfg.pad, cfg.input);
        let edge = (i + 2 * p).div_ceil(s);
        let phases =
            ConvConfig::with_channels(c * s * s, cfg.batch, edge, cfg.filters, cfg.output(), 1);
        let images = Tensor4::from_fn(phases.input_shape(), |rc, n, u, v| {
            let (ry, rx, ci) = phase(rc, c, s);
            let (y, x) = (u * s + ry, v * s + rx);
            if (p..p + i).contains(&y) && (p..p + i).contains(&x) {
                input.get(n, ci, y - p, x - p)
            } else {
                0.0
            }
        });
        let bank = Tensor4::from_fn(phases.filter_shape(), |f, n, oy, ox| {
            grad_out.get(n, f, oy, ox)
        });
        let planes = self.forward(&phases, &images, &bank);
        Tensor4::from_fn(cfg.filter_shape(), |f, ci, ky, kx| {
            planes.get((ky % s * s + kx % s) * c + ci, f, ky / s, kx / s)
        })
    }

    /// [`ConvAlgorithm::forward`] with an explicit [`Workspace`].
    ///
    /// The in-tree strategies draw their scratch from thread-local
    /// pools, so the handle carries no storage — it makes the reuse
    /// dependency visible in signatures (the training loop owns one
    /// workspace for the whole run) and gives external implementations
    /// a place to hang per-call scratch. Defaults delegate to the
    /// plain methods.
    fn forward_ws(
        &self,
        cfg: &ConvConfig,
        input: &Tensor4,
        filters: &Tensor4,
        ws: &mut Workspace,
    ) -> Tensor4 {
        let _ = ws;
        self.forward(cfg, input, filters)
    }

    /// [`ConvAlgorithm::backward_data`] with an explicit [`Workspace`].
    fn backward_data_ws(
        &self,
        cfg: &ConvConfig,
        grad_out: &Tensor4,
        filters: &Tensor4,
        ws: &mut Workspace,
    ) -> Tensor4 {
        let _ = ws;
        self.backward_data(cfg, grad_out, filters)
    }

    /// [`ConvAlgorithm::backward_filters`] with an explicit
    /// [`Workspace`].
    fn backward_filters_ws(
        &self,
        cfg: &ConvConfig,
        input: &Tensor4,
        grad_out: &Tensor4,
        ws: &mut Workspace,
    ) -> Tensor4 {
        let _ = ws;
        self.backward_filters(cfg, input, grad_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_names() {
        assert_eq!(Strategy::Direct.to_string(), "direct");
        assert_eq!(Strategy::Unrolling.to_string(), "unrolling");
        assert_eq!(Strategy::Fft.to_string(), "fft");
    }

    #[test]
    fn unsupported_messages() {
        assert!(Unsupported::StrideNotOne { stride: 2 }
            .to_string()
            .contains("stride 1"));
        assert!(Unsupported::BatchNotMultipleOf {
            multiple: 32,
            batch: 33
        }
        .to_string()
        .contains("multiple of 32"));
    }
}
