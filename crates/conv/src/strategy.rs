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

/// `dst[j·s] = src[j]` for every `j` both reach: a row copy, spread
/// over every `s`-th destination float.
fn spread(dst: &mut [f32], s: usize, src: &[f32]) {
    if s == 1 {
        let len = dst.len().min(src.len());
        dst[..len].copy_from_slice(&src[..len]);
    } else {
        for (d, &v) in dst.iter_mut().step_by(s).zip(src) {
            *d = v;
        }
    }
}

/// `dst[j] = src[j·s]` for every `j` both reach: a row copy of every
/// `s`-th source float.
fn gather(dst: &mut [f32], s: usize, src: &[f32]) {
    if s == 1 {
        let len = dst.len().min(src.len());
        dst[..len].copy_from_slice(&src[..len]);
    } else {
        for (d, &v) in dst.iter_mut().zip(src.iter().step_by(s)) {
            *d = v;
        }
    }
}

/// [`ConvAlgorithm::backward_data`]'s filter bank, `(c·s², f, K, K)`:
/// plane `((ry, rx, c), f)` holds taps `(ry + (K − 1 − ty)·s, rx + (K −
/// 1 − tx)·s)` of filter `(f, c)`, zero past `k` — each filter row
/// copied reversed, every `s`-th tap.
fn phase_bank(cfg: &ConvConfig, filters: &Tensor4, taps: usize) -> Tensor4 {
    let (c, k, s, f) = (cfg.channels, cfg.kernel, cfg.stride, cfg.filters);
    let mut bank = Tensor4::zeros(Shape4::new(c * s * s, f, taps, taps));
    let stacks = bank.as_mut_slice().chunks_exact_mut(f * taps * taps);
    for (rc, stack) in stacks.enumerate() {
        let (ry, rx, ci) = phase(rc, c, s);
        for (fi, plane) in stack.chunks_exact_mut(taps * taps).enumerate() {
            let src = filters.plane(fi, ci);
            let rows = plane.chunks_exact_mut(taps).rev();
            for (row, ky) in rows.zip((ry..k).step_by(s)) {
                let taps_row = src[ky * k..][..k].iter().skip(rx).step_by(s);
                for (d, &v) in row.iter_mut().rev().zip(taps_row) {
                    *d = v;
                }
            }
        }
    }
    bank
}

/// [`ConvAlgorithm::backward_data`]'s result from its phase planes:
/// input pixel `(y, x)` is phase plane `((y + p) % s, (x + p) % s)` at
/// `((y + p) / s, (x + p) / s)`, or 0 past the planes — per input row,
/// one spread row copy per phase `rx`.
fn phase_crop(cfg: &ConvConfig, planes: &Tensor4) -> Tensor4 {
    let (c, s, p, i) = (cfg.channels, cfg.stride, cfg.pad, cfg.input);
    let q = planes.shape().h;
    let mut grad_in = Tensor4::zeros(cfg.input_shape());
    for (nc, plane) in grad_in.as_mut_slice().chunks_exact_mut(i * i).enumerate() {
        let (n, ci) = (nc / c, nc % c);
        for (y, row) in plane.chunks_exact_mut(i).enumerate() {
            let (qy, ry) = ((y + p) / s, (y + p) % s);
            if qy >= q {
                break;
            }
            for rx in 0..s {
                // The first x with (x + p) % s == rx, and its plane column.
                let x0 = (rx + s - p % s) % s;
                let src = &planes.plane(n, (ry * s + rx) * c + ci)[qy * q..][..q];
                if let (Some(dst), Some(src)) = (row.get_mut(x0..), src.get((x0 + p) / s..)) {
                    spread(dst, s, src);
                }
            }
        }
    }
    grad_in
}

/// [`ConvAlgorithm::backward_filters`]'s operand images, `(c·s², n, e,
/// e)`: image `((ry, rx, c), n)` holds padded input `(u·s + ry, v·s +
/// rx)` of plane `(n, c)`, zero outside the image — one gathered row
/// copy per row.
fn phase_images(cfg: &ConvConfig, input: &Tensor4, edge: usize) -> Tensor4 {
    let (c, s, p, i, b) = (cfg.channels, cfg.stride, cfg.pad, cfg.input, cfg.batch);
    let mut images = Tensor4::zeros(Shape4::new(c * s * s, b, edge, edge));
    let planes = images.as_mut_slice().chunks_exact_mut(edge * edge);
    for (rcn, plane) in planes.enumerate() {
        let (ry, rx, ci) = phase(rcn / b, c, s);
        let src = input.plane(rcn % b, ci);
        // The first column inside the image, and the image column it reads.
        let v0 = p.saturating_sub(rx).div_ceil(s);
        let x0 = v0 * s + rx - p;
        for (u, row) in plane.chunks_exact_mut(edge).enumerate() {
            let Some(y) = (u * s + ry).checked_sub(p).filter(|&y| y < i) else {
                continue;
            };
            if let (Some(dst), Some(srow)) = (row.get_mut(v0..), src[y * i..][..i].get(x0..)) {
                gather(dst, s, srow);
            }
        }
    }
    images
}

/// ΔW from [`ConvAlgorithm::backward_filters`]'s phase planes: tap `(ky,
/// kx)` of filter `(f, c)` is phase plane `((ky % s, kx % s, c), f)` at
/// `(ky / s, kx / s)` — per filter row, one spread row copy per phase
/// `rx`.
fn tap_crop(cfg: &ConvConfig, planes: &Tensor4) -> Tensor4 {
    let (c, s, k) = (cfg.channels, cfg.stride, cfg.kernel);
    let t = planes.shape().h;
    let mut grad_w = Tensor4::zeros(cfg.filter_shape());
    for (fc, plane) in grad_w.as_mut_slice().chunks_exact_mut(k * k).enumerate() {
        let (f, ci) = (fc / c, fc % c);
        for (ky, row) in plane.chunks_exact_mut(k).enumerate() {
            let (jy, ry) = (ky / s, ky % s);
            for rx in 0..s.min(k) {
                let src = &planes.plane((ry * s + rx) * c + ci, f)[jy * t..][..t];
                spread(&mut row[rx..], s, src);
            }
        }
    }
    grad_w
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
        let (c, k, s) = (cfg.channels, cfg.kernel, cfg.stride);
        let taps = k.div_ceil(s);
        let phases = ConvConfig {
            pad: taps - 1,
            ..ConvConfig::with_channels(cfg.batch, cfg.filters, cfg.output(), c * s * s, taps, 1)
        };
        let bank = phase_bank(cfg, filters, taps);
        let planes = self.forward(&phases, grad_out, &bank);
        phase_crop(cfg, &planes)
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
        let (c, s) = (cfg.channels, cfg.stride);
        let edge = (cfg.input + 2 * cfg.pad).div_ceil(s);
        let phases =
            ConvConfig::with_channels(c * s * s, cfg.batch, edge, cfg.filters, cfg.output(), 1);
        let images = phase_images(cfg, input, edge);
        let mut bank = Tensor4::zeros(phases.filter_shape());
        let o2 = cfg.output() * cfg.output();
        for (fn_, plane) in bank.as_mut_slice().chunks_exact_mut(o2).enumerate() {
            plane.copy_from_slice(grad_out.plane(fn_ % cfg.batch, fn_ / cfg.batch));
        }
        let planes = self.forward(&phases, &images, &bank);
        tap_crop(cfg, &planes)
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

    fn numbered(shape: Shape4) -> Tensor4 {
        Tensor4::from_vec(shape, (0..shape.len()).map(|v| v as f32 + 0.5).collect())
            .expect("sized to its shape")
    }

    fn bits(t: &Tensor4) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Every valid geometry up to stride 4, pad 2 and kernel 5.
    fn geometries() -> impl Iterator<Item = ConvConfig> {
        let strides = (1..=4).flat_map(|s| (0..=2).map(move |p| (s, p)));
        strides.flat_map(|(s, p)| {
            (1..=5).flat_map(move |k| {
                (1..=9).filter_map(move |i| {
                    let cfg = ConvConfig {
                        pad: p,
                        ..ConvConfig::with_channels(2, 3, i, 2, k, s)
                    };
                    cfg.is_valid().then_some(cfg)
                })
            })
        })
    }

    /// The row copies of both default backward passes place every value
    /// where the per-element index rules of their docs do, zeros included.
    #[test]
    fn row_copies_follow_the_index_rules() {
        for cfg in geometries() {
            let (c, k, s, p, i) = (cfg.channels, cfg.kernel, cfg.stride, cfg.pad, cfg.input);
            // Backward-data: the bank and the crop.
            let taps = k.div_ceil(s);
            let filters = numbered(cfg.filter_shape());
            let want = Tensor4::from_fn(
                Shape4::new(c * s * s, cfg.filters, taps, taps),
                |rc, f, ty, tx| {
                    let (ry, rx, ci) = phase(rc, c, s);
                    let (ky, kx) = (ry + (taps - 1 - ty) * s, rx + (taps - 1 - tx) * s);
                    if ky < k && kx < k {
                        filters.get(f, ci, ky, kx)
                    } else {
                        0.0
                    }
                },
            );
            assert_eq!(
                bits(&phase_bank(&cfg, &filters, taps)),
                bits(&want),
                "bank {cfg}"
            );
            let q = cfg.output() + taps - 1;
            let planes = numbered(Shape4::new(cfg.batch, c * s * s, q, q));
            let want = Tensor4::from_fn(cfg.input_shape(), |n, ci, y, x| {
                let ((qy, ry), (qx, rx)) = (((y + p) / s, (y + p) % s), ((x + p) / s, (x + p) % s));
                if qy < q && qx < q {
                    planes.get(n, (ry * s + rx) * c + ci, qy, qx)
                } else {
                    0.0
                }
            });
            assert_eq!(bits(&phase_crop(&cfg, &planes)), bits(&want), "crop {cfg}");
            // Backward-filters: the images and the crop.
            let edge = (i + 2 * p).div_ceil(s);
            let input = numbered(cfg.input_shape());
            let want = Tensor4::from_fn(
                Shape4::new(c * s * s, cfg.batch, edge, edge),
                |rc, n, u, v| {
                    let (ry, rx, ci) = phase(rc, c, s);
                    let (y, x) = (u * s + ry, v * s + rx);
                    if (p..p + i).contains(&y) && (p..p + i).contains(&x) {
                        input.get(n, ci, y - p, x - p)
                    } else {
                        0.0
                    }
                },
            );
            assert_eq!(
                bits(&phase_images(&cfg, &input, edge)),
                bits(&want),
                "images {cfg}"
            );
            let t = edge - cfg.output() + 1;
            let planes = numbered(Shape4::new(c * s * s, cfg.filters, t, t));
            let want = Tensor4::from_fn(cfg.filter_shape(), |f, ci, ky, kx| {
                planes.get((ky % s * s + kx % s) * c + ci, f, ky / s, kx / s)
            });
            assert_eq!(bits(&tap_crop(&cfg, &planes)), bits(&want), "taps {cfg}");
        }
    }

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
