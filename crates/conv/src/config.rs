//! Convolution-layer configuration — the paper's 5-tuple `(b, i, f, k, s)`.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One convolutional-layer configuration.
///
/// The paper organizes its parameter space as a 5-tuple `(b, i, f, k, s)`
/// (§IV-B): mini-batch, square input size, filter count, square kernel
/// size, stride. The tuple omits the input-channel count; following
/// convnet-benchmarks (from which the paper takes its Table I), we carry
/// channels explicitly and derive them with [`ConvConfig::from_tuple`]
/// when only the 5-tuple is given.
///
/// ```
/// use gcnn_conv::ConvConfig;
///
/// let cfg = ConvConfig::paper_base(); // (64, 128, 64, 11, 1)
/// assert_eq!(cfg.output(), 118);
/// assert_eq!(cfg.filter_shape().len(), 64 * 3 * 11 * 11);
/// assert!(cfg.forward_flops() > 40_000_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvConfig {
    /// Mini-batch size `b`.
    pub batch: usize,
    /// Input channels `c` (not part of the paper's tuple; see
    /// [`ConvConfig::from_tuple`]).
    pub channels: usize,
    /// Square input spatial size `i`.
    pub input: usize,
    /// Number of filters `f` (= output channels).
    pub filters: usize,
    /// Square kernel size `k`.
    pub kernel: usize,
    /// Stride `s`.
    pub stride: usize,
    /// Zero padding on each side (0 throughout the paper's sweeps).
    pub pad: usize,
}

impl ConvConfig {
    /// Construct from the paper's 5-tuple, deriving the channel count
    /// with the convnet-benchmarks convention: 3 channels for
    /// image-sized inputs (i ≥ 64, i.e. first-layer shapes), otherwise a
    /// mid-network shape with channels matching typical real-life models
    /// (64 for i ≥ 32, 128 for i ≥ 16, 384 below).
    pub const fn from_tuple(b: usize, i: usize, f: usize, k: usize, s: usize) -> Self {
        let channels = if i >= 64 {
            3
        } else if i >= 32 {
            64
        } else if i >= 16 {
            128
        } else {
            384
        };
        ConvConfig {
            batch: b,
            channels,
            input: i,
            filters: f,
            kernel: k,
            stride: s,
            pad: 0,
        }
    }

    /// Construct with an explicit channel count.
    pub const fn with_channels(b: usize, c: usize, i: usize, f: usize, k: usize, s: usize) -> Self {
        ConvConfig {
            batch: b,
            channels: c,
            input: i,
            filters: f,
            kernel: k,
            stride: s,
            pad: 0,
        }
    }

    /// The paper's base configuration `(64, 128, 64, 11, 1)` (§IV-B).
    pub const fn paper_base() -> Self {
        Self::from_tuple(64, 128, 64, 11, 1)
    }

    /// Square output spatial size `(i + 2·pad − k)/s + 1`.
    pub const fn output(&self) -> usize {
        (self.input + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Whether the geometry is realizable (kernel fits, stride > 0).
    pub const fn is_valid(&self) -> bool {
        self.stride > 0
            && self.kernel > 0
            && self.batch > 0
            && self.channels > 0
            && self.filters > 0
            && self.input + 2 * self.pad >= self.kernel
    }

    /// Input tensor shape `(b, c, i, i)`.
    pub const fn input_shape(&self) -> gcnn_tensor::Shape4 {
        gcnn_tensor::Shape4::new(self.batch, self.channels, self.input, self.input)
    }

    /// Filter-bank shape `(f, c, k, k)`.
    pub const fn filter_shape(&self) -> gcnn_tensor::Shape4 {
        gcnn_tensor::Shape4::new(self.filters, self.channels, self.kernel, self.kernel)
    }

    /// Output tensor shape `(b, f, o, o)`.
    pub const fn output_shape(&self) -> gcnn_tensor::Shape4 {
        gcnn_tensor::Shape4::new(self.batch, self.filters, self.output(), self.output())
    }

    /// Multiply–add FLOPs of the forward pass under direct/unrolled
    /// convolution: `2·b·f·c·o²·k²`.
    pub const fn forward_flops(&self) -> u64 {
        let o = self.output() as u64;
        2 * (self.batch as u64)
            * (self.filters as u64)
            * (self.channels as u64)
            * o
            * o
            * (self.kernel as u64)
            * (self.kernel as u64)
    }

    /// FLOPs of one full training iteration (forward + backward-data +
    /// backward-weights ≈ 3× forward; the standard estimate).
    pub const fn training_flops(&self) -> u64 {
        3 * self.forward_flops()
    }

    /// The im2col geometry for this configuration.
    pub const fn geometry(&self) -> gcnn_tensor::im2col::ConvGeometry {
        gcnn_tensor::im2col::ConvGeometry {
            in_h: self.input,
            in_w: self.input,
            channels: self.channels,
            kernel: self.kernel,
            stride: self.stride,
            pad: self.pad,
        }
    }

    /// FFT transform size for this configuration: the next power of two
    /// that holds the padded input, `input + 2·pad` (§4.4 of DESIGN.md —
    /// the source of the paper's Fig. 5 memory fluctuations). `FftConv`
    /// plans at this size and the fbfft model charges it.
    pub const fn fft_size(&self) -> usize {
        (self.input + 2 * self.pad).next_power_of_two()
    }
}

impl fmt::Display for ConvConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(b={}, c={}, i={}, f={}, k={}, s={})",
            self.batch, self.channels, self.input, self.filters, self.kernel, self.stride
        )
    }
}

/// The five benchmark configurations of the paper's Table I, with the
/// channel counts of the corresponding convnet-benchmarks layers.
///
/// | Layer | `(b, i, f, k, s)`       | channels |
/// |-------|--------------------------|----------|
/// | Conv1 | (128, 128,  96, 11, 1)   | 3        |
/// | Conv2 | (128, 128,  96,  3, 1)   | 3        |
/// | Conv3 | (128,  32, 128,  9, 1)   | 64       |
/// | Conv4 | (128,  16, 128,  7, 1)   | 128      |
/// | Conv5 | (128,  13, 384,  3, 1)   | 384      |
pub const fn table1_configs() -> [ConvConfig; 5] {
    [
        ConvConfig::with_channels(128, 3, 128, 96, 11, 1),
        ConvConfig::with_channels(128, 3, 128, 96, 3, 1),
        ConvConfig::with_channels(128, 64, 32, 128, 9, 1),
        ConvConfig::with_channels(128, 128, 16, 128, 7, 1),
        ConvConfig::with_channels(128, 384, 13, 384, 3, 1),
    ]
}

/// Names of the Table I layers, aligned with [`table1_configs`].
pub const TABLE1_NAMES: [&str; 5] = ["Conv1", "Conv2", "Conv3", "Conv4", "Conv5"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_base_tuple() {
        let c = ConvConfig::paper_base();
        assert_eq!(c.batch, 64);
        assert_eq!(c.input, 128);
        assert_eq!(c.filters, 64);
        assert_eq!(c.kernel, 11);
        assert_eq!(c.stride, 1);
        assert_eq!(c.channels, 3);
        assert_eq!(c.output(), 118);
    }

    #[test]
    fn channel_rule_tracks_depth() {
        assert_eq!(ConvConfig::from_tuple(64, 128, 64, 11, 1).channels, 3);
        assert_eq!(ConvConfig::from_tuple(64, 32, 64, 9, 1).channels, 64);
        assert_eq!(ConvConfig::from_tuple(64, 16, 64, 7, 1).channels, 128);
        assert_eq!(ConvConfig::from_tuple(64, 13, 64, 3, 1).channels, 384);
    }

    #[test]
    fn output_size_with_stride_and_pad() {
        let mut c = ConvConfig::with_channels(1, 1, 32, 1, 3, 2);
        assert_eq!(c.output(), 15);
        c.pad = 1;
        assert_eq!(c.output(), 16);
    }

    #[test]
    fn table1_matches_paper() {
        let configs = table1_configs();
        assert_eq!(configs[0].kernel, 11);
        assert_eq!(configs[1].kernel, 3);
        assert_eq!(configs[2].input, 32);
        assert_eq!(configs[3].filters, 128);
        assert_eq!(configs[4].channels, 384);
        for c in &configs {
            assert_eq!(c.batch, 128);
            assert_eq!(c.stride, 1);
            assert!(c.is_valid());
        }
    }

    #[test]
    fn validity() {
        assert!(ConvConfig::paper_base().is_valid());
        assert!(!ConvConfig::with_channels(1, 1, 4, 1, 5, 1).is_valid());
        assert!(!ConvConfig::with_channels(1, 1, 8, 1, 3, 0).is_valid());
    }

    #[test]
    fn flops_scale_quadratically_in_kernel() {
        let k3 = ConvConfig::with_channels(1, 1, 64, 1, 3, 1).forward_flops();
        let k6 = ConvConfig::with_channels(1, 1, 64, 1, 6, 1).forward_flops();
        // Output shrinks slightly, but the k² factor dominates.
        assert!(k6 > 3 * k3);
    }

    #[test]
    fn fft_size_is_pow2_covering_input() {
        assert_eq!(ConvConfig::from_tuple(1, 128, 1, 3, 1).fft_size(), 128);
        assert_eq!(ConvConfig::from_tuple(1, 130, 1, 3, 1).fft_size(), 256);
        assert_eq!(ConvConfig::with_channels(1, 1, 13, 1, 3, 1).fft_size(), 16);
    }

    /// Padding that carries the input past a power of two takes the
    /// transform with it: input 31 + 2·1 needs 64, not 32.
    #[test]
    fn fft_size_covers_the_padding() {
        let mut c = ConvConfig::with_channels(1, 1, 31, 1, 3, 1);
        assert_eq!(c.fft_size(), 32);
        c.pad = 1;
        assert_eq!(c.fft_size(), 64);
        c.input = 30;
        assert_eq!(c.fft_size(), 32);
    }

    #[test]
    fn shapes_consistent() {
        let c = ConvConfig::with_channels(4, 3, 16, 8, 5, 1);
        assert_eq!(c.input_shape().len(), 4 * 3 * 16 * 16);
        assert_eq!(c.filter_shape().len(), 8 * 3 * 25);
        assert_eq!(c.output_shape().len(), 4 * 8 * 12 * 12);
        assert_eq!(c.geometry().col_rows(), 75);
        assert_eq!(c.geometry().col_cols(), 144);
    }
}
