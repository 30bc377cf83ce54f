//! # gcnn-conv
//!
//! The three convolution strategies of Li et al. (ICPP 2016) —
//! [`direct`], [`unroll`]ing (im2col + GEMM) and [`fft_conv`] — each
//! implementing forward, backward-data and backward-weights passes, plus
//! the remaining CNN [`layers`] (pooling, ReLU, fully-connected,
//! softmax) and finite-difference [`gradcheck`]ing.
//!
//! Every strategy is validated against the naive [`reference`]
//! convolution and against each other; the FFT path additionally obeys
//! the convolution/correlation theorems tested in `gcnn-fft`.
//!
//! The entry points:
//!
//! * [`ConvConfig`] — the paper's `(b, i, f, k, s)` 5-tuple (plus
//!   channels and padding), including [`config::table1_configs`].
//! * [`ConvAlgorithm`] — the strategy trait, with implementations
//!   [`DirectConv`], [`UnrollConv`] and [`FftConv`].
//! * [`nchwc`] — the channel-blocked direct path with fused
//!   conv+ReLU(+pool) execution; [`DirectConv`]'s forward pass runs it
//!   on planar tensors, a blocked layout runs it for inference.

#![forbid(unsafe_code)]

pub mod config;
pub mod direct;
pub mod fft_conv;
pub mod gradcheck;
pub mod layers;
pub mod nchwc;
pub mod reference;
pub mod strategy;
pub mod unroll;

pub use config::{table1_configs, ConvConfig, TABLE1_NAMES};
pub use direct::DirectConv;
pub use fft_conv::FftConv;
pub use strategy::{ConvAlgorithm, Strategy, Unsupported};
pub use unroll::UnrollConv;

/// All three strategies behind one selector, for callers that pick at
/// runtime. The strategies are stateless unit structs, so selection
/// hands out a `'static` reference and allocates nothing.
pub fn algorithm_for(strategy: Strategy) -> &'static dyn ConvAlgorithm {
    match strategy {
        Strategy::Direct => &DirectConv,
        Strategy::Unrolling => &UnrollConv,
        Strategy::Fft => &FftConv,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_for_returns_matching_strategy() {
        for s in [Strategy::Direct, Strategy::Unrolling, Strategy::Fft] {
            assert_eq!(algorithm_for(s).strategy(), s);
        }
    }
}
