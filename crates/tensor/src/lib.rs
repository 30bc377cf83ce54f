//! # gcnn-tensor
//!
//! Tensor substrate for the `gcnn` workspace — the Rust reproduction of
//! *Performance Analysis of GPU-based Convolutional Neural Networks*
//! (Li et al., ICPP 2016).
//!
//! This crate provides the data structures every other crate builds on:
//!
//! * [`Shape4`] / [`Shape2`] — dimension bookkeeping for 4-D feature maps
//!   (mini-batch × channels × height × width) and 2-D matrices.
//! * [`Tensor4`] — an owned, contiguous, `f32`, NCHW-ordered 4-D tensor.
//! * [`Matrix`] — an owned, contiguous, row-major `f32` matrix.
//! * [`Complex32`] — a minimal complex number for the FFT substrate.
//! * [`Layout`] — NCHW vs. CHWN (the paper's "BDHW" vs. "HWBD" fbfft
//!   layouts map onto these plus explicit transposes), plus the
//!   channel-blocked `NCHW{8,16}c` variants whose pack/unpack kernels
//!   live in [`nchwc`].
//! * `im2col`/`col2im` — the unrolling primitives behind Caffe-style
//!   convolution (paper §II-B, "Unrolling Based Convolution").
//!
//! Everything is deterministic and `f32`-exact so that the three
//! convolution strategies implemented in `gcnn-conv` can be cross-checked
//! bit-for-bit against a naive reference.

pub mod complex;
pub mod error;
pub mod im2col;
pub mod init;
pub mod layout;
pub mod matrix;
pub mod nchwc;
pub mod ops;
pub mod shape;
pub mod simd;
pub mod tensor;
pub mod workspace;

pub use complex::Complex32;
pub use error::TensorError;
pub use layout::Layout;
pub use matrix::Matrix;
pub use shape::{Shape2, Shape4};
pub use tensor::Tensor4;
pub use workspace::{Scratch, Workspace};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
