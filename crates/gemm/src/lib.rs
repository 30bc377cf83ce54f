//! # gcnn-gemm
//!
//! A from-scratch, cache-blocked, packed, multi-threaded GEMM — the
//! "cuBLAS" substrate of the gcnn workspace.
//!
//! The paper (Li et al., ICPP 2016) finds that *"GEMM operations are the
//! essence of convolutional layers"* (§V-A): the unrolling-based
//! implementations (Caffe, Torch-cunn, Theano-CorrMM, cuDNN) spend
//! 80–87 % of their convolutional-layer runtime in SGEMM kernels, and
//! fbfft's Fourier-domain product is a complex GEMM ("Cgemm"). This crate
//! provides both, implemented the way a high-performance BLAS is:
//!
//! * [`sgemm`] — single-precision real GEMM with BLIS-style `MC/KC/NC`
//!   cache blocking, `MR×NR` register micro-tiles, explicit operand
//!   packing, and rayon parallelism over row blocks.
//! * [`cgemm_split`] — complex GEMM over split-complex (separate re/im)
//!   planes, used per frequency bin by the FFT convolution strategy: a
//!   row body for B stored `[k×n]`, a dot body for B stored `[n×k]`.
//! * [`naive`] — trivially-correct reference implementations every
//!   optimized path is tested against.

pub mod batched;
pub mod blocking;
pub mod cgemm;
pub mod kernel;
pub mod naive;
pub mod pack;
pub mod sgemm;

pub use batched::{batched_cgemm_split, batched_cgemm_split_op};
pub use blocking::BlockSizes;
pub use cgemm::cgemm_split;
pub use sgemm::{sgemm, sgemm_mat, Transpose};

/// FLOP count of a real `m×k · k×n` GEMM (one multiply + one add per
/// inner-loop step) — the quantity GPU kernel plans report to the
/// simulator.
pub const fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * (m as u64) * (n as u64) * (k as u64)
}

/// FLOP count of a complex `m×k · k×n` GEMM: each complex multiply-add is
/// 4 real multiplies + 4 real adds.
pub const fn cgemm_flops(m: usize, n: usize, k: usize) -> u64 {
    8 * (m as u64) * (n as u64) * (k as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_counts() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
        assert_eq!(cgemm_flops(2, 3, 4), 192);
    }
}
