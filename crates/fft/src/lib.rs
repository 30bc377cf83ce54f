//! # gcnn-fft
//!
//! A from-scratch radix-2 FFT — the "cuFFT / fbfft" substrate of the
//! gcnn workspace.
//!
//! The FFT-based convolution strategy (paper §II-B) converts spatial
//! convolution into a pointwise Fourier-domain product; its transforms
//! are the `decimateInFrequency` / `decimateInFrequencyInverse` kernels
//! of the paper's Fig. 4f hotspot profile. This crate has **one**
//! engine and one oracle:
//!
//! * [`plan::FftPlan`] — cached split-complex twiddle planes +
//!   bit-reversal table for one power-of-two size.
//! * [`split`] — the engine: **batch-major split-complex** transforms
//!   in fbfft's layout (separate re/im planes, many transforms per
//!   pass, broadcast-twiddle FMA butterflies with no shuffles).
//! * [`simd`] — its three kernels (single stage, fused double stage,
//!   blocked transpose), each with AVX2+FMA, NEON and scalar bodies; the
//!   scalar bodies are what runs under `GCNN_FORCE_SCALAR=1`.
//! * [`rfft`] — 2-D real transforms with Hermitian half-spectra. What the
//!   convolution runs takes the planes *as the lanes*: a row pass per
//!   factor ([`RfftPlan::forward_rows_into`]) that carries two real rows
//!   per complex transform, one fused column stage
//!   ([`RfftPlan::product_columns`]) whose unit is a whole spectrum column
//!   — both factors' column transforms, the caller's per-bin product and
//!   the product's inverse in one participant's buffers — and a row pass
//!   over the product's crop rows ([`RfftPlan::inverse_rows_into`]).
//!   Between them only rows that exist are stored, column-major
//!   ([`Columns`]); no transpose, no tile, no bin-major spectrum. Row
//!   passes transform only the window's (the crop's) rows, and a forward
//!   whose input ends at `e` skips the DIT stages below span
//!   `n / e.next_power_of_two()`. The **plane-major** methods and their
//!   [`batch`] entry points (one plane per call, the passes joined by
//!   transposes) are what the benchmarks time and, with a written-out
//!   per-bin product, the oracle the lane passes are held to, within a
//!   stated tolerance.
//! * [`dft`] — the O(n²) reference the engine is tested against.
//!
//! All transforms are power-of-two only, like fbfft itself — this is the
//! root cause of the paper's Fig. 5b/5d memory fluctuations, which our
//! reproduction inherits by construction.

pub mod batch;
pub mod dft;
pub mod plan;
pub mod rfft;
pub mod simd;
pub mod split;

pub use batch::{rfft_forward_batch_split, rfft_inverse_batch_split};
pub use plan::FftPlan;
pub use rfft::{Columns, LaneOrder, RfftPlan};
pub use split::fft_lanes_inplace;

/// Direction of a transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Spatial → Fourier.
    Forward,
    /// Fourier → spatial (scaled by `1/n`).
    Inverse,
}
