//! Operation and computed-bytes accounting.
//!
//! Rates reported per layer are these counts over measured time. Bytes
//! are *computed* from tensor sizes (every operand read once, every
//! result written once, 4 bytes per `f32`); they ignore cache misses
//! and are labelled as computed wherever they are printed.

use gcnn_conv::ConvConfig;

const F32: u64 = 4;

/// The GEMM one image of an unrolled convolution issues:
/// `(m, n, k) = (f, o², c·k²)` — `unroll.rs` forward.
pub fn unroll_gemm_shape(cfg: &ConvConfig) -> (usize, usize, usize) {
    let o2 = cfg.output() * cfg.output();
    (cfg.filters, o2, cfg.channels * cfg.kernel * cfg.kernel)
}

/// FLOPs the replayed GEMMs of one unrolled forward pass perform: one
/// per image. Equals [`ConvConfig::forward_flops`], which is how the
/// replay proves it issues what the product issues.
pub fn unroll_replay_flops(cfg: &ConvConfig) -> u64 {
    let (m, n, k) = unroll_gemm_shape(cfg);
    cfg.batch as u64 * gcnn_gemm::gemm_flops(m, n, k)
}

/// Computed bytes of one forward pass's im2col: each image is read once
/// and its `c·k² × o²` column matrix written once.
pub fn im2col_bytes(cfg: &ConvConfig) -> u64 {
    let (_, o2, ckk) = unroll_gemm_shape(cfg);
    let image = (cfg.channels * cfg.input * cfg.input) as u64;
    cfg.batch as u64 * (image + (ckk * o2) as u64) * F32
}

/// Computed bytes of a fully-connected forward pass: weights, input
/// and output each moved once.
pub fn fc_bytes(batch: usize, in_features: usize, out_features: usize) -> u64 {
    (out_features * in_features + batch * in_features + batch * out_features) as u64 * F32
}

/// Which pass of an FFT convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FftPass {
    Forward,
    BackwardData,
    BackwardFilters,
}

/// What one pass of `fft_conv.rs` issues below its entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FftPassWork {
    /// Transform edge: next power of two holding the padded input.
    pub n: usize,
    /// Planes forward-transformed (both operands).
    pub fwd_planes: usize,
    /// Planes inverse-transformed (the result).
    pub inv_planes: usize,
    /// Per-bin complex GEMM `(m, n, k)`.
    pub cgemm: (usize, usize, usize),
    /// Whether the GEMM conjugates its left operand (correlation).
    pub conj_a: bool,
    /// Frequency bins = GEMM instances: `n · (n/2 + 1)`.
    pub bins: usize,
}

impl FftPassWork {
    pub fn of(cfg: &ConvConfig, pass: FftPass) -> Self {
        let n = (cfg.input + 2 * cfg.pad).next_power_of_two();
        let (b, c, f) = (cfg.batch, cfg.channels, cfg.filters);
        let (fwd_planes, inv_planes, cgemm, conj_a) = match pass {
            // out[f,b] = Σ_c conj(filt[f,c]) · in[c,b]
            FftPass::Forward => (b * c + f * c, b * f, (f, b, c), true),
            // gin[c,b] = Σ_f filt[c,f] · gout[f,b]
            FftPass::BackwardData => (b * f + f * c, b * c, (c, b, f), false),
            // gw[f,c] = Σ_b conj(gout[f,b]) · in[b,c]
            FftPass::BackwardFilters => (b * c + b * f, f * c, (f, c, b), true),
        };
        FftPassWork {
            n,
            fwd_planes,
            inv_planes,
            cgemm,
            conj_a,
            bins: n * (n / 2 + 1),
        }
    }

    /// Real FLOPs of the pass's batched complex GEMM.
    pub fn cgemm_flops(&self) -> u64 {
        let (m, n, k) = self.cgemm;
        self.bins as u64 * gcnn_gemm::cgemm_flops(m, n, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnn_conv::table1_configs;

    #[test]
    fn unroll_replay_issues_exactly_the_forward_flops() {
        let mut padded = ConvConfig::with_channels(4, 96, 27, 256, 5, 1);
        padded.pad = 2;
        let strided = ConvConfig::with_channels(4, 3, 227, 96, 11, 4);
        for cfg in table1_configs().into_iter().chain([padded, strided]) {
            assert_eq!(unroll_replay_flops(&cfg), cfg.forward_flops(), "{cfg}");
        }
    }

    #[test]
    fn im2col_bytes_count_image_and_columns() {
        // AlexNet conv1 at batch 1: 3·227² in, (3·121)×55² out.
        let cfg = ConvConfig::with_channels(1, 3, 227, 96, 11, 4);
        assert_eq!(im2col_bytes(&cfg), (3 * 227 * 227 + 363 * 3025) * 4);
        let batch4 = ConvConfig::with_channels(4, 3, 227, 96, 11, 4);
        assert_eq!(im2col_bytes(&batch4), 4 * im2col_bytes(&cfg));
    }

    #[test]
    fn fc_bytes_are_weights_plus_activations() {
        assert_eq!(
            fc_bytes(4, 9216, 4096),
            (4096 * 9216 + 4 * 9216 + 4 * 4096) * 4
        );
    }

    #[test]
    fn fft_pass_work_matches_fft_conv() {
        // Table I Conv3 at batch 4: 64→128 channels, 32×32, k = 9.
        let cfg = ConvConfig::with_channels(4, 64, 32, 128, 9, 1);
        let fwd = FftPassWork::of(&cfg, FftPass::Forward);
        assert_eq!((fwd.n, fwd.bins), (32, 32 * 17));
        assert_eq!(
            (fwd.fwd_planes, fwd.inv_planes),
            (4 * 64 + 128 * 64, 4 * 128)
        );
        assert_eq!(fwd.cgemm, (128, 4, 64));
        assert_eq!(fwd.cgemm_flops(), 32 * 17 * 8 * 128 * 4 * 64);
        let bd = FftPassWork::of(&cfg, FftPass::BackwardData);
        assert_eq!((bd.fwd_planes, bd.inv_planes), (4 * 128 + 128 * 64, 4 * 64));
        assert_eq!(bd.cgemm, (64, 4, 128));
        let bf = FftPassWork::of(&cfg, FftPass::BackwardFilters);
        assert_eq!((bf.fwd_planes, bf.inv_planes), (4 * 64 + 4 * 128, 128 * 64));
        assert_eq!(bf.cgemm, (128, 64, 4));
        // Every pass multiplies the same three extents, so the GEMM
        // FLOPs agree across passes.
        assert_eq!(fwd.cgemm_flops(), bd.cgemm_flops());
        assert_eq!(fwd.cgemm_flops(), bf.cgemm_flops());
        // A padded input rounds up past the next power of two.
        let mut padded = ConvConfig::with_channels(1, 1, 30, 1, 3, 1);
        padded.pad = 2;
        assert_eq!(FftPassWork::of(&padded, FftPass::Forward).n, 64);
    }
}
