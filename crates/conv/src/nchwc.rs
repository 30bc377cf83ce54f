//! Direct convolution over the channel-blocked NCHWc layout, with
//! optional fused ReLU and max-pool stages.
//!
//! The planar strategies pay for layout twice: im2col materializes a
//! `ck² × o²` column matrix per image, and every layer boundary writes
//! a full feature map that the next layer immediately re-reads. Packing
//! activations as `[n][⌈c/b⌉][h][w][b]` (see `gcnn_tensor::nchwc`)
//! removes both costs for the forward pass:
//!
//! * the inner channel block vectorizes directly — an output-stationary
//!   register tile ([`gcnn_tensor::simd::conv`]) of up to 14 positions ×
//!   2 output vectors accumulates a whole `(ky, kx, ci)` reduction
//!   without touching memory, so no column matrix exists at any stride;
//! * conv+ReLU(+pool) chains run plane-at-a-time: ReLU is applied in
//!   register on the last channel block, and for a pooled chain the
//!   finished `(image, filter block)` planes live only in arena scratch
//!   until the pool fold reads them — the full pre-pool feature map is
//!   never materialized (the memory-efficiency move of
//!   arXiv:1610.03618).
//!
//! The loop order is image → filter-block group → input-channel block →
//! output row → row chunk (`forward_planes`): one channel block's
//! filter panel (`k²·pitch·b` floats per filter block) is the operand
//! every tile of the plane re-reads, so it is the one kept L1-resident,
//! and accumulators pass through the output plane only between channel
//! blocks. Spatial padding is baked into the packed input at pack time,
//! so the hot loops are branch-free. The input and the filter rows are
//! packed at the layer's pitch, `min(c, b)`
//! (`gcnn_tensor::nchwc::pitch`): a 3-channel first layer packs 3
//! floats a pixel, not `b`, and its filter panels hold 3 rows a tap.
//! `DirectConv::forward` is its planar entry (pack, run [`fused_conv_relu`]
//! without ReLU, unpack), and both of `DirectConv`'s gradients are that
//! entry over rearranged operands; training keeps planar activations.

use crate::config::ConvConfig;
use gcnn_tensor::simd::conv::{ConvKernel, SweepGeom};
use gcnn_tensor::{nchwc, simd, workspace, Tensor4};
use rayon::prelude::*;

/// Derived loop bounds of one packed convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedGeom {
    /// Inner channel-block width.
    pub block: usize,
    /// Input channels (the last block may be partly remainder lanes).
    pub channels: usize,
    /// Floats per packed input position and filter rows per tap,
    /// `min(channels, block)`.
    pub pitch: usize,
    /// Input channel blocks, `⌈c/b⌉`.
    pub cblocks: usize,
    /// Output channel blocks, `⌈f/b⌉`.
    pub fblocks: usize,
    /// Output spatial edge.
    pub o: usize,
    /// Kernel edge.
    pub k: usize,
    /// Convolution stride.
    pub stride: usize,
    /// Padded input height (`input + 2·pad`).
    pub ihp: usize,
    /// Padded input width (`input + 2·pad`).
    pub iwp: usize,
}

impl PackedGeom {
    /// Loop bounds for `cfg` at channel block `block`.
    pub fn of(cfg: &ConvConfig, block: usize) -> Self {
        PackedGeom {
            block,
            channels: cfg.channels,
            pitch: nchwc::pitch(cfg.channels, block),
            cblocks: cfg.channels.div_ceil(block),
            fblocks: cfg.filters.div_ceil(block),
            o: cfg.output(),
            k: cfg.kernel,
            stride: cfg.stride,
            ihp: cfg.input + 2 * cfg.pad,
            iwp: cfg.input + 2 * cfg.pad,
        }
    }

    /// Elements of one packed input image.
    pub fn image_in_len(&self) -> usize {
        self.cblocks * self.ihp * self.iwp * self.pitch
    }

    /// Elements of one packed output image.
    pub fn image_out_len(&self) -> usize {
        self.fblocks * self.o * self.o * self.block
    }

    /// Elements of one packed output plane (one filter block).
    pub fn plane_len(&self) -> usize {
        self.o * self.o * self.block
    }
}

/// Packed-input buffer length for `cfg` (spatial padding included):
/// `⌈c/b⌉` planes of `min(c, b)` floats a pixel.
pub fn packed_input_len(cfg: &ConvConfig, block: usize) -> usize {
    let pitch = nchwc::pitch(cfg.channels, block);
    nchwc::packed_len(cfg.input_shape(), pitch, cfg.pad)
}

/// Packed-output buffer length for `cfg`.
pub fn packed_output_len(cfg: &ConvConfig, block: usize) -> usize {
    nchwc::packed_len(cfg.output_shape(), block, 0)
}

/// Packed filter-bank length for `cfg`.
pub fn packed_filter_len(cfg: &ConvConfig, block: usize) -> usize {
    nchwc::packed_filter_len(cfg.filter_shape(), block)
}

/// Pooled-output spatial edge for a conv output pooled by
/// `window`/`stride` (the `PoolLayer` formula, no pool padding).
pub fn pooled_output(cfg: &ConvConfig, window: usize, stride: usize) -> usize {
    (cfg.output() - window) / stride + 1
}

/// Pack a planar input for `cfg` at its pitch (bakes `cfg.pad` zero
/// borders in): NCHWc at `block`, or at `c` when `c < block`.
pub fn pack_input(cfg: &ConvConfig, input: &Tensor4, block: usize, dst: &mut [f32]) {
    let _span = gcnn_trace::span("conv.nchwc.pack_input");
    assert_eq!(input.shape(), cfg.input_shape(), "pack_input: shape");
    let pitch = nchwc::pitch(cfg.channels, block);
    nchwc::pack_nchwc_into(input.as_slice(), input.shape(), pitch, cfg.pad, dst);
}

/// Cached `conv.nchwc.filter_packs` counter: one tick per
/// [`pack_filters`].
fn filter_packs() -> &'static gcnn_trace::Counter {
    static C: std::sync::OnceLock<gcnn_trace::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| gcnn_trace::counter("conv.nchwc.filter_packs"))
}

/// Pack a planar `(f, c, k, k)` filter bank for `cfg`, its taps at the
/// input's pitch.
pub fn pack_filters(cfg: &ConvConfig, filters: &Tensor4, block: usize, dst: &mut [f32]) {
    let _span = gcnn_trace::span("conv.nchwc.pack_filters");
    filter_packs().inc();
    assert_eq!(filters.shape(), cfg.filter_shape(), "pack_filters: shape");
    nchwc::pack_filters_into(filters.as_slice(), filters.shape(), block, dst);
}

/// Near-equal chunks of at most `wmax` covering `0..o`, as
/// `(start, width)`: every AlexNet row is a "remainder" of the widest
/// tile (13, 27 = 14 + 13, 55 = 3·14 + 13), so the remainder is spread
/// instead of left as one narrow tail tile.
fn row_chunks(o: usize, wmax: usize) -> impl Iterator<Item = (usize, usize)> {
    let n = o.div_ceil(wmax).max(1);
    let (base, wide) = (o / n, o % n);
    (0..n).map(move |i| (i * base + i.min(wide), base + usize::from(i < wide)))
}

/// Compute the `planes.len() / plane_len` consecutive output planes of
/// one image that start at filter block `fb0`, ReLU applied if `relu`.
///
/// `planes` is written, never read: the first channel block
/// initialises every tile. `packed_img` is one image of the padded
/// packed input; `packed_w` the whole packed filter bank. Per channel
/// block, one filter panel per plane is swept over every row chunk of
/// the planes, which then hold the partial sums for the next block.
fn forward_planes(
    kernel: &ConvKernel,
    g: &PackedGeom,
    packed_img: &[f32],
    packed_w: &[f32],
    fb0: usize,
    planes: &mut [f32],
    relu: bool,
) {
    let panel = g.k * g.k * g.pitch * g.block;
    let in_plane = g.ihp * g.iwp * g.pitch;
    for cb in 0..g.cblocks {
        let sweep = kernel.sweep(
            SweepGeom {
                k: g.k,
                stride: g.stride,
                iwp: g.iwp,
                o: g.o,
                pitch: g.pitch,
                lanes: g.block.min(g.channels - cb * g.block),
                nfb: planes.len() / g.plane_len(),
                fb_stride: g.cblocks * panel,
                first: cb == 0,
                relu: relu && cb + 1 == g.cblocks,
            },
            &packed_img[cb * in_plane..(cb + 1) * in_plane],
            &packed_w[(fb0 * g.cblocks + cb) * panel..],
        );
        for oy in 0..g.o {
            for (ox, w) in row_chunks(g.o, kernel.wmax()) {
                sweep.tile(planes, oy, ox, w);
            }
        }
    }
}

/// Packed direct convolution forward, optionally fusing ReLU into the
/// last channel block's accumulators.
///
/// `packed_in`/`packed_w` come from [`pack_input`]/[`pack_filters`];
/// `out` receives the packed `[n][⌈f/b⌉][o][o][b]` result (it is
/// written, never read). Parallel over images, like the planar
/// strategies.
pub fn fused_conv_relu(
    cfg: &ConvConfig,
    block: usize,
    packed_in: &[f32],
    packed_w: &[f32],
    out: &mut [f32],
    relu: bool,
) {
    let _span = gcnn_trace::span("conv.nchwc.forward");
    let kernel = ConvKernel::select(block);
    conv_relu_with(&kernel, cfg, packed_in, packed_w, out, relu);
}

/// [`fused_conv_relu`] on an explicit tile kernel (at its block width).
fn conv_relu_with(
    kernel: &ConvKernel,
    cfg: &ConvConfig,
    packed_in: &[f32],
    packed_w: &[f32],
    out: &mut [f32],
    relu: bool,
) {
    let block = kernel.block();
    let g = PackedGeom::of(cfg, block);
    assert_eq!(
        packed_in.len(),
        cfg.batch * g.image_in_len(),
        "fused_conv_relu: packed_in"
    );
    assert_eq!(
        packed_w.len(),
        packed_filter_len(cfg, block),
        "fused_conv_relu: packed_w"
    );
    assert_eq!(
        out.len(),
        cfg.batch * g.image_out_len(),
        "fused_conv_relu: out"
    );
    let step = kernel.fb_step();
    out.par_chunks_mut(g.image_out_len())
        .enumerate()
        .for_each(|(n, oimg)| {
            let pimg = &packed_in[n * g.image_in_len()..(n + 1) * g.image_in_len()];
            for (i, planes) in oimg.chunks_mut(step * g.plane_len()).enumerate() {
                forward_planes(kernel, &g, pimg, packed_w, i * step, planes, relu);
            }
        });
}

/// Packed conv+ReLU+max-pool, plane-at-a-time: each group of conv
/// planes lives only in arena scratch — ReLU is applied in register and
/// the pool fold writes the final pooled planes, so the intermediate
/// feature map is never materialized.
///
/// `out` receives the packed `[n][⌈f/b⌉][po][po][b]` pooled result
/// where `po = `[`pooled_output`]`(cfg, window, pool_stride)`.
pub fn fused_conv_relu_pool(
    cfg: &ConvConfig,
    block: usize,
    window: usize,
    pool_stride: usize,
    packed_in: &[f32],
    packed_w: &[f32],
    out: &mut [f32],
) {
    let _span = gcnn_trace::span("conv.nchwc.forward_pool");
    let kernel = ConvKernel::select(block);
    conv_relu_pool_with(
        &kernel,
        cfg,
        (window, pool_stride),
        packed_in,
        packed_w,
        out,
    );
}

/// [`fused_conv_relu_pool`] on an explicit tile kernel (at its block
/// width); `pool` is `(window, stride)`.
fn conv_relu_pool_with(
    kernel: &ConvKernel,
    cfg: &ConvConfig,
    (window, pool_stride): (usize, usize),
    packed_in: &[f32],
    packed_w: &[f32],
    out: &mut [f32],
) {
    let block = kernel.block();
    let g = PackedGeom::of(cfg, block);
    let po = pooled_output(cfg, window, pool_stride);
    let pooled_plane = po * po * block;
    assert_eq!(
        packed_in.len(),
        cfg.batch * g.image_in_len(),
        "fused_conv_relu_pool: packed_in"
    );
    assert_eq!(
        packed_w.len(),
        packed_filter_len(cfg, block),
        "fused_conv_relu_pool: packed_w"
    );
    assert_eq!(
        out.len(),
        cfg.batch * g.fblocks * pooled_plane,
        "fused_conv_relu_pool: out"
    );
    let step = kernel.fb_step();
    out.par_chunks_mut(g.fblocks * pooled_plane)
        .enumerate()
        .for_each(|(n, oimg)| {
            let pimg = &packed_in[n * g.image_in_len()..(n + 1) * g.image_in_len()];
            // One group of conv planes of scratch per worker, recycled
            // from the thread-local arena: steady state allocates
            // nothing, and the full conv output (batch × f × o²) never
            // exists.
            let mut scratch = workspace::take_f32(step.min(g.fblocks) * g.plane_len());
            for (i, pooled) in oimg.chunks_mut(step * pooled_plane).enumerate() {
                let nfb = pooled.len() / pooled_plane;
                let planes = &mut scratch.as_mut_slice()[..nfb * g.plane_len()];
                forward_planes(kernel, &g, pimg, packed_w, i * step, planes, true);
                for (tile, pooled) in planes
                    .chunks(g.plane_len())
                    .zip(pooled.chunks_mut(pooled_plane))
                {
                    max_pool_tile(tile, g.o, block, window, pool_stride, po, pooled);
                }
            }
        });
}

/// Fold one relu'd conv plane into its pooled plane: `pooled[py, px] =
/// max` over the `window²` tile positions, lane-wise across the block.
pub fn max_pool_tile(
    tile: &[f32],
    o: usize,
    block: usize,
    window: usize,
    stride: usize,
    po: usize,
    pooled: &mut [f32],
) {
    debug_assert!(tile.len() >= o * o * block);
    debug_assert!(pooled.len() >= po * po * block);
    for py in 0..po {
        for px in 0..po {
            let dst = &mut pooled[(py * po + px) * block..(py * po + px + 1) * block];
            let iy0 = py * stride;
            let ix0 = px * stride;
            dst.copy_from_slice(&tile[(iy0 * o + ix0) * block..][..block]);
            for wy in 0..window {
                for wx in 0..window {
                    if wy == 0 && wx == 0 {
                        continue;
                    }
                    let src = &tile[((iy0 + wy) * o + ix0 + wx) * block..][..block];
                    simd::max_assign(dst, src);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::DirectConv;
    use crate::layers::{PoolKind, PoolLayer, ReluLayer};
    use crate::reference;
    use crate::strategy::ConvAlgorithm;
    use gcnn_tensor::init::uniform_tensor;

    fn tolerance_check(a: &Tensor4, b: &Tensor4, tol: f32, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        let d = a.max_abs_diff(b).unwrap();
        assert!(d <= tol, "{what}: max abs diff {d} > {tol}");
    }

    #[test]
    fn fused_relu_matches_separate_relu() {
        let mut cfg = ConvConfig::with_channels(2, 6, 8, 10, 3, 1);
        cfg.pad = 1;
        let block = simd::preferred_block();
        let input = uniform_tensor(cfg.input_shape(), -1.0, 1.0, 7);
        let filters = uniform_tensor(cfg.filter_shape(), -0.5, 0.5, 8);
        let unfused = ReluLayer.forward(&DirectConv.forward(&cfg, &input, &filters));

        let mut pin = vec![0.0; packed_input_len(&cfg, block)];
        let mut pw = vec![0.0; packed_filter_len(&cfg, block)];
        let mut pout = vec![0.0; packed_output_len(&cfg, block)];
        pack_input(&cfg, &input, block, &mut pin);
        pack_filters(&cfg, &filters, block, &mut pw);
        fused_conv_relu(&cfg, block, &pin, &pw, &mut pout, true);
        let mut fused = Tensor4::zeros(cfg.output_shape());
        nchwc::unpack_nchwc_from(&pout, fused.shape(), block, fused.as_mut_slice());
        // `DirectConv::forward` is this tile at the same block: only the
        // activation placement differs, so this comparison is exact.
        assert_eq!(fused.as_slice(), unfused.as_slice());
    }

    #[test]
    fn fused_pool_matches_separate_pool() {
        let cfg = ConvConfig::with_channels(2, 6, 9, 10, 4, 1);
        let (window, stride) = (2, 2);
        let block = simd::preferred_block();
        let input = uniform_tensor(cfg.input_shape(), -1.0, 1.0, 9);
        let filters = uniform_tensor(cfg.filter_shape(), -0.5, 0.5, 10);

        let conv = ReluLayer.forward(&DirectConv.forward(&cfg, &input, &filters));
        let want = PoolLayer::new(PoolKind::Max, window, stride)
            .forward(&conv)
            .output;

        let mut pin = vec![0.0; packed_input_len(&cfg, block)];
        let mut pw = vec![0.0; packed_filter_len(&cfg, block)];
        pack_input(&cfg, &input, block, &mut pin);
        pack_filters(&cfg, &filters, block, &mut pw);
        let po = pooled_output(&cfg, window, stride);
        let pooled_shape = gcnn_tensor::Shape4::new(cfg.batch, cfg.filters, po, po);
        let mut pout = vec![0.0; nchwc::packed_len(pooled_shape, block, 0)];
        fused_conv_relu_pool(&cfg, block, window, stride, &pin, &pw, &mut pout);
        let mut got = Tensor4::zeros(pooled_shape);
        nchwc::unpack_nchwc_from(&pout, pooled_shape, block, got.as_mut_slice());
        tolerance_check(&got, &want, 1e-5, "fused pool vs PoolLayer");
    }

    /// Warm fused calls must check out every buffer from the arena:
    /// zero fresh allocations in steady state.
    #[test]
    fn fused_path_is_zero_alloc_when_warm() {
        let mut cfg = ConvConfig::with_channels(2, 8, 8, 16, 3, 1);
        cfg.pad = 1;
        let input = uniform_tensor(cfg.input_shape(), -1.0, 1.0, 3);
        let filters = uniform_tensor(cfg.filter_shape(), -0.5, 0.5, 4);
        let block = simd::preferred_block();
        let mut pin = vec![0.0; packed_input_len(&cfg, block)];
        let mut pw = vec![0.0; packed_filter_len(&cfg, block)];
        let po = pooled_output(&cfg, 2, 2);
        let mut pooled = vec![0.0; cfg.batch * cfg.filters.div_ceil(block) * block * po * po];
        pack_input(&cfg, &input, block, &mut pin);
        pack_filters(&cfg, &filters, block, &mut pw);
        let mut hot = || {
            let mut pout = workspace::take_f32(packed_output_len(&cfg, block));
            fused_conv_relu(&cfg, block, &pin, &pw, pout.as_mut_slice(), true);
            fused_conv_relu_pool(&cfg, block, 2, 2, &pin, &pw, &mut pooled);
        };
        // Warm both fused drivers with the checkout pattern that is
        // measured — at width 1, so that the thread `alloc_scope` counts
        // is the thread that was warmed and runs every image.
        let (_, fresh) = workspace::on_calling_thread(|| {
            for _ in 0..2 {
                hot();
            }
            workspace::alloc_scope(hot)
        });
        assert_eq!(fresh, 0, "fused hot path must not allocate when warm");
    }

    /// Planar reference for one fused chain: `reference.rs`, then
    /// `ReluLayer`, then `PoolLayer`, as a planar network runs them.
    fn reference_chain(
        cfg: &ConvConfig,
        input: &Tensor4,
        filters: &Tensor4,
        relu: bool,
        pool: Option<(usize, usize)>,
    ) -> Tensor4 {
        let mut y = reference::forward_ref(cfg, input, filters);
        if relu {
            y = ReluLayer.forward(&y);
        }
        match pool {
            Some((window, stride)) => {
                PoolLayer::new(PoolKind::Max, window, stride)
                    .forward(&y)
                    .output
            }
            None => y,
        }
    }

    /// Every tile body this host can run — the scalar oracle, ymm at
    /// blocks 8 and 16, zmm at block 16 — through both fused drivers
    /// against the planar reference, over shapes the zoo never hits:
    /// remainder and multi-block channel counts on both axes (an odd
    /// filter-block count ends on a one-plane group), output widths
    /// around each kernel's widest tile, strides above the kernel edge,
    /// 1×1 inputs, padding up to `k − 1`, batch 1 and 3. Outputs start
    /// NaN- or 1e30-poisoned: a first channel block must never read
    /// them, and the two runs must agree bit for bit, the second
    /// without an arena miss.
    #[test]
    fn every_tile_body_matches_the_planar_reference() {
        const CHANNELS: [usize; 5] = [1, 3, 15, 17, 33];
        const FILTERS: [usize; 5] = [1, 15, 17, 33, 48];
        // (kernel, stride, pad): stride above, at and below the kernel
        // edge; pad from 0 to k − 1.
        const TAPS: [(usize, usize, usize); 6] = [
            (1, 1, 0),
            (1, 2, 0),
            (3, 4, 2),
            (3, 1, 1),
            (2, 2, 1),
            (5, 2, 4),
        ];
        let mut case = 0usize;
        for block in [8usize, 16] {
            for kernel in ConvKernel::available(block) {
                let wmax = kernel.wmax();
                for o in [1, wmax - 1, wmax, wmax + 1, 2 * wmax + 1] {
                    for (k, stride, pad) in TAPS {
                        case += 1;
                        let relu = case.is_multiple_of(2);
                        // The input edge that yields exactly `o` outputs
                        // (a 1×1 input where the taps allow it).
                        let Some(input) = ((o - 1) * stride + k).checked_sub(2 * pad) else {
                            continue;
                        };
                        if input == 0 {
                            continue;
                        }
                        // 5 and 6 are coprime: per kernel every channel
                        // count meets every tap shape.
                        let c = CHANNELS[case % CHANNELS.len()];
                        let f = FILTERS[(case / 2 + case / 5) % FILTERS.len()];
                        let batch = if case.is_multiple_of(4) { 3 } else { 1 };
                        let mut cfg = ConvConfig::with_channels(batch, c, input, f, k, stride);
                        cfg.pad = pad;
                        assert!(cfg.is_valid(), "{cfg:?}");
                        assert_eq!(cfg.output(), o);
                        let what = format!("{kernel:?} {cfg:?} relu={relu}");
                        let x = uniform_tensor(cfg.input_shape(), -1.0, 1.0, 100 + case as u64);
                        let w = uniform_tensor(cfg.filter_shape(), -0.5, 0.5, 200 + case as u64);
                        let tol = 1e-4 + 2e-6 * (c * k * k) as f32;

                        let mut pin = vec![f32::NAN; packed_input_len(&cfg, block)];
                        let mut pw = vec![f32::NAN; packed_filter_len(&cfg, block)];
                        pack_input(&cfg, &x, block, &mut pin);
                        pack_filters(&cfg, &w, block, &mut pw);

                        // Run `fused` twice, into NaN- and into
                        // 1e30-poisoned outputs (the second warm, under
                        // the arena counter), and compare with `want`.
                        let check = |fused: &dyn Fn(&mut [f32]), want: Tensor4, what: &str| {
                            let len = nchwc::packed_len(want.shape(), block, 0);
                            let mut pout = vec![f32::NAN; len];
                            let mut again = vec![1e30f32; len];
                            // Width 1: the counted thread runs every image,
                            // warm-up included.
                            let (_, fresh) = workspace::on_calling_thread(|| {
                                fused(&mut pout);
                                workspace::alloc_scope(|| fused(&mut again))
                            });
                            assert_eq!(fresh, 0, "{what}: warm call missed the arena");
                            assert!(
                                pout.iter()
                                    .zip(&again)
                                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                                "{what}: runs differ or the output was read"
                            );
                            let mut got = Tensor4::zeros(want.shape());
                            nchwc::unpack_nchwc_from(&pout, got.shape(), block, got.as_mut_slice());
                            tolerance_check(&got, &want, tol, what);
                        };
                        check(
                            &|out| conv_relu_with(&kernel, &cfg, &pin, &pw, out, relu),
                            reference_chain(&cfg, &x, &w, relu, None),
                            &what,
                        );
                        // The pooled driver always applies ReLU.
                        if relu {
                            let pool = [(1, 1), (2, 2), (3, 2), (2, 1)][case % 4];
                            let pool = if o >= pool.0 { pool } else { (1, 1) };
                            check(
                                &|out| conv_relu_pool_with(&kernel, &cfg, pool, &pin, &pw, out),
                                reference_chain(&cfg, &x, &w, true, Some(pool)),
                                &format!("{what} pool={pool:?}"),
                            );
                        }
                    }
                }
            }
        }
    }

    /// `row_chunks` covers `0..o` in order with near-equal widths no
    /// wider than `wmax` — AlexNet's rows at the zmm tile included.
    #[test]
    fn row_chunks_are_near_equal_and_cover_the_row() {
        let widths = |o, wmax| row_chunks(o, wmax).map(|(_, w)| w).collect::<Vec<_>>();
        assert_eq!(widths(13, 14), [13]);
        assert_eq!(widths(27, 14), [14, 13]);
        assert_eq!(widths(55, 14), [14, 14, 14, 13]);
        for wmax in [1usize, 6, 8, 14] {
            for o in 1..=3 * wmax + 2 {
                let mut next = 0;
                for (ox, w) in row_chunks(o, wmax) {
                    assert_eq!(ox, next);
                    assert!((1..=wmax).contains(&w) && w + 1 >= o.div_ceil(o.div_ceil(wmax)));
                    next += w;
                }
                assert_eq!(next, o);
            }
        }
    }
}
