//! NCHW ↔ NCHWc pack/unpack kernels for the channel-blocked layout.
//!
//! The blocked layout stores `[n][⌈c/b⌉][h][w][b]` with the inner block
//! `b` equal to the SIMD vector width ([`simd::preferred_block`]), the
//! arrangement oneDNN and the cuDNN CPU backends converged on: a direct
//! convolution reads one input lane group and a `b×b` filter panel and
//! never builds im2col columns. Two conventions make the kernels
//! branch-free:
//!
//! * **Remainder channels are zero padding.** When `c % b != 0` the
//!   trailing lanes of the last block are zeroed at pack time (inputs
//!   *and* filters), so the channel loop always runs whole blocks and
//!   the padding lanes contribute exact zeros to every accumulation.
//! * **Spatial padding is baked into the packed buffer.** `pack` takes
//!   the consuming convolution's `pad` and materializes zero borders,
//!   so the conv kernels need no edge guards.
//!
//! Filters pack as `[⌈f/b⌉][⌈c/b⌉][ky][kx][ci][fo]` (oneDNN's
//! OIhw8i8o): the innermost `b` output channels of one tap are
//! contiguous, which is exactly the vector the convolution tile
//! ([`simd::conv`]) broadcasts each input lane against.
//!
//! **A convolution's input is packed at its [`pitch`].** Floats per
//! input pixel and filter rows per tap are `min(c, b)`: at `c ≥ b`
//! that is the block and nothing above changes, while a layer with
//! fewer channels than one block (an RGB first layer) packs its input
//! as `[n][1][h][w][c]` — [`pack_nchwc_into`] at block `c` — and its
//! filters as `[⌈f/b⌉][1][ky][kx][c][fo]`, instead of carrying
//! `b − c` zero lanes per pixel and `b − c` zero rows per tap. Outputs
//! and the activations between blocked layers stay `b` wide.
//!
//! The pack kernels zero borders and remainder lanes where they lie,
//! never by a whole-buffer fill that the payload then overwrites; the
//! payload, like the unpack's, is a [`simd::transpose`] per row, plane
//! or filter channel.

use crate::layout::Layout;
use crate::shape::Shape4;
use crate::simd;

/// The blocked [`Layout`] matching this host's SIMD width.
pub fn preferred_layout() -> Layout {
    if simd::preferred_block() == 16 {
        Layout::Nchw16c
    } else {
        Layout::Nchw8c
    }
}

/// Buffer length of a packed activation of logical shape `shape`,
/// spatially zero-padded by `pad` on all four sides.
pub const fn packed_len(shape: Shape4, block: usize, pad: usize) -> usize {
    shape.n * shape.c.div_ceil(block) * block * (shape.h + 2 * pad) * (shape.w + 2 * pad)
}

/// Floats per pixel of a packed convolution input with `c` channels,
/// and rows per tap of its packed filters: `min(c, block)`.
pub const fn pitch(c: usize, block: usize) -> usize {
    if c < block {
        c
    } else {
        block
    }
}

/// Buffer length of a packed filter bank of logical shape
/// `(f, c, k, k)`: `⌈f/b⌉·⌈c/b⌉` panels of `k²` taps × [`pitch`] rows
/// × `b` output channels.
pub const fn packed_filter_len(shape: Shape4, block: usize) -> usize {
    let rows = pitch(shape.c, block);
    shape.n.div_ceil(block) * shape.c.div_ceil(block) * shape.h * shape.w * rows * block
}

/// Write one padded `[h + 2·pad][w + 2·pad][block]` plane: zero its
/// border and hand each interior row (`w·block` floats, row index
/// first) to `fill_row`, which must write all of it.
fn write_padded_plane(
    plane: &mut [f32],
    (h, w): (usize, usize),
    block: usize,
    pad: usize,
    mut fill_row: impl FnMut(usize, &mut [f32]),
) {
    let row_len = (w + 2 * pad) * block;
    let (top, rest) = plane.split_at_mut(pad * row_len);
    let (rows, bottom) = rest.split_at_mut(h * row_len);
    top.fill(0.0);
    bottom.fill(0.0);
    for (y, row) in rows.chunks_exact_mut(row_len).enumerate() {
        let (left, rest) = row.split_at_mut(pad * block);
        let (interior, right) = rest.split_at_mut(w * block);
        left.fill(0.0);
        right.fill(0.0);
        fill_row(y, interior);
    }
}

/// Pack a planar NCHW activation into NCHWc with `pad` zero rows/cols
/// baked around each spatial plane.
///
/// `src.len()` must be `shape.len()` and `dst.len()` must be
/// [`packed_len`]`(shape, block, pad)`. Remainder lanes and borders are
/// zeroed; nothing `dst` held survives.
pub fn pack_nchwc_into(src: &[f32], shape: Shape4, block: usize, pad: usize, dst: &mut [f32]) {
    assert_eq!(src.len(), shape.len(), "pack_nchwc_into: src length");
    assert_eq!(
        dst.len(),
        packed_len(shape, block, pad),
        "pack_nchwc_into: dst length"
    );
    let (cc, hh, ww) = (shape.c, shape.h, shape.w);
    let blocks = cc.div_ceil(block);
    let plane_len = (hh + 2 * pad) * (ww + 2 * pad) * block;
    for (p, plane) in dst.chunks_exact_mut(plane_len.max(1)).enumerate() {
        let (n, cb) = (p / blocks, p % blocks);
        let lanes = block.min(cc - cb * block);
        let first = (n * cc + cb * block) * hh * ww;
        write_padded_plane(plane, (hh, ww), block, pad, |h, row| {
            // Row `h` of the `lanes` channel planes, as `ww × block`.
            if lanes < block {
                row.fill(0.0);
            }
            simd::transpose(&src[first + h * ww..], hh * ww, lanes, ww, row, block);
        });
    }
}

/// Unpack an NCHWc activation (no spatial padding) back to planar NCHW.
///
/// `src.len()` must be [`packed_len`]`(shape, block, 0)` and
/// `dst.len()` must be `shape.len()`. Remainder lanes are ignored.
pub fn unpack_nchwc_from(src: &[f32], shape: Shape4, block: usize, dst: &mut [f32]) {
    assert_eq!(
        src.len(),
        packed_len(shape, block, 0),
        "unpack_nchwc_from: src length"
    );
    assert_eq!(dst.len(), shape.len(), "unpack_nchwc_from: dst length");
    let (cc, hw) = (shape.c, shape.h * shape.w);
    let blocks = cc.div_ceil(block);
    // Each `hw × block` plane, transposed into its `lanes` channel planes.
    for (p, plane) in src.chunks_exact((hw * block).max(1)).enumerate() {
        let (n, cb) = (p / blocks, p % blocks);
        let lanes = block.min(cc - cb * block);
        let first = (n * cc + cb * block) * hw;
        simd::transpose(plane, block, hw, lanes, &mut dst[first..], hw);
    }
}

/// Pack a planar `(f, c, k, k)` filter bank into the OIhw8i8o-style
/// `[⌈f/b⌉][⌈c/b⌉][ky][kx][ci][fo]` arrangement, `ci` running over the
/// [`pitch`] rows of a tap.
///
/// Remainder input *and* output channels are zeroed, so a padded input
/// lane meets a zero filter lane and padded output lanes accumulate
/// garbage-free zeros.
pub fn pack_filters_into(src: &[f32], shape: Shape4, block: usize, dst: &mut [f32]) {
    assert_eq!(src.len(), shape.len(), "pack_filters_into: src length");
    assert_eq!(
        dst.len(),
        packed_filter_len(shape, block),
        "pack_filters_into: dst length"
    );
    let (ff, cc, taps) = (shape.n, shape.c, shape.h * shape.w);
    let cblocks = cc.div_ceil(block);
    let rows = pitch(cc, block);
    let tap_len = rows * block;
    // One `[tap][ci][fo]` panel at a time; for each input channel, its
    // `folanes × taps` taps (one run per filter) are transposed into the
    // panel's `taps × block` column of that channel.
    for (p, panel) in dst.chunks_exact_mut((taps * tap_len).max(1)).enumerate() {
        let (fb, cb) = (p / cblocks, p % cblocks);
        let folanes = block.min(ff - fb * block);
        let cilanes = block.min(cc - cb * block);
        if folanes < block || cilanes < rows {
            panel.fill(0.0);
        }
        for ci in 0..cilanes {
            let first = (fb * block * cc + cb * block + ci) * taps;
            let column = &mut panel[ci * block..];
            simd::transpose(&src[first..], cc * taps, folanes, taps, column, tap_len);
        }
    }
}

/// Copy an unpadded packed activation into a packed buffer with `pad`
/// zero borders — the transition used when one blocked layer's output
/// feeds a blocked consumer that needs spatial padding.
///
/// `src.len()` must be [`packed_len`]`(shape, block, 0)` and
/// `dst.len()` must be [`packed_len`]`(shape, block, pad)`.
pub fn repad_packed(src: &[f32], shape: Shape4, block: usize, pad: usize, dst: &mut [f32]) {
    assert_eq!(
        src.len(),
        packed_len(shape, block, 0),
        "repad_packed: src length"
    );
    assert_eq!(
        dst.len(),
        packed_len(shape, block, pad),
        "repad_packed: dst length"
    );
    let (hh, ww) = (shape.h, shape.w);
    let plane_len = (hh + 2 * pad) * (ww + 2 * pad) * block;
    let row_len = ww * block;
    for (p, plane) in dst.chunks_exact_mut(plane_len.max(1)).enumerate() {
        write_padded_plane(plane, (hh, ww), block, pad, |h, row| {
            let s = (p * hh + h) * row_len;
            row.copy_from_slice(&src[s..s + row_len]);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::tests::offset;

    fn ramp(len: usize) -> Vec<f32> {
        (0..len).map(|i| i as f32 + 1.0).collect()
    }

    #[test]
    fn preferred_layout_matches_simd_block() {
        let l = preferred_layout();
        assert_eq!(l.channel_block(), Some(simd::preferred_block()));
    }

    /// Pack → unpack is the identity, including remainder channels.
    #[test]
    fn roundtrip_exact_with_remainders() {
        for (c, block) in [(1usize, 8usize), (5, 8), (8, 8), (10, 8), (3, 16), (16, 16)] {
            let shape = Shape4::new(2, c, 3, 4);
            let src = ramp(shape.len());
            let mut packed = vec![f32::NAN; packed_len(shape, block, 0)];
            let mut back = vec![f32::NAN; shape.len()];
            pack_nchwc_into(&src, shape, block, 0, &mut packed);
            unpack_nchwc_from(&packed, shape, block, &mut back);
            assert_eq!(src, back, "c={c} block={block}");
        }
    }

    /// The pack kernel and the layouts' index oracle must implement the
    /// same stride math: every logical element lands where the oracle
    /// says it lives.
    #[test]
    fn pack_agrees_with_layout_offsets() {
        let shape = Shape4::new(2, 10, 3, 4);
        let dims = (shape.n, shape.c, shape.h, shape.w);
        let src = ramp(shape.len());
        let mut packed = vec![0.0; packed_len(shape, 8, 0)];
        pack_nchwc_into(&src, shape, 8, 0, &mut packed);
        for n in 0..shape.n {
            for c in 0..shape.c {
                for h in 0..shape.h {
                    for w in 0..shape.w {
                        let idx = (n, c, h, w);
                        assert_eq!(
                            packed[offset(Layout::Nchw8c, dims, idx)],
                            src[offset(Layout::Nchw, dims, idx)],
                            "mismatch at {idx:?}"
                        );
                    }
                }
            }
        }
    }

    /// Remainder lanes and padded borders must be exact zeros (the conv
    /// kernels read the borders unconditionally), at both block widths,
    /// whatever the destination held: the pack writes every element
    /// once rather than zero-filling first.
    #[test]
    fn padding_lanes_and_borders_are_zero() {
        for (c, block) in [(5usize, 8usize), (5, 16), (19, 8), (19, 16), (16, 16)] {
            let shape = Shape4::new(2, c, 3, 4);
            let pad = 2;
            let src = ramp(shape.len());
            let mut packed = vec![f32::NAN; packed_len(shape, block, pad)];
            pack_nchwc_into(&src, shape, block, pad, &mut packed);
            let (hp, wp) = (shape.h + 2 * pad, shape.w + 2 * pad);
            let mut nonzero = 0;
            for (p, plane) in packed.chunks_exact(hp * wp * block).enumerate() {
                let cb = p % c.div_ceil(block);
                for h in 0..hp {
                    for w in 0..wp {
                        for ci in 0..block {
                            let v = plane[(h * wp + w) * block + ci];
                            let interior = (pad..pad + shape.h).contains(&h)
                                && (pad..pad + shape.w).contains(&w);
                            if !interior || cb * block + ci >= c {
                                assert_eq!(v, 0.0, "b={block} h={h} w={w} ci={ci}: padding");
                            } else {
                                assert!(v > 0.0, "b={block} h={h} w={w} ci={ci}: data");
                                nonzero += 1;
                            }
                        }
                    }
                }
            }
            assert_eq!(nonzero, shape.len(), "c={c} block={block}");
        }
    }

    #[test]
    fn filter_pack_places_taps_and_zeroes_remainders() {
        // f=21, c=19, k=3: remainder lanes on both axes at block 8
        // (3×3 panels) and block 16 (2×2 panels), full panels beside
        // them; c=3 and c=7: one panel row per channel (the pitch) and
        // no zero rows. Into a NaN-poisoned destination.
        for (c, block) in [(19usize, 8usize), (19, 16), (3, 8), (3, 16), (7, 8), (8, 8)] {
            let shape = Shape4::new(21, c, 3, 3);
            let src = ramp(shape.len());
            let rows = pitch(c, block);
            let mut packed = vec![f32::NAN; packed_filter_len(shape, block)];
            pack_filters_into(&src, shape, block, &mut packed);
            let (fblocks, cblocks, kk) = (21usize.div_ceil(block), c.div_ceil(block), 3);
            assert_eq!(packed.len(), fblocks * cblocks * kk * kk * rows * block);
            for (d, &got) in packed.iter().enumerate() {
                let (fo, ci) = (d % block, d / block % rows);
                let tap = d / (rows * block) % (kk * kk);
                let panel = d / (rows * block * kk * kk);
                let (fb, cb) = (panel / cblocks, panel % cblocks);
                assert!(fb < fblocks);
                let (f, c) = (fb * block + fo, cb * block + ci);
                if f < shape.n && c < shape.c {
                    assert_eq!(
                        got,
                        src[(f * shape.c + c) * kk * kk + tap],
                        "b={block} d={d}"
                    );
                } else {
                    assert_eq!(got, 0.0, "b={block} fb={fb} cb={cb} ci={ci} fo={fo}: zero");
                }
            }
        }
    }

    #[test]
    fn repad_shifts_rows_into_zero_borders() {
        for (c, block, pad) in [(8usize, 8usize, 1usize), (19, 8, 2), (19, 16, 1)] {
            let shape = Shape4::new(2, c, 3, 3);
            let src = ramp(shape.len());
            let mut packed = vec![0.0; packed_len(shape, block, 0)];
            pack_nchwc_into(&src, shape, block, 0, &mut packed);
            let mut repadded = vec![f32::NAN; packed_len(shape, block, pad)];
            repad_packed(&packed, shape, block, pad, &mut repadded);
            // Must equal packing the planar source with the pad directly.
            let mut direct = vec![f32::NAN; packed_len(shape, block, pad)];
            pack_nchwc_into(&src, shape, block, pad, &mut direct);
            assert_eq!(repadded, direct, "c={c} block={block} pad={pad}");
        }
    }
}
