//! Operand packing for the blocked GEMM.
//!
//! Packing copies a block of A (resp. a panel of B) into a contiguous
//! buffer laid out exactly in the order the micro-kernel consumes it,
//! zero-padding the edge strip so the micro-kernel never branches on
//! edges. This mirrors what cuBLAS/cuDNN do in shared memory on the GPU
//! (paper §V-A: cuDNN's unrolling and GEMM are "optimized by using shared
//! memory and tiled matrix multiplication").
//!
//! Both operands pack into the same shape — strips of `w` lines
//! (`w = mr` rows of A, `w = nr` columns of B), each strip holding `kc`
//! groups of `w` values — and each of the four transpose combinations
//! reduces to one of two source orders ([`pack_strips`]): lines stored
//! contiguously along `k` (A as stored, B transposed) are the one
//! orientation that transposes — each strip is a `w × kc` block
//! written `kc × w` by [`simd::transpose`]'s in-register blocks; lines
//! stored across `k` (A transposed, B as stored) are copied group by
//! group as `w`-float slices. Neither touches an element through an
//! index computation of its own.
//!
//! A convolution's column matrix can be read out of its image
//! ([`OperandView::windows`]): consecutive `kx` taps are rows one float
//! apart, so each group packed as stored is one contiguous read, and
//! each run of taps packed transposed is one overlapping-row block.
//! A padded or strided one is gathered as it is packed, by output row ([`OperandView::gathered`]).

use gcnn_tensor::im2col::{tap_range, ConvGeometry};
use gcnn_tensor::simd;

/// A read-only view of a (possibly transposed) row-major operand whose
/// stored row `t = (c, ky, kx)` (`c = t / taps²`, `ky = t / taps %
/// taps`, `kx = t % taps`) starts at `c·plane + ky·pitch + kx`. A dense
/// matrix is the one-tap case: row `t` starts at `t·ld`.
#[derive(Clone, Copy)]
pub struct OperandView<'a> {
    data: &'a [f32],
    /// Logical `(i, j)` is stored `(j, i)`.
    pub(crate) transposed: bool,
    taps: usize,
    pitch: usize,
    plane: usize,
    /// The convolution a gathered view unrolls ([`OperandView::gathered`]).
    gather: Option<ConvGeometry>,
}

impl<'a> OperandView<'a> {
    /// Wrap a row-major buffer with leading dimension `ld`; when
    /// `transposed`, logical `(i, j)` is stored `(j, i)`.
    pub fn new(data: &'a [f32], ld: usize, transposed: bool) -> Self {
        OperandView {
            data,
            transposed,
            taps: 1,
            pitch: ld,
            plane: ld,
            gather: None,
        }
    }

    /// The `c·k² × ((o−1)·i + o)` column matrix of a stride-1, unpadded
    /// `k × k` convolution over `image` (`c` planes of `i × i`, `o = i −
    /// k + 1`), read in place: stored row `(c, ky, kx)` is the image from
    /// `c·i² + ky·i + kx` on. Column `y·i + x` is output position `(y,
    /// x)` for `x < o`; the `i − o` columns after each output row are
    /// image values no output uses.
    ///
    /// # Panics
    /// Unless `1 <= kernel <= input`.
    pub fn windows(image: &'a [f32], input: usize, kernel: usize, transposed: bool) -> Self {
        assert!((1..=input).contains(&kernel), "windows: kernel {kernel}");
        OperandView {
            taps: kernel,
            pitch: input,
            plane: input * input,
            ..Self::new(image, input, transposed)
        }
    }

    /// The `c·k² × oh·ow` column matrix `im2col` writes for `geom`, read
    /// in place: stored row `(c, ky, kx)`, column `oy·ow + ox` is image
    /// `(c, oy·s + ky − p, ox·s + kx − p)`, or zero in the padding. It
    /// packs only as stored (B of `W · cols`).
    pub fn gathered(image: &'a [f32], geom: &ConvGeometry) -> Self {
        OperandView {
            taps: geom.kernel,
            pitch: geom.in_w,
            plane: geom.in_h * geom.in_w,
            gather: Some(*geom),
            ..Self::new(image, geom.in_w, false)
        }
    }

    /// Offset of stored row `t` in the data.
    #[inline]
    fn row_origin(&self, t: usize) -> usize {
        if self.taps == 1 {
            return t * self.plane;
        }
        let k = self.taps;
        (t / (k * k)) * self.plane + (t / k % k) * self.pitch + t % k
    }

    /// Offsets and `(ky, kx)` taps of stored rows `t, t + 1, …`, one addition each.
    fn row_origins(&self, t: usize) -> impl Iterator<Item = [usize; 3]> {
        let Self {
            taps, pitch, plane, ..
        } = *self;
        let (mut kx, mut ky, mut at) = (t % taps, t / taps % taps, self.row_origin(t));
        std::iter::from_fn(move || {
            let here = [at, ky, kx];
            (kx, at) = (kx + 1, at + 1);
            if kx == taps {
                (kx, ky, at) = (0, ky + 1, at + pitch - taps);
                if ky == taps {
                    (ky, at) = (0, at + plane - taps * pitch);
                }
            }
            Some(here)
        })
    }

    /// How many of the stored rows `t..t + max` are evenly spaced from
    /// `t`, and their spacing: a run of `kx` taps one float apart, or
    /// every row of a one-tap view.
    fn row_run(&self, t: usize, max: usize) -> (usize, usize) {
        if self.taps == 1 {
            (max, self.plane)
        } else {
            (max.min(self.taps - t % self.taps), 1)
        }
    }

    /// The stored row `t` of `cols` floats.
    #[inline]
    pub(crate) fn stored_row(&self, t: usize, cols: usize) -> &'a [f32] {
        &self.data[self.row_origin(t)..][..cols]
    }

    /// Panic unless `rows` stored rows of `cols` floats lie inside the
    /// data (row `rows − 1` ends last).
    pub(crate) fn check(&self, name: &str, rows: usize, cols: usize) {
        let fits = match self.gather {
            Some(g) => rows <= g.col_rows() && g.channels * self.plane <= self.data.len(),
            None => rows == 0 || cols == 0 || self.row_origin(rows - 1) + cols <= self.data.len(),
        };
        assert!(fits, "sgemm: {name} short for {rows} stored rows of {cols}");
    }
}

/// Pack an `mc_eff × kc_eff` block of `op(A)` (starting at logical row
/// `i0`, column `p0`) into strips of `mr` rows: the buffer holds, for
/// each strip, `kc_eff` groups of `mr` consecutive values (one per
/// row), zero-padded where the last strip exceeds the block.
///
/// Buffer length must be `ceil(mc_eff / mr) · mr · kc_eff`.
pub fn pack_a(
    a: &OperandView<'_>,
    i0: usize,
    p0: usize,
    mc_eff: usize,
    kc_eff: usize,
    mr: usize,
    buf: &mut [f32],
) {
    // Rows of op(A) run along k in storage unless A is transposed.
    pack_strips(a, !a.transposed, i0, p0, mc_eff, kc_eff, mr, buf);
}

/// Pack a `kc_eff × nc_eff` panel of `op(B)` (starting at logical row
/// `p0`, column `j0`) into strips of `nr` columns: for each strip,
/// `kc_eff` groups of `nr` consecutive values (one per column),
/// zero-padded where the last strip exceeds the panel.
///
/// Buffer length must be `ceil(nc_eff / nr) · nr · kc_eff`.
pub fn pack_b(
    b: &OperandView<'_>,
    p0: usize,
    j0: usize,
    kc_eff: usize,
    nc_eff: usize,
    nr: usize,
    buf: &mut [f32],
) {
    // Columns of op(B) run along k in storage only when B is transposed.
    pack_strips(b, b.transposed, j0, p0, nc_eff, kc_eff, nr, buf);
}

/// Pack `len` lines starting at `x0` (rows of `op(A)` or columns of
/// `op(B)`), `kc` deep starting at `p0`, into strips of `w` lines.
/// `along_k` says whether a line's `k` values are contiguous in storage
/// (`line·ld + p`) or strided (`p·ld + line`).
#[allow(clippy::too_many_arguments)] // one call shape for both operands
fn pack_strips(
    src: &OperandView<'_>,
    along_k: bool,
    x0: usize,
    p0: usize,
    len: usize,
    kc: usize,
    w: usize,
    buf: &mut [f32],
) {
    assert_eq!(buf.len(), len.div_ceil(w) * w * kc, "pack: buffer size");
    for (s, strip) in buf.chunks_exact_mut(w * kc).enumerate() {
        let x = x0 + s * w;
        let w_eff = w.min(len - s * w);
        if w_eff < w {
            strip.fill(0.0);
        }
        if along_k {
            debug_assert!(src.gather.is_none(), "pack: a gathered view, transposed");
            // One block per run of evenly spaced stored rows.
            let mut r = 0;
            while r < w_eff {
                let (run, step) = src.row_run(x + r, w_eff - r);
                let from = &src.data[src.row_origin(x + r) + p0..];
                simd::transpose(from, step, run, kc, &mut strip[r..], w);
                r += run;
            }
        } else if let Some(g) = &src.gather {
            // The strip's first output position: one division per strip.
            let first = [x / g.out_w(), x % g.out_w()];
            for (group, tap) in strip.chunks_exact_mut(w).zip(src.row_origins(p0)) {
                gather_row(src.data, g, tap, first, &mut group[..w_eff]);
            }
        } else {
            let rows = src.row_origins(p0);
            for (group, [at, ..]) in strip.chunks_exact_mut(w).zip(rows) {
                group[..w_eff].copy_from_slice(&src.data[at + x..][..w_eff]);
            }
        }
    }
}

/// Fill `out` with gathered row `tap = [offset, ky, kx]` from output
/// `pos = [oy, ox]` on: per output row, the tap's valid range copied at
/// stride `s`, zeros either side.
fn gather_row(data: &[f32], g: &ConvGeometry, tap: [usize; 3], pos: [usize; 2], out: &mut [f32]) {
    let ([at, ky, kx], [mut oy, mut ox], mut out) = (tap, pos, out);
    let (s, p, ow) = (g.stride, g.pad, g.out_w());
    let (y_lo, y_hi) = tap_range(g.out_h(), g.in_h, ky, s, p);
    let (x_lo, x_hi) = tap_range(ow, g.in_w, kx, s, p);
    while !out.is_empty() {
        let len = out.len().min(ow - ox);
        let (seg, rest) = std::mem::take(&mut out).split_at_mut(len);
        let valid = (y_lo..y_hi).contains(&oy);
        let hi = if valid { x_hi.clamp(ox, ox + len) } else { ox };
        let lo = x_lo.clamp(ox, hi);
        seg[..lo - ox].fill(0.0);
        seg[hi - ox..].fill(0.0);
        if lo < hi {
            // Image (c, oy·s + ky − p, lo·s + kx − p), inside the image.
            let from = &data[at + oy * s * g.in_w + lo * s - p * g.in_w - p..];
            let dst = &mut seg[lo - ox..hi - ox];
            if s == 1 {
                dst.copy_from_slice(&from[..dst.len()]);
            } else {
                let src = from.iter().step_by(s);
                dst.iter_mut().zip(src).for_each(|(d, v)| *d = *v);
            }
        }
        (out, oy, ox) = (rest, oy + 1, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MR: usize = 6;
    const NR: usize = 16;

    #[test]
    fn operand_view_transpose() {
        // Stored 2x3 row-major [1 2 3; 4 5 6]; transposed it is the
        // logical 3x2 [1 4; 2 5; 3 6]. Packing that view must equal
        // packing the explicitly transposed matrix, as A and as B.
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let explicit = [1.0, 4.0, 2.0, 5.0, 3.0, 6.0];
        let vt = OperandView::new(&data, 3, true);
        let ve = OperandView::new(&explicit, 2, false);
        let (mut x, mut y) = (vec![-1.0; 4 * 2], vec![-2.0; 4 * 2]);
        pack_a(&vt, 0, 0, 3, 2, 4, &mut x);
        pack_a(&ve, 0, 0, 3, 2, 4, &mut y);
        assert_eq!(x, y);
        // Group k=1, row 2: logical (2, 1) is stored (1, 2) = 6.
        assert_eq!(x[4 + 2], 6.0);
        let (mut x, mut y) = (vec![-1.0; 4 * 3], vec![-2.0; 4 * 3]);
        pack_b(&vt, 0, 0, 3, 2, 4, &mut x);
        pack_b(&ve, 0, 0, 3, 2, 4, &mut y);
        assert_eq!(x, y);
        // Group p=2, column 1: logical (2, 1) again.
        assert_eq!(x[2 * 4 + 1], 6.0);
    }

    /// An `MR`- (or `NR`-) length group whose first entries are `head`
    /// and the rest zero padding.
    fn padded(head: &[f32], group: usize) -> Vec<f32> {
        let mut v = head.to_vec();
        v.resize(group, 0.0);
        v
    }

    #[test]
    fn pack_a_layout_and_padding() {
        // 3x2 logical block: one strip, rows 3..MR padded.
        let data: Vec<f32> = (1..=6).map(|x| x as f32).collect(); // 3x2
        let a = OperandView::new(&data, 2, false);
        let mut buf = vec![-1.0; MR * 2];
        pack_a(&a, 0, 0, 3, 2, MR, &mut buf);
        // k=0 group: column 0 of the block = [1, 3, 5, 0, …]
        assert_eq!(buf[..MR], padded(&[1.0, 3.0, 5.0], MR));
        // k=1 group: column 1 of the block = [2, 4, 6, 0, …]
        assert_eq!(buf[MR..2 * MR], padded(&[2.0, 4.0, 6.0], MR));
    }

    #[test]
    fn pack_b_layout_and_padding() {
        // 2x3 logical panel: one strip, cols 3..NR padded.
        let data: Vec<f32> = (1..=6).map(|x| x as f32).collect(); // 2x3
        let b = OperandView::new(&data, 3, false);
        let mut buf = vec![-1.0; NR * 2];
        pack_b(&b, 0, 0, 2, 3, NR, &mut buf);
        // p=0 group: row 0 = [1, 2, 3, 0, …]
        assert_eq!(buf[..NR], padded(&[1.0, 2.0, 3.0], NR));
        assert_eq!(buf[NR..2 * NR], padded(&[4.0, 5.0, 6.0], NR));
    }

    #[test]
    fn pack_a_subblock_offsets() {
        // A 4x4 matrix, pack the 2x2 block at (2, 1).
        let data: Vec<f32> = (0..16).map(|x| x as f32).collect();
        let a = OperandView::new(&data, 4, false);
        let mut buf = vec![0.0; MR * 2];
        pack_a(&a, 2, 1, 2, 2, MR, &mut buf);
        assert_eq!(buf[0], 9.0); // (2,1)
        assert_eq!(buf[1], 13.0); // (3,1)
        assert_eq!(buf[MR], 10.0); // (2,2)
    }

    /// Both operands in both storage orders, packed for every kernel this
    /// host runs, equal the index formula bit for bit: `kc` around every
    /// block width (4, 8, 16) and past 256, a whole strip then one of
    /// `w_eff ∈ {1, w − 1, w}` lines, at a non-zero origin, into
    /// NaN-poisoned buffers whose padding lanes must come back zero.
    #[test]
    fn pack_matches_index_oracle_for_every_kernel() {
        let (x0, p0) = (3usize, 5usize);
        for k in crate::kernel::available() {
            for (operand, w) in [("a", k.mr()), ("b", k.nr())] {
                for w_eff in [1, w - 1, w] {
                    let len = w + w_eff;
                    for kc in [1usize, 3, 4, 5, 7, 8, 9, 15, 16, 17, 259] {
                        for transposed in [false, true] {
                            // Logical op(X) is `lines × depth` for A,
                            // `depth × lines` for B; stored at an odd ld.
                            let (lines, depth) = (x0 + len, p0 + kc);
                            let (lr, lc) = if operand == "a" {
                                (lines, depth)
                            } else {
                                (depth, lines)
                            };
                            let (sr, sc) = if transposed { (lc, lr) } else { (lr, lc) };
                            let ld = (sc + 1) | 1;
                            let data: Vec<f32> = (0..sr * ld).map(|i| i as f32).collect();
                            let at = |i: usize, j: usize| {
                                let (i, j) = if transposed { (j, i) } else { (i, j) };
                                data[i * ld + j]
                            };
                            let v = OperandView::new(&data, ld, transposed);
                            let mut buf = vec![f32::NAN; len.div_ceil(w) * w * kc];
                            if operand == "a" {
                                pack_a(&v, x0, p0, len, kc, w, &mut buf);
                            } else {
                                pack_b(&v, p0, x0, kc, len, w, &mut buf);
                            }
                            for (idx, got) in buf.iter().enumerate() {
                                let (s, p, r) = (idx / (w * kc), idx % (w * kc) / w, idx % w);
                                let line = s * w + r;
                                let want = match (line < len, operand) {
                                    (false, _) => 0.0,
                                    (true, "a") => at(x0 + line, p0 + p),
                                    (true, _) => at(p0 + p, x0 + line),
                                };
                                assert_eq!(
                                    got.to_bits(),
                                    want.to_bits(),
                                    "{} {operand} w_eff={w_eff} kc={kc} t={transposed} idx {idx}",
                                    k.name()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// A window view packs as the column matrix it stands for, written
    /// out: as stored and transposed, for every kernel's strip width, at
    /// a non-zero origin, with `kx` runs cut by strip edges and one-tap
    /// (channel-plane) rows.
    #[test]
    fn windows_pack_as_the_written_out_column_matrix() {
        for (c, i, taps) in [(4usize, 7usize, 3usize), (2, 5, 1), (2, 9, 5)] {
            let o = i - taps + 1;
            let (rows, span) = (c * taps * taps, (o - 1) * i + o);
            let image: Vec<f32> = (0..c * i * i).map(|v| v as f32).collect();
            let mut cols = Vec::with_capacity(rows * span);
            for ch in 0..c {
                for ky in 0..taps {
                    for kx in 0..taps {
                        let at = ch * i * i + ky * i + kx;
                        cols.extend_from_slice(&image[at..at + span]);
                    }
                }
            }
            for k in crate::kernel::available() {
                let w = k.nr();
                for transposed in [false, true] {
                    let win = OperandView::windows(&image, i, taps, transposed);
                    let dense = OperandView::new(&cols, span, transposed);
                    // Logical op(B) is `depth × lines`.
                    let (depth, lines) = if transposed {
                        (span, rows)
                    } else {
                        (rows, span)
                    };
                    let (p0, j0) = (1, 2);
                    let (kc, nc) = (depth - p0, lines - j0);
                    let mut got = vec![f32::NAN; nc.div_ceil(w) * w * kc];
                    let mut want = vec![f32::NAN; got.len()];
                    pack_b(&win, p0, j0, kc, nc, w, &mut got);
                    pack_b(&dense, p0, j0, kc, nc, w, &mut want);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{} c={c} i={i} k={taps} t={transposed}",
                        k.name()
                    );
                }
            }
        }
    }

    /// A gathered view packs as the `im2col_into` matrix it stands for,
    /// written out: every kernel's strip width, stride 1–5, padding from
    /// none to above the kernel (taps that never leave it), a non-square
    /// image, strips that straddle output rows, panels whose last strip
    /// has `w_eff ∈ {1, w − 1, w}` columns, from a non-zero tap and
    /// column, into NaN-poisoned buffers.
    #[test]
    fn gathered_packs_as_the_im2col_matrix() {
        use gcnn_tensor::im2col::im2col_into;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (channels, kernel, in_h, in_w) in
            [(2, 3, 23, 21), (3, 1, 7, 7), (2, 6, 1, 2), (1, 5, 9, 13)]
        {
            for (stride, pad) in (1..=5).flat_map(|s| [0, 1, 2, 3, 4, 7].map(|p| (s, p))) {
                #[rustfmt::skip]
                let geom = ConvGeometry { in_h, in_w, channels, kernel, stride, pad };
                if !geom.is_valid() {
                    continue;
                }
                let image: Vec<f32> = (0..channels * in_h * in_w)
                    .map(|v| v as f32 + 1.0)
                    .collect();
                let (rows, n) = (geom.col_rows(), geom.col_cols());
                let mut cols = vec![f32::NAN; rows * n];
                im2col_into(&image, &geom, &mut cols);
                let gathered = OperandView::gathered(&image, &geom);
                let dense = OperandView::new(&cols, n, false);
                let (p0, j0) = (rows.min(1), n.min(3) - 1);
                let kc = rows - p0;
                for k in crate::kernel::available() {
                    let w = k.nr();
                    for nc in [1, w - 1, w, w + 1, 2 * w - 1, 2 * w, n - j0] {
                        if nc > n - j0 {
                            continue;
                        }
                        let mut got = vec![f32::NAN; nc.div_ceil(w) * w * kc];
                        let mut want = vec![f32::NAN; got.len()];
                        pack_b(&gathered, p0, j0, kc, nc, w, &mut got);
                        pack_b(&dense, p0, j0, kc, nc, w, &mut want);
                        assert_eq!(bits(&got), bits(&want), "{} {geom:?} nc={nc}", k.name());
                    }
                }
            }
        }
    }

    /// Several strips with a partial last one, all four storage orders,
    /// against the element-by-element definition.
    #[test]
    fn pack_matches_definition_all_orders() {
        let (rows, cols, ld) = (11usize, 9usize, 13usize);
        let data: Vec<f32> = (0..rows * ld).map(|x| x as f32).collect();
        for transposed in [false, true] {
            let v = OperandView::new(&data, ld, transposed);
            let at = |i: usize, j: usize| {
                if transposed {
                    data[j * ld + i]
                } else {
                    data[i * ld + j]
                }
            };
            // Logical extents of the view; pack an interior block.
            let (lr, lc) = if transposed {
                (cols, rows)
            } else {
                (rows, cols)
            };
            let (i0, p0, w) = (1usize, 2usize, 4usize);
            let (mc, kc) = (lr - i0, lc - p0);
            let mut buf = vec![f32::NAN; mc.div_ceil(w) * w * kc];
            pack_a(&v, i0, p0, mc, kc, w, &mut buf);
            for (idx, &got) in buf.iter().enumerate() {
                let (s, p, r) = (idx / (w * kc), idx % (w * kc) / w, idx % w);
                let i = s * w + r;
                let expect = if i < mc { at(i0 + i, p0 + p) } else { 0.0 };
                assert_eq!(got, expect, "pack_a t={transposed} idx {idx}");
            }
            let (kc, nc) = (lr - i0, lc - p0);
            let mut buf = vec![f32::NAN; nc.div_ceil(w) * w * kc];
            pack_b(&v, i0, p0, kc, nc, w, &mut buf);
            for (idx, &got) in buf.iter().enumerate() {
                let (s, p, c) = (idx / (w * kc), idx % (w * kc) / w, idx % w);
                let j = s * w + c;
                let expect = if j < nc { at(i0 + p, p0 + j) } else { 0.0 };
                assert_eq!(got, expect, "pack_b t={transposed} idx {idx}");
            }
        }
    }
}
