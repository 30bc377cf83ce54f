//! The output-stationary NCHWc convolution tile.
//!
//! One tile is `w` consecutive output positions of one output row ×
//! `nf` output vectors, and it stays in `w·nf` vector accumulators for
//! the whole `(ky, kx, ci)` reduction over one input-channel block: per
//! `ci` step `nf` filter-vector loads, `w` scalar broadcasts and `w·nf`
//! FMAs, no stores. The output plane is touched only between channel
//! blocks (the first block zero-initialises, the last may apply ReLU in
//! register), and `ci` runs over the block's *valid* channels, so
//! remainder lanes cost nothing. Input positions and filter taps are
//! `pitch` floats or rows apart (`min(c, block)`, see
//! `crate::nchwc::pitch`), so a layer with fewer channels than one
//! block reads no zero lanes at all.
//!
//! | kernel     | vector | block | tile (w × nf) | the `nf` vectors are            |
//! |------------|--------|-------|---------------|---------------------------------|
//! | `avx512f`  | zmm    | 16    | ≤ 14 × 2      | two adjacent filter blocks      |
//! | `avx2+fma` | ymm    | 8     | ≤ 6 × 2       | two adjacent filter blocks      |
//! | `avx2+fma` | ymm    | 16    | ≤ 6 × 2       | the two halves of one block     |
//! | `neon`     | q      | 8     | ≤ 8 × 2       | the two halves of one block     |
//! | `scalar`   | —      | any   | ≤ 14 × 2      | two adjacent filter blocks      |
//!
//! Every SIMD row is the one generic body [`conv_tile`] over a
//! [`Lanes`] vector, instantiated per `(w, nf)` inside a
//! `#[target_feature]` function that is only reachable through
//! [`ConvKernel::select`]/[`ConvKernel::available`], i.e. after the
//! matching runtime detection. Whether the `nf` vectors sit a plane
//! apart or side by side in one block is two strides, not a second
//! body. `ConvSweep::tile_scalar` is the portable fallback and the
//! oracle the SIMD rows are tested against.

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
use super::{Isa, Lanes};

/// Widest row chunk of any kernel in the table.
const WMAX: usize = 14;

/// One tile call in raw form; [`conv_tile`] lists the accesses every
/// pointer must be valid for.
struct RawTile {
    /// Lane 0 of the tile's first input position at tap `(0, 0)`.
    input: *const f32,
    /// `ci = 0` row of tap `(0, 0)` of the first filter vector.
    filters: *const f32,
    /// The tile's first output vector.
    out: *mut f32,
    k: usize,
    block: usize,
    /// Floats per input position, and filter rows per tap.
    pitch: usize,
    /// Valid input channels of this channel block (`1..=pitch`).
    lanes: usize,
    /// Floats between input rows (`iwp·pitch`).
    in_row: usize,
    /// Floats between the inputs of adjacent output positions
    /// (`stride·pitch`).
    in_step: usize,
    /// Floats from one of the `nf` filter vectors to the next.
    w_next: usize,
    /// Floats from one of the `nf` output vectors to the next.
    out_next: usize,
    /// Zero-initialise the accumulators instead of loading `out`.
    first: bool,
    /// Clamp at zero before the store.
    relu: bool,
}

/// Raw tile body at one `(w, nf)`.
///
/// # Safety
/// Every access [`conv_tile`] documents must be in bounds and the CPU
/// must support the body's ISA.
type Body = unsafe fn(&RawTile);

/// The tile bodies of one kernel.
#[derive(Clone, Copy)]
enum Bodies {
    /// [`tile_scalar`], at any `(w, nf)`.
    Scalar,
    /// `[nf − 1][w − 1]` → the SIMD instantiation.
    Simd([&'static [Body]; 2]),
}

/// One convolution tile kernel at one channel-block width.
///
/// Fields are private because [`ConvKernel::sweep`]'s bounds checks are
/// only sound for the `vec`/`wmax` the bodies were instantiated at, and
/// because a SIMD body may only be handed out on a host that supports
/// it.
#[derive(Clone, Copy)]
pub struct ConvKernel {
    name: &'static str,
    block: usize,
    /// Floats per output vector: `block` (the tile pairs two filter
    /// blocks) or `block / 2` (it pairs the halves of one).
    vec: usize,
    wmax: usize,
    bodies: Bodies,
}

impl std::fmt::Debug for ConvKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} b{} {}x2", self.name, self.block, self.wmax)
    }
}

/// The plain numbers of one sweep: one input-channel block's filter
/// panel applied to every tile of `nfb` output planes.
#[derive(Debug, Clone, Copy)]
pub struct SweepGeom {
    /// Kernel edge.
    pub k: usize,
    /// Convolution stride.
    pub stride: usize,
    /// Padded input row width in positions.
    pub iwp: usize,
    /// Output spatial edge.
    pub o: usize,
    /// Floats per input position and filter rows per tap,
    /// `min(c, block)`.
    pub pitch: usize,
    /// Valid input channels of this channel block (`1..=pitch`): the
    /// reduction skips the zero remainder lanes.
    pub lanes: usize,
    /// Filter blocks (output planes) each tile covers, `1..=fb_step`.
    pub nfb: usize,
    /// Floats from filter panel `(fb, cb)` to panel `(fb + 1, cb)`.
    pub fb_stride: usize,
    /// First channel block: the output is written, never read.
    pub first: bool,
    /// Clamp at zero before storing (last channel block of a fused
    /// conv+ReLU).
    pub relu: bool,
}

/// A [`SweepGeom`] bound to its operands and checked against them:
/// every tile inside the output plane is in bounds by construction.
pub struct ConvSweep<'a> {
    kernel: ConvKernel,
    g: SweepGeom,
    input: &'a [f32],
    filters: &'a [f32],
    /// `o·o·block`, one output plane.
    plane: usize,
}

impl ConvKernel {
    /// Stable lowercase name (`"avx512f"`, `"avx2+fma"`, `"neon"`,
    /// `"scalar"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The channel-block width this kernel was selected for.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Widest tile: output rows are cut into chunks of at most this
    /// many positions.
    pub fn wmax(&self) -> usize {
        self.wmax
    }

    /// Filter blocks one tile covers: the driver advances over output
    /// planes in groups of this many (the last group may be short).
    pub fn fb_step(&self) -> usize {
        2 * self.vec / self.block
    }

    /// Bind `g` to one channel block of one padded packed image
    /// (`input`, `[rows][g.iwp][g.pitch]`) and to the packed filter bank
    /// from panel `(fb, cb)` on (`filters`, a panel being
    /// `[ky][kx][ci < g.pitch][fo]`).
    ///
    /// # Panics
    /// If `g` is degenerate, a tile of the `g.o × g.o` output plane
    /// would read outside `input` or `filters`, or a size overflows —
    /// the raw bodies rely on exactly these.
    pub fn sweep<'a>(&self, g: SweepGeom, input: &'a [f32], filters: &'a [f32]) -> ConvSweep<'a> {
        let b = self.block;
        assert!(
            g.k >= 1
                && g.stride >= 1
                && g.o >= 1
                && g.pitch <= b
                && (1..=g.pitch).contains(&g.lanes),
            "conv sweep: degenerate geometry"
        );
        assert!(
            (1..=self.fb_step()).contains(&g.nfb),
            "conv sweep: filter blocks per tile"
        );
        // Input rows and columns `0..span` are read; a row is `iwp`
        // positions, so whole rows bound every read.
        let span = (g.o - 1)
            .checked_mul(g.stride)
            .and_then(|v| v.checked_add(g.k));
        let rows = span
            .filter(|&span| span <= g.iwp)
            .and_then(|span| span.checked_mul(g.iwp)?.checked_mul(g.pitch));
        assert!(
            rows.is_some_and(|len| len <= input.len()),
            "conv sweep: input short"
        );
        let panel = [g.k, g.pitch, b]
            .iter()
            .try_fold(g.k, |len, &x| len.checked_mul(x));
        let panels = (g.nfb - 1)
            .checked_mul(g.fb_stride)
            .and_then(|v| v.checked_add(panel?));
        assert!(
            panels.is_some_and(|len| len <= filters.len()),
            "conv sweep: filter panel short"
        );
        let plane =
            g.o.checked_mul(g.o)
                .and_then(|v| v.checked_mul(b))
                .filter(|plane| plane.checked_mul(g.nfb).is_some())
                .expect("conv sweep: output size overflows");
        ConvSweep {
            kernel: *self,
            g,
            input,
            filters,
            plane,
        }
    }
}

impl ConvSweep<'_> {
    /// Accumulate this sweep's channel block into the tile at output
    /// row `oy`, columns `ox..ox + w`, of the `nfb` consecutive
    /// `[o][o][block]` planes in `out`:
    ///
    /// `out[f][oy][ox + j][fo] (+)= Σ_{ky,kx,ci < lanes}
    ///   input[oy·stride + ky][(ox + j)·stride + kx][ci] ·
    ///   filters[f][ky][kx][ci][fo]`
    ///
    /// On the first channel block the tile is stored without being
    /// read, so whatever `out` held (NaN included) does not propagate.
    ///
    /// # Panics
    /// If `w` is outside `1..=wmax`, the tile leaves its output row, or
    /// `out` is shorter than the `nfb` planes.
    #[inline]
    pub fn tile(&self, out: &mut [f32], oy: usize, ox: usize, w: usize) {
        let (k, g) = (&self.kernel, &self.g);
        let b = k.block;
        assert!((1..=k.wmax).contains(&w), "conv tile: width");
        assert!(
            oy < g.o && ox <= g.o && w <= g.o - ox,
            "conv tile: leaves its output row"
        );
        assert!(out.len() >= g.nfb * self.plane, "conv tile: output short");
        let in_at = (oy * g.stride * g.iwp + ox * g.stride) * g.pitch;
        let out_at = (oy * g.o + ox) * b;
        match k.bodies {
            Bodies::Scalar => self.tile_scalar(&mut out[out_at..], in_at, w),
            Bodies::Simd(table) => {
                let paired = k.vec == b;
                let nf = g.nfb * b / k.vec;
                let t = RawTile {
                    input: self.input[in_at..].as_ptr(),
                    filters: self.filters.as_ptr(),
                    out: out[out_at..].as_mut_ptr(),
                    k: g.k,
                    block: b,
                    pitch: g.pitch,
                    lanes: g.lanes,
                    in_row: g.iwp * g.pitch,
                    in_step: g.stride * g.pitch,
                    w_next: if paired { g.fb_stride } else { k.vec },
                    out_next: if paired { self.plane } else { k.vec },
                    first: g.first,
                    relu: g.relu,
                };
                // SAFETY: `sweep` checked that input rows and columns
                // `0..(o-1)·stride + k` and `nfb` whole filter panels
                // exist, and the asserts above keep the tile inside the
                // `nfb` output planes. The body reads input row
                // `oy·stride + ky`, position `(ox + j)·stride + kx`,
                // lane `ci < lanes <= pitch`; filter vector `f < nf` at
                // `f·w_next + (tap·pitch + ci)·b`, `vec` floats wide, with
                // `tap < k²` — inside the `nfb` panels in both pairings
                // since `nf·vec = nfb·b`; and output vector `f` of
                // position `ox + j` at `out_at + f·out_next + j·b`.
                // `table[nf-1]` has `wmax` entries and `w` is
                // range-checked; a SIMD table only exists in a
                // descriptor built by `available` after runtime
                // detection.
                unsafe { table[nf - 1][w - 1](&t) }
            }
        }
    }

    /// Portable tile body and oracle: plain loops in the SIMD bodies'
    /// reduction order, any `block`, multiply and add unfused. `out`
    /// starts at the tile's first vector, `in_at` is its first input
    /// position.
    fn tile_scalar(&self, out: &mut [f32], in_at: usize, w: usize) {
        let (g, b, p) = (&self.g, self.kernel.block, self.g.pitch);
        for f in 0..g.nfb {
            for j in 0..w {
                let o = &mut out[f * self.plane + j * b..][..b];
                if g.first {
                    o.fill(0.0);
                }
                for ky in 0..g.k {
                    for kx in 0..g.k {
                        let x_at = in_at + (ky * g.iwp + j * g.stride + kx) * p;
                        let x = &self.input[x_at..x_at + g.lanes];
                        let panel = &self.filters[f * g.fb_stride + (ky * g.k + kx) * p * b..];
                        for (&xv, wrow) in x.iter().zip(panel.chunks_exact(b)) {
                            for (ov, &wv) in o.iter_mut().zip(wrow) {
                                *ov += xv * wv;
                            }
                        }
                    }
                }
                if g.relu {
                    for ov in o.iter_mut() {
                        *ov = ov.max(0.0);
                    }
                }
            }
        }
    }
}

/// The SIMD tile body: `W` positions × `NF` vectors of `V`, every
/// accumulator register-resident across the whole `(ky, kx, ci)` loop
/// nest.
///
/// # Safety
/// With `sb = t.in_step`: reads `t.input[ky·in_row + kx·pitch + j·sb +
/// ci]`, `V::N` floats at `t.filters[f·w_next + ((ky·k + kx)·pitch +
/// ci)·block]`, and reads (unless `t.first`) and writes `V::N` floats
/// at `t.out[f·out_next + j·block]`, for `ky, kx < k`, `ci < lanes`,
/// `j < W`, `f < NF`; all of it must be in bounds and the CPU must
/// support `V`'s ISA. `#[inline(always)]` so the intrinsics inline
/// into the `#[target_feature]` caller.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[inline(always)]
unsafe fn conv_tile<V: Lanes, const W: usize, const NF: usize>(t: &RawTile) {
    debug_assert!(W >= 1 && (1..=2).contains(&NF), "conv_tile: tile shape");
    debug_assert!(
        t.pitch <= t.block && (1..=t.pitch).contains(&t.lanes),
        "conv_tile: valid lanes"
    );
    // SAFETY: exactly the accesses listed in the contract above.
    unsafe {
        let mut acc = [[V::splat(0.0); NF]; W];
        if !t.first {
            for (j, row) in acc.iter_mut().enumerate() {
                for (f, a) in row.iter_mut().enumerate() {
                    *a = V::load(t.out.add(f * t.out_next + j * t.block));
                }
            }
        }
        for ky in 0..t.k {
            for kx in 0..t.k {
                let xp = t.input.add(ky * t.in_row + kx * t.pitch);
                let wp = t.filters.add((ky * t.k + kx) * t.pitch * t.block);
                for ci in 0..t.lanes {
                    let mut wv = [V::splat(0.0); NF];
                    for (f, w) in wv.iter_mut().enumerate() {
                        *w = V::load(wp.add(f * t.w_next + ci * t.block));
                    }
                    for (j, row) in acc.iter_mut().enumerate() {
                        let xv = V::splat(*xp.add(j * t.in_step + ci));
                        for (a, &w) in row.iter_mut().zip(&wv) {
                            *a = a.fma(xv, w);
                        }
                    }
                }
            }
        }
        let zero = V::splat(0.0);
        for (j, row) in acc.iter().enumerate() {
            for (f, &a) in row.iter().enumerate() {
                let v = if t.relu { a.max(zero) } else { a };
                v.store(t.out.add(f * t.out_next + j * t.block));
            }
        }
    }
}

/// `[nf − 1][w − 1]` table of `$tile::<w, nf>` for `w` in the list.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
macro_rules! tile_table {
    ($tile:ident, [$($w:literal),*]) => {
        [
            &[$($tile::<$w, 1> as Body),*],
            &[$($tile::<$w, 2> as Body),*],
        ]
    };
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{conv_tile, Bodies, Body, ConvKernel, RawTile};
    use std::arch::x86_64::{__m256, __m512};

    /// 28 zmm accumulators + 2 filter vectors; the broadcast folds into
    /// the FMA's memory operand.
    pub(super) const AVX512: ConvKernel = ConvKernel {
        name: "avx512f",
        block: 16,
        vec: 16,
        wmax: 14,
        bodies: Bodies::Simd(tile_table!(
            tile_avx512,
            [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14]
        )),
    };

    /// 12 ymm accumulators + 2 filter vectors + 1 broadcast, at block 8
    /// (two filter blocks) or 16 (the halves of one).
    pub(super) const fn avx2(block: usize) -> ConvKernel {
        ConvKernel {
            name: "avx2+fma",
            block,
            vec: 8,
            wmax: 6,
            bodies: Bodies::Simd(tile_table!(tile_avx2, [1, 2, 3, 4, 5, 6])),
        }
    }

    /// # Safety
    /// [`conv_tile`] contract at `W × NF`; AVX-512F detected.
    #[target_feature(enable = "avx512f")]
    unsafe fn tile_avx512<const W: usize, const NF: usize>(t: &RawTile) {
        // SAFETY: forwarded contract; this fn enables `__m512`'s ISA.
        unsafe { conv_tile::<__m512, W, NF>(t) }
    }

    /// # Safety
    /// [`conv_tile`] contract at `W × NF`; AVX2 and FMA detected.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tile_avx2<const W: usize, const NF: usize>(t: &RawTile) {
        // SAFETY: forwarded contract; this fn enables `__m256`'s ISA.
        unsafe { conv_tile::<__m256, W, NF>(t) }
    }
}

#[cfg(target_arch = "aarch64")]
mod arm {
    use super::{conv_tile, Bodies, Body, ConvKernel, RawTile};
    use std::arch::aarch64::float32x4_t;

    /// 16 q accumulators + 2 filter vectors + 1 broadcast, at block 4
    /// (two filter blocks) or 8 (the halves of one).
    pub(super) const fn neon(block: usize) -> ConvKernel {
        ConvKernel {
            name: "neon",
            block,
            vec: 4,
            wmax: 8,
            bodies: Bodies::Simd(tile_table!(tile_neon, [1, 2, 3, 4, 5, 6, 7, 8])),
        }
    }

    /// # Safety
    /// [`conv_tile`] contract at `W × NF`; NEON is baseline on AArch64.
    #[target_feature(enable = "neon")]
    unsafe fn tile_neon<const W: usize, const NF: usize>(t: &RawTile) {
        // SAFETY: forwarded contract; this fn enables the NEON ISA.
        unsafe { conv_tile::<float32x4_t, W, NF>(t) }
    }
}

const fn scalar(block: usize) -> ConvKernel {
    ConvKernel {
        name: "scalar",
        block,
        vec: block,
        wmax: WMAX,
        bodies: Bodies::Scalar,
    }
}

impl ConvKernel {
    /// The kernel the NCHWc driver uses for `block`-wide channel
    /// blocks: the widest body the dispatch table allows at that width,
    /// re-read per call so `set_force_scalar` takes effect immediately.
    /// A block width no SIMD body fits runs the scalar one.
    #[inline]
    pub fn select(block: usize) -> ConvKernel {
        Self::available(block)
            .last()
            .expect("scalar is always available")
    }

    /// Every kernel this host can run at `block` under the current
    /// dispatch table, scalar first, widest last — what the tests
    /// iterate so that a narrower body (ymm at block 16 on an AVX-512
    /// host) stays covered although [`ConvKernel::select`] never picks
    /// it there.
    pub fn available(block: usize) -> impl Iterator<Item = ConvKernel> {
        let mut table = [Some(scalar(block)), None, None];
        #[cfg(target_arch = "x86_64")]
        if super::isa() == Isa::Avx2Fma {
            if block == 8 || block == 16 {
                table[1] = Some(x86::avx2(block));
            }
            if block == 16 && super::avx512f() {
                table[2] = Some(x86::AVX512);
            }
        }
        #[cfg(target_arch = "aarch64")]
        if super::isa() == Isa::Neon && (block == 4 || block == 8) {
            table[1] = Some(arm::neon(block));
        }
        table.into_iter().flatten()
    }
}
