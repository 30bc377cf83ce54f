//! The register-tile micro-kernels.
//!
//! A [`MicroKernel`] computes one `mr × nr` tile of
//! `C ← alpha·A·B + beta·C` from a packed-A strip and a packed-B strip
//! and applies it straight to C. The tile shape belongs to the kernel,
//! not to the architecture: the driver and the packing routines read
//! `mr`/`nr` from the descriptor [`select`] hands them.
//!
//! | kernel     | tile  | registers                                      |
//! |------------|-------|------------------------------------------------|
//! | `avx512f`  | 8×32  | 16 zmm accumulators + 2 B loads + 1 broadcast  |
//! | `avx2+fma` | 6×16  | 12 ymm accumulators + 2 B loads + 1 broadcast  |
//! | `neon`     | 8×8   | 16 q accumulators + 2 B loads + 1 broadcast    |
//! | `scalar`   | 8×8   | autovectorized; [`microkernel_scalar`] at 8×8  |
//!
//! The three SIMD rows are one generic body ([`simd_tile`]) over a
//! [`Lanes`] vector type (the trait and its per-ISA impls live in
//! `gcnn_tensor::simd`) — two vectors wide, `MR` rows tall —
//! instantiated inside a `#[target_feature]` function that is only
//! reachable through [`select`]/[`available`], i.e. after the matching
//! runtime detection. [`microkernel_scalar`] takes the tile shape as
//! arguments, so it is both the portable fallback and the oracle every
//! SIMD body is tested against at that body's own shape
//! (`tests/simd_vs_scalar.rs`).

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
use gcnn_tensor::simd::Lanes;
use gcnn_tensor::simd::{self, Isa};

/// Largest `mr·nr` of any kernel in the table (the AVX-512 tile):
/// sizes the stack scratch edge tiles are computed into.
pub const MAX_TILE: usize = 8 * 32;

/// Raw tile body: `C[i·ldc + j] ← alpha·Σ_p a[p·mr + i]·b[p·nr + j] +
/// beta·C[i·ldc + j]` for `i < mr`, `j < nr`; `beta == 0` stores
/// without reading C.
///
/// # Safety
/// `a` and `b` must be readable for `kc·mr` and `kc·nr` floats, `c`
/// valid for reads and writes over the `mr × nr` tile at row stride
/// `ldc`, and the CPU must support the body's ISA.
type Body = unsafe fn(
    kc: usize,
    alpha: f32,
    a: *const f32,
    b: *const f32,
    beta: f32,
    c: *mut f32,
    ldc: usize,
);

/// One register-tile kernel: its shape and its body.
///
/// Fields are private because [`MicroKernel::run`]'s bounds checks are
/// only sound for the `mr`/`nr` the body was written for, and because a
/// SIMD body may only be handed out on a host that supports it.
#[derive(Clone, Copy)]
pub struct MicroKernel {
    name: &'static str,
    mr: usize,
    nr: usize,
    body: Body,
}

impl std::fmt::Debug for MicroKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}x{}", self.name, self.mr, self.nr)
    }
}

impl MicroKernel {
    /// Stable lowercase name (`"avx512f"`, `"avx2+fma"`, `"neon"`,
    /// `"scalar"`); the `Debug` form adds the tile (`avx512f 8x32`),
    /// which is what `BENCH_simd.json` records.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Tile height: rows of C per call, and the packed-A strip width.
    pub fn mr(&self) -> usize {
        self.mr
    }

    /// Tile width: columns of C per call, and the packed-B strip width.
    pub fn nr(&self) -> usize {
        self.nr
    }

    /// `C ← alpha·A·B + beta·C` on the full `mr × nr` tile whose
    /// top-left element is `c[0]` (row stride `ldc`).
    ///
    /// `a_strip` holds `kc` groups of `mr` values (one column of the
    /// strip per group) and `b_strip` `kc` groups of `nr` values (one
    /// row per group), as `pack` lays them out. With `beta == 0` the
    /// tile is overwritten without being read, so NaN/Inf already in C
    /// does not propagate.
    ///
    /// # Panics
    /// If a strip is shorter than `kc` groups, `ldc < nr`, or `c` does
    /// not cover the tile — the raw body relies on exactly these.
    #[inline]
    #[allow(clippy::too_many_arguments)] // BLAS-style signature
    pub fn run(
        &self,
        kc: usize,
        alpha: f32,
        a_strip: &[f32],
        b_strip: &[f32],
        beta: f32,
        c: &mut [f32],
        ldc: usize,
    ) {
        assert!(a_strip.len() >= kc * self.mr, "microkernel: A strip short");
        assert!(b_strip.len() >= kc * self.nr, "microkernel: B strip short");
        assert!(
            ldc >= self.nr && c.len() >= (self.mr - 1) * ldc + self.nr,
            "microkernel: C tile out of bounds"
        );
        // SAFETY: the asserts above are the body's whole contract — it
        // reads `a[..kc·mr]`, `b[..kc·nr]` and touches `c[i·ldc + j]`
        // for `i < mr`, `j < nr` — and a SIMD `body` only exists in a
        // descriptor built by `select`/`available` after runtime
        // detection of its target feature.
        unsafe {
            (self.body)(
                kc,
                alpha,
                a_strip.as_ptr(),
                b_strip.as_ptr(),
                beta,
                c.as_mut_ptr(),
                ldc,
            )
        }
    }

    /// [`MicroKernel::run`] for a tile cut by the matrix edge: only the
    /// `m_eff × n_eff` corner exists in C. The strips are zero-padded to
    /// full width by `pack`, so the full tile is computed into stack
    /// scratch and its valid corner merged into C row by row.
    #[inline]
    #[allow(clippy::too_many_arguments)] // BLAS-style signature
    pub fn run_edge(
        &self,
        kc: usize,
        alpha: f32,
        a_strip: &[f32],
        b_strip: &[f32],
        beta: f32,
        c: &mut [f32],
        ldc: usize,
        m_eff: usize,
        n_eff: usize,
    ) {
        debug_assert!(m_eff <= self.mr && n_eff <= self.nr);
        let mut tile = [0.0f32; MAX_TILE];
        let tile = &mut tile[..self.mr * self.nr];
        self.run(kc, alpha, a_strip, b_strip, 0.0, tile, self.nr);
        for (i, trow) in tile.chunks_exact(self.nr).take(m_eff).enumerate() {
            let crow = &mut c[i * ldc..i * ldc + n_eff];
            let trow = &trow[..n_eff];
            if beta == 0.0 {
                crow.copy_from_slice(trow);
            } else if beta == 1.0 {
                simd::add_assign(crow, trow);
            } else {
                simd::scale_add(beta, crow, trow);
            }
        }
    }
}

/// The kernel the SGEMM driver uses for this call: the widest body the
/// dispatch table allows, re-read per call so `set_force_scalar` takes
/// effect immediately.
#[inline]
pub fn select() -> MicroKernel {
    #[cfg(target_arch = "x86_64")]
    if simd::avx512f() {
        return x86::AVX512;
    }
    match simd::isa() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => x86::AVX2,
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => arm::NEON,
        _ => SCALAR,
    }
}

/// Every kernel this host can run under the current dispatch table,
/// scalar first — what the tests iterate so that a narrower body (AVX2
/// on an AVX-512 host) stays covered although [`select`] never picks
/// it there.
pub fn available() -> impl Iterator<Item = MicroKernel> {
    let mut table = [Some(SCALAR), None, None];
    #[cfg(target_arch = "x86_64")]
    if simd::isa() == Isa::Avx2Fma {
        table[1] = Some(x86::AVX2);
        if simd::avx512f() {
            table[2] = Some(x86::AVX512);
        }
    }
    #[cfg(target_arch = "aarch64")]
    if simd::isa() == Isa::Neon {
        table[1] = Some(arm::NEON);
    }
    table.into_iter().flatten()
}

const SCALAR: MicroKernel = MicroKernel {
    name: "scalar",
    mr: 8,
    nr: 8,
    body: scalar_8x8,
};

/// [`Body`] adapter for the scalar table entry.
///
/// # Safety
/// `a`/`b` must be readable for `kc·8` floats and `c` valid for the
/// 8×8 tile at row stride `ldc` ([`MicroKernel::run`] asserts this).
unsafe fn scalar_8x8(
    kc: usize,
    alpha: f32,
    a: *const f32,
    b: *const f32,
    beta: f32,
    c: *mut f32,
    ldc: usize,
) {
    // SAFETY: the caller's contract is exactly the three extents below.
    let (a, b, c) = unsafe {
        (
            std::slice::from_raw_parts(a, kc * 8),
            std::slice::from_raw_parts(b, kc * 8),
            std::slice::from_raw_parts_mut(c, 7 * ldc + 8),
        )
    };
    microkernel_scalar(8, 8, kc, alpha, a, b, beta, c, ldc);
}

/// Portable tile body at an arbitrary `mr × nr` (at most [`MAX_TILE`]
/// elements): the scalar table entry runs it at 8×8, and the tests run
/// it at each SIMD body's shape as that body's oracle. Same contract as
/// [`MicroKernel::run`].
#[inline(always)]
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn microkernel_scalar(
    mr: usize,
    nr: usize,
    kc: usize,
    alpha: f32,
    a_strip: &[f32],
    b_strip: &[f32],
    beta: f32,
    c: &mut [f32],
    ldc: usize,
) {
    assert!(mr * nr <= MAX_TILE, "microkernel_scalar: tile too large");
    // Local accumulator keeps the hot values out of C until the end;
    // the compiler vectorizes the nr-wide inner loop.
    let mut acc = [0.0f32; MAX_TILE];
    for (av, bv) in a_strip
        .chunks_exact(mr)
        .zip(b_strip.chunks_exact(nr))
        .take(kc)
    {
        for (row, &ai) in acc.chunks_exact_mut(nr).zip(av) {
            for (x, &bj) in row.iter_mut().zip(bv) {
                *x += ai * bj;
            }
        }
    }
    for (i, row) in acc.chunks_exact(nr).take(mr).enumerate() {
        let crow = &mut c[i * ldc..i * ldc + nr];
        if beta == 0.0 {
            for (x, &v) in crow.iter_mut().zip(row) {
                *x = alpha * v;
            }
        } else {
            for (x, &v) in crow.iter_mut().zip(row) {
                *x = alpha * v + beta * *x;
            }
        }
    }
}

/// The SIMD tile body: `MR` rows × two `V` vectors, every accumulator
/// register-resident across the `kc` loop (per `p`: two B loads, `MR`
/// A broadcasts, `2·MR` FMAs, no stores), then one fused
/// `alpha`/`beta` pass over the C tile.
///
/// # Safety
/// As [`Body`] with `mr = MR`, `nr = 2·V::N`, and the CPU must support
/// `V`'s ISA. `#[inline(always)]` so the intrinsics inline into the
/// `#[target_feature]` caller.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[inline(always)]
unsafe fn simd_tile<V: Lanes, const MR: usize>(
    kc: usize,
    alpha: f32,
    a: *const f32,
    b: *const f32,
    beta: f32,
    c: *mut f32,
    ldc: usize,
) {
    let nr = 2 * V::N;
    debug_assert!(ldc >= nr, "simd_tile: C row stride narrower than the tile");
    // SAFETY: per `p < kc` the B loads cover `[p·nr, (p+1)·nr)` and the
    // A reads `[p·MR, (p+1)·MR)`, inside the `kc·nr` / `kc·MR` floats
    // the caller guarantees; the epilogue touches `[i·ldc, i·ldc + nr)`
    // for `i < MR`, inside the caller's C tile.
    unsafe {
        let mut lo = [V::splat(0.0); MR];
        let mut hi = lo;
        for p in 0..kc {
            let b0 = V::load(b.add(p * nr));
            let b1 = V::load(b.add(p * nr + V::N));
            let ap = a.add(p * MR);
            for i in 0..MR {
                let av = V::splat(*ap.add(i));
                lo[i] = lo[i].fma(av, b0);
                hi[i] = hi[i].fma(av, b1);
            }
        }
        let va = V::splat(alpha);
        let vb = V::splat(beta);
        for i in 0..MR {
            let c0 = c.add(i * ldc);
            let c1 = c0.add(V::N);
            if beta == 0.0 {
                va.mul(lo[i]).store(c0);
                va.mul(hi[i]).store(c1);
            } else {
                va.mul(lo[i]).fma(vb, V::load(c0)).store(c0);
                va.mul(hi[i]).fma(vb, V::load(c1)).store(c1);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{simd_dot, simd_tile, MicroKernel};
    use std::arch::x86_64::{__m256, __m512};

    pub(super) const AVX2: MicroKernel = MicroKernel {
        name: "avx2+fma",
        mr: 6,
        nr: 16,
        body: tile_avx2,
    };

    pub(super) const AVX512: MicroKernel = MicroKernel {
        name: "avx512f",
        mr: 8,
        nr: 32,
        body: tile_avx512,
    };

    /// # Safety
    /// [`super::Body`] contract at 6×16; AVX2 and FMA detected.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tile_avx2(
        kc: usize,
        alpha: f32,
        a: *const f32,
        b: *const f32,
        beta: f32,
        c: *mut f32,
        ldc: usize,
    ) {
        // SAFETY: forwarded contract; this fn enables `__m256`'s ISA.
        unsafe { simd_tile::<__m256, 6>(kc, alpha, a, b, beta, c, ldc) }
    }

    /// # Safety
    /// [`super::Body`] contract at 8×32; AVX-512F detected.
    #[target_feature(enable = "avx512f")]
    unsafe fn tile_avx512(
        kc: usize,
        alpha: f32,
        a: *const f32,
        b: *const f32,
        beta: f32,
        c: *mut f32,
        ldc: usize,
    ) {
        // SAFETY: forwarded contract; this fn enables `__m512`'s ISA.
        unsafe { simd_tile::<__m512, 8>(kc, alpha, a, b, beta, c, ldc) }
    }

    /// # Safety
    /// [`simd_dot`] contract; AVX2 and FMA detected.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn dot_avx2<const R: usize, const Q: usize>(
        a: [&[f32]; R],
        b: [&[f32]; Q],
        k: usize,
    ) -> [[f32; Q]; R] {
        // SAFETY: forwarded contract; this fn enables `__m256`'s ISA.
        unsafe { simd_dot::<__m256, R, Q>(a, b, k) }
    }

    /// # Safety
    /// [`simd_dot`] contract; AVX-512F detected.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn dot_avx512<const R: usize, const Q: usize>(
        a: [&[f32]; R],
        b: [&[f32]; Q],
        k: usize,
    ) -> [[f32; Q]; R] {
        // SAFETY: forwarded contract; this fn enables `__m512`'s ISA.
        unsafe { simd_dot::<__m512, R, Q>(a, b, k) }
    }
}

#[cfg(target_arch = "aarch64")]
mod arm {
    use super::{simd_dot, simd_tile, MicroKernel};
    use std::arch::aarch64::float32x4_t;

    pub(super) const NEON: MicroKernel = MicroKernel {
        name: "neon",
        mr: 8,
        nr: 8,
        body: tile_neon,
    };

    /// # Safety
    /// [`super::Body`] contract at 8×8; NEON is baseline on AArch64.
    #[target_feature(enable = "neon")]
    unsafe fn tile_neon(
        kc: usize,
        alpha: f32,
        a: *const f32,
        b: *const f32,
        beta: f32,
        c: *mut f32,
        ldc: usize,
    ) {
        // SAFETY: forwarded contract; this fn enables the NEON ISA.
        unsafe { simd_tile::<float32x4_t, 8>(kc, alpha, a, b, beta, c, ldc) }
    }

    /// # Safety
    /// [`simd_dot`] contract; NEON is baseline on AArch64.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn dot_neon<const R: usize, const Q: usize>(
        a: [&[f32]; R],
        b: [&[f32]; Q],
        k: usize,
    ) -> [[f32; Q]; R] {
        // SAFETY: forwarded contract; this fn enables the NEON ISA.
        unsafe { simd_dot::<float32x4_t, R, Q>(a, b, k) }
    }
}

/// How far ahead of the current position [`simd_dot`] prefetches each
/// B row, in floats (2 KiB): far enough to cover DRAM latency at the
/// rate one core consumes a row, near enough to stay inside the row.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
const DOT_PREFETCH: usize = 512;

/// Hint that the line at `p` will be read soon. A no-op where the
/// target has no stable prefetch intrinsic.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[inline(always)]
fn prefetch(p: *const f32) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint that never faults, whatever address
    // it is given, and SSE is baseline on x86-64.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// SIMD body of [`dot_tile`]: `R·Q` vector accumulators; per step of
/// `V::N` floats each B row is loaded (and prefetched) once and each A
/// row once, for `R·Q` FMAs. The `k % V::N` tail is scalar.
///
/// # Safety
/// Every row of `a` and `b` must hold at least `k` floats and the CPU
/// must support `V`'s ISA. `#[inline(always)]` so the intrinsics
/// inline into the `#[target_feature]` caller.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[inline(always)]
unsafe fn simd_dot<V: Lanes, const R: usize, const Q: usize>(
    a: [&[f32]; R],
    b: [&[f32]; Q],
    k: usize,
) -> [[f32; Q]; R] {
    debug_assert!(
        a.iter().all(|row| row.len() >= k) && b.iter().all(|row| row.len() >= k),
        "simd_dot: row shorter than k"
    );
    let main = k - k % V::N;
    let mut out = [[0.0f32; Q]; R];
    // SAFETY: every load reads `[p, p + V::N)` with `p + V::N <= main
    // <= k`, inside rows the caller guarantees hold `k` floats; the
    // prefetch address is only ever hinted, never dereferenced; the
    // final stores write `V::N <= 16` floats into a 16-float array.
    unsafe {
        let mut acc = [[V::splat(0.0); Q]; R];
        for p in (0..main).step_by(V::N) {
            let mut bv = [V::splat(0.0); Q];
            for q in 0..Q {
                prefetch(b[q].as_ptr().wrapping_add(p + DOT_PREFETCH));
                bv[q] = V::load(b[q].as_ptr().add(p));
            }
            for r in 0..R {
                let av = V::load(a[r].as_ptr().add(p));
                for q in 0..Q {
                    acc[r][q] = acc[r][q].fma(av, bv[q]);
                }
            }
        }
        for r in 0..R {
            for q in 0..Q {
                let mut lanes = [0.0f32; 16];
                acc[r][q].store(lanes.as_mut_ptr());
                out[r][q] = lanes[..V::N].iter().sum();
            }
        }
    }
    for r in 0..R {
        for q in 0..Q {
            out[r][q] += scalar_dot(&a[r][main..k], &b[q][main..k]);
        }
    }
    out
}

/// Sequential dot product: the tail of [`simd_dot`] and the whole of
/// the scalar [`dot_tile`].
#[inline(always)]
fn scalar_dot(x: &[f32], y: &[f32]) -> f32 {
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// All `R × Q` dot products of `R` rows of A against `Q` rows of B:
/// `out[r][q] = Σ_p a[r][p]·b[q][p]` over `p < b[0].len()`. This is the
/// no-pack small-`m` kernel — each load of a weight row feeds `R` batch
/// rows, and `Q` weight rows stream at once, which is what keeps enough
/// memory requests in flight to approach the host's read bandwidth.
/// Dispatched like the tile kernels; the SIMD bodies split each sum
/// over vector lanes, so results differ from a sequential dot by
/// O(k·ε).
///
/// # Panics
/// If any row's length differs from `b[0]`'s.
#[inline]
pub fn dot_tile<const R: usize, const Q: usize>(a: [&[f32]; R], b: [&[f32]; Q]) -> [[f32; Q]; R] {
    let k = b[0].len();
    assert!(
        a.iter().all(|row| row.len() == k) && b.iter().all(|row| row.len() == k),
        "dot_tile: ragged rows"
    );
    #[cfg(target_arch = "x86_64")]
    if simd::avx512f() {
        // SAFETY: AVX-512F detected; every row holds `k` floats.
        return unsafe { x86::dot_avx512(a, b, k) };
    }
    match simd::isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2+FMA detected; every row holds `k` floats.
        Isa::Avx2Fma => unsafe { x86::dot_avx2(a, b, k) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is baseline; every row holds `k` floats.
        Isa::Neon => unsafe { arm::dot_neon(a, b, k) },
        _ => a.map(|ar| b.map(|br| scalar_dot(ar, br))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strips(k: &MicroKernel, kc: usize) -> (Vec<f32>, Vec<f32>) {
        let a = (0..kc * k.mr()).map(|i| (i % 7) as f32 - 3.0).collect();
        let b = (0..kc * k.nr()).map(|i| (i % 5) as f32 - 2.0).collect();
        (a, b)
    }

    #[test]
    fn microkernel_matches_reference() {
        for k in available() {
            let (mr, nr, kc) = (k.mr(), k.nr(), 5);
            let (a, b) = strips(&k, kc);
            let mut c = vec![f32::NAN; mr * nr];
            k.run(kc, 2.0, &a, &b, 0.0, &mut c, nr);
            for i in 0..mr {
                for j in 0..nr {
                    let expect: f32 = (0..kc).map(|p| a[p * mr + i] * b[p * nr + j]).sum();
                    assert!(
                        (c[i * nr + j] - 2.0 * expect).abs() < 1e-5,
                        "{k:?} tile ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn microkernel_accumulates() {
        for k in available() {
            let a = vec![1.0; k.mr()];
            let b = vec![1.0; k.nr()];
            let mut c = vec![10.0; k.mr() * k.nr()];
            k.run(1, 1.0, &a, &b, 1.0, &mut c, k.nr());
            assert!(c.iter().all(|&v| (v - 11.0).abs() < 1e-6), "{k:?}");
            k.run(1, 1.0, &a, &b, 0.5, &mut c, k.nr());
            assert!(c.iter().all(|&v| (v - 6.5).abs() < 1e-6), "{k:?}");
        }
    }

    #[test]
    fn dispatched_kernel_matches_scalar_oracle() {
        for k in available() {
            let (mr, nr, kc) = (k.mr(), k.nr(), 37);
            let a: Vec<f32> = (0..kc * mr).map(|i| ((i * 31 % 17) as f32) - 8.0).collect();
            let b: Vec<f32> = (0..kc * nr)
                .map(|i| ((i * 13 % 23) as f32) - 11.0)
                .collect();
            let mut c = vec![1.0; mr * nr];
            let mut oracle = c.clone();
            k.run(kc, 1.25, &a, &b, -0.5, &mut c, nr);
            microkernel_scalar(mr, nr, kc, 1.25, &a, &b, -0.5, &mut oracle, nr);
            for (i, (&x, &y)) in c.iter().zip(&oracle).enumerate() {
                // FMA vs separate rounding: allow a tiny absolute slack.
                assert!((x - y).abs() <= 1e-3, "{k:?} elem {i}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn edge_tile_stores_only_valid_corner() {
        for k in available() {
            let (mr, nr, kc) = (k.mr(), k.nr(), 4);
            let (a, b) = strips(&k, kc);
            let mut full = vec![0.0; mr * nr];
            k.run(kc, 1.0, &a, &b, 0.0, &mut full, nr);
            let (ldc, m_eff, n_eff) = (nr + 3, mr - 1, nr - 3);
            for beta in [0.0f32, 1.0, -0.5] {
                let mut c = vec![100.0; mr * ldc];
                k.run_edge(kc, 1.0, &a, &b, beta, &mut c, ldc, m_eff, n_eff);
                for (idx, &v) in c.iter().enumerate() {
                    let (i, j) = (idx / ldc, idx % ldc);
                    let expect = if i < m_eff && j < n_eff {
                        full[i * nr + j] + beta * 100.0
                    } else {
                        100.0
                    };
                    assert_eq!(v, expect, "{k:?} beta {beta} at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn select_is_widest_available() {
        let sel = select();
        assert!(available().all(|k| k.mr() * k.nr() <= sel.mr() * sel.nr()));
        assert!(sel.mr() * sel.nr() <= MAX_TILE);
    }

    #[test]
    fn dot_tile_matches_sequential_dots() {
        for k in [0usize, 1, 15, 16, 17, 100, 257] {
            let row = |r: usize| -> Vec<f32> {
                (0..k)
                    .map(|i| ((i * 7 + r * 3) % 11) as f32 - 5.0)
                    .collect()
            };
            let a = [row(0), row(1), row(2), row(3)];
            let b = [row(4), row(5)];
            let tile = dot_tile([&a[0][..], &a[1], &a[2], &a[3]], [&b[0][..], &b[1]]);
            for (r, ar) in a.iter().enumerate() {
                for (q, br) in b.iter().enumerate() {
                    let expect = scalar_dot(ar, br);
                    assert!((tile[r][q] - expect).abs() < 1e-2, "k={k} ({r},{q})");
                    let [[single]] = dot_tile([&ar[..]], [&br[..]]);
                    assert!((single - expect).abs() < 1e-2, "k={k} 1x1 ({r},{q})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn dot_tile_rejects_ragged_rows() {
        dot_tile([&[1.0, 2.0][..]], [&[1.0, 2.0, 3.0][..]]);
    }
}
