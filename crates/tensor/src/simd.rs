//! Explicit SIMD micro-kernels with safe runtime dispatch.
//!
//! The paper's central diagnosis is that hotspot-kernel efficiency —
//! not algorithm choice alone — separates the seven frameworks (§V-C:
//! IPC and warp execution efficiency of the SGEMM/FFT kernels). The
//! host-CPU analogue of an un-tuned kernel is leaning on LLVM
//! autovectorization, which will widen loops but never contract
//! mul+add into FMA nor pick the register blocking a hand-scheduled
//! kernel uses. This module is the dispatch point for the hand-written
//! paths:
//!
//! * [`isa`] — the ISA selected once at startup: AVX2+FMA on capable
//!   `x86_64` (via `is_x86_feature_detected!`), NEON on `aarch64`
//!   (baseline there), scalar everywhere else. `GCNN_FORCE_SCALAR=1`
//!   pins the scalar path for A/B measurement and CI.
//! * [`avx512f`] — a capability *beside* [`isa`], not a fourth variant:
//!   an AVX-512 host still reports `Avx2Fma`, so every 256-bit kernel
//!   keeps dispatching as before, and only the kernels that have a
//!   512-bit body (the SGEMM register tile and the NCHWc convolution
//!   tile) ask for it.
//! * Slice primitives ([`saxpy`], [`sscal`], [`sdot`], [`add_assign`],
//!   [`scale_add`]) used by `gcnn-tensor::ops`, `im2col`, the GEMM
//!   writeback and the FFT lane engine's scaling.
//! * [`Lanes`] — the vector trait the workspace's generic register-tile
//!   bodies are written over (one impl per ISA vector), and [`conv`],
//!   the NCHWc convolution tile built on it.
//!
//! The scalar implementations are not vestigial: they are the
//! always-available fallback *and* the oracle the SIMD kernels are
//! property-tested against (`crates/gemm/tests/simd_vs_scalar.rs`).
//! Every `unsafe` block below is a `#[target_feature]` function called
//! only after the matching runtime detection, which is the safety
//! contract `std::arch` requires.

use std::sync::atomic::{AtomicI8, Ordering};
use std::sync::OnceLock;

pub mod conv;
mod lanes;

pub use lanes::Lanes;

/// The instruction set selected for the hand-written kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable scalar fallback — also the property-test oracle.
    Scalar,
    /// x86-64 AVX2 + FMA (256-bit, 8 × f32 lanes).
    Avx2Fma,
    /// AArch64 NEON (128-bit, 4 × f32 lanes).
    Neon,
}

impl Isa {
    /// Stable lowercase name — used in the autotune device fingerprint
    /// and the `BENCH_simd.json` report.
    pub const fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2Fma => "avx2+fma",
            Isa::Neon => "neon",
        }
    }

    /// Numeric level for the `simd.isa_level` trace gauge:
    /// 0 scalar, 1 AVX2+FMA, 2 NEON.
    pub const fn level(self) -> u8 {
        match self {
            Isa::Scalar => 0,
            Isa::Avx2Fma => 1,
            Isa::Neon => 2,
        }
    }
}

/// `-1` = not yet read from the environment; `0`/`1` = resolved.
static FORCE_SCALAR: AtomicI8 = AtomicI8::new(-1);

fn force_scalar() -> bool {
    match FORCE_SCALAR.load(Ordering::Relaxed) {
        -1 => {
            let on = std::env::var("GCNN_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0");
            FORCE_SCALAR.store(on as i8, Ordering::Relaxed);
            publish_isa();
            on
        }
        v => v != 0,
    }
}

/// Force (or release) the scalar dispatch path at runtime. Benches use
/// this to measure scalar-vs-SIMD throughput inside one process; tests
/// normally prefer the `GCNN_FORCE_SCALAR=1` environment override,
/// which this supersedes. Takes effect on the next [`isa`] call —
/// dispatch sites re-read the table per kernel call, so there is no
/// stale fast path.
pub fn set_force_scalar(on: bool) {
    FORCE_SCALAR.store(on as i8, Ordering::Relaxed);
    publish_isa();
}

fn detect() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return Isa::Avx2Fma;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON is a baseline feature of AArch64.
        return Isa::Neon;
    }
    #[allow(unreachable_code)] // fallback is unreachable only on aarch64 builds
    Isa::Scalar
}

fn detected() -> Isa {
    static DETECTED: OnceLock<Isa> = OnceLock::new();
    *DETECTED.get_or_init(detect)
}

/// Publish the effective ISA as the `simd.isa_level` gauge (a no-op in
/// trace-disabled builds).
fn publish_isa() {
    let effective = if FORCE_SCALAR.load(Ordering::Relaxed) == 1 {
        Isa::Scalar
    } else {
        detected()
    };
    gcnn_trace::gauge_set("simd.isa_level", effective.level() as f64);
}

/// The dispatch table: the ISA every hand-written kernel keys its
/// `match` on. Detection runs once (cached); per-call cost is two
/// relaxed atomic loads, negligible against any kernel body.
#[inline]
pub fn isa() -> Isa {
    if force_scalar() {
        Isa::Scalar
    } else {
        detected()
    }
}

/// [`Isa::name`] of the current dispatch selection.
pub fn isa_name() -> &'static str {
    isa().name()
}

/// Whether kernels with a 512-bit body may run it: AVX-512F was
/// detected (cached) on top of [`Isa::Avx2Fma`], and the scalar
/// override is off. A capability rather than an [`Isa`] variant so
/// that detecting it demotes no 256-bit dispatch site to its `_`
/// (scalar) arm.
#[inline]
pub fn avx512f() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static DETECTED: OnceLock<bool> = OnceLock::new();
        isa() == Isa::Avx2Fma
            && *DETECTED.get_or_init(|| std::arch::is_x86_feature_detected!("avx512f"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

// ---------------------------------------------------------------------
// f32 slice primitives
// ---------------------------------------------------------------------

/// `y ← alpha·x + y`.
#[inline]
pub fn saxpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    match isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2Fma` is only selected after runtime
        // AVX2+FMA detection (see [`detect`]).
        Isa::Avx2Fma => unsafe { saxpy_avx2(alpha, x, y) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: `Neon` is only selected on AArch64, where NEON
        // is a baseline feature.
        Isa::Neon => unsafe { saxpy_neon(alpha, x, y) },
        _ => saxpy_scalar(alpha, x, y),
    }
}

/// Scalar oracle for [`saxpy`].
#[inline]
pub fn saxpy_scalar(alpha: f32, x: &[f32], y: &mut [f32]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y ← y + x` — the accumulate of the GEMM tile writeback and the
/// col2im fold.
#[inline]
pub fn add_assign(y: &mut [f32], x: &[f32]) {
    saxpy(1.0, x, y);
}

/// `y ← beta·y + x` — the fused beta-scale writeback of the blocked
/// GEMM driver.
#[inline]
pub fn scale_add(beta: f32, y: &mut [f32], x: &[f32]) {
    debug_assert_eq!(x.len(), y.len());
    match isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2Fma` is only selected after runtime
        // AVX2+FMA detection (see [`detect`]).
        Isa::Avx2Fma => unsafe { scale_add_avx2(beta, y, x) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: `Neon` is only selected on AArch64, where NEON
        // is a baseline feature.
        Isa::Neon => unsafe { scale_add_neon(beta, y, x) },
        _ => scale_add_scalar(beta, y, x),
    }
}

/// Scalar oracle for [`scale_add`].
#[inline]
pub fn scale_add_scalar(beta: f32, y: &mut [f32], x: &[f32]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = beta * *yi + xi;
    }
}

/// `x ← alpha·x`.
#[inline]
pub fn sscal(alpha: f32, x: &mut [f32]) {
    match isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2Fma` is only selected after runtime
        // AVX2+FMA detection (see [`detect`]).
        Isa::Avx2Fma => unsafe { sscal_avx2(alpha, x) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: `Neon` is only selected on AArch64, where NEON
        // is a baseline feature.
        Isa::Neon => unsafe { sscal_neon(alpha, x) },
        _ => sscal_scalar(alpha, x),
    }
}

/// Scalar oracle for [`sscal`].
#[inline]
pub fn sscal_scalar(alpha: f32, x: &mut [f32]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Dot product. The SIMD paths reassociate the sum (4 independent
/// accumulator chains), so results can differ from the scalar oracle
/// by O(len · ε) — the property tests budget for exactly that.
#[inline]
pub fn sdot(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    match isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2Fma` is only selected after runtime
        // AVX2+FMA detection (see [`detect`]).
        Isa::Avx2Fma => unsafe { sdot_avx2(x, y) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: `Neon` is only selected on AArch64, where NEON
        // is a baseline feature.
        Isa::Neon => unsafe { sdot_neon(x, y) },
        _ => sdot_scalar(x, y),
    }
}

/// Scalar oracle for [`sdot`].
#[inline]
pub fn sdot_scalar(x: &[f32], y: &[f32]) -> f32 {
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

// ---------------------------------------------------------------------
// NCHWc block kernels
// ---------------------------------------------------------------------

/// Channel-block width the NCHWc layout should use on this host: the
/// widest vector [`conv::select`] has a body for — 16 lanes (one zmm)
/// where [`avx512f`] holds, 8 everywhere else (one ymm, two NEON
/// vectors, and the scalar fallback's unit).
#[inline]
pub fn preferred_block() -> usize {
    if avx512f() {
        16
    } else {
        8
    }
}

/// Elementwise running maximum: `y[i] ← max(y[i], x[i])` — the window
/// fold of the fused max-pool stage.
#[inline]
pub fn max_assign(y: &mut [f32], x: &[f32]) {
    debug_assert_eq!(x.len(), y.len());
    match isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2Fma` is only selected after runtime
        // AVX2+FMA detection (see [`detect`]).
        Isa::Avx2Fma => unsafe { max_assign_avx2(y, x) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: `Neon` is only selected on AArch64, where NEON
        // is a baseline feature.
        Isa::Neon => unsafe { max_assign_neon(y, x) },
        _ => max_assign_scalar(y, x),
    }
}

/// Scalar oracle for [`max_assign`].
#[inline]
pub fn max_assign_scalar(y: &mut [f32], x: &[f32]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = yi.max(*xi);
    }
}

// ---------------------------------------------------------------------
// AVX2 + FMA bodies
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// # Safety
    /// Caller must have verified AVX2 and FMA at runtime; the dispatch
    /// table ([`super::isa`]) is the only caller.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn saxpy_avx2(alpha: f32, x: &[f32], y: &mut [f32]) {
        debug_assert_eq!(x.len(), y.len(), "saxpy_avx2: length mismatch");
        let n = x.len().min(y.len());
        // SAFETY: intrinsics are executable because this fn only runs
        // after runtime AVX2+FMA detection. All pointer offsets stay in
        // bounds: the vector loop reads/writes `[i, i+8)` only while
        // `i + 8 <= n`, the scalar tail covers `[i, n)`, and
        // `n <= x.len(), y.len()` by construction.
        unsafe {
            let av = _mm256_set1_ps(alpha);
            let xp = x.as_ptr();
            let yp = y.as_mut_ptr();
            let mut i = 0;
            while i + 8 <= n {
                let yv = _mm256_loadu_ps(yp.add(i));
                let xv = _mm256_loadu_ps(xp.add(i));
                _mm256_storeu_ps(yp.add(i), _mm256_fmadd_ps(av, xv, yv));
                i += 8;
            }
            for j in i..n {
                *yp.add(j) += alpha * *xp.add(j);
            }
        }
    }

    /// # Safety
    /// Caller must have verified AVX2 and FMA at runtime; the dispatch
    /// table ([`super::isa`]) is the only caller.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn scale_add_avx2(beta: f32, y: &mut [f32], x: &[f32]) {
        debug_assert_eq!(x.len(), y.len(), "scale_add_avx2: length mismatch");
        let n = x.len().min(y.len());
        // SAFETY: runs only after runtime AVX2+FMA detection; offsets
        // stay inside `x[..n]` / `y[..n]` exactly as in `saxpy_avx2`
        // (8-lane loop guarded by `i + 8 <= n`, scalar tail to `n`).
        unsafe {
            let bv = _mm256_set1_ps(beta);
            let xp = x.as_ptr();
            let yp = y.as_mut_ptr();
            let mut i = 0;
            while i + 8 <= n {
                let yv = _mm256_loadu_ps(yp.add(i));
                let xv = _mm256_loadu_ps(xp.add(i));
                _mm256_storeu_ps(yp.add(i), _mm256_fmadd_ps(bv, yv, xv));
                i += 8;
            }
            for j in i..n {
                *yp.add(j) = beta * *yp.add(j) + *xp.add(j);
            }
        }
    }

    /// # Safety
    /// Caller must have verified AVX2 and FMA at runtime; the dispatch
    /// table ([`super::isa`]) is the only caller.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sscal_avx2(alpha: f32, x: &mut [f32]) {
        let n = x.len();
        // SAFETY: runs only after runtime AVX2+FMA detection; the
        // 8-lane loop touches `[i, i+8)` only while `i + 8 <= n` and
        // the scalar tail stops at `n == x.len()`.
        unsafe {
            let av = _mm256_set1_ps(alpha);
            let xp = x.as_mut_ptr();
            let mut i = 0;
            while i + 8 <= n {
                _mm256_storeu_ps(xp.add(i), _mm256_mul_ps(av, _mm256_loadu_ps(xp.add(i))));
                i += 8;
            }
            for j in i..n {
                *xp.add(j) *= alpha;
            }
        }
    }

    /// # Safety
    /// Caller must have verified AVX2 and FMA at runtime; the dispatch
    /// table ([`super::isa`]) is the only caller.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sdot_avx2(x: &[f32], y: &[f32]) -> f32 {
        debug_assert_eq!(x.len(), y.len(), "sdot_avx2: length mismatch");
        let n = x.len().min(y.len());
        // SAFETY: runs only after runtime AVX2+FMA detection. The
        // 32-lane loop reads `[i, i+32)` while `i + 32 <= n`, the
        // 8-lane cleanup reads `[i, i+8)` while `i + 8 <= n`, and the
        // scalar tail stops at `n` — all within both slices.
        unsafe {
            let xp = x.as_ptr();
            let yp = y.as_ptr();
            // Four independent accumulator chains hide FMA latency.
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            let mut acc2 = _mm256_setzero_ps();
            let mut acc3 = _mm256_setzero_ps();
            let mut i = 0;
            while i + 32 <= n {
                acc0 =
                    _mm256_fmadd_ps(_mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)), acc0);
                acc1 = _mm256_fmadd_ps(
                    _mm256_loadu_ps(xp.add(i + 8)),
                    _mm256_loadu_ps(yp.add(i + 8)),
                    acc1,
                );
                acc2 = _mm256_fmadd_ps(
                    _mm256_loadu_ps(xp.add(i + 16)),
                    _mm256_loadu_ps(yp.add(i + 16)),
                    acc2,
                );
                acc3 = _mm256_fmadd_ps(
                    _mm256_loadu_ps(xp.add(i + 24)),
                    _mm256_loadu_ps(yp.add(i + 24)),
                    acc3,
                );
                i += 32;
            }
            while i + 8 <= n {
                acc0 =
                    _mm256_fmadd_ps(_mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)), acc0);
                i += 8;
            }
            let acc = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
            // Horizontal sum: fold 256 → 128 → scalar.
            let lo = _mm256_castps256_ps128(acc);
            let hi = _mm256_extractf128_ps(acc, 1);
            let s128 = _mm_add_ps(lo, hi);
            let s64 = _mm_add_ps(s128, _mm_movehl_ps(s128, s128));
            let s32 = _mm_add_ss(s64, _mm_shuffle_ps(s64, s64, 0b01));
            let mut total = _mm_cvtss_f32(s32);
            for j in i..n {
                total += *xp.add(j) * *yp.add(j);
            }
            total
        }
    }

    /// # Safety
    /// Caller must have verified AVX2 and FMA at runtime; the dispatch
    /// table ([`super::isa`]) is the only caller.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn max_assign_avx2(y: &mut [f32], x: &[f32]) {
        debug_assert_eq!(x.len(), y.len(), "max_assign_avx2: length mismatch");
        let n = x.len().min(y.len());
        // SAFETY: runs only after runtime AVX2+FMA detection; offsets
        // stay inside `x[..n]` / `y[..n]` (8-lane loop guarded by
        // `i + 8 <= n`, scalar tail to `n`).
        unsafe {
            let xp = x.as_ptr();
            let yp = y.as_mut_ptr();
            let mut i = 0;
            while i + 8 <= n {
                let yv = _mm256_loadu_ps(yp.add(i));
                let xv = _mm256_loadu_ps(xp.add(i));
                _mm256_storeu_ps(yp.add(i), _mm256_max_ps(yv, xv));
                i += 8;
            }
            for j in i..n {
                *yp.add(j) = (*yp.add(j)).max(*xp.add(j));
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
use avx2::{max_assign_avx2, saxpy_avx2, scale_add_avx2, sdot_avx2, sscal_avx2};

// ---------------------------------------------------------------------
// NEON bodies
// ---------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::*;

    /// # Safety
    /// Caller must be on an AArch64 host (NEON is baseline there); the
    /// dispatch table ([`super::isa`]) is the only caller.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn saxpy_neon(alpha: f32, x: &[f32], y: &mut [f32]) {
        debug_assert_eq!(x.len(), y.len(), "saxpy_neon: length mismatch");
        let n = x.len().min(y.len());
        // SAFETY: NEON is an AArch64 baseline feature. All pointer
        // offsets stay in bounds: the 4-lane loop touches `[i, i+4)`
        // only while `i + 4 <= n`, the scalar tail stops at `n`, and
        // `n <= x.len(), y.len()` by construction.
        unsafe {
            let av = vdupq_n_f32(alpha);
            let xp = x.as_ptr();
            let yp = y.as_mut_ptr();
            let mut i = 0;
            while i + 4 <= n {
                let yv = vld1q_f32(yp.add(i));
                let xv = vld1q_f32(xp.add(i));
                vst1q_f32(yp.add(i), vfmaq_f32(yv, av, xv));
                i += 4;
            }
            for j in i..n {
                *yp.add(j) += alpha * *xp.add(j);
            }
        }
    }

    /// # Safety
    /// Caller must be on an AArch64 host (NEON is baseline there); the
    /// dispatch table ([`super::isa`]) is the only caller.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn scale_add_neon(beta: f32, y: &mut [f32], x: &[f32]) {
        debug_assert_eq!(x.len(), y.len(), "scale_add_neon: length mismatch");
        let n = x.len().min(y.len());
        // SAFETY: NEON is an AArch64 baseline feature; offsets stay
        // inside `x[..n]` / `y[..n]` (4-lane loop guarded by
        // `i + 4 <= n`, scalar tail to `n`).
        unsafe {
            let bv = vdupq_n_f32(beta);
            let xp = x.as_ptr();
            let yp = y.as_mut_ptr();
            let mut i = 0;
            while i + 4 <= n {
                let yv = vld1q_f32(yp.add(i));
                let xv = vld1q_f32(xp.add(i));
                vst1q_f32(yp.add(i), vfmaq_f32(xv, bv, yv));
                i += 4;
            }
            for j in i..n {
                *yp.add(j) = beta * *yp.add(j) + *xp.add(j);
            }
        }
    }

    /// # Safety
    /// Caller must be on an AArch64 host (NEON is baseline there); the
    /// dispatch table ([`super::isa`]) is the only caller.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn sscal_neon(alpha: f32, x: &mut [f32]) {
        let n = x.len();
        // SAFETY: NEON is an AArch64 baseline feature; the 4-lane loop
        // touches `[i, i+4)` only while `i + 4 <= n` and the scalar
        // tail stops at `n == x.len()`.
        unsafe {
            let av = vdupq_n_f32(alpha);
            let xp = x.as_mut_ptr();
            let mut i = 0;
            while i + 4 <= n {
                vst1q_f32(xp.add(i), vmulq_f32(av, vld1q_f32(xp.add(i))));
                i += 4;
            }
            for j in i..n {
                *xp.add(j) *= alpha;
            }
        }
    }

    /// # Safety
    /// Caller must be on an AArch64 host (NEON is baseline there); the
    /// dispatch table ([`super::isa`]) is the only caller.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn sdot_neon(x: &[f32], y: &[f32]) -> f32 {
        debug_assert_eq!(x.len(), y.len(), "sdot_neon: length mismatch");
        let n = x.len().min(y.len());
        // SAFETY: NEON is an AArch64 baseline feature. The 16-lane loop
        // reads `[i, i+16)` while `i + 16 <= n`, the 4-lane cleanup
        // reads `[i, i+4)` while `i + 4 <= n`, and the scalar tail
        // stops at `n` — all within both slices.
        unsafe {
            let xp = x.as_ptr();
            let yp = y.as_ptr();
            let mut acc0 = vdupq_n_f32(0.0);
            let mut acc1 = vdupq_n_f32(0.0);
            let mut acc2 = vdupq_n_f32(0.0);
            let mut acc3 = vdupq_n_f32(0.0);
            let mut i = 0;
            while i + 16 <= n {
                acc0 = vfmaq_f32(acc0, vld1q_f32(xp.add(i)), vld1q_f32(yp.add(i)));
                acc1 = vfmaq_f32(acc1, vld1q_f32(xp.add(i + 4)), vld1q_f32(yp.add(i + 4)));
                acc2 = vfmaq_f32(acc2, vld1q_f32(xp.add(i + 8)), vld1q_f32(yp.add(i + 8)));
                acc3 = vfmaq_f32(acc3, vld1q_f32(xp.add(i + 12)), vld1q_f32(yp.add(i + 12)));
                i += 16;
            }
            while i + 4 <= n {
                acc0 = vfmaq_f32(acc0, vld1q_f32(xp.add(i)), vld1q_f32(yp.add(i)));
                i += 4;
            }
            let acc = vaddq_f32(vaddq_f32(acc0, acc1), vaddq_f32(acc2, acc3));
            let mut total = vaddvq_f32(acc);
            for j in i..n {
                total += *xp.add(j) * *yp.add(j);
            }
            total
        }
    }

    /// # Safety
    /// Caller must be on an AArch64 host (NEON is baseline there); the
    /// dispatch table ([`super::isa`]) is the only caller.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn max_assign_neon(y: &mut [f32], x: &[f32]) {
        debug_assert_eq!(x.len(), y.len(), "max_assign_neon: length mismatch");
        let n = x.len().min(y.len());
        // SAFETY: NEON is an AArch64 baseline feature; offsets stay
        // inside `x[..n]` / `y[..n]` (4-lane loop guarded by
        // `i + 4 <= n`, scalar tail to `n`).
        unsafe {
            let xp = x.as_ptr();
            let yp = y.as_mut_ptr();
            let mut i = 0;
            while i + 4 <= n {
                vst1q_f32(
                    yp.add(i),
                    vmaxq_f32(vld1q_f32(yp.add(i)), vld1q_f32(xp.add(i))),
                );
                i += 4;
            }
            for j in i..n {
                *yp.add(j) = (*yp.add(j)).max(*xp.add(j));
            }
        }
    }
}

#[cfg(target_arch = "aarch64")]
use neon::{max_assign_neon, saxpy_neon, scale_add_neon, sdot_neon, sscal_neon};

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn isa_is_stable_and_named() {
        let a = isa();
        assert_eq!(a, isa());
        assert!(!isa_name().is_empty());
        assert_eq!(Isa::Scalar.name(), "scalar");
        assert_eq!(Isa::Scalar.level(), 0);
    }

    /// Serializes the tests that toggle the process-global force flag,
    /// and lets them restore whatever state (env-driven or not) they
    /// found.
    static FORCE_MUTEX: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn force_scalar_overrides_dispatch() {
        let _guard = FORCE_MUTEX.lock().unwrap();
        let before = force_scalar();
        set_force_scalar(true);
        assert_eq!(isa(), Isa::Scalar);
        assert!(!avx512f(), "the override must also gate the 512-bit bodies");
        set_force_scalar(false);
        assert_eq!(isa(), detected());
        set_force_scalar(before);
    }

    /// Detecting AVX-512F must not demote the 256-bit dispatch sites:
    /// they key on `Isa::Avx2Fma`, which such a host keeps reporting.
    /// The NCHWc block is 16 exactly where the capability holds and 8
    /// otherwise, the scalar override included.
    #[test]
    fn avx512_capability_keeps_avx2_dispatch() {
        let _guard = FORCE_MUTEX.lock().unwrap();
        let before = force_scalar();
        set_force_scalar(false);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            assert!(avx512f());
            assert_eq!(isa(), Isa::Avx2Fma);
            assert_eq!(isa_name(), "avx2+fma");
        }
        assert_eq!(preferred_block(), if avx512f() { 16 } else { 8 });
        assert_eq!(
            conv::ConvKernel::select(preferred_block()).block(),
            preferred_block()
        );
        set_force_scalar(true);
        assert_eq!(preferred_block(), 8);
        assert_eq!(conv::ConvKernel::select(8).name(), "scalar");
        set_force_scalar(before);
    }

    /// Every dispatched primitive must agree with its scalar oracle on
    /// lengths that cover remainders (0, 1, lane-1, lane, lane+1, big).
    #[test]
    fn primitives_match_scalar_oracle() {
        for len in [0usize, 1, 3, 7, 8, 9, 31, 32, 33, 100] {
            let x = rand_vec(len, 1 + len as u64);
            let y0 = rand_vec(len, 2 + len as u64);

            let mut y = y0.clone();
            saxpy(1.5, &x, &mut y);
            let mut yref = y0.clone();
            saxpy_scalar(1.5, &x, &mut yref);
            for (a, b) in y.iter().zip(&yref) {
                assert!((a - b).abs() < 1e-5, "saxpy len {len}: {a} vs {b}");
            }

            let mut y = y0.clone();
            scale_add(-0.75, &mut y, &x);
            let mut yref = y0.clone();
            scale_add_scalar(-0.75, &mut yref, &x);
            for (a, b) in y.iter().zip(&yref) {
                assert!((a - b).abs() < 1e-5, "scale_add len {len}: {a} vs {b}");
            }

            let mut y = y0.clone();
            sscal(0.5, &mut y);
            let mut yref = y0.clone();
            sscal_scalar(0.5, &mut yref);
            assert_eq!(y, yref, "sscal len {len}");

            let d = sdot(&x, &y0);
            let dref = sdot_scalar(&x, &y0);
            assert!(
                (d - dref).abs() <= 1e-5 * (len.max(1) as f32),
                "sdot len {len}: {d} vs {dref}"
            );
        }
    }

    /// One sweep of every tile of `g.nfb` `o × o` planes through `k`.
    fn sweep_plane(
        k: &conv::ConvKernel,
        g: conv::SweepGeom,
        x: &[f32],
        w: &[f32],
        out: &mut [f32],
    ) {
        let sweep = k.sweep(g, x, w);
        for oy in 0..g.o {
            for ox in (0..g.o).step_by(k.wmax()) {
                sweep.tile(out, oy, ox, k.wmax().min(g.o - ox));
            }
        }
    }

    /// Every conv tile body must agree with the scalar oracle at its
    /// block width — across strides, valid-lane counts, one and two
    /// filter blocks per tile, every tile width up to `wmax` (row
    /// lengths around it), first/accumulating/ReLU sweeps — and
    /// `max_assign` with its own.
    #[test]
    fn nchwc_kernels_match_scalar_oracle() {
        assert_eq!(preferred_block() % 4, 0, "kernels assume 4-lane blocks");
        for block in [4usize, 8, 16] {
            let oracle = conv::ConvKernel::available(block).next().unwrap();
            assert_eq!(oracle.name(), "scalar");
            for k in conv::ConvKernel::available(block) {
                for o in [1usize, 5, k.wmax() - 1, k.wmax(), k.wmax() + 1] {
                    for (stride, kk, lanes) in [(1usize, 3usize, block), (2, 2, 1), (3, 1, 3)] {
                        for nfb in 1..=k.fb_step() {
                            let iwp = (o - 1) * stride + kk + 1;
                            let fb_stride = 2 * kk * kk * block * block;
                            let seed = (block * 31 + o * 7 + stride + nfb) as u64;
                            let x = rand_vec(iwp * iwp * block, seed);
                            let w = rand_vec(nfb * fb_stride, seed + 1);
                            let mut g = conv::SweepGeom {
                                k: kk,
                                stride,
                                iwp,
                                o,
                                lanes,
                                nfb,
                                fb_stride,
                                first: true,
                                relu: false,
                            };
                            // A first sweep must not read the output.
                            let mut got = vec![f32::NAN; nfb * o * o * block];
                            let mut want = vec![f32::NAN; nfb * o * o * block];
                            for (first, relu) in [(true, false), (false, false), (false, true)] {
                                (g.first, g.relu) = (first, relu);
                                sweep_plane(&k, g, &x, &w, &mut got);
                                sweep_plane(&oracle, g, &x, &w, &mut want);
                                for (a, b) in got.iter().zip(&want) {
                                    assert!(
                                        (a - b).abs() < 1e-4,
                                        "{k:?} o={o} s={stride} k={kk} lanes={lanes} nfb={nfb} \
                                         first={first} relu={relu}: {a} vs {b}"
                                    );
                                }
                            }
                            assert!(got.iter().all(|v| *v >= 0.0), "{k:?}: relu sweep");
                        }
                    }
                }
            }
        }

        for len in [0usize, 1, 7, 8, 9, 33, 100] {
            let x0 = rand_vec(len, 21 + len as u64);
            let y0 = rand_vec(len, 22 + len as u64);
            let mut y = y0.clone();
            max_assign(&mut y, &x0);
            let mut yref = y0.clone();
            max_assign_scalar(&mut yref, &x0);
            assert_eq!(y, yref, "max_assign len {len}");
        }
    }

    /// The scalar path must produce bit-identical results when reached
    /// through the dispatcher with the override pinned.
    #[test]
    fn forced_scalar_is_bit_identical_to_oracle() {
        let _guard = FORCE_MUTEX.lock().unwrap();
        let before = force_scalar();
        let x = rand_vec(37, 7);
        let y0 = rand_vec(37, 8);
        set_force_scalar(true);
        let mut y = y0.clone();
        saxpy(2.5, &x, &mut y);
        let d = sdot(&x, &y);
        set_force_scalar(before);
        let mut yref = y0;
        saxpy_scalar(2.5, &x, &mut yref);
        assert_eq!(y, yref);
        assert_eq!(d, sdot_scalar(&x, &yref));
    }
}
