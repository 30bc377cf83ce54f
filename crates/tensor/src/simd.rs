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
//! * Slice primitives ([`saxpy`], [`sscal`], [`add_assign`],
//!   [`scale_add`], [`max_assign`]) used by `im2col`, the GEMM
//!   writeback, the fused max-pool and the FFT lane engine's scaling,
//!   and the strided [`transpose`] of SGEMM's along-`k` pack, the NCHWc
//!   packs and the FFT's plane transposes: generic bodies over
//!   [`Lanes`], instantiated per ISA.
//! * [`Lanes`] — the vector trait every generic SIMD body in the
//!   workspace is written over (one impl per ISA vector), and [`conv`],
//!   the NCHWc convolution tile built on it.
//!
//! The scalar implementations are not vestigial: they are the
//! always-available fallback *and* the oracle the SIMD kernels are
//! property-tested against (`crates/gemm/tests/simd_vs_scalar.rs`).
//! Every `unsafe` call below reaches a `#[target_feature]` function
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
    /// Stable lowercase name — used in the `BENCH_*.json` reports.
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

    /// Whether this host can execute the ISA: it is [`Isa::Scalar`] or
    /// the (cached) runtime-detected one. The forced-scalar override
    /// narrows what [`isa`] *selects*, not what the host can run. Safe
    /// entry points that take the `Isa` to run as an argument assert
    /// this before they dispatch on it.
    pub fn runs_here(self) -> bool {
        self == Isa::Scalar || self == detected()
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
        Isa::Avx2Fma => unsafe { avx2::zip_avx2::<Axpy>(alpha, y, x) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: `Neon` is only selected on AArch64, where NEON
        // is a baseline feature.
        Isa::Neon => unsafe { neon::zip_neon::<Axpy>(alpha, y, x) },
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
        Isa::Avx2Fma => unsafe { avx2::zip_avx2::<ScaleAdd>(beta, y, x) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: `Neon` is only selected on AArch64, where NEON
        // is a baseline feature.
        Isa::Neon => unsafe { neon::zip_neon::<ScaleAdd>(beta, y, x) },
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
        Isa::Avx2Fma => unsafe { avx2::sscal_avx2(alpha, x) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: `Neon` is only selected on AArch64, where NEON
        // is a baseline feature.
        Isa::Neon => unsafe { neon::sscal_neon(alpha, x) },
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
        Isa::Avx2Fma => unsafe { avx2::zip_avx2::<Max>(0.0, y, x) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: `Neon` is only selected on AArch64, where NEON
        // is a baseline feature.
        Isa::Neon => unsafe { neon::zip_neon::<Max>(0.0, y, x) },
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

/// Strided out-of-place transpose: `dst[c·dst_ld + r] =
/// src[r·src_ld + c]` for `r < rows`, `c < cols`, in the widest
/// [`Lanes::transpose`] block the host runs. It only moves values, so
/// every ISA writes the same bits.
///
/// Source rows may overlap (`src_ld < cols`, as in the rows of a
/// convolution's column matrix read in place from its image): the
/// source is only read.
///
/// # Panics
/// Unless `rows <= dst_ld` and each slice reaches its last row's end:
/// the raw body relies on exactly this.
pub fn transpose(
    src: &[f32],
    src_ld: usize,
    rows: usize,
    cols: usize,
    dst: &mut [f32],
    dst_ld: usize,
) {
    if rows == 0 || cols == 0 {
        return;
    }
    // `n` rows of `w` floats at stride `ld` inside `len` floats.
    let fits = |len: usize, n: usize, ld: usize, w: usize| {
        let end = (n - 1).checked_mul(ld).and_then(|e| e.checked_add(w));
        end.is_some_and(|end| end <= len)
    };
    assert!(fits(src.len(), rows, src_ld, cols), "transpose: src short");
    assert!(
        rows <= dst_ld && fits(dst.len(), cols, dst_ld, rows),
        "transpose: dst short"
    );
    let t = Transpose {
        src: src.as_ptr(),
        src_ld,
        rows,
        cols,
        dst: dst.as_mut_ptr(),
        dst_ld,
    };
    // SAFETY: the asserts above are `t`'s extents; each vector arm runs
    // only after its ISA's runtime detection.
    unsafe {
        match isa() {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2Fma if avx512f() => avx2::transpose_avx512(t),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2Fma => avx2::transpose_avx2(t),
            #[cfg(target_arch = "aarch64")]
            Isa::Neon => neon::transpose_neon(t),
            _ => transpose_lanes::<f32, f32, f32>(t),
        }
    }
}

// ---------------------------------------------------------------------
// Generic bodies of the slice primitives, and their per-ISA shims
// ---------------------------------------------------------------------

/// One elementwise update `y[i] ← op(s, y[i], x[i])`: [`saxpy`],
/// [`scale_add`] and [`max_assign`] differ in this one expression and
/// share the loop around it ([`zip_lanes`]).
trait Zip {
    /// # Safety
    /// The CPU must support `V`'s ISA.
    unsafe fn apply<V: Lanes>(s: V, y: V, x: V) -> V;
}

/// `y + s·x`.
struct Axpy;
/// `s·y + x`.
struct ScaleAdd;
/// `max(y, x)`; `s` is unused.
struct Max;

impl Zip for Axpy {
    /// Safety: the trait's.
    #[inline(always)]
    unsafe fn apply<V: Lanes>(s: V, y: V, x: V) -> V {
        // SAFETY: trait contract.
        unsafe { y.fma(s, x) }
    }
}

impl Zip for ScaleAdd {
    /// Safety: the trait's.
    #[inline(always)]
    unsafe fn apply<V: Lanes>(s: V, y: V, x: V) -> V {
        // SAFETY: trait contract.
        unsafe { x.fma(s, y) }
    }
}

impl Zip for Max {
    /// Safety: the trait's.
    #[inline(always)]
    unsafe fn apply<V: Lanes>(_: V, y: V, x: V) -> V {
        // SAFETY: trait contract.
        unsafe { y.max(x) }
    }
}

/// SIMD body of the three [`Zip`] primitives, over the shorter of the
/// two slices: whole `V` vectors, then the floats left through the same
/// body at the narrower `R` (these run on rows of 10 and 28 floats, where
/// four floats at a time beats one) and last one lane at a time.
///
/// # Safety
/// The CPU must support `V`'s and `R`'s ISA. `#[inline(always)]`, here and
/// below, so the intrinsics inline into the `#[target_feature]` caller.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[inline(always)]
unsafe fn zip_lanes<V: Lanes, R: Lanes, Op: Zip>(s: f32, y: &mut [f32], x: &[f32]) {
    let n = x.len().min(y.len());
    let whole = n - n % V::N;
    // SAFETY: each step touches `[i, i + V::N)` with
    // `i + V::N <= whole <= n`, inside both slices.
    unsafe {
        let sv = V::splat(s);
        for i in (0..whole).step_by(V::N) {
            let yp = y.as_mut_ptr().add(i);
            Op::apply(sv, V::load(yp), V::load(x.as_ptr().add(i))).store(yp);
        }
        if V::N > 1 {
            // In bounds: `whole <= n`, the shorter length.
            zip_lanes::<R, f32, Op>(s, &mut y[whole..n], &x[whole..n]);
        }
    }
}

/// SIMD body of [`sscal`]: whole `V` vectors, then the floats left
/// through the same body one lane at a time.
///
/// # Safety
/// The CPU must support `V`'s ISA.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[inline(always)]
unsafe fn sscal_lanes<V: Lanes>(alpha: f32, x: &mut [f32]) {
    let whole = x.len() - x.len() % V::N;
    // SAFETY: each step touches `[i, i + V::N)` with
    // `i + V::N <= whole <= x.len()`.
    unsafe {
        let a = V::splat(alpha);
        for i in (0..whole).step_by(V::N) {
            let xp = x.as_mut_ptr().add(i);
            a.mul(V::load(xp)).store(xp);
        }
        if V::N > 1 {
            // In bounds: `whole <= x.len()`.
            sscal_lanes::<f32>(alpha, &mut x[whole..]);
        }
    }
}

/// One [`transpose`] call in raw form: `rows` rows of `cols` floats at
/// `src` (stride `src_ld`) go to `cols` rows of `rows` at `dst` (stride
/// `dst_ld`), which must not overlap them.
struct Transpose {
    src: *const f32,
    src_ld: usize,
    rows: usize,
    cols: usize,
    dst: *mut f32,
    dst_ld: usize,
}

/// SIMD body of [`transpose`]: whole `V` blocks, the last of each row
/// and column pulled back to end at the edge (rewriting a few values with
/// the same bits), and an extent under one `V` block through the same
/// body at `R`, then `Q`, then `f32`.
///
/// # Safety
/// The CPU must support `V`'s, `R`'s and `Q`'s ISA, and `t`'s extents
/// must be readable at `src` and writable at `dst`.
#[inline(always)]
unsafe fn transpose_lanes<V: Lanes, R: Lanes, Q: Lanes>(t: Transpose) {
    let (n, rows, cols) = (V::N, t.rows, t.cols);
    if rows < n || cols < n {
        if n > 1 {
            // SAFETY: the caller's contract, at the narrower `R`.
            unsafe { transpose_lanes::<R, Q, f32>(t) };
        }
        return;
    }
    for r in (0..rows).step_by(n).map(|r| r.min(rows - n)) {
        for c in (0..cols).step_by(n).map(|c| c.min(cols - n)) {
            // SAFETY: an `n × n` block at `(r, c)`, `r + n <= rows` and
            // `c + n <= cols`: inside both extents.
            unsafe {
                let (src, dst) = (t.src.add(r * t.src_ld + c), t.dst.add(c * t.dst_ld + r));
                V::transpose(src, t.src_ld, dst, t.dst_ld);
            }
        }
    }
}

/// The generic bodies at `__m256`, and [`transpose_lanes`] at `__m512`.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{sscal_lanes, transpose_lanes, zip_lanes, Transpose, Zip};
    use std::arch::x86_64::{__m128, __m256, __m512};

    /// # Safety
    /// AVX2 and FMA detected.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn zip_avx2<Op: Zip>(s: f32, y: &mut [f32], x: &[f32]) {
        // SAFETY: this fn enables `__m256`'s ISA.
        unsafe { zip_lanes::<__m256, __m128, Op>(s, y, x) }
    }

    /// # Safety
    /// AVX2 and FMA detected.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sscal_avx2(alpha: f32, x: &mut [f32]) {
        // SAFETY: this fn enables `__m256`'s ISA.
        unsafe { sscal_lanes::<__m256>(alpha, x) }
    }

    /// # Safety
    /// [`transpose_lanes`]'s contract; AVX2 and FMA detected.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn transpose_avx2(t: Transpose) {
        // SAFETY: forwarded contract; this fn enables `__m256`'s ISA.
        unsafe { transpose_lanes::<__m256, __m128, f32>(t) }
    }

    /// # Safety
    /// [`transpose_lanes`]'s contract; AVX-512F detected.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn transpose_avx512(t: Transpose) {
        // SAFETY: forwarded contract; this fn enables `__m512`'s ISA,
        // which implies `__m256`'s and `__m128`'s.
        unsafe { transpose_lanes::<__m512, __m256, __m128>(t) }
    }
}

/// The generic bodies at `float32x4_t`.
#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{sscal_lanes, transpose_lanes, zip_lanes, Transpose, Zip};
    use std::arch::aarch64::float32x4_t;

    /// # Safety
    /// NEON is baseline on AArch64.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn zip_neon<Op: Zip>(s: f32, y: &mut [f32], x: &[f32]) {
        // SAFETY: this fn enables the NEON ISA.
        unsafe { zip_lanes::<float32x4_t, f32, Op>(s, y, x) }
    }

    /// # Safety
    /// NEON is baseline on AArch64.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn sscal_neon(alpha: f32, x: &mut [f32]) {
        // SAFETY: this fn enables the NEON ISA.
        unsafe { sscal_lanes::<float32x4_t>(alpha, x) }
    }

    /// # Safety
    /// [`transpose_lanes`]'s contract; NEON is baseline on AArch64.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn transpose_neon(t: Transpose) {
        // SAFETY: forwarded contract; this fn enables the NEON ISA.
        unsafe { transpose_lanes::<float32x4_t, f32, f32>(t) }
    }
}

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
        assert!(!isa().name().is_empty());
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
            assert_eq!(isa().name(), "avx2+fma");
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
    /// lengths that cover whole vectors at 4, 8 and 16 lanes, every
    /// remainder around them and the all-remainder case, and two runs
    /// of the same input must be bit-identical.
    #[test]
    fn primitives_match_scalar_oracle() {
        type Op = (&'static str, fn(&mut [f32], &[f32]), fn(&mut [f32], &[f32]));
        let ops: [Op; 4] = [
            (
                "saxpy",
                |y, x| saxpy(1.5, x, y),
                |y, x| saxpy_scalar(1.5, x, y),
            ),
            (
                "scale_add",
                |y, x| scale_add(-0.75, y, x),
                |y, x| scale_add_scalar(-0.75, y, x),
            ),
            ("sscal", |y, _| sscal(0.5, y), |y, _| sscal_scalar(0.5, y)),
            ("max_assign", max_assign, max_assign_scalar),
        ];
        for len in [0usize, 1, 3, 7, 8, 9, 13, 16, 17, 33, 65, 100] {
            let x = rand_vec(len, 1 + len as u64);
            let y0 = rand_vec(len, 2 + len as u64);
            for (name, dispatched, oracle) in ops {
                let run = |f: fn(&mut [f32], &[f32])| {
                    let mut y = y0.clone();
                    f(&mut y, &x);
                    y
                };
                let (y, yref) = (run(dispatched), run(oracle));
                assert_eq!(y, run(dispatched), "{name} len {len}: two runs differ");
                for (a, b) in y.iter().zip(&yref) {
                    // FMA against the oracle's separate multiply and add.
                    assert!((a - b).abs() < 1e-5, "{name} len {len}: {a} vs {b}");
                }
                if matches!(name, "sscal" | "max_assign") {
                    assert_eq!(y, yref, "{name} len {len}: one rounding, must be exact");
                }
            }
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
    /// block width — across strides, valid-lane counts, input pitches
    /// of a whole block and of fewer channels, one and two filter
    /// blocks per tile, every tile width up to `wmax` (row
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
                    // (stride, kernel, valid lanes, pitch)
                    let cases = [
                        (1usize, 3usize, block, block),
                        (2, 2, 1, block),
                        (3, 1, 3, 3),
                        (2, 3, 1, 1),
                    ];
                    for (stride, kk, lanes, pitch) in cases {
                        for nfb in 1..=k.fb_step() {
                            let iwp = (o - 1) * stride + kk + 1;
                            let fb_stride = 2 * kk * kk * pitch * block;
                            let seed = (block * 31 + o * 7 + stride + nfb) as u64;
                            let x = rand_vec(iwp * iwp * pitch, seed);
                            let w = rand_vec(nfb * fb_stride, seed + 1);
                            let mut g = conv::SweepGeom {
                                k: kk,
                                stride,
                                iwp,
                                o,
                                pitch,
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
                                        "{k:?} o={o} s={stride} k={kk} lanes={lanes} pitch={pitch} nfb={nfb} \
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

    /// Every block transpose the dispatcher can select on this host —
    /// `__m512` (AVX-512F), `__m256` and its `__m128` step-down (AVX2),
    /// `float32x4_t` (NEON) and `f32` — through the body that runs it, on
    /// an index ramp at odd strides and at source stride 1 (overlapping
    /// rows, as a run of kernel taps read in place): at every extent from
    /// 0 past one block, the pulled-back last blocks included, each value
    /// lands at the index formula's place and nothing outside the extent
    /// is written. `GCNN_FORCE_SCALAR=1` runs it too.
    #[test]
    fn transpose_bodies_match_index_formula() {
        /// A [`transpose_lanes`] instantiation.
        ///
        /// # Safety
        /// [`transpose_lanes`]'s.
        type Body = unsafe fn(Transpose);
        let mut bodies: Vec<(_, _, Body)> = vec![("f32", 1, transpose_lanes::<f32, f32, f32>)];
        #[cfg(target_arch = "x86_64")]
        if Isa::Avx2Fma.runs_here() {
            bodies.push(("__m256 + __m128", 8, avx2::transpose_avx2));
            if std::arch::is_x86_feature_detected!("avx512f") {
                bodies.push(("__m512", 16, avx2::transpose_avx512));
            }
        }
        #[cfg(target_arch = "aarch64")]
        bodies.push(("float32x4_t", 4, neon::transpose_neon));
        for (name, n, body) in bodies {
            let extents: Vec<usize> = (0..=n + 1).chain([2 * n - 1, 2 * n + 1]).collect();
            for &rows in &extents {
                // An odd stride, and stride 1: source rows that overlap.
                for (cols, sld) in extents.iter().flat_map(|&c| [(c, (c + 1) | 1), (c, 1)]) {
                    let dld = (rows + 1) | 1;
                    let src: Vec<f32> = (0..rows * sld + cols).map(|i| i as f32).collect();
                    let mut dst = vec![f32::NAN; cols * dld];
                    // SAFETY: the host runs `body`'s ISA (checked above);
                    // both buffers hold their extents at these strides.
                    unsafe {
                        body(Transpose {
                            src: src.as_ptr(),
                            src_ld: sld,
                            rows,
                            cols,
                            dst: dst.as_mut_ptr(),
                            dst_ld: dld,
                        })
                    };
                    for (i, v) in dst.iter().enumerate() {
                        let (c, r) = (i / dld, i % dld);
                        let want = if r < rows { src[r * sld + c] } else { f32::NAN };
                        assert_eq!(
                            v.to_bits(),
                            want.to_bits(),
                            "{name} {rows}x{cols} src_ld {sld} ({r}, {c})"
                        );
                    }
                }
            }
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
        set_force_scalar(before);
        let mut yref = y0;
        saxpy_scalar(2.5, &x, &mut yref);
        assert_eq!(y, yref);
    }
}
