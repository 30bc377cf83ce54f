//! Real-input 2-D transforms with Hermitian half-spectra.
//!
//! fbfft (and cuFFT's R2C/C2R paths) exploit that a real signal's
//! spectrum is Hermitian: `X[k] = conj(X[n−k])`, so only `n/2 + 1`
//! columns of an `n×n` spectrum need to be stored, multiplied and
//! inverse-transformed. This module provides that layout — it halves
//! the Fourier-domain work of the convolution strategy, exactly the
//! saving the real implementations take.
//!
//! Layout: an `n×n` real plane transforms to `n` rows × `(n/2 + 1)`
//! columns, row-major, held as **split-complex** planes (`re`/`im` at
//! `[r·half + c]`) — the native format of the frequency-domain product
//! stage, so no interleaved complex value exists between the transform
//! and the per-bin GEMM.
//!
//! A transform is two passes of the batch-major lane engine
//! ([`crate::split`]), in one of two arrangements:
//!
//! * **plane-major** ([`RfftPlan::forward_split_into`] /
//!   [`RfftPlan::inverse_split_into`]): one plane per call, the plane's own
//!   rows and columns are the lanes, and blocked transposes join the
//!   passes. Kept for the benchmarks that time it and, with a written-out
//!   per-bin product, as the oracle of the next;
//! * **lane passes**: many planes per call with *the planes* as the lanes.
//!   What the FFT convolution runs is a row pass per factor
//!   ([`RfftPlan::forward_rows_into`]), one fused column stage
//!   ([`RfftPlan::product_columns`]: each spectrum column's forward
//!   transforms, per-bin products and inverse in one participant's
//!   buffers) and a row pass over the product's crop
//!   ([`RfftPlan::inverse_rows_into`]); between them only rows that exist
//!   are stored, column-major ([`Columns`]).
//!
//! Every butterfly is a broadcast-twiddle FMA over contiguous lanes. The
//! same code runs on every ISA; under scalar dispatch
//! (`GCNN_FORCE_SCALAR=1` or no SIMD) the lane kernels' scalar bodies
//! execute.

use crate::plan::{FftPlan, PlanLru, PLAN_CACHE_CAP};
use crate::{simd, split, Direction};
use gcnn_tensor::workspace;
use rayon::prelude::*;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Plan for `n×n` real-input transforms (power-of-two `n`).
#[derive(Debug, Clone)]
pub struct RfftPlan {
    n: usize,
    half: usize,
    plan: Arc<FftPlan>,
}

impl RfftPlan {
    /// Build a plan for `n×n` planes. The twiddle/bit-reversal tables
    /// come from the process-wide [`FftPlan`] cache, so plans of one
    /// size share storage.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        RfftPlan {
            n,
            half: n / 2 + 1,
            plan: FftPlan::cached(n),
        }
    }

    /// Fetch the shared plan for `n×n` planes from the process-wide
    /// cache — the cuFFT `cufftPlan2d`-once / execute-many split.
    /// Entries are LRU-bounded at [`PLAN_CACHE_CAP`] so plan memory
    /// stays bounded under many-size workloads.
    pub fn cached(n: usize) -> Arc<RfftPlan> {
        static CACHE: OnceLock<Mutex<PlanLru<Arc<RfftPlan>>>> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(PlanLru::new(PLAN_CACHE_CAP)));
        let mut lru = cache.lock().expect("RfftPlan cache poisoned");
        match lru.get(n) {
            Some(plan) => {
                gcnn_trace::counter_inc("fft.rfft_plan_cache.hits");
                plan
            }
            None => {
                gcnn_trace::counter_inc("fft.rfft_plan_cache.misses");
                let plan = Arc::new(RfftPlan::new(n));
                if lru.insert(n, Arc::clone(&plan)) {
                    gcnn_trace::counter_inc("fft.rfft_plan_cache.evictions");
                }
                plan
            }
        }
    }

    /// Spatial size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Stored spectrum columns: `n/2 + 1`.
    pub fn half_cols(&self) -> usize {
        self.half
    }

    /// Stored spectrum elements per plane: `n · (n/2 + 1)`.
    pub fn spectrum_len(&self) -> usize {
        self.n * self.half
    }

    /// Forward transform of a row-major `n×n` real plane into
    /// split-complex spectrum planes (`re`/`im` at `[r·half + c]`).
    /// Scratch comes from the thread-local workspace arena, so
    /// steady-state calls allocate nothing. Two lane-engine passes
    /// joined by blocked SIMD transposes:
    ///
    /// 1. transpose the real plane into bin-major lane layout
    ///    (`buf[c·n + r]`), imaginary plane zero;
    /// 2. one [`split::fft_lanes_inplace`] pass = all `n` row
    ///    transforms at once (bins `c`, lanes `r`);
    /// 3. keep bins `c < half` — a contiguous prefix in this layout —
    ///    and transpose them into `[r·half + c]`;
    /// 4. a second lane pass = all `half` column transforms (bins `r`,
    ///    lanes `c`).
    pub fn forward_split_into(&self, plane: &[f32], sre: &mut [f32], sim: &mut [f32]) {
        assert_eq!(
            plane.len(),
            self.n * self.n,
            "RfftPlan::forward_split: plane size"
        );
        assert_eq!(
            sre.len(),
            self.spectrum_len(),
            "RfftPlan::forward_split: re plane size"
        );
        assert_eq!(
            sim.len(),
            self.spectrum_len(),
            "RfftPlan::forward_split: im plane size"
        );
        // No per-plane trace span: at small n the span bookkeeping is a
        // measurable fraction of the whole transform, and every caller
        // is already inside a batch-level `fft.*` span.
        let (n, half) = (self.n, self.half);
        let isa = gcnn_tensor::simd::isa();

        let mut bufs2 = workspace::take_f32(2 * n * n);
        let (buf_re, buf_im) = bufs2.split_at_mut(n * n);
        simd::transpose_f32(plane, n, n, buf_re, isa);
        buf_im.fill(0.0);
        split::fft_lanes_inplace(buf_re, buf_im, &self.plan, Direction::Forward, n);

        // Bins c < half are the first half·n floats — the Hermitian
        // truncation is free in lane layout.
        simd::transpose_f32(&buf_re[..half * n], half, n, sre, isa);
        simd::transpose_f32(&buf_im[..half * n], half, n, sim, isa);
        split::fft_lanes_inplace(sre, sim, &self.plan, Direction::Forward, half);
    }

    /// Inverse transform from **split-complex** spectrum planes into a
    /// real plane — the mirror of [`Self::forward_split_into`]: a lane
    /// pass inverts the `half` stored columns, Hermitian symmetry
    /// reconstructs the missing bins as whole-row block copies (bin
    /// `c ≥ half` of a row is `conj` of bin `n − c`, which in lane
    /// layout is a contiguous `n`-float row with the imaginary plane
    /// negated), a second lane pass inverts all `n` rows, and a final
    /// transpose drops the (numerically zero) imaginary plane.
    pub fn inverse_split_into(&self, sre: &[f32], sim: &[f32], out: &mut [f32]) {
        assert_eq!(
            sre.len(),
            self.spectrum_len(),
            "RfftPlan::inverse_split: re plane size"
        );
        assert_eq!(
            sim.len(),
            self.spectrum_len(),
            "RfftPlan::inverse_split: im plane size"
        );
        assert_eq!(
            out.len(),
            self.n * self.n,
            "RfftPlan::inverse_split: plane size"
        );
        // No per-plane trace span — same reasoning as the forward path.
        let (n, half) = (self.n, self.half);
        let isa = gcnn_tensor::simd::isa();

        // Column inverses (bins r over lanes c) on a scratch copy: the
        // caller's spectrum is borrowed immutably.
        let mut cols2 = workspace::take_f32(2 * self.spectrum_len());
        let (col_re, col_im) = cols2.split_at_mut(self.spectrum_len());
        col_re.copy_from_slice(sre);
        col_im.copy_from_slice(sim);
        split::fft_lanes_inplace(col_re, col_im, &self.plan, Direction::Inverse, half);

        // Rebuild full rows in lane layout (bins c over lanes r).
        let mut rows2 = workspace::take_f32(2 * n * n);
        let (row_re, row_im) = rows2.split_at_mut(n * n);
        simd::transpose_f32(col_re, n, half, &mut row_re[..half * n], isa);
        simd::transpose_f32(col_im, n, half, &mut row_im[..half * n], isa);
        for c in half..n {
            // After the column inverse each row is a real signal's
            // spectrum again, hence Hermitian within the row:
            // T[r][c] = conj(T[r][n − c]).
            let src = (n - c) * n;
            let dst = c * n;
            row_re.copy_within(src..src + n, dst);
            row_im.copy_within(src..src + n, dst);
            gcnn_tensor::simd::sscal(-1.0, &mut row_im[dst..dst + n]);
        }
        split::fft_lanes_inplace(row_re, row_im, &self.plan, Direction::Inverse, n);

        // Back to row-major; the imaginary plane is zero up to fp noise
        // and is simply not transposed out.
        simd::transpose_f32(row_re, n, n, out, isa);
    }
}

/// Lanes per block of the row passes (`B`): a unit's buffers are `8·n·B`
/// bytes, half the build host's L2 at 128×128. Swept on Table I: 256 and
/// 512 ran slower (more, shorter units), 1024 and 2048 tied, 8192 slower.
/// Between its bit-reversed load and its store (with an inverse's `1/n`), only
/// a unit's DIT stages and a pruned window's head copies touch its buffers.
pub const BLOCK_LANES: usize = 1 << 10;

/// Floats per bin row of a unit's buffer for `b` lanes: an odd number of
/// cache lines, so a lane's column (what the gather stores and the crop
/// loads) spreads over every L1 set — at 384 lanes, 24 lines, it fell on 8
/// and the gather ran at half speed. Lanes past `b` are zero, never stored.
fn lane_stride(b: usize) -> usize {
    (b.div_ceil(16) | 1) * 16
}

/// `row` ← the lanes `from`, then zeros up to the stride.
fn load(row: &mut [f32], from: &[f32]) {
    let (lanes, pad) = row.split_at_mut(from.len());
    lanes.copy_from_slice(from);
    pad.fill(0.0);
}

/// `to[l] ← scale·(a[l] + sign·b[l])` over the lanes of `a`, then zeros:
/// the one step of the row-pair split and its inverse.
fn mix(to: &mut [f32], scale: f32, a: &[f32], sign: f32, b: &[f32]) {
    for (t, (&a, &b)) in to.iter_mut().zip(a.iter().zip(b)) {
        *t = scale * (a + sign * b);
    }
    to[a.len()..].fill(0.0);
}

/// The missing partner of an odd row count's last row pair.
static ZEROS: [f32; BLOCK_LANES] = [0.0; BLOCK_LANES];

/// Which plane each lane of a lane transform is: a permutation of
/// `0..lanes` by construction, not a caller's closure — the parallel
/// inverse gives each lane's plane to one writer on the strength of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneOrder {
    /// Lane `l` is plane `l`.
    Identity,
    /// The lanes read a `rows × cols` grid row by row whose planes are
    /// stored column by column: lane `r·cols + c` is plane `c·rows + r`.
    Transposed { rows: usize, cols: usize },
}

impl LaneOrder {
    fn plane_of(self, lane: usize) -> usize {
        match self {
            LaneOrder::Identity => lane,
            LaneOrder::Transposed { rows, cols } => lane % cols * rows + lane / cols,
        }
    }

    /// Panic unless the order permutes exactly `lanes` planes.
    fn assert_covers(self, lanes: usize) {
        if let LaneOrder::Transposed { rows, cols } = self {
            let grid = rows.checked_mul(cols);
            assert_eq!(grid, Some(lanes), "LaneOrder: the grid is not the lanes");
        }
    }
}

/// A `&mut [f32]` the participants of a pass region write side by side:
/// each takes the runs of its own units — disjoint from the others' but
/// interleaved with them (a block's lanes of one bin, a row of a plane),
/// which `split_at_mut` cannot express.
struct SharedOut<'a>(*mut [f32], PhantomData<&'a mut [f32]>);

// SAFETY: the pointer is the slice borrowed exclusively for `'a`, and an
// `f32` may be written from any thread. A shared `SharedOut` gives access
// through `run` only, whose caller guarantees that no two live runs
// overlap, so the threads sharing one never touch the same float.
unsafe impl Sync for SharedOut<'_> {}

impl<'a> SharedOut<'a> {
    /// Takes the borrow, so nothing else reaches the slice while `self` lives.
    fn new(out: &'a mut [f32]) -> Self {
        SharedOut(out, PhantomData)
    }

    /// The run `at..at + len` of the slice.
    ///
    /// # Safety
    /// No two live runs overlap: while the returned borrow lives, no other
    /// `run` of this output, on any thread, covers any of its floats.
    #[allow(clippy::mut_from_ref)] // what the type is for; see `# Safety`
    unsafe fn run(&self, at: usize, len: usize) -> &mut [f32] {
        let all = self.0.len();
        assert!(len <= all && at <= all - len, "SharedOut: run outside");
        // SAFETY: the run lies inside the slice borrowed for `'a` (just
        // asserted), and the caller guarantees nothing else aliases it.
        unsafe { std::slice::from_raw_parts_mut(self.0.cast::<f32>().add(at), len) }
    }
}

/// An operand of [`RfftPlan::product_columns`]: the half-spectra of plan
/// rows `rows` of `lanes` planes, column-major — `re`/`im[(c·rows.len() +
/// t)·lanes + l]` is bin `c` of row `rows.start + t` of plane `l` — so a
/// spectrum column is one run. A factor is what
/// [`RfftPlan::forward_rows_into`] writes for a window's data rows, the
/// product the crop rows [`RfftPlan::inverse_rows_into`] reads.
#[derive(Debug)]
pub struct Columns<S> {
    /// Real parts.
    pub re: S,
    /// Imaginary parts.
    pub im: S,
    /// Planes, the lanes of every bin.
    pub lanes: usize,
    /// The plan rows held.
    pub rows: Range<usize>,
}

impl<S: AsRef<[f32]>> Columns<S> {
    /// Panic unless `rows` lie in an `n`-row plan and `re`/`im` hold them
    /// for `half` columns.
    fn assert_fits(&self, n: usize, half: usize, what: &str) {
        let rows = &self.rows;
        let inside = rows.start <= rows.end && rows.end <= n;
        assert!(inside, "product_columns: {what} rows exceed plan");
        let len = half * rows.len() * self.lanes;
        let (re, im) = (self.re.as_ref().len(), self.im.as_ref().len());
        assert_eq!(re, len, "product_columns: {what} re size");
        assert_eq!(im, len, "product_columns: {what} im size");
    }
}

/// Run `body(own, unit)` for each `unit` of `0..units` in a buffer `own` of
/// `per` floats: one per participant of a pool region, which claims units.
fn claim(units: usize, per: usize, body: impl Fn(&mut [f32], usize) + Sync) {
    let mut scratch = workspace::take_f32(rayon::current_num_threads().min(units) * per);
    // `fetch_add` gives each index to one claimant. Relaxed: it publishes
    // nothing — a unit's inputs are borrows that outlive the region, its
    // outputs reach the caller through the region's join.
    let next = AtomicUsize::new(0);
    scratch.par_chunks_mut(per).for_each(|own| loop {
        let unit = next.fetch_add(1, Ordering::Relaxed);
        if unit >= units {
            break;
        }
        body(own, unit);
    });
}

/// The lane transforms: **the planes are the lanes** (fbfft's layout,
/// PAPERS.md arXiv:1412.7580). A pass is a pool region of **units**, each
/// transformed in `[n][stride]` buffers in [`split::fft_lanes_inplace`]'s
/// layout: a row pair of the plane × a block of lanes in a row pass, one
/// whole spectrum column of all three operands in the fused stage. Units
/// own disjoint runs of their output (rows of `out`, in the crop), and a
/// lane's arithmetic does not depend on who runs it, so a call gives the
/// same bits at every pool width.
///
/// Every pass over a unit's buffer is butterflies: a load lands natural row
/// `r` at row `rev[r]` (the fused stage's products write bin `r` there), an
/// inverse applies its `1/n` as it stores (the fused stage: the crop rows
/// it keeps; the row pass: its crop), and a forward unit whose input ends at
/// `e` (`offset + w` along a row, `offset + h` along a column) skips the
/// stages below span `n / e.next_power_of_two()`.
///
/// A row unit carries two real rows `x`, `y` (the second zero past an odd
/// count) as one complex row `z = x + i·y`. With `m = (n − c) mod n`, the
/// forward splits `X_c = (Z_c + conj Z_m)/2`, `Y_c = (Z_c − conj Z_m)/2i`;
/// the inverse rebuilds `Z` from both Hermitian halves (a bin that is its
/// own mirror is real) and crops `x`, `y` from its two planes. So a
/// product's crop is the plane-major engine's (the same per-bin products of
/// [`RfftPlan::forward_split_into`] of the padded planes, the cropped
/// [`RfftPlan::inverse_split_into`]) to within rounding: every sample of
/// product plane `(i, j)` within `ε·(log2 n + 1)·Σ_s ‖a_is‖₂·‖b_sj‖₂`, the
/// sum over the pairs of factor planes it multiplies (`ε` = `f32::EPSILON`).
impl RfftPlan {
    /// Run `body(re, im, i, lane0, b)` for each unit — `i` in `0..count` ×
    /// block `lane0..lane0 + b`, the fewest of at most [`BLOCK_LANES`] lanes
    /// and equal to within one — in buffers of `n` rows of
    /// [`lane_stride`]`(b)` floats, one per participant ([`claim`]).
    fn for_each_unit(
        &self,
        count: usize,
        lanes: usize,
        body: impl Fn(&mut [f32], &mut [f32], usize, usize, usize) + Sync,
    ) {
        let blocks = lanes.div_ceil(BLOCK_LANES);
        let edge = |k: usize| k * lanes / blocks; // block `k` is `edge(k)..edge(k + 1)`
        let per = 2 * self.n * lane_stride(lanes.div_ceil(blocks.max(1)));
        claim(count * blocks, per, |own, unit| {
            let (re, im) = own.split_at_mut(per / 2);
            let (k, i) = (unit % blocks, unit / blocks);
            let (lane0, b) = (edge(k), edge(k + 1) - edge(k));
            let len = self.n * lane_stride(b);
            body(&mut re[..len], &mut im[..len], i, lane0, b);
        });
    }

    /// Transform, unscaled, a unit's buffers (rows of `s` floats) whose load
    /// landed lanes `..from` of natural rows `window` at rows `rev[r]`. With
    /// `g = n / window.end.next_power_of_two()`, the heads `rev[y]`, `y <
    /// n/g`, get zeros where the load left none, each fills the `g − 1` rows
    /// after it, and the stages start at span `g`.
    fn transform(
        &self,
        (re, im): (&mut [f32], &mut [f32]),
        dir: Direction,
        s: usize,
        window: Range<usize>,
        from: [usize; 2],
    ) {
        let rev = self.plan.bitrev_table();
        let g = self.n / window.end.next_power_of_two();
        for (buf, from) in [&mut *re, &mut *im].into_iter().zip(from) {
            for y in 0..self.n / g {
                let loaded = if window.contains(&y) { from } else { 0 };
                buf[rev[y] as usize * s + loaded..][..s - loaded].fill(0.0);
            }
            for r in (0..self.n).filter(|r| r % g != 0) {
                buf.copy_within((r - r % g) * s..(r - r % g + 1) * s, r * s);
            }
        }
        split::stages_from(re, im, &self.plan, dir, s, g);
    }

    /// Forward-transform the data rows of `lanes` real `h×w` windows into a
    /// [`Columns`] of plan rows `offset..offset + h`, a factor of
    /// [`Self::product_columns`]: bin `c` of data row `t` of lane `l` goes to
    /// `re`/`im[(c·h + t)·lanes + l]`. Lane `l` is the row-major window
    /// `src[order.plane_of(l)·h·w ..][..h·w]` (a tensor's plane axes swap
    /// for free) landed `offset` rows and columns into the zero `n×n` plane
    /// (a layer's padding, with no padded copy). A unit takes data rows `2p`
    /// and `2p + 1` of each lane of a block as the real and imaginary planes
    /// of one row and splits its `half` kept bins into theirs.
    ///
    /// # Panics
    /// Before anything is written, unless the window fits (`offset +
    /// h.max(w) <= n`), `src` is the `lanes` windows `order` permutes and
    /// `re`/`im` hold `half_cols()·h·lanes` floats.
    #[allow(clippy::too_many_arguments)] // the windows, their geometry and order, the output
    pub fn forward_rows_into(
        &self,
        src: &[f32],
        (h, w): (usize, usize),
        offset: usize,
        order: LaneOrder,
        lanes: usize,
        re: &mut [f32],
        im: &mut [f32],
    ) {
        let _span = gcnn_trace::span("fft.rfft_forward");
        gcnn_trace::counter_add("fft.batch_planes", lanes as u64);
        let (n, half) = (self.n, self.half);
        assert!(offset + h.max(w) <= n, "forward_rows: window exceeds plan");
        assert_eq!(src.len(), lanes * h * w, "forward_rows: src size");
        assert_eq!(re.len(), half * h * lanes, "forward_rows: re size");
        assert_eq!(im.len(), half * h * lanes, "forward_rows: im size");
        order.assert_covers(lanes);
        let (to_re, to_im) = (SharedOut::new(re), SharedOut::new(im));
        let landing = &self.plan.bitrev_table()[offset..offset + w];
        self.for_each_unit(h.div_ceil(2), lanes, |re, im, p, lane0, b| {
            let (s, pair) = (lane_stride(b), (h - 2 * p).min(2));
            for l in 0..b {
                let plane = order.plane_of(lane0 + l) * h * w;
                for (t, buf) in [&mut *re, &mut *im].into_iter().take(pair).enumerate() {
                    let row = &src[plane + (2 * p + t) * w..][..w];
                    for (&r, &v) in landing.iter().zip(row) {
                        buf[r as usize * s + l] = v;
                    }
                }
            }
            let from = [b, if pair == 2 { b } else { 0 }]; // a lone row's `im` is zero
            self.transform((re, im), Direction::Forward, s, offset..offset + w, from);
            for c in 0..half {
                let m = (n - c) % n;
                // Z_c and Z_m. X_c = (Z_c + conj Z_m)/2 and Y_c = (Z_c − conj
                // Z_m)/2i are (re, im) = (½(a + b), ½(a' − b')) over the pairs.
                let (cr, ci) = (&re[c * s..][..b], &im[c * s..][..b]);
                let (mr, mi) = (&re[m * s..][..b], &im[m * s..][..b]);
                let halves = [[(cr, mr), (ci, mi)], [(ci, mi), (mr, cr)]];
                for (t, [(re_a, re_b), (im_a, im_b)]) in halves.into_iter().take(pair).enumerate() {
                    let at = (c * h + 2 * p + t) * lanes + lane0;
                    // SAFETY: columns `lane0..lane0 + b` of bin `c` of data
                    // row `2p + t`, which `for_each_unit` gives to this call
                    // alone (other pairs' units own other rows, other blocks
                    // other columns); this unit's earlier runs are dead.
                    let (run_re, run_im) = unsafe { (to_re.run(at, b), to_im.run(at, b)) };
                    mix(run_re, 0.5, re_a, 1.0, re_b);
                    mix(run_im, 0.5, im_a, -1.0, im_b);
                }
            }
        });
    }

    /// The fused column stage of a per-bin product `C = A·B` of two
    /// factors' half-spectra: one pool region whose unit is a spectrum
    /// column `c`. In its participant's buffers a unit lands column `c` of
    /// both factors' rows bit-reversed and transforms them forward, calls
    /// `product(a, b, c)` for each of the `n` bins — `a`, `b` the factors'
    /// lanes of bin `r`, `c` the product's, landed bit-reversed for the
    /// inverse — inverts the product and stores its rows `c.rows`, scaled
    /// by `1/n`. No operand's full spectrum exists: a unit's buffers are `2·n`
    /// rows of [`lane_stride`] of each operand's lanes, zero in the
    /// factors' rows outside their windows. `product` must overwrite all
    /// of its `c`.
    ///
    /// # Panics
    /// Before anything is written, unless every operand's rows lie in the
    /// plan and its `re`/`im` hold those rows for `half_cols()` columns.
    pub fn product_columns(
        &self,
        a: Columns<&[f32]>,
        b: Columns<&[f32]>,
        c: Columns<&mut [f32]>,
        product: impl Fn((&[f32], &[f32]), (&[f32], &[f32]), (&mut [f32], &mut [f32])) + Sync,
    ) {
        let _span = gcnn_trace::span("fft.product_columns");
        let (n, half) = (self.n, self.half);
        a.assert_fits(n, half, "a");
        b.assert_fits(n, half, "b");
        c.assert_fits(n, half, "c");
        let (rev, scale) = (self.plan.bitrev_table(), 1.0 / n as f32);
        let [sa, sb, sc] = [a.lanes, b.lanes, c.lanes].map(lane_stride);
        let Columns {
            re,
            im,
            lanes,
            rows,
        } = c;
        let run = rows.len() * lanes;
        let (to_re, to_im) = (SharedOut::new(re), SharedOut::new(im));
        claim(half, 2 * n * (sa + sb + sc), |own, col| {
            let (own_a, own) = own.split_at_mut(2 * n * sa);
            let (own_b, own_c) = own.split_at_mut(2 * n * sb);
            let (a_re, a_im) = self.column_forward(&a, col, own_a);
            let (b_re, b_im) = self.column_forward(&b, col, own_b);
            let (c_re, c_im) = own_c.split_at_mut(n * sc);
            for r in 0..n {
                let z = rev[r] as usize * sc;
                product(
                    (&a_re[r * sa..][..a.lanes], &a_im[r * sa..][..a.lanes]),
                    (&b_re[r * sb..][..b.lanes], &b_im[r * sb..][..b.lanes]),
                    (&mut c_re[z..][..lanes], &mut c_im[z..][..lanes]),
                );
            }
            let inverse = (&mut *c_re, &mut *c_im);
            self.transform(inverse, Direction::Inverse, sc, 0..n, [lanes, lanes]);
            // SAFETY: column `col`'s run of the product, which `claim` gives
            // to this call alone (other columns' units own other runs).
            let (to_re, to_im) = unsafe { (to_re.run(col * run, run), to_im.run(col * run, run)) };
            for (t, r) in rows.clone().enumerate() {
                for (to, from) in [(&mut *to_re, &*c_re), (&mut *to_im, &*c_im)] {
                    let row = to[t * lanes..][..lanes].iter_mut();
                    row.zip(&from[r * sc..]).for_each(|(o, &v)| *o = v * scale);
                }
            }
        });
    }

    /// Column `col` of the factor `x` landed bit-reversed in `own` — `2·n`
    /// rows of [`lane_stride`]`(x.lanes)` floats, real then imaginary — and
    /// transformed: row `r` holds bin `r`'s lanes.
    fn column_forward<'o>(
        &self,
        x: &Columns<&[f32]>,
        col: usize,
        own: &'o mut [f32],
    ) -> (&'o [f32], &'o [f32]) {
        let (rev, s) = (self.plan.bitrev_table(), lane_stride(x.lanes));
        let (re, im) = own.split_at_mut(self.n * s);
        for (t, r) in x.rows.clone().enumerate() {
            let (at, row) = ((col * x.rows.len() + t) * x.lanes, rev[r] as usize * s);
            load(&mut re[row..][..s], &x.re[at..][..x.lanes]);
            load(&mut im[row..][..s], &x.im[at..][..x.lanes]);
        }
        self.transform(
            (&mut *re, &mut *im),
            Direction::Forward,
            s,
            x.rows.clone(),
            [s, s],
        );
        (re, im)
    }

    /// Inverse of a [`Columns`] of the crop's rows `offset..offset + size`
    /// (the product of [`Self::product_columns`]: bin `c` of crop row `t` of
    /// lane `l` at `sre`/`sim[(c·size + t)·lanes + l]`), cropped: write the
    /// `size×size` window `offset` rows and columns into each lane's `n×n`
    /// plane to `out[order.plane_of(l)·size² ..][..size²]`. A unit rebuilds
    /// crop rows `2p` and `2p + 1` of each lane of a block as one complex row
    /// from their Hermitian halves, inverts it and crops both into `out`.
    ///
    /// # Panics
    /// Before anything is written, unless the window fits (`offset + size
    /// <= n`), `sre`/`sim` hold `half_cols()·size·lanes` floats and `out` is
    /// exactly the `lanes` cropped planes `order` permutes.
    pub fn inverse_rows_into(
        &self,
        sre: &[f32],
        sim: &[f32],
        lanes: usize,
        (size, offset): (usize, usize),
        order: LaneOrder,
        out: &mut [f32],
    ) {
        let _span = gcnn_trace::span("fft.rfft_inverse");
        gcnn_trace::counter_add("fft.batch_planes", lanes as u64);
        let (n, half) = (self.n, self.half);
        assert!(offset + size <= n, "inverse_rows: window exceeds plan");
        assert_eq!(sre.len(), half * size * lanes, "inverse_rows: re size");
        assert_eq!(sim.len(), half * size * lanes, "inverse_rows: im size");
        assert_eq!(out.len(), lanes * size * size, "inverse_rows: out size");
        order.assert_covers(lanes);
        let out = SharedOut::new(out);
        let (rev, scale) = (self.plan.bitrev_table(), 1.0 / n as f32);
        self.for_each_unit(size.div_ceil(2), lanes, |re, im, p, lane0, b| {
            let (s, pair) = (lane_stride(b), (size - 2 * p).min(2));
            // Bin `c` of crop row `2p + t`, a real row's spectrum; zero past the pair.
            let bin = |t: usize, c: usize| match (c * size + 2 * p + t) * lanes + lane0 {
                at if t < pair => (&sre[at..at + b], &sim[at..at + b]),
                _ => (&ZEROS[..b], &ZEROS[..b]),
            };
            for c in 0..half {
                let ((x_re, x_im), (y_re, y_im)) = (bin(0, c), bin(1, c));
                let m = (n - c) % n;
                let (zc, zm) = (rev[c] as usize * s, rev[m] as usize * s);
                if m == c {
                    // Its own mirror: X_c and Y_c are real.
                    load(&mut re[zc..][..s], x_re);
                    load(&mut im[zc..][..s], y_re);
                } else {
                    // Z_c = X_c + i·Y_c and Z_m = conj X_c + i·conj Y_c.
                    mix(&mut re[zc..][..s], 1.0, x_re, -1.0, y_im);
                    mix(&mut im[zc..][..s], 1.0, x_im, 1.0, y_re);
                    mix(&mut re[zm..][..s], 1.0, x_re, 1.0, y_im);
                    mix(&mut im[zm..][..s], 1.0, y_re, -1.0, x_im);
                }
            }
            self.transform((re, im), Direction::Inverse, s, 0..n, [s, s]);
            for l in 0..b {
                let plane = order.plane_of(lane0 + l) * size * size;
                for (t, buf) in [&*re, &*im].into_iter().take(pair).enumerate() {
                    // SAFETY: row `2p + t` of the plane lane `lane0 + l` is:
                    // one call of this body per (pair, block), and `order`,
                    // asserted to cover `lanes`, sends distinct lanes to
                    // distinct planes; this unit's earlier rows are dead.
                    let row = unsafe { out.run(plane + (2 * p + t) * size, size) };
                    let col = buf[offset * s + l..].iter().step_by(s);
                    row.iter_mut().zip(col).for_each(|(o, &v)| *o = v * scale);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnn_tensor::Complex32;

    fn plane(n: usize, seed: u64) -> Vec<f32> {
        (0..n * n)
            .map(|i| {
                (((i as u64).wrapping_mul(2654435761).wrapping_add(seed * 97)) % 1000) as f32
                    / 100.0
                    - 5.0
            })
            .collect()
    }

    fn forward(p: &RfftPlan, x: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let mut re = vec![0.0f32; p.spectrum_len()];
        let mut im = vec![0.0f32; p.spectrum_len()];
        p.forward_split_into(x, &mut re, &mut im);
        (re, im)
    }

    fn inverse(p: &RfftPlan, re: &[f32], im: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; p.n() * p.n()];
        p.inverse_split_into(re, im, &mut out);
        out
    }

    /// Inverse of the pointwise product `fa · fb` (or `fa · conj(fb)`)
    /// of two real planes' half-spectra.
    fn product_through_half_spectrum(p: &RfftPlan, a: &[f32], b: &[f32], conj_b: bool) -> Vec<f32> {
        let (ar, ai) = forward(p, a);
        let (br, bi) = forward(p, b);
        let (mut pr, mut pi) = (vec![0.0f32; ar.len()], vec![0.0f32; ar.len()]);
        for k in 0..ar.len() {
            let fb = Complex32::new(br[k], bi[k]);
            let z = Complex32::new(ar[k], ai[k]) * if conj_b { fb.conj() } else { fb };
            pr[k] = z.re;
            pi[k] = z.im;
        }
        inverse(p, &pr, &pi)
    }

    #[test]
    fn roundtrip() {
        for n in [1usize, 2, 4, 8, 16, 32] {
            let p = RfftPlan::new(n);
            let x = plane(n, 1);
            let (re, im) = forward(&p, &x);
            let back = inverse(&p, &re, &im);
            for (a, b) in x.iter().zip(&back) {
                assert!((a - b).abs() < 1e-3, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn dc_bin_is_sum() {
        let n = 8;
        let p = RfftPlan::new(n);
        let (re, im) = forward(&p, &vec![0.5f32; n * n]);
        assert!((re[0] - 32.0).abs() < 1e-3);
        assert!(im[0].abs() < 1e-4);
        assert!(re[1..].iter().chain(&im[1..]).all(|v| v.abs() < 1e-3));
    }

    #[test]
    fn impulse_spectrum_is_flat() {
        let n = 8;
        let p = RfftPlan::new(n);
        let mut x = vec![0.0f32; n * n];
        x[0] = 1.0;
        let (re, im) = forward(&p, &x);
        assert!(re.iter().all(|v| (v - 1.0).abs() < 1e-4));
        assert!(im.iter().all(|v| v.abs() < 1e-4));
    }

    #[test]
    fn spectrum_is_half_size() {
        let p = RfftPlan::new(64);
        assert_eq!(p.half_cols(), 33);
        assert_eq!(p.spectrum_len(), 64 * 33);
    }

    /// Circular convolution theorem: ifft(fft(a)·fft(b)) equals the
    /// circular convolution computed directly. Works on the half
    /// spectrum because products of Hermitian spectra stay Hermitian.
    #[test]
    fn convolution_theorem_2d() {
        let n = 8usize;
        let p = RfftPlan::new(n);
        let a: Vec<f32> = (0..n * n).map(|i| ((i * 7) % 5) as f32 - 2.0).collect();
        let b: Vec<f32> = (0..n * n).map(|i| ((i * 13) % 3) as f32 - 1.0).collect();
        let mut direct = vec![0.0f32; n * n];
        for oy in 0..n {
            for ox in 0..n {
                let mut acc = 0.0;
                for ky in 0..n {
                    for kx in 0..n {
                        acc += a[((oy + n - ky) % n) * n + (ox + n - kx) % n] * b[ky * n + kx];
                    }
                }
                direct[oy * n + ox] = acc;
            }
        }
        let via_fft = product_through_half_spectrum(&p, &a, &b, false);
        for (x, y) in direct.iter().zip(&via_fft) {
            assert!((x - y).abs() < 1e-2, "{x} vs {y}");
        }
    }

    /// Correlation theorem: conjugating one spectrum yields circular
    /// cross-correlation — what the conv passes compute.
    #[test]
    fn correlation_theorem_2d() {
        let n = 4usize;
        let p = RfftPlan::new(n);
        let a: Vec<f32> = (0..16).map(|i| (i % 7) as f32).collect();
        let b: Vec<f32> = (0..16).map(|i| ((i * 3) % 5) as f32).collect();
        let mut direct = vec![0.0f32; n * n];
        for oy in 0..n {
            for ox in 0..n {
                let mut acc = 0.0;
                for ky in 0..n {
                    for kx in 0..n {
                        acc += a[((oy + ky) % n) * n + (ox + kx) % n] * b[ky * n + kx];
                    }
                }
                direct[oy * n + ox] = acc;
            }
        }
        // corr(a, b)[o] = Σ_k a[o + k]·b[k]  ⇔  fa · conj(fb).
        let via_fft = product_through_half_spectrum(&p, &a, &b, true);
        for (x, y) in direct.iter().zip(&via_fft) {
            assert!((x - y).abs() < 1e-2, "{x} vs {y}");
        }
    }

    /// One factor of a per-bin product: `lanes` row-major `h×w` windows of
    /// `src`, lane `l` the window `order.plane_of(l)`, landed `offset` rows
    /// and columns into the plan.
    struct Factor<'a> {
        src: &'a [f32],
        hw: (usize, usize),
        offset: usize,
        order: LaneOrder,
        lanes: usize,
    }

    impl Factor<'_> {
        fn window(&self, l: usize) -> &[f32] {
            let len = self.hw.0 * self.hw.1;
            &self.src[self.order.plane_of(l) * len..][..len]
        }

        /// Lane `l`'s window in the zero `n×n` plane.
        fn plane(&self, n: usize, l: usize) -> Vec<f32> {
            let mut plane = vec![0.0f32; n * n];
            for (r, row) in self.window(l).chunks(self.hw.1).enumerate() {
                plane[(self.offset + r) * n + self.offset..][..row.len()].copy_from_slice(row);
            }
            plane
        }

        fn norm(&self, l: usize) -> f32 {
            self.window(l).iter().map(|v| v * v).sum::<f32>().sqrt()
        }

        /// Its data rows through [`RfftPlan::forward_rows_into`], into
        /// NaN-filled rows.
        fn data_rows(&self, p: &RfftPlan) -> (Vec<f32>, Vec<f32>) {
            let len = p.half_cols() * self.hw.0 * self.lanes;
            let (mut re, mut im) = (vec![f32::NAN; len], vec![f32::NAN; len]);
            let (src, order, lanes) = (self.src, self.order, self.lanes);
            p.forward_rows_into(src, self.hw, self.offset, order, lanes, &mut re, &mut im);
            (re, im)
        }

        /// Those rows as a factor of [`RfftPlan::product_columns`].
        fn columns<'s>(&self, (re, im): &'s (Vec<f32>, Vec<f32>)) -> Columns<&'s [f32]> {
            Columns {
                re,
                im,
                lanes: self.lanes,
                rows: self.offset..self.offset + self.hw.0,
            }
        }
    }

    /// The per-bin product `C[m×n] = A[m×k]·B` over lanes, written out: A's
    /// lane `i·k + s`, B stored `[k×n]` (lane `s·n + j`) or, `dots`, `[n×k]`
    /// (lane `j·k + s`), each factor conjugated as `conj` says.
    #[derive(Debug, Clone, Copy)]
    struct Product {
        mnk: (usize, usize, usize),
        dots: bool,
        conj: (bool, bool),
    }

    impl Product {
        fn b_lane(&self, s: usize, j: usize) -> usize {
            let (_, n, k) = self.mnk;
            if self.dots {
                j * k + s
            } else {
                s * n + j
            }
        }

        fn bin(
            &self,
            (ar, ai): (&[f32], &[f32]),
            (br, bi): (&[f32], &[f32]),
            (cr, ci): (&mut [f32], &mut [f32]),
        ) {
            let (m, n, k) = self.mnk;
            let z = |re: &[f32], im: &[f32], l: usize, conj: bool| {
                let z = Complex32::new(re[l], im[l]);
                if conj {
                    z.conj()
                } else {
                    z
                }
            };
            for i in 0..m {
                for j in 0..n {
                    let c: Complex32 = (0..k)
                        .map(|s| {
                            let a = z(ar, ai, i * k + s, self.conj.0);
                            a * z(br, bi, self.b_lane(s, j), self.conj.1)
                        })
                        .sum();
                    (cr[i * n + j], ci[i * n + j]) = (c.re, c.im);
                }
            }
        }
    }

    /// The product's `size×size` crop at `offset`, its planes in `order`.
    struct Crop {
        size: usize,
        offset: usize,
        order: LaneOrder,
    }

    /// The lane passes: each factor's row pass, the fused column stage with
    /// the product `g` and the crop's row pass, at pool width `width`, out of
    /// an arena whose buffers of every class they check out are NaN, into
    /// NaN-filled rows and output.
    fn lane_passes(
        width: usize,
        p: &RfftPlan,
        [a, b]: [&Factor; 2],
        g: Product,
        crop: &Crop,
    ) -> Vec<f32> {
        let (half, lanes) = (p.half_cols(), g.mnk.0 * g.mnk.1);
        let pool = rayon::ThreadPoolBuilder::new().num_threads(width);
        pool.build().expect("pool").install(|| {
            // The fused stage's unit buffers are the largest checkout. Two
            // of every class up to theirs, taken largest first and held
            // together, so each is a buffer of its own class.
            let strides = [a.lanes, b.lanes, lanes].map(lane_stride);
            let most = width * 2 * p.n() * strides.iter().sum::<usize>();
            let held: Vec<_> = (0..=most.next_power_of_two().trailing_zeros())
                .rev()
                .flat_map(|e| [workspace::take_f32(1 << e), workspace::take_f32(1 << e)])
                .map(|mut buf| {
                    buf.fill(f32::NAN);
                    buf
                })
                .collect();
            drop(held);
            let (a_rows, b_rows) = (a.data_rows(p), b.data_rows(p));
            let len = half * crop.size * lanes;
            let (mut c_re, mut c_im) = (vec![f32::NAN; len], vec![f32::NAN; len]);
            let c = Columns {
                re: &mut c_re[..],
                im: &mut c_im[..],
                lanes,
                rows: crop.offset..crop.offset + crop.size,
            };
            let (a_cols, b_cols) = (a.columns(&a_rows), b.columns(&b_rows));
            p.product_columns(a_cols, b_cols, c, |a, b, c| g.bin(a, b, c));
            let mut out = vec![f32::NAN; lanes * crop.size * crop.size];
            let window = (crop.size, crop.offset);
            p.inverse_rows_into(&c_re, &c_im, lanes, window, crop.order, &mut out);
            out
        })
    }

    /// The same product through the plane-major engine: every lane's padded
    /// plane through [`RfftPlan::forward_split_into`], the per-bin products,
    /// every product lane through [`RfftPlan::inverse_split_into`], cropped.
    fn plane_major(p: &RfftPlan, [a, b]: [&Factor; 2], g: Product, crop: &Crop) -> Vec<f32> {
        let (n, bins, lanes) = (p.n(), p.spectrum_len(), g.mnk.0 * g.mnk.1);
        // `[bin][lane]`: a bin's lanes are one run, as the product reads them.
        let spectra = |x: &Factor| {
            let (mut re, mut im) = (vec![0.0; bins * x.lanes], vec![0.0; bins * x.lanes]);
            for l in 0..x.lanes {
                let (lane_re, lane_im) = forward(p, &x.plane(n, l));
                for q in 0..bins {
                    (re[q * x.lanes + l], im[q * x.lanes + l]) = (lane_re[q], lane_im[q]);
                }
            }
            (re, im)
        };
        let ((a_re, a_im), (b_re, b_im)) = (spectra(a), spectra(b));
        let (mut c_re, mut c_im) = (vec![0.0; bins * lanes], vec![0.0; bins * lanes]);
        for q in 0..bins {
            let (la, lb) = (a.lanes, b.lanes);
            g.bin(
                (&a_re[q * la..][..la], &a_im[q * la..][..la]),
                (&b_re[q * lb..][..lb], &b_im[q * lb..][..lb]),
                (
                    &mut c_re[q * lanes..][..lanes],
                    &mut c_im[q * lanes..][..lanes],
                ),
            );
        }
        let size = crop.size;
        let mut out = vec![0.0f32; lanes * size * size];
        for l in 0..lanes {
            let lane = |v: &[f32]| (0..bins).map(|q| v[q * lanes + l]).collect::<Vec<_>>();
            let back = inverse(p, &lane(&c_re), &lane(&c_im));
            let to = &mut out[crop.order.plane_of(l) * size * size..][..size * size];
            for (r, row) in to.chunks_mut(size).enumerate() {
                row.copy_from_slice(&back[(crop.offset + r) * n + crop.offset..][..size]);
            }
        }
        out
    }

    /// [`lane_passes`] at pool widths 1 to `widths`, every width the same
    /// bits, against [`plane_major`]: every sample of product plane `(i, j)`
    /// within `ε·(log2 n + 1)·Σ_s ‖a_is‖₂·‖b_sj‖₂` (`ε` = `f32::EPSILON`).
    /// Returns the largest error as a share of that.
    fn check(p: &RfftPlan, factors: [&Factor; 2], g: Product, crop: &Crop, widths: usize) -> f32 {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let what = format!("n {} {g:?} {:?}", p.n(), crop.order);
        let got = lane_passes(1, p, factors, g, crop);
        for width in 2..=widths {
            let wide = lane_passes(width, p, factors, g, crop);
            assert_eq!(bits(&wide), bits(&got), "{what}: width {width} differs");
        }
        let want = plane_major(p, factors, g, crop);
        let ([a, b], (m, n, k)) = (factors, g.mnk);
        let tolerance = f32::EPSILON * (p.n().trailing_zeros() + 1) as f32;
        let plane = crop.size * crop.size;
        let mut worst = 0.0f32;
        for i in 0..m {
            for j in 0..n {
                let norms: f32 = (0..k)
                    .map(|s| a.norm(i * k + s) * b.norm(g.b_lane(s, j)))
                    .sum();
                let most = tolerance * norms;
                let at = crop.order.plane_of(i * n + j) * plane;
                for (x, y) in got[at..][..plane].iter().zip(&want[at..][..plane]) {
                    let off = (x - y).abs();
                    assert!(off <= most, "{what} ({i}, {j}): {x} vs {y}, over {most}");
                    worst = worst.max(off / most);
                }
            }
        }
        worst
    }

    /// The lane passes ([`lane_passes`]) are the plane-major engine with the
    /// same written-out per-bin product to within the tolerance [`check`]
    /// states, out of NaN-poisoned scratch, at pool widths 1 to 4, every
    /// width the same bits; the largest error seen is printed.
    ///
    /// The windows part: a factor of `lanes` windows times one plane of the
    /// same window — windows of one, two and three rows (one row pair, one
    /// pair and a lone row), odd and even window heights and crops, windows
    /// off the origin, windows whose forward skips its first one to three
    /// stages (Table I's filter windows among them), both lane orders, and
    /// (below `n = 32`) row passes of 1, 3 and `B ± 1` to `3·B − 1` lanes:
    /// blocks of unequal width, a block count no width divides. The
    /// products part: both storages of B, all four conjugation pairs, every
    /// operand's planes in both lane orders, plans 2 to 128 and a product of
    /// 33·32 lanes, more than one row-pass block.
    #[test]
    fn lane_passes_match_plane_major() {
        // An interpreter (`scripts/verify.sh`'s miri pass) gets one case at
        // widths 1 and 2 in which the first factor's row pass, the fused
        // stage and the crop's row pass each have several units and, at
        // width 2, at least 8 Ki floats of unit buffers: the pool shares
        // each of those regions, so both participants write through one
        // `SharedOut`.
        let miri = cfg!(miri);
        let signal =
            |len: usize, f: f32| (0..len).map(|i| (i as f32 * f).cos()).collect::<Vec<_>>();
        // A grid with `rows ≠ cols` wherever `lanes` has a factor.
        let grid = |lanes: usize| {
            let rows = (2..lanes).find(|&d| lanes.is_multiple_of(d)).unwrap_or(1);
            LaneOrder::Transposed {
                rows,
                cols: lanes / rows,
            }
        };
        let mut worst = 0.0f32;

        // (n, h, w, offset): `lanes` windows times one, the crop `h.min(w)`
        // at `offset / 2`, the product `[lanes×1]`.
        let windows = [
            (16, 5, 5, 2),
            (8, 3, 5, 2),
            (2, 2, 1, 0),
            (1, 1, 1, 0),
            (8, 6, 4, 2),
            (16, 1, 5, 3),
            (16, 2, 9, 5),
            (16, 3, 3, 13),
            (16, 16, 16, 0),
            // Table I's filter windows, whose forward stages start at span
            // 8 (Conv1) and 2 (Conv3, Conv4), and windows ending on a power
            // of two (span 2) and just past one (span 1).
            (128, 11, 11, 0),
            (32, 9, 9, 0),
            (16, 7, 7, 0),
            (32, 9, 9, 7),
            (32, 9, 9, 8),
        ];
        for (n, h, w, offset) in windows
            .into_iter()
            .take(if miri { 1 } else { windows.len() })
        {
            let p = RfftPlan::new(n);
            let block = BLOCK_LANES;
            let counts = if miri {
                // Buffer rows of 144 floats: two row units' are 9 Ki floats.
                vec![114]
            } else if n >= 32 {
                // The plane-major oracle costs two `n×n` transforms per lane.
                vec![1, 3, 17]
            } else {
                vec![
                    1,
                    3,
                    block - 1,
                    block,
                    block + 1,
                    2 * block + 5,
                    3 * block - 1,
                ]
            };
            for lanes in counts {
                let (src_a, src_b) = (signal(lanes * h * w, 0.37), signal(h * w, 0.61));
                let orders = [grid(lanes), LaneOrder::Identity];
                for order in orders.into_iter().take(if miri { 1 } else { 2 }) {
                    let a = Factor {
                        src: &src_a,
                        hw: (h, w),
                        offset,
                        order,
                        lanes,
                    };
                    let b = Factor {
                        src: &src_b,
                        hw: (h, w),
                        offset,
                        order: LaneOrder::Identity,
                        lanes: 1,
                    };
                    let crop = Crop {
                        size: h.min(w),
                        offset: offset / 2,
                        order,
                    };
                    let g = Product {
                        mnk: (lanes, 1, 1),
                        dots: false,
                        conj: (false, true),
                    };
                    let widths = if miri { 2 } else { 4 };
                    worst = worst.max(check(&p, [&a, &b], g, &crop, widths));
                }
            }
        }
        if miri {
            return;
        }

        // (n, A window, B window, crop, (m, n, k)), a window `(h, w, offset)`
        // and the crop `(size, offset)`: windows whose forward skips its
        // first stages (ending at or before `n/2`: A in the first and last
        // rows, B in the second, fourth and fifth) and windows off the
        // origin; odd crops at odd and even offsets.
        type Case = (usize, [usize; 3], [usize; 3], [usize; 2], [usize; 3]);
        let products: [Case; 6] = [
            (2, [1, 1, 0], [2, 2, 0], [1, 1], [2, 3, 2]),
            (4, [2, 2, 1], [1, 1, 0], [3, 1], [3, 2, 5]),
            (4, [3, 3, 0], [2, 2, 1], [3, 0], [33, 32, 2]),
            (16, [9, 9, 3], [7, 7, 0], [5, 2], [4, 3, 33]),
            (32, [17, 13, 2], [9, 9, 0], [11, 3], [2, 5, 3]),
            (128, [11, 11, 0], [118, 118, 5], [7, 0], [2, 2, 2]),
        ];
        for (n, [ha, wa, oa], [hb, wb, ob], [size, offset], [m, nn, k]) in products {
            let p = RfftPlan::new(n);
            let (la, lb) = (m * k, k * nn);
            let (src_a, src_b) = (signal(la * ha * wa, 0.37), signal(lb * hb * wb, 0.61));
            for transposed in [false, true] {
                let order = |rows: usize, cols: usize| match transposed {
                    true => LaneOrder::Transposed { rows, cols },
                    false => LaneOrder::Identity,
                };
                let a = Factor {
                    src: &src_a,
                    hw: (ha, wa),
                    offset: oa,
                    order: order(k, m),
                    lanes: la,
                };
                let b = Factor {
                    src: &src_b,
                    hw: (hb, wb),
                    offset: ob,
                    order: order(nn, k),
                    lanes: lb,
                };
                let crop = Crop {
                    size,
                    offset,
                    order: order(m, nn),
                };
                for dots in [false, true] {
                    for conj in [(false, false), (false, true), (true, false), (true, true)] {
                        let g = Product {
                            mnk: (m, nn, k),
                            dots,
                            conj,
                        };
                        worst = worst.max(check(&p, [&a, &b], g, &crop, 4));
                    }
                }
            }
        }
        eprintln!("lane passes vs plane-major: largest error {worst:.3} of the tolerance");
    }

    #[test]
    #[should_panic(expected = "plane size")]
    fn forward_checks_length() {
        let p = RfftPlan::new(8);
        let (mut re, mut im) = (vec![0.0; p.spectrum_len()], vec![0.0; p.spectrum_len()]);
        p.forward_split_into(&[0.0; 63], &mut re, &mut im);
    }
}
