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
//! * **plane-major** ([`RfftPlan::forward_split_into`] and its
//!   inverses): one plane per call, the plane's own rows and columns are
//!   the lanes, and blocked transposes join the passes. Kept for the
//!   benchmarks that time it and as the oracle of the next;
//! * **lane passes**: many planes per call with *the planes* as the lanes.
//!   What the FFT convolution runs is a row pass per factor
//!   ([`RfftPlan::forward_rows_into`]), one fused column stage
//!   ([`RfftPlan::product_columns`]: each spectrum column's forward
//!   transforms, per-bin products and inverse in one participant's
//!   buffers) and a row pass over the product's crop
//!   ([`RfftPlan::inverse_rows_into`]); between them only rows that exist
//!   are stored, column-major ([`Columns`]). The same row passes around a
//!   column pass in place on a bin-major operand (`[bin][lane]`) are
//!   [`RfftPlan::forward_lanes_into`] / [`RfftPlan::inverse_lanes_into`],
//!   the oracle of the fused stage.
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
        // Column inverses run on a scratch copy — the caller's spectrum
        // is borrowed immutably. Callers that own their spectrum planes
        // (the conv pipeline) use [`Self::inverse_split_inplace`] and
        // skip this copy.
        let mut cols2 = workspace::take_f32(2 * self.spectrum_len());
        let (col_re, col_im) = cols2.split_at_mut(self.spectrum_len());
        col_re.copy_from_slice(sre);
        col_im.copy_from_slice(sim);
        self.inverse_split_inplace(col_re, col_im, out);
    }

    /// [`Self::inverse_split_into`] minus the defensive spectrum copy:
    /// the column lane pass runs **in place** on the caller's spectrum
    /// planes, destroying them. For callers whose split spectra are
    /// scratch they own anyway, this removes a `2·n·(n/2+1)`-float copy
    /// per plane from the hot path.
    pub fn inverse_split_inplace(&self, sre: &mut [f32], sim: &mut [f32], out: &mut [f32]) {
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

        // Column inverses in place: bins r over lanes c.
        split::fft_lanes_inplace(sre, sim, &self.plan, Direction::Inverse, half);

        // Rebuild full rows in lane layout (bins c over lanes r).
        let mut rows2 = workspace::take_f32(2 * n * n);
        let (row_re, row_im) = rows2.split_at_mut(n * n);
        simd::transpose_f32(sre, n, half, &mut row_re[..half * n], isa);
        simd::transpose_f32(sim, n, half, &mut row_im[..half * n], isa);
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

/// Lanes per block of the lane passes (`B`): a unit's buffers are `8·n·B`
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
/// interleaved with them (a block's run of a bin row, a row of a plane),
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

/// Where bin `c` of row `t` of an operand's first lane sits, `t·row +
/// c·col`, its lanes the run after it. Both layouts give distinct `(t, c)`
/// disjoint runs of `lanes` floats: bin-major has `col = lanes` under `row =
/// half·lanes`, column-major `row = lanes` under `col = rows·lanes`.
#[derive(Debug, Clone, Copy)]
struct Layout {
    row: usize,
    col: usize,
}

impl Layout {
    /// Bin-major `[t·half + c][lanes]`, the lane passes' operand.
    fn bin_major(half: usize, lanes: usize) -> Self {
        Layout {
            row: half * lanes,
            col: lanes,
        }
    }

    /// Column-major `[c][t][lanes]` over `rows` rows, a [`Columns`].
    fn columns(rows: usize, lanes: usize) -> Self {
        Layout {
            row: lanes,
            col: rows * lanes,
        }
    }

    fn bin(self, t: usize, c: usize) -> usize {
        t * self.row + c * self.col
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
/// layout: one row of the plane × a block of lanes in a row pass, a column
/// × a block in a column pass over the bin-major operand `[bin][lanes]`,
/// one whole spectrum column of all three operands in the fused stage.
/// Units own disjoint runs of their output (rows of `out`, in the crop),
/// and a lane's arithmetic does not depend on who runs it, so a call gives
/// the same bits at every pool width.
///
/// Every pass over a unit's buffer is butterflies: a load lands natural row
/// `r` at row `rev[r]` (the fused stage's products write bin `r` there), an
/// inverse applies its `1/n` as it stores (column: the rows it keeps; row
/// pass: its crop), and a forward unit whose input ends at `e` (`offset +
/// w` along a row, `offset + h` along a column) skips the stages below span
/// `n / e.next_power_of_two()`.
///
/// A row unit carries two real rows `x`, `y` (the second zero past an odd
/// count) as one complex row `z = x + i·y`. With `m = (n − c) mod n`, the
/// forward splits `X_c = (Z_c + conj Z_m)/2`, `Y_c = (Z_c − conj Z_m)/2i`;
/// the inverse rebuilds `Z` from both Hermitian halves (a bin that is its
/// own mirror is real) and crops `x`, `y` from its two planes. So results
/// are the plane-major engine's ([`RfftPlan::forward_split_into`] of the
/// padded plane, the cropped [`RfftPlan::inverse_split_into`]) to within
/// rounding: spectrum bins within `ε·(log2 n + 1)·n·‖x‖₂`, cropped samples
/// within `ε·(log2 n + 1)·‖x‖₂` of the plane `x`'s (`ε` = `f32::EPSILON`).
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

    /// The column pass, in place on a bin-major operand of `lanes` lanes:
    /// column `c`'s bin rows `read` into a unit's buffer (zero elsewhere),
    /// transformed, its bin rows `write` stored back with an inverse's `1/n`.
    fn column_pass(
        &self,
        (sre, sim): (&mut [f32], &mut [f32]),
        lanes: usize,
        read: Range<usize>,
        dir: Direction,
        write: Range<usize>,
    ) {
        let (sre, sim) = (SharedOut::new(sre), SharedOut::new(sim));
        let rev = self.plan.bitrev_table();
        let scale = match dir {
            Direction::Forward => 1.0,
            Direction::Inverse => 1.0 / self.n as f32,
        };
        self.for_each_unit(self.half, lanes, |re, im, c, lane0, b| {
            let s = lane_stride(b);
            let bin_row = |r: usize| {
                let at = (r * self.half + c) * lanes + lane0;
                // SAFETY: columns `lane0..lane0 + b` of bin row `r·half +
                // c`, which `for_each_unit` gives to this call alone (other
                // columns' units own other bin rows, other blocks other
                // columns); each run here dies before the next.
                unsafe { (sre.run(at, b), sim.run(at, b)) }
            };
            for r in read.clone() {
                let (from_re, from_im) = bin_row(r);
                let at = rev[r] as usize * s;
                load(&mut re[at..at + s], from_re);
                load(&mut im[at..at + s], from_im);
            }
            self.transform((re, im), dir, s, read.clone(), [s, s]);
            for r in write.clone() {
                let (to_re, to_im) = bin_row(r);
                for (to, from) in [(to_re, &re[r * s..][..b]), (to_im, &im[r * s..][..b])] {
                    to.iter_mut().zip(from).for_each(|(t, &v)| *t = v * scale);
                }
            }
        });
    }

    /// Forward-transform `lanes` real `h×w` windows into bin-major split
    /// half-spectra `sre/sim[bin·lanes + lane]`, `bin = r·half + c`. Lane
    /// `l` is the row-major window `src[order.plane_of(l)·h·w ..][..h·w]`
    /// (a tensor's plane axes swap for free) landed `offset` rows and
    /// columns into the zero `n×n` plane (a layer's padding, with no padded
    /// copy). Only the `h` data rows get a row pass, two to a transform, and
    /// only their Hermitian halves are stored. No production caller: with
    /// the per-bin products and [`Self::inverse_lanes_into`] it is the
    /// oracle of [`Self::product_columns`].
    ///
    /// # Panics
    /// Before anything is written, unless the window fits (`offset +
    /// h.max(w) <= n`), `src` is the `lanes` windows `order` permutes and
    /// `sre`/`sim` hold `spectrum_len()·lanes` floats.
    #[allow(clippy::too_many_arguments)] // two buffers, their geometry, the lane order
    pub fn forward_lanes_into(
        &self,
        src: &[f32],
        (h, w): (usize, usize),
        offset: usize,
        order: LaneOrder,
        lanes: usize,
        sre: &mut [f32],
        sim: &mut [f32],
    ) {
        let _span = gcnn_trace::span("fft.rfft_forward");
        gcnn_trace::counter_add("fft.batch_planes", lanes as u64);
        let (n, half) = (self.n, self.half);
        assert!(offset + h.max(w) <= n, "forward_lanes: window exceeds plan");
        assert_eq!(src.len(), lanes * h * w, "forward_lanes: src size");
        assert_eq!(sre.len(), n * half * lanes, "forward_lanes: re size");
        assert_eq!(sim.len(), n * half * lanes, "forward_lanes: im size");
        order.assert_covers(lanes);
        let from = offset * half * lanes; // data row 0 is plan row `offset`
        let to = (
            SharedOut::new(&mut sre[from..]),
            SharedOut::new(&mut sim[from..]),
        );
        let layout = Layout::bin_major(half, lanes);
        self.forward_row_pass(src, (h, w), offset, order, lanes, to, layout);
        let window = offset..offset + h;
        self.column_pass((sre, sim), lanes, window, Direction::Forward, 0..n);
    }

    /// The row pass of [`Self::forward_lanes_into`] alone, into a
    /// [`Columns`] of rows `offset..offset + h`: bin `c` of data row `t` of
    /// lane `l` goes to `re`/`im[(c·h + t)·lanes + l]` — a factor of
    /// [`Self::product_columns`]. Windows, lane order and pairing as there.
    ///
    /// # Panics
    /// Before anything is written, unless the window fits (`offset +
    /// h.max(w) <= n`), `src` is the `lanes` windows `order` permutes and
    /// `re`/`im` hold `half_cols()·h·lanes` floats.
    #[allow(clippy::too_many_arguments)] // mirror of `forward_lanes_into`
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
        assert!(
            offset + h.max(w) <= self.n,
            "forward_rows: window exceeds plan"
        );
        assert_eq!(src.len(), lanes * h * w, "forward_rows: src size");
        assert_eq!(re.len(), self.half * h * lanes, "forward_rows: re size");
        assert_eq!(im.len(), self.half * h * lanes, "forward_rows: im size");
        order.assert_covers(lanes);
        let to = (SharedOut::new(re), SharedOut::new(im));
        let layout = Layout::columns(h, lanes);
        self.forward_row_pass(src, (h, w), offset, order, lanes, to, layout);
    }

    /// The fused column stage of a per-bin product `C = A·B` of two
    /// factors' half-spectra: one pool region whose unit is a spectrum
    /// column `c`. In its participant's buffers a unit lands column `c` of
    /// both factors' rows bit-reversed and transforms them forward, calls
    /// `product(a, b, c)` for each of the `n` bins — `a`, `b` the factors'
    /// lanes of bin `r`, `c` the product's, landed bit-reversed for the
    /// inverse — inverts the product and stores its rows `c.rows`, scaled
    /// by `1/n`. No bin-major operand exists: a unit's buffers are `2·n`
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

    /// The forward row pass: data rows `2p` and `2p + 1` of each lane of a
    /// block as the real and imaginary planes of one row, its `half` kept
    /// bins split into those of data rows `2p + t`, `t` in `0..pair`, and
    /// stored at `layout` through `to`.
    #[allow(clippy::too_many_arguments)] // an entry's window and its output
    fn forward_row_pass(
        &self,
        src: &[f32],
        (h, w): (usize, usize),
        offset: usize,
        order: LaneOrder,
        lanes: usize,
        (to_re, to_im): (SharedOut<'_>, SharedOut<'_>),
        layout: Layout,
    ) {
        let (n, half) = (self.n, self.half);
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
                    let at = layout.bin(2 * p + t, c) + lane0;
                    // SAFETY: columns `lane0..lane0 + b` of bin `c` of data
                    // row `2p + t`, which `for_each_unit` gives to this call
                    // alone (other pairs' units own other rows, other blocks
                    // other columns, and `layout` gives distinct bins
                    // disjoint runs); this unit's earlier runs are dead.
                    let (run_re, run_im) = unsafe { (to_re.run(at, b), to_im.run(at, b)) };
                    mix(run_re, 0.5, re_a, 1.0, re_b);
                    mix(run_im, 0.5, im_a, -1.0, im_b);
                }
            }
        });
    }

    /// Inverse of [`Self::forward_lanes_into`], cropped: write the
    /// `size×size` window `offset` rows and columns into each lane's `n×n`
    /// plane to `out[order.plane_of(l)·size² ..][..size²]`. The column pass
    /// inverts the spectra in place (they are consumed) and stores back
    /// only the window's bin rows; the row pass rebuilds them two at a time
    /// as one complex row from their Hermitian halves, inverts it and crops
    /// both into `out`. No production caller, like the forward.
    ///
    /// # Panics
    /// Before anything is written, unless the window fits (`offset + size
    /// <= n`), `sre`/`sim` hold `spectrum_len()·lanes` floats and `out` is
    /// exactly the `lanes` cropped planes `order` permutes.
    #[allow(clippy::too_many_arguments)] // mirror of `forward_lanes_into`
    pub fn inverse_lanes_into(
        &self,
        sre: &mut [f32],
        sim: &mut [f32],
        lanes: usize,
        (size, offset): (usize, usize),
        order: LaneOrder,
        out: &mut [f32],
    ) {
        let _span = gcnn_trace::span("fft.rfft_inverse");
        gcnn_trace::counter_add("fft.batch_planes", lanes as u64);
        let (n, half) = (self.n, self.half);
        assert!(offset + size <= n, "inverse_lanes: window exceeds plan");
        assert_eq!(sre.len(), n * half * lanes, "inverse_lanes: re size");
        assert_eq!(sim.len(), n * half * lanes, "inverse_lanes: im size");
        assert_eq!(out.len(), lanes * size * size, "inverse_lanes: out size");
        order.assert_covers(lanes);
        let window = offset..offset + size;
        self.column_pass((sre, sim), lanes, 0..n, Direction::Inverse, window);
        let from = offset * half * lanes; // crop row 0 is plan row `offset`
        let layout = Layout::bin_major(half, lanes);
        self.inverse_row_pass(
            (&sre[from..], &sim[from..]),
            layout,
            lanes,
            (size, offset),
            order,
            out,
        );
    }

    /// The row pass of [`Self::inverse_lanes_into`] alone, out of a
    /// [`Columns`] of the crop's rows `offset..offset + size` — the product
    /// of [`Self::product_columns`], bin `c` of crop row `t` of lane `l` at
    /// `re`/`im[(c·size + t)·lanes + l]` — cropped into `out` as there.
    ///
    /// # Panics
    /// Before anything is written, unless the window fits (`offset + size
    /// <= n`), `re`/`im` hold `half_cols()·size·lanes` floats and `out` is
    /// exactly the `lanes` cropped planes `order` permutes.
    pub fn inverse_rows_into(
        &self,
        re: &[f32],
        im: &[f32],
        lanes: usize,
        (size, offset): (usize, usize),
        order: LaneOrder,
        out: &mut [f32],
    ) {
        let _span = gcnn_trace::span("fft.rfft_inverse");
        gcnn_trace::counter_add("fft.batch_planes", lanes as u64);
        assert!(offset + size <= self.n, "inverse_rows: window exceeds plan");
        assert_eq!(re.len(), self.half * size * lanes, "inverse_rows: re size");
        assert_eq!(im.len(), self.half * size * lanes, "inverse_rows: im size");
        assert_eq!(out.len(), lanes * size * size, "inverse_rows: out size");
        order.assert_covers(lanes);
        let layout = Layout::columns(size, lanes);
        self.inverse_row_pass((re, im), layout, lanes, (size, offset), order, out);
    }

    /// The inverse row pass: crop rows `2p` and `2p + 1` of each lane of a
    /// block, rebuilt as one complex row from their Hermitian halves at
    /// `layout` in `sre`/`sim`, inverted and cropped to columns `offset..
    /// offset + size` of rows `2p`, `2p + 1` of `out`'s planes.
    fn inverse_row_pass(
        &self,
        (sre, sim): (&[f32], &[f32]),
        layout: Layout,
        lanes: usize,
        (size, offset): (usize, usize),
        order: LaneOrder,
        out: &mut [f32],
    ) {
        let (n, half) = (self.n, self.half);
        let out = SharedOut::new(out);
        let (rev, scale) = (self.plan.bitrev_table(), 1.0 / n as f32);
        self.for_each_unit(size.div_ceil(2), lanes, |re, im, p, lane0, b| {
            let (s, pair) = (lane_stride(b), (size - 2 * p).min(2));
            // Bin `c` of crop row `2p + t`, a real row's spectrum; zero past the pair.
            let bin = |t: usize, c: usize| match layout.bin(2 * p + t, c) + lane0 {
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
            let (mut re, mut im) = forward(&p, &x);
            // The copying inverse leaves the spectrum intact …
            let spectrum = (re.clone(), im.clone());
            let back = inverse(&p, &re, &im);
            assert_eq!(
                (&re, &im),
                (&spectrum.0, &spectrum.1),
                "n={n}: spectrum clobbered"
            );
            // … and the in-place inverse produces the same plane.
            let mut back_inplace = vec![0.0f32; n * n];
            p.inverse_split_inplace(&mut re, &mut im, &mut back_inplace);
            assert_eq!(back, back_inplace, "n={n}");
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

    /// Forward then cropped inverse of `lanes` windows at pool width
    /// `width`, out of NaN-filled scratch into NaN-filled outputs.
    #[allow(clippy::type_complexity)]
    fn lane_passes_at(
        width: usize,
        p: &RfftPlan,
        src: &[f32],
        (h, w, offset): (usize, usize, usize),
        order: LaneOrder,
        lanes: usize,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(width);
        pool.build().expect("pool").install(|| {
            // A NaN buffer of each class a region of 1 to `width`
            // participants checks out.
            let blocks = lanes.div_ceil(BLOCK_LANES).max(1);
            let per = 2 * p.n() * lane_stride(lanes.div_ceil(blocks));
            let poison = || {
                let held: Vec<_> = (1..=width)
                    .map(|parts| {
                        let mut buf = workspace::take_f32(parts * per);
                        buf.fill(f32::NAN);
                        buf
                    })
                    .collect();
                drop(held);
            };
            poison();
            let bins = p.spectrum_len();
            let (mut sre, mut sim) = (vec![f32::NAN; bins * lanes], vec![f32::NAN; bins * lanes]);
            p.forward_lanes_into(src, (h, w), offset, order, lanes, &mut sre, &mut sim);
            poison();
            let size = h.min(w);
            let mut out = vec![f32::NAN; lanes * size * size];
            let (mut pre, mut pim) = (sre.clone(), sim.clone());
            p.inverse_lanes_into(
                &mut pre,
                &mut pim,
                lanes,
                (size, offset / 2),
                order,
                &mut out,
            );
            (sre, sim, out)
        })
    }

    /// How far a lane pass may sit from the plane-major engine, in units of
    /// the plane's norm `‖x‖₂`: `ε·(log2 n + 1)` (`ε` = `f32::EPSILON`) for
    /// a cropped sample and `n` times that for a spectrum bin (the
    /// spectrum's norm is `n·‖x‖₂`). The largest seen is about a fifth of it.
    fn tolerance(n: usize) -> f32 {
        f32::EPSILON * (n.trailing_zeros() + 1) as f32
    }

    /// The lane transforms are the plane-major engine to within
    /// [`tolerance`], lane by lane: forward against `forward_split_into` of
    /// the zero-padded plane, inverse against the cropped
    /// `inverse_split_into` — for windows of one, two and three rows (one
    /// row pair, one pair and a lone row), odd and even window heights and
    /// crops, windows that land off the origin, windows whose stages skip
    /// their first one to three, both lane orders, a lane count of 1 and
    /// (below `n = 32`) counts on both sides of one, two and three pass
    /// blocks `B` (blocks of unequal width, a block count no width
    /// divides); at pool widths 1 to 4, every width the same bits.
    #[test]
    fn lane_passes_match_plane_major() {
        // An interpreter (`scripts/verify.sh`'s miri pass) gets one block
        // of the first plan — two row units, so at width 2 both
        // participants write through one `SharedOut` — at widths 1 and 2.
        let miri = cfg!(miri);
        // (n, h, w, offset); the crop is `h.min(w)` at `offset / 2`.
        let plans = [
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
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (n, h, w, offset) in plans.into_iter().take(if miri { 1 } else { plans.len() }) {
            let p = RfftPlan::new(n);
            let (bins, block) = (p.spectrum_len(), BLOCK_LANES);
            let counts = if miri {
                vec![3]
            } else if n >= 32 {
                // The plane-major oracle costs an `n×n` transform per lane.
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
                let src: Vec<f32> = (0..lanes * h * w)
                    .map(|i| (i as f32 * 0.37).sin())
                    .collect();
                // A grid with `rows ≠ cols` wherever `lanes` has a factor.
                let rows = (2..lanes).find(|d| lanes % d == 0).unwrap_or(1);
                let cols = lanes / rows;
                for order in [LaneOrder::Identity, LaneOrder::Transposed { rows, cols }] {
                    let geometry = (h, w, offset);
                    let narrow = lane_passes_at(1, &p, &src, geometry, order, lanes);
                    for width in 2..=if miri { 2 } else { 4 } {
                        let wide = lane_passes_at(width, &p, &src, geometry, order, lanes);
                        let same = [
                            (&wide.0, &narrow.0),
                            (&wide.1, &narrow.1),
                            (&wide.2, &narrow.2),
                        ]
                        .iter()
                        .all(|(a, b)| bits(a) == bits(b));
                        assert!(same, "n {n} lanes {lanes} {order:?}: width {width} differs");
                    }
                    let (sre, sim, out) = narrow;

                    let (size, crop_at) = (h.min(w), offset / 2);
                    for l in 0..lanes {
                        let mut plane = vec![0.0f32; n * n];
                        for r in 0..h {
                            let at = order.plane_of(l) * h * w + r * w;
                            plane[(offset + r) * n + offset..][..w]
                                .copy_from_slice(&src[at..at + w]);
                        }
                        let norm = plane.iter().map(|v| v * v).sum::<f32>().sqrt();
                        let what = format!("n {n} h {h} lanes {lanes} {order:?} lane {l}");
                        let (re, im) = forward(&p, &plane);
                        for b in 0..bins {
                            let (dr, di) = (sre[b * lanes + l] - re[b], sim[b * lanes + l] - im[b]);
                            let (off, most) =
                                (dr.abs().max(di.abs()), tolerance(n) * n as f32 * norm);
                            assert!(off <= most, "{what} bin {b}: {off} > {most}");
                        }
                        let back = inverse(&p, &re, &im);
                        for r in 0..size {
                            let got = &out[order.plane_of(l) * size * size + r * size..][..size];
                            let want = &back[(crop_at + r) * n + crop_at..][..size];
                            for (g, w) in got.iter().zip(want) {
                                let (off, most) = ((g - w).abs(), tolerance(n) * norm);
                                assert!(off <= most, "{what} row {r}: {off} > {most}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "plane size")]
    fn forward_checks_length() {
        let p = RfftPlan::new(8);
        let (mut re, mut im) = (vec![0.0; p.spectrum_len()], vec![0.0; p.spectrum_len()]);
        p.forward_split_into(&[0.0; 63], &mut re, &mut im);
    }
}
