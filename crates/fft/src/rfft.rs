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
//! * **lane tiles** ([`RfftPlan::forward_lanes_into`],
//!   [`RfftPlan::inverse_lanes_into`]): many planes per call with *the
//!   planes* as the lanes, spectra bin-major across planes
//!   (`[bin][lane]`) — the layout the per-bin complex GEMM of the FFT
//!   convolution consumes, so nothing is transposed anywhere.
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

/// Scratch one lane tile of [`RfftPlan::forward_lanes_into`] /
/// [`RfftPlan::inverse_lanes_into`] may occupy: the tile's split
/// half-spectra (`n·half·T·8` bytes) are written by the row passes, swept
/// by every stage of the column pass and read once more by the store, so
/// they should stay in the last private cache level. 1 MiB — half the
/// build host's L2 — is where the 32×32 planes of Table I ran fastest
/// (0.25, 0.5, 2 and 4 MiB were all slower).
const TILE_BYTES: usize = 1 << 20;

/// Fewest lanes a tile is cut to, however large the plane. A tile enters
/// and leaves the bin-major operand as one `T`-float run per bin, and
/// runs of a single cache line are the slowest way to touch memory: at
/// 128×128, where the budget alone would give 15 lanes, 32 ran 5 %
/// faster than 16 although the tile then fills the L2.
const MIN_TILE_LANES: usize = 32;

/// Which plane each lane of a lane-tile transform is: a permutation of
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

/// A `&mut [f32]` the participants of a tile region write side by side:
/// each takes the runs of its own lanes — disjoint from the others' but
/// interleaved with them (a `T`-float run per bin, a row per plane), which
/// `split_at_mut` cannot express.
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

/// The lane-tile transforms: **the planes are the lanes**.
///
/// `T` planes are transformed together in scratch laid out
/// `[row][col][T]`, which *is* the bin-major `[bin][lane]` layout of
/// [`split::fft_lanes_inplace`] for both passes: one data row is `n` bins
/// of `T` lanes, the whole tile is `n` bins of `half·T` lanes. Nothing is
/// transposed between the passes, and a tile leaves as a `T`-float run
/// per bin of the `[bin][lanes]` operand the per-bin complex GEMM
/// consumes — fbfft's batch-major layout (PAPERS.md arXiv:1412.7580)
/// with the FFT emitting what the product reads. Each lane's arithmetic
/// is the plane-major engine's, so the spectra are bit-identical to
/// [`RfftPlan::forward_split_into`] on the zero-padded plane.
///
/// The tile loop is a **pool region**: each participant holds one tile's
/// scratch and claims whole tiles. Tile `lane0..lane0 + T` writes only
/// columns `lane0..lane0 + T` of every bin's `lanes`-float row of the
/// operand (forward) and only the planes its lanes are (inverse), so every
/// output float has one owner, and a lane's arithmetic does not depend on
/// who runs it: the same bits at every pool width. An operand of one tile
/// (Conv1 forward's 12 input planes) stays on its caller.
impl RfftPlan {
    /// Planes per tile, from the plan size and [`TILE_BYTES`]: a multiple
    /// of 16 (whole vectors on every ISA), at least [`MIN_TILE_LANES`].
    pub fn tile_lanes(&self) -> usize {
        (TILE_BYTES / (8 * self.spectrum_len()) / 16 * 16).max(MIN_TILE_LANES)
    }

    /// Run `body(row2, cols2, lane0, t)` once for each tile
    /// `lane0..lane0 + t` — disjoint ranges that cover `0..lanes` — with
    /// `2·n·t` floats of row scratch and `2·n·half·t` of tile scratch: one
    /// chunk of it per participant, whose holder claims tiles until none is
    /// left (a core the host takes away costs balance, not the step; at
    /// width 1 the caller is the one participant of the same code).
    fn for_each_tile(
        &self,
        lanes: usize,
        body: impl Fn(&mut [f32], &mut [f32], usize, usize) + Sync,
    ) {
        if lanes == 0 {
            return;
        }
        let (n, half) = (self.n, self.half);
        let tile = self.tile_lanes().min(lanes);
        let tiles = lanes.div_ceil(tile);
        let per = 2 * n * (1 + half) * tile;
        let mut scratch = workspace::take_f32(rayon::current_num_threads().min(tiles) * per);
        // `fetch_add` gives each index to one claimant. Relaxed: it
        // publishes nothing — a tile's inputs are borrows that outlive the
        // region, its outputs reach the caller through the region's join.
        let next = AtomicUsize::new(0);
        scratch.par_chunks_mut(per).for_each(|own| {
            let (row2, cols2) = own.split_at_mut(2 * n * tile);
            loop {
                let lane0 = next.fetch_add(1, Ordering::Relaxed).saturating_mul(tile);
                if lane0 >= lanes {
                    break;
                }
                let t = tile.min(lanes - lane0);
                body(
                    &mut row2[..2 * n * t],
                    &mut cols2[..2 * n * half * t],
                    lane0,
                    t,
                );
            }
        });
    }

    /// Forward-transform `lanes` real `h×w` windows into bin-major split
    /// half-spectra `sre/sim[bin·lanes + lane]`, `bin = r·half + c`. Lane
    /// `l` reads the row-major window `src[order.plane_of(l)·h·w ..][..h·w]`
    /// (so the lane order is the caller's: transposing a tensor's two
    /// plane axes costs nothing) and lands it `offset` rows and columns
    /// into the zero `n×n` plane — a layer's padding is a landing offset,
    /// not a padded copy. Only the `h` rows that hold data get a row pass;
    /// the Hermitian half of each is a contiguous prefix of the row
    /// buffer; one column pass covers the tile.
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
        let (sre, sim) = (SharedOut::new(sre), SharedOut::new(sim));
        self.for_each_tile(lanes, |row2, cols2, lane0, t| {
            let (row_re, row_im) = row2.split_at_mut(n * t);
            let (col_re, col_im) = cols2.split_at_mut(n * half * t);
            // Rows outside the window are zero and so are their row
            // transforms: cleared, never transformed.
            let data = offset * half * t..(offset + h) * half * t;
            for col in [&mut *col_re, &mut *col_im] {
                col[..data.start].fill(0.0);
                col[data.end..].fill(0.0);
            }
            for r in 0..h {
                row_re.fill(0.0);
                row_im.fill(0.0);
                for l in 0..t {
                    let at = order.plane_of(lane0 + l) * h * w + r * w;
                    let column = row_re[offset * t + l..].iter_mut().step_by(t);
                    for (slot, &v) in column.zip(&src[at..at + w]) {
                        *slot = v;
                    }
                }
                split::fft_lanes_inplace(row_re, row_im, &self.plan, Direction::Forward, t);
                let at = data.start + r * half * t;
                col_re[at..at + half * t].copy_from_slice(&row_re[..half * t]);
                col_im[at..at + half * t].copy_from_slice(&row_im[..half * t]);
            }
            split::fft_lanes_inplace(col_re, col_im, &self.plan, Direction::Forward, half * t);
            for bin in 0..n * half {
                let at = bin * lanes + lane0;
                // SAFETY: columns `lane0..lane0 + t` of row `bin`. The
                // tiles of `for_each_tile` are disjoint lane ranges inside
                // `0..lanes`, one call of this body each, so two tiles'
                // runs share no column and none spills into the next row;
                // this tile's earlier runs are other rows, and dead.
                let (re, im) = unsafe { (sre.run(at, t), sim.run(at, t)) };
                re.copy_from_slice(&col_re[bin * t..(bin + 1) * t]);
                im.copy_from_slice(&col_im[bin * t..(bin + 1) * t]);
            }
        });
    }

    /// Inverse of [`Self::forward_lanes_into`], cropped: from bin-major
    /// split half-spectra `sre/sim[bin·lanes + lane]`, write the
    /// `size×size` window `offset` rows and columns into each lane's
    /// `n×n` real plane to `out[order.plane_of(l)·size² ..][..size²]`. One
    /// column pass inverts the tile; then only the `size` rows inside the
    /// window are rebuilt from their Hermitian half (bin `c ≥ half` is
    /// `conj` of bin `n − c`), row-inverted and cropped straight into
    /// `out` — the other `n − size` rows are never computed.
    ///
    /// # Panics
    /// Before anything is written, unless the window fits (`offset + size
    /// <= n`), `sre`/`sim` hold `spectrum_len()·lanes` floats and `out` is
    /// exactly the `lanes` cropped planes `order` permutes.
    #[allow(clippy::too_many_arguments)] // mirror of `forward_lanes_into`
    pub fn inverse_lanes_into(
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
        assert!(offset + size <= n, "inverse_lanes: window exceeds plan");
        assert_eq!(sre.len(), n * half * lanes, "inverse_lanes: re size");
        assert_eq!(sim.len(), n * half * lanes, "inverse_lanes: im size");
        assert_eq!(out.len(), lanes * size * size, "inverse_lanes: out size");
        order.assert_covers(lanes);
        let out = SharedOut::new(out);
        self.for_each_tile(lanes, |row2, cols2, lane0, t| {
            let (row_re, row_im) = row2.split_at_mut(n * t);
            let (col_re, col_im) = cols2.split_at_mut(n * half * t);
            for bin in 0..n * half {
                let at = bin * lanes + lane0;
                col_re[bin * t..(bin + 1) * t].copy_from_slice(&sre[at..at + t]);
                col_im[bin * t..(bin + 1) * t].copy_from_slice(&sim[at..at + t]);
            }
            split::fft_lanes_inplace(col_re, col_im, &self.plan, Direction::Inverse, half * t);
            for r in 0..size {
                let at = (offset + r) * half * t;
                row_re[..half * t].copy_from_slice(&col_re[at..at + half * t]);
                row_im[..half * t].copy_from_slice(&col_im[at..at + half * t]);
                for c in half..n {
                    // After the column inverse each row is a real
                    // signal's spectrum: T[r][c] = conj(T[r][n − c]).
                    let from = (n - c) * t;
                    row_re.copy_within(from..from + t, c * t);
                    row_im.copy_within(from..from + t, c * t);
                }
                gcnn_tensor::simd::sscal(-1.0, &mut row_im[half * t..]);
                split::fft_lanes_inplace(row_re, row_im, &self.plan, Direction::Inverse, t);
                // The imaginary plane is zero up to fp noise: dropped.
                for l in 0..t {
                    let at = order.plane_of(lane0 + l) * size * size + r * size;
                    // SAFETY: row `r` of the plane lane `lane0 + l` is.
                    // `for_each_tile` gives each lane to one call of this
                    // body and `order`, asserted to cover `lanes`, sends
                    // distinct lanes to distinct planes — disjoint `size²`
                    // blocks; this lane's earlier rows are dead.
                    let row = unsafe { out.run(at, size) };
                    let column = row_re[offset * t + l..].iter().step_by(t);
                    for (slot, &v) in row.iter_mut().zip(column) {
                        *slot = v;
                    }
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
    fn lane_tiles_at(
        width: usize,
        p: &RfftPlan,
        src: &[f32],
        (h, w, offset): (usize, usize, usize),
        order: LaneOrder,
        lanes: usize,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(width);
        pool.build().expect("pool").install(|| {
            let (bins, tile) = (p.spectrum_len(), p.tile_lanes().min(lanes));
            let parts = width.min(lanes.div_ceil(tile));
            let poison = || {
                workspace::take_f32(parts * 2 * p.n() * (1 + p.half_cols()) * tile).fill(f32::NAN)
            };
            poison();
            let (mut sre, mut sim) = (vec![f32::NAN; bins * lanes], vec![f32::NAN; bins * lanes]);
            p.forward_lanes_into(src, (h, w), offset, order, lanes, &mut sre, &mut sim);
            poison();
            let size = h.min(w);
            let mut out = vec![f32::NAN; lanes * size * size];
            p.inverse_lanes_into(&sre, &sim, lanes, (size, offset / 2), order, &mut out);
            (sre, sim, out)
        })
    }

    /// The lane-tile transforms are the plane-major engine bit for bit:
    /// forward equals `forward_split_into` of the zero-padded plane,
    /// inverse equals the cropped `inverse_split_into` — for windows that
    /// land off the origin, both lane orders, a lane count of 1, lane
    /// counts on both sides of the tile, more tiles than participants, a
    /// ragged last tile and a tile count no width divides; at pool widths
    /// 1 to 4, every width the same bits.
    #[test]
    fn lane_tiles_match_plane_major() {
        // An interpreter (`scripts/verify.sh`'s miri pass) gets the first
        // plan's two-tile count at widths 1 and 2.
        let miri = cfg!(miri);
        let plans = [(1, 1, 1, 0), (2, 1, 2, 0), (8, 3, 5, 2), (16, 16, 16, 0)];
        for (n, h, w, offset) in plans.into_iter().take(if miri { 1 } else { 4 }) {
            let p = RfftPlan::new(n);
            let (bins, tile) = (p.spectrum_len(), p.tile_lanes());
            let mut counts = vec![1, 3, tile - 1, tile, tile + 1];
            if n >= 8 {
                // Thousands of lanes: affordable where a tile is.
                counts.extend([2 * tile, 3 * tile + 5, 7 * tile - 1]);
            }
            if miri {
                counts = vec![tile + 1];
            }
            for lanes in counts {
                let src: Vec<f32> = (0..lanes * h * w)
                    .map(|i| (i as f32 * 0.37).sin())
                    .collect();
                // A grid with `rows ≠ cols` wherever `lanes` has a factor.
                let rows = (2..lanes).find(|d| lanes % d == 0).unwrap_or(1);
                let cols = lanes / rows;
                for order in [LaneOrder::Identity, LaneOrder::Transposed { rows, cols }] {
                    let geometry = (h, w, offset);
                    let narrow = lane_tiles_at(1, &p, &src, geometry, order, lanes);
                    for width in 2..=if miri { 2 } else { 4 } {
                        let same = lane_tiles_at(width, &p, &src, geometry, order, lanes) == narrow;
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
                        let (re, im) = forward(&p, &plane);
                        let lane =
                            |s: &[f32]| (0..bins).map(|b| s[b * lanes + l]).collect::<Vec<_>>();
                        assert_eq!(
                            (lane(&sre), lane(&sim)),
                            (re.clone(), im.clone()),
                            "n {n} lanes {lanes} lane {l}"
                        );
                        let back = inverse(&p, &re, &im);
                        for r in 0..size {
                            assert_eq!(
                                out[order.plane_of(l) * size * size + r * size..][..size],
                                back[(crop_at + r) * n + crop_at..][..size],
                                "n {n} lanes {lanes} lane {l} row {r}"
                            );
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
