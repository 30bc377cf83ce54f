//! The fused column stage against the unfused composition it fuses, bit
//! for bit: `forward_rows_into` on both factors, `product_columns` with one
//! `cgemm_split` per bin and `inverse_rows_into` on the crop, against the
//! same row passes around three whole-spectrum steps of their own — a
//! forward column pass over every column of each factor, one CGEMM per bin
//! over the bin-major spectra and an inverse column pass through
//! `fft_lanes_inplace` — out of NaN-poisoned scratch into NaN-filled
//! outputs, at pool widths 1 to 4.

use gcnn_fft::simd::{lane_stage2_dit, lane_stage_dit};
use gcnn_fft::{fft_lanes_inplace, Columns, Direction, FftPlan, LaneOrder, RfftPlan};
use gcnn_gemm::{batched_cgemm_split, cgemm_split, Transpose};
use gcnn_tensor::simd::isa;
use gcnn_tensor::workspace::take_f32;

/// A factor: `lanes` row-major `h×w` windows, landed `offset` rows and
/// columns into the plan, read in `order`.
struct Factor<'a> {
    src: &'a [f32],
    hw: (usize, usize),
    offset: usize,
    order: LaneOrder,
    lanes: usize,
}

impl Factor<'_> {
    /// The plan rows its windows land on.
    fn window(&self) -> std::ops::Range<usize> {
        self.offset..self.offset + self.hw.0
    }

    /// Its forward row pass: the data rows' half-spectra, column-major.
    fn rows(&self, p: &RfftPlan) -> (Vec<f32>, Vec<f32>) {
        let len = p.half_cols() * self.hw.0 * self.lanes;
        let (mut re, mut im) = (vec![f32::NAN; len], vec![f32::NAN; len]);
        let (src, hw, offset) = (self.src, self.hw, self.offset);
        p.forward_rows_into(src, hw, offset, self.order, self.lanes, &mut re, &mut im);
        (re, im)
    }
}

/// The per-bin product `C[m×n] = A[m×k]·B`, B stored `[k×n]` (the row
/// body) or `[n×k]` (`Transpose::Yes`, the dot body), each factor
/// conjugated as `conj` says.
#[derive(Debug, Clone, Copy)]
struct Gemm {
    mnk: (usize, usize, usize),
    transb: Transpose,
    conj: (bool, bool),
}

/// A bin's operands: real and imaginary planes.
type Split<'a> = (&'a [f32], &'a [f32]);

impl Gemm {
    /// One bin's product: one `cgemm_split`.
    fn bin(&self, (ar, ai): Split, (br, bi): Split, (cr, ci): (&mut [f32], &mut [f32])) {
        let ((m, n, k), (conj_a, conj_b)) = (self.mnk, self.conj);
        let ldb = if self.transb == Transpose::Yes { k } else { n };
        cgemm_split(
            self.transb,
            conj_a,
            conj_b,
            m,
            n,
            k,
            ar,
            ai,
            k,
            br,
            bi,
            ldb,
            cr,
            ci,
            n,
        )
    }
}

/// The product's `size×size` crop at `offset`, its planes in `order`.
struct Crop {
    size: usize,
    offset: usize,
    order: LaneOrder,
}

impl Crop {
    /// The cropped inverse row pass of the product's crop rows.
    fn inverse(&self, p: &RfftPlan, lanes: usize, re: &[f32], im: &[f32]) -> Vec<f32> {
        let mut out = vec![f32::NAN; lanes * self.size * self.size];
        let window = (self.size, self.offset);
        p.inverse_rows_into(re, im, lanes, window, self.order, &mut out);
        out
    }
}

fn fused(p: &RfftPlan, [a, b]: [&Factor; 2], g: Gemm, crop: &Crop) -> Vec<f32> {
    let ((a_re, a_im), (b_re, b_im)) = (a.rows(p), b.rows(p));
    let (m, n, _) = g.mnk;
    let len = p.half_cols() * crop.size * m * n;
    let (mut c_re, mut c_im) = (vec![f32::NAN; len], vec![f32::NAN; len]);
    p.product_columns(
        Columns {
            re: &a_re[..],
            im: &a_im[..],
            lanes: a.lanes,
            rows: a.window(),
        },
        Columns {
            re: &b_re[..],
            im: &b_im[..],
            lanes: b.lanes,
            rows: b.window(),
        },
        Columns {
            re: &mut c_re[..],
            im: &mut c_im[..],
            lanes: m * n,
            rows: crop.offset..crop.offset + crop.size,
        },
        |a, b, c| g.bin(a, b, c),
    );
    crop.inverse(p, m * n, &c_re, &c_im)
}

/// Floats per bin row of a column pass over `lanes` planes: whole 16-float
/// lines, an odd number of them, so every lane runs in the stage kernels'
/// vector bodies, as in a unit of the fused stage.
fn stride(lanes: usize) -> usize {
    (lanes.div_ceil(16) | 1) * 16
}

/// The forward column pass of a factor's row-pass output: spectrum column
/// `c` of every plane, `n` rows of [`stride`] floats, at `(c·n + r)·stride`
/// for bin `r`. The window's rows land bit-reversed; a window ending at `e`
/// is zero from row `e` on, so with `g = n / e.next_power_of_two()` the
/// first `log2 g` stages only copy each of its rows over the `g − 1` after
/// it, and the DIT stages run from span `g` — two at a time, then at most
/// one.
fn column_pass(plan: &FftPlan, f: &Factor, (re, im): (&[f32], &[f32])) -> (Vec<f32>, Vec<f32>) {
    let (n, h, lanes) = (plan.len(), f.hw.0, f.lanes);
    let (s, half, rev) = (stride(lanes), n / 2 + 1, plan.bitrev_table());
    let (tw_re, tw_im) = plan.table_split();
    let g = n / f.window().end.next_power_of_two();
    let (mut spec_re, mut spec_im) = (vec![0.0f32; half * n * s], vec![0.0f32; half * n * s]);
    for (c, (col_re, col_im)) in spec_re
        .chunks_mut(n * s)
        .zip(spec_im.chunks_mut(n * s))
        .enumerate()
    {
        for (col, rows) in [(&mut *col_re, re), (&mut *col_im, im)] {
            for (t, r) in f.window().enumerate() {
                let from = &rows[(c * h + t) * lanes..][..lanes];
                col[rev[r] as usize * s..][..lanes].copy_from_slice(from);
            }
            for r in (0..n).filter(|r| r % g != 0) {
                col.copy_within((r - r % g) * s..(r - r % g + 1) * s, r * s);
            }
        }
        let mut span = g;
        while span * 4 <= n {
            let (sa, sb) = (n / (span * 2), n / (span * 4));
            let (re, im) = (&mut *col_re, &mut *col_im);
            lane_stage2_dit(re, im, n, s, span, sa, sb, tw_re, tw_im, false, isa());
            span *= 4;
        }
        if span * 2 <= n {
            let sa = n / (span * 2);
            lane_stage_dit(col_re, col_im, n, s, span, sa, tw_re, tw_im, false, isa());
        }
    }
    (spec_re, spec_im)
}

fn unfused(p: &RfftPlan, [a, b]: [&Factor; 2], g: Gemm, crop: &Crop) -> Vec<f32> {
    let plan = FftPlan::new(p.n());
    let (n, half) = (p.n(), p.half_cols());
    let (a_rows, b_rows) = (a.rows(p), b.rows(p));
    let (a_re, a_im) = column_pass(&plan, a, (&a_rows.0, &a_rows.1));
    let (b_re, b_im) = column_pass(&plan, b, (&b_rows.0, &b_rows.1));
    let (m, nn, k) = g.mnk;
    let (sa, sb, sc) = (stride(a.lanes), stride(b.lanes), stride(m * nn));
    let bins = half * n;
    let (mut c_re, mut c_im) = (vec![0.0f32; bins * sc], vec![0.0f32; bins * sc]);
    let (conj_a, conj_b) = g.conj;
    if g.transb == Transpose::No {
        batched_cgemm_split(
            conj_a, conj_b, m, nn, k, bins, &a_re, &a_im, sa, &b_re, &b_im, sb, &mut c_re,
            &mut c_im, sc,
        );
    } else {
        // The batched form takes B `[k×n]` only: B `[n×k]` goes bin by bin.
        for bin in 0..bins {
            let a = (&a_re[bin * sa..][..m * k], &a_im[bin * sa..][..m * k]);
            let b = (&b_re[bin * sb..][..k * nn], &b_im[bin * sb..][..k * nn]);
            let c = (&mut c_re[bin * sc..][..sc], &mut c_im[bin * sc..][..sc]);
            g.bin(a, b, c);
        }
    }
    let lanes = m * nn;
    let run = crop.size * lanes;
    let (mut crop_re, mut crop_im) = (vec![f32::NAN; half * run], vec![f32::NAN; half * run]);
    for c in 0..half {
        let col = c * n * sc..(c + 1) * n * sc;
        let (col_re, col_im) = (&mut c_re[col.clone()], &mut c_im[col]);
        fft_lanes_inplace(col_re, col_im, &plan, Direction::Inverse, sc);
        for t in 0..crop.size {
            let at = (crop.offset + t) * sc;
            crop_re[c * run + t * lanes..][..lanes].copy_from_slice(&col_re[at..][..lanes]);
            crop_im[c * run + t * lanes..][..lanes].copy_from_slice(&col_im[at..][..lanes]);
        }
    }
    crop.inverse(p, lanes, &crop_re, &crop_im)
}

/// `run` at pool width `width`, its scratch out of the calling thread's
/// arena after two NaN-filled buffers of every size class up to 2¹⁷ floats
/// (more than any stage here checks out at width 4) went back to it. They
/// are taken largest first and held together, so each is a buffer of its
/// own class, NaN over its whole length.
fn poisoned<T>(width: usize, run: impl FnOnce() -> T) -> T {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(width);
    pool.build().expect("pool").install(|| {
        let held: Vec<_> = (0..=17)
            .rev()
            .flat_map(|e| [take_f32(1 << e), take_f32(1 << e)])
            .map(|mut buf| {
                buf.fill(f32::NAN);
                buf
            })
            .collect();
        drop(held);
        run()
    })
}

/// `(n, A window, B window, crop, (m, n, k))`, a window `(h, w, offset)`
/// and the crop `(size, offset)`: every plan of {2, 4, 16, 32, 128};
/// windows whose forward skips its first stages (ending at or before `n/2`:
/// A in the first and last rows, B in the second, fourth and fifth) and
/// windows off the origin; odd crops at odd and even offsets; a product of
/// more lanes than one block of the row passes (33·32).
type Case = (usize, [usize; 3], [usize; 3], [usize; 2], [usize; 3]);
const CASES: [Case; 6] = [
    (2, [1, 1, 0], [2, 2, 0], [1, 1], [2, 3, 2]),
    (4, [2, 2, 1], [1, 1, 0], [3, 1], [3, 2, 5]),
    (4, [3, 3, 0], [2, 2, 1], [3, 0], [33, 32, 2]),
    (16, [9, 9, 3], [7, 7, 0], [5, 2], [4, 3, 33]),
    (32, [17, 13, 2], [9, 9, 0], [11, 3], [2, 5, 3]),
    (128, [11, 11, 0], [118, 118, 5], [7, 0], [2, 2, 2]),
];

/// Both storages of B (so both CGEMM bodies), all four conjugation pairs,
/// and every operand's planes in both lane orders — a transposed product
/// is the flipped orientation's output, read back in the output's order.
#[test]
fn fused_stage_is_the_unfused_composition_bit_for_bit() {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let signal = |len: usize, f: f32| (0..len).map(|i| (i as f32 * f).sin()).collect::<Vec<_>>();
    for (n, [ha, wa, oa], [hb, wb, ob], [size, offset], [m, nn, k]) in CASES {
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
            for transb in [Transpose::No, Transpose::Yes] {
                for conj in [(false, false), (false, true), (true, false), (true, true)] {
                    let g = Gemm {
                        mnk: (m, nn, k),
                        transb,
                        conj,
                    };
                    let what = format!("n {n} {g:?} transposed {transposed}");
                    let want = poisoned(1, || unfused(&p, [&a, &b], g, &crop));
                    assert!(want.iter().all(|v| v.is_finite()), "{what}: oracle");
                    for width in 1..=4 {
                        let got = poisoned(width, || fused(&p, [&a, &b], g, &crop));
                        assert_eq!(bits(&got), bits(&want), "{what}: width {width}");
                    }
                }
            }
        }
    }
}
