//! The fused column stage against the unfused composition it replaced, bit
//! for bit: `forward_rows_into` on both factors, `product_columns` with one
//! `cgemm_split` per bin and `inverse_rows_into` on the crop, against
//! `forward_lanes_into` on both factors, one `batched_cgemm_split_op` over
//! the bin-major operands and a cropped `inverse_lanes_into` — out of
//! NaN-poisoned scratch into NaN-filled outputs, at pool widths 1 to 4.

use gcnn_fft::{Columns, LaneOrder, RfftPlan};
use gcnn_gemm::{batched_cgemm_split_op, cgemm_split, Transpose};
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

/// The product's `size×size` crop at `offset`, its planes in `order`.
struct Crop {
    size: usize,
    offset: usize,
    order: LaneOrder,
}

fn fused(p: &RfftPlan, [a, b]: [&Factor; 2], g: Gemm, crop: &Crop) -> Vec<f32> {
    let half = p.half_cols();
    let data_rows = |f: &Factor| {
        let len = half * f.hw.0 * f.lanes;
        let (mut re, mut im) = (vec![f32::NAN; len], vec![f32::NAN; len]);
        p.forward_rows_into(f.src, f.hw, f.offset, f.order, f.lanes, &mut re, &mut im);
        (re, im)
    };
    let ((a_re, a_im), (b_re, b_im)) = (data_rows(a), data_rows(b));
    let (m, n, k) = g.mnk;
    let ldb = if g.transb == Transpose::Yes { k } else { n };
    let len = half * crop.size * m * n;
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
        |(ar, ai), (br, bi), (cr, ci)| {
            let (conj_a, conj_b) = g.conj;
            cgemm_split(
                g.transb, conj_a, conj_b, m, n, k, ar, ai, k, br, bi, ldb, cr, ci, n,
            )
        },
    );
    let mut out = vec![f32::NAN; m * n * crop.size * crop.size];
    p.inverse_rows_into(
        &c_re,
        &c_im,
        m * n,
        (crop.size, crop.offset),
        crop.order,
        &mut out,
    );
    out
}

fn unfused(p: &RfftPlan, [a, b]: [&Factor; 2], g: Gemm, crop: &Crop) -> Vec<f32> {
    let bins = p.spectrum_len();
    let spectra = |f: &Factor| {
        let (mut re, mut im) = (
            vec![f32::NAN; bins * f.lanes],
            vec![f32::NAN; bins * f.lanes],
        );
        p.forward_lanes_into(f.src, f.hw, f.offset, f.order, f.lanes, &mut re, &mut im);
        (re, im)
    };
    let ((a_re, a_im), (b_re, b_im)) = (spectra(a), spectra(b));
    let (m, n, k) = g.mnk;
    let (mut c_re, mut c_im) = (vec![f32::NAN; bins * m * n], vec![f32::NAN; bins * m * n]);
    let (a_op, b_op) = ((&a_re[..], &a_im[..], m * k), (&b_re[..], &b_im[..], k * n));
    let c = (&mut c_re[..], &mut c_im[..], m * n);
    let (conj_a, conj_b) = g.conj;
    batched_cgemm_split_op(g.transb, conj_a, conj_b, m, n, k, bins, a_op, b_op, c);
    let mut out = vec![f32::NAN; m * n * crop.size * crop.size];
    let window = (crop.size, crop.offset);
    p.inverse_lanes_into(&mut c_re, &mut c_im, m * n, window, crop.order, &mut out);
    out
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
/// windows off the origin; odd crops at odd and even offsets; a first
/// factor of more lanes than one block of the unfused passes (33·32).
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
