//! The blocked, packed, parallel SGEMM driver.
//!
//! One Goto/BLIS loop nest:
//!
//! ```text
//! for each nc column panel of C            (sequential)
//!   for each kc slab of the inner dimension (sequential, fixed order)
//!     pack op(B)[slab, panel] once          → arena, shared read-only
//!     for each mc row block                 (parallel: one owner per C row)
//!       pack op(A)[block, slab] once        → the task's thread-local arena
//!       for each nr strip of the B panel    (stays in L1)
//!         for each mr strip of the A block  (streams from L2)
//!           micro-kernel: C tile ← alpha·A·B + beta'·C
//! ```
//!
//! Every element of either operand is packed exactly once per slab it
//! takes part in, the micro-kernel applies its tile straight to C
//! (`beta' = beta` on the first slab, `1` after), and the slab order is
//! fixed, so a C element has one owner and one summation order whatever
//! the pool width. Pack buffers come from the thread-local
//! [`gcnn_tensor::workspace`] arena sized to `min(problem, block)`, so
//! steady-state calls perform no heap allocation and a LeNet-sized call
//! does not hold an AlexNet-sized panel.
//!
//! Products with at most one register strip of rows against a B stored
//! along `k` (`C = A·Bᵀ`, the FC-forward shape) skip packing entirely:
//! [`small_m_dots`] streams each stored B row once through a multi-row
//! dot kernel. That choice keys only on shape and storage order.

use crate::blocking::BlockSizes;
use crate::kernel::{self, dot_tile};
use crate::pack::{pack_a, pack_b, OperandView};
use gcnn_tensor::workspace;
use rayon::prelude::*;

/// Transpose flag for a GEMM operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transpose {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the stored operand.
    Yes,
}

impl Transpose {
    fn flag(self) -> bool {
        matches!(self, Transpose::Yes)
    }
}

/// `C ← alpha·op(A)·op(B) + beta·C` with default block sizes.
///
/// All matrices are row-major; `lda`/`ldb`/`ldc` are the *stored* leading
/// dimensions. `op(A)` is logically `m×k` and `op(B)` is `k×n`.
///
/// ```
/// use gcnn_gemm::{sgemm, Transpose};
///
/// // C(2×2) = A(2×3) · B(3×2)
/// let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
/// let b = [1.0, 0.0, 0.0, 1.0, 1.0, 1.0];
/// let mut c = [0.0f32; 4];
/// sgemm(Transpose::No, Transpose::No, 2, 2, 3,
///       1.0, &a, 3, &b, 2, 0.0, &mut c, 2);
/// assert_eq!(c, [4.0, 5.0, 10.0, 11.0]);
/// ```
///
/// # Panics
/// If `lda`, `ldb` or `ldc` is smaller than the stored row of its
/// matrix (`k`/`m` for A, `n`/`k` for B by transpose flag, `n` for C),
/// or if `a`, `b` or `c` is shorter than `(rows − 1)·ld + cols` of its
/// stored matrix.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn sgemm(
    transa: Transpose,
    transb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
) {
    let (a_rows, a_cols) = if transa.flag() { (k, m) } else { (m, k) };
    let (b_rows, b_cols) = if transb.flag() { (n, k) } else { (k, n) };
    check_operand("sgemm", "a", a, a_rows, a_cols, lda);
    check_operand("sgemm", "b", b, b_rows, b_cols, ldb);
    let av = OperandView::new(a, lda, transa.flag());
    let bv = OperandView::new(b, ldb, transb.flag());
    sgemm_blocked(
        m,
        n,
        k,
        alpha,
        &av,
        &bv,
        beta,
        c,
        ldc,
        BlockSizes::default(),
    );
}

/// Check one stored operand of `routine` against its slice: the
/// packing and dot kernels slice rows out of `data`, and the split
/// CGEMM loads and stores through pointers, on the strength of this. An
/// empty operand (`k == 0`) occupies nothing and constrains nothing; a
/// size that overflows fits no slice.
#[inline]
pub(crate) fn check_operand(
    routine: &str,
    name: &str,
    data: &[f32],
    rows: usize,
    cols: usize,
    ld: usize,
) {
    if rows == 0 || cols == 0 {
        return;
    }
    assert!(
        ld >= cols,
        "{routine}: ld{name} {ld} < stored row length {cols}"
    );
    let need = (rows - 1)
        .checked_mul(ld)
        .and_then(|v| v.checked_add(cols))
        .unwrap_or(usize::MAX);
    assert!(
        data.len() >= need,
        "{routine}: {name} has {} elements, stored {rows}x{cols} (ld {ld}) needs {need}",
        data.len()
    );
}

/// `C ← alpha·op(A)·op(B) + beta·C` over operand views, with nominal
/// block sizes (exposed so tests can force edge tiles) that the loop nest
/// walks [snapped](BlockSizes::snapped_to) to the selected kernel's
/// tile. A view's stored rows may be windows of an image
/// ([`OperandView::windows`]): a convolution's column matrix need not
/// be written out.
///
/// # Panics
/// On invalid `blocks`, if a view's stored rows (`k`/`m` of A, `n`/`k`
/// of B by transpose flag) do not lie inside its data, or if `ldc < n`
/// or `c` is shorter than `(m − 1)·ldc + n`.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn sgemm_blocked(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    av: &OperandView<'_>,
    bv: &OperandView<'_>,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
    blocks: BlockSizes,
) {
    assert!(blocks.validate(), "sgemm: invalid block sizes {blocks:?}");
    let (a_rows, a_cols) = if av.transposed { (k, m) } else { (m, k) };
    let (b_rows, b_cols) = if bv.transposed { (n, k) } else { (k, n) };
    av.check("a", a_rows, a_cols);
    bv.check("b", b_rows, b_cols);
    check_operand("sgemm", "c", c, m, n, ldc);

    let _span = gcnn_trace::span("gemm.sgemm");
    sgemm_calls().inc();

    if m == 0 || n == 0 {
        return;
    }
    let c = &mut c[..(m - 1) * ldc + n];
    if k == 0 || alpha == 0.0 {
        // The product contributes nothing: C ← beta·C, parallel over rows.
        c.par_chunks_mut(ldc)
            .for_each(|row| scale_row(&mut row[..n], beta));
        return;
    }
    let kernel = kernel::select();
    let (mr, nr) = (kernel.mr(), kernel.nr());
    if !av.transposed && bv.transposed && m <= mr {
        small_m_dots(m, n, k, alpha, av, bv, beta, c, ldc);
        return;
    }

    let BlockSizes { mc, kc, nc } = blocks.snapped_to(&kernel);
    // One checkout per buffer per call, sized to the largest block this
    // problem actually has.
    let a_len = mc.min(m.next_multiple_of(mr)) * kc.min(k);
    let mut bbuf = workspace::take_f32(nc.min(n.next_multiple_of(nr)) * kc.min(k));

    for j0 in (0..n).step_by(nc) {
        let nc_eff = nc.min(n - j0);
        for p0 in (0..k).step_by(kc) {
            let kc_eff = kc.min(k - p0);
            let bpanel = &mut bbuf[..nc_eff.next_multiple_of(nr) * kc_eff];
            pack_b(bv, p0, j0, kc_eff, nc_eff, nr, bpanel);
            let bpanel = &*bpanel;
            let beta = if p0 == 0 { beta } else { 1.0 };

            row_blocks().add(m.div_ceil(mc) as u64);
            // A chunk of `mc·ldc` elements is exactly one row block of
            // C, so the borrow checker sees the one-owner-per-row rule.
            c.par_chunks_mut(mc * ldc)
                .enumerate()
                .for_each(|(ib, crows)| {
                    let i0 = ib * mc;
                    let mc_eff = mc.min(m - i0);
                    let mut abuf = workspace::take_f32(a_len);
                    let apanel = &mut abuf[..mc_eff.next_multiple_of(mr) * kc_eff];
                    pack_a(av, i0, p0, mc_eff, kc_eff, mr, apanel);

                    for (sb, bstrip) in bpanel.chunks_exact(nr * kc_eff).enumerate() {
                        let col = sb * nr;
                        let n_eff = nr.min(nc_eff - col);
                        for (sa, astrip) in apanel.chunks_exact(mr * kc_eff).enumerate() {
                            let row = sa * mr;
                            let m_eff = mr.min(mc_eff - row);
                            let ctile = &mut crows[row * ldc + j0 + col..];
                            if m_eff == mr && n_eff == nr {
                                kernel.run(kc_eff, alpha, astrip, bstrip, beta, ctile, ldc);
                            } else {
                                kernel.run_edge(
                                    kc_eff, alpha, astrip, bstrip, beta, ctile, ldc, m_eff, n_eff,
                                );
                            }
                        }
                    }
                });
        }
    }
}

/// B rows per parallel task in [`small_m_dots`] (even: rows are
/// consumed in pairs).
const SMALL_M_ROWS_PER_TASK: usize = 64;

/// `C ← alpha·A·Bᵀ + beta·C` for a handful of A rows, with no packing:
/// both operands are stored along `k`, so `C[i][j]` is the dot product
/// of stored row `i` of A and stored row `j` of B. B rows stream from
/// memory once, two at a time, against four A rows at a time
/// ([`dot_tile`]).
///
/// The dots land in an arena buffer laid out `[j][i]` so that a
/// contiguous chunk belongs to one task (columns of the row-major C do
/// not), and a final pass folds them into C.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
fn small_m_dots(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    av: &OperandView<'_>,
    bv: &OperandView<'_>,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
) {
    let arow = |i: usize| av.stored_row(i, k);
    let brow = |j: usize| bv.stored_row(j, k);
    let mut dots = workspace::take_f32(n * m);
    dots.par_chunks_mut(SMALL_M_ROWS_PER_TASK * m)
        .enumerate()
        .for_each(|(t, chunk)| {
            let j0 = t * SMALL_M_ROWS_PER_TASK;
            // Pairs of B rows; an odd `n` leaves a single last row.
            for (pair, out) in chunk.chunks_mut(2 * m).enumerate() {
                let j = j0 + 2 * pair;
                if out.len() == 2 * m {
                    dots_against(m, arow, [brow(j), brow(j + 1)], out);
                } else {
                    dots_against(m, arow, [brow(j)], out);
                }
            }
        });
    for (i, crow) in c.chunks_mut(ldc).enumerate() {
        for (j, x) in crow[..n].iter_mut().enumerate() {
            let v = alpha * dots[j * m + i];
            *x = if beta == 0.0 { v } else { v + beta * *x };
        }
    }
}

/// Every A row against the `Q` B rows `b`: `out[q·m + i] = A[i]·b[q]`,
/// A rows four at a time and then singly.
fn dots_against<'a, const Q: usize>(
    m: usize,
    arow: impl Fn(usize) -> &'a [f32],
    b: [&[f32]; Q],
    out: &mut [f32],
) {
    let mut i = 0;
    while i + 4 <= m {
        let tile = dot_tile([arow(i), arow(i + 1), arow(i + 2), arow(i + 3)], b);
        for (r, trow) in tile.iter().enumerate() {
            for (q, &v) in trow.iter().enumerate() {
                out[q * m + i + r] = v;
            }
        }
        i += 4;
    }
    for i in i..m {
        let [trow] = dot_tile([arow(i)], b);
        for (q, &v) in trow.iter().enumerate() {
            out[q * m + i] = v;
        }
    }
}

/// Cached `gemm.sgemm_calls` counter: one tick per [`sgemm_blocked`].
fn sgemm_calls() -> &'static gcnn_trace::Counter {
    static C: std::sync::OnceLock<gcnn_trace::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| gcnn_trace::counter("gemm.sgemm_calls"))
}

/// Cached `gemm.row_blocks` counter: row-block tasks scheduled — one per
/// `mc` row block per packed B panel, the unit of GEMM parallelism, so
/// row blocks ÷ calls is the mean task fan-out the pool sees.
fn row_blocks() -> &'static gcnn_trace::Counter {
    static C: std::sync::OnceLock<gcnn_trace::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| gcnn_trace::counter("gemm.row_blocks"))
}

/// `row ← beta·row`, honoring the BLAS convention that `beta == 0`
/// overwrites (so pre-existing NaN/Inf never propagates).
fn scale_row(row: &mut [f32], beta: f32) {
    if beta == 0.0 {
        row.fill(0.0);
    } else if beta != 1.0 {
        for v in row {
            *v *= beta;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::sgemm_ref;
    use gcnn_tensor::Matrix;

    /// `op(A)·op(B)` of two [`Matrix`]es as a new one.
    fn sgemm_mat(transa: Transpose, a: &Matrix, transb: Transpose, b: &Matrix) -> Matrix {
        let (m, ka) = match transa {
            Transpose::No => (a.rows(), a.cols()),
            Transpose::Yes => (a.cols(), a.rows()),
        };
        let (kb, n) = match transb {
            Transpose::No => (b.rows(), b.cols()),
            Transpose::Yes => (b.cols(), b.rows()),
        };
        assert_eq!(ka, kb, "sgemm_mat: inner dimensions {ka} vs {kb}");
        let mut c = Matrix::zeros(m, n);
        sgemm(
            transa,
            transb,
            m,
            n,
            ka,
            1.0,
            a.as_slice(),
            a.cols(),
            b.as_slice(),
            b.cols(),
            0.0,
            c.as_mut_slice(),
            n,
        );
        c
    }

    fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
            })
            .collect()
    }

    #[allow(clippy::too_many_arguments)] // BLAS-style signature
    fn check(
        transa: Transpose,
        transb: Transpose,
        m: usize,
        n: usize,
        k: usize,
        alpha: f32,
        beta: f32,
        blocks: BlockSizes,
    ) {
        let (ar, ac) = match transa {
            Transpose::No => (m, k),
            Transpose::Yes => (k, m),
        };
        let (br, bc) = match transb {
            Transpose::No => (k, n),
            Transpose::Yes => (n, k),
        };
        let a = rand_vec(ar * ac, 1);
        let b = rand_vec(br * bc, 2);
        let c0 = rand_vec(m * n, 3);

        let mut c_opt = c0.clone();
        let av = OperandView::new(&a, ac, transa.flag());
        let bv = OperandView::new(&b, bc, transb.flag());
        sgemm_blocked(m, n, k, alpha, &av, &bv, beta, &mut c_opt, n, blocks);
        let mut c_ref = c0;
        sgemm_ref(
            transa.flag(),
            transb.flag(),
            m,
            n,
            k,
            alpha,
            &a,
            ac,
            &b,
            bc,
            beta,
            &mut c_ref,
            n,
        );
        let max_diff = c_opt
            .iter()
            .zip(&c_ref)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_diff < 1e-3 * (k as f32).sqrt(),
            "({m},{n},{k}) ta={transa:?} tb={transb:?}: diff {max_diff}"
        );
    }

    #[test]
    fn matches_reference_square() {
        check(
            Transpose::No,
            Transpose::No,
            64,
            64,
            64,
            1.0,
            0.0,
            BlockSizes::default_sizes(),
        );
    }

    #[test]
    fn matches_reference_rectangular() {
        check(
            Transpose::No,
            Transpose::No,
            37,
            53,
            29,
            1.5,
            0.5,
            BlockSizes::default_sizes(),
        );
    }

    #[test]
    fn matches_reference_tiny_blocks() {
        // Tiny blocks force every edge-tile path.
        check(
            Transpose::No,
            Transpose::No,
            33,
            19,
            23,
            -0.5,
            2.0,
            BlockSizes::tiny(),
        );
    }

    #[test]
    fn matches_reference_transposed_a() {
        check(
            Transpose::Yes,
            Transpose::No,
            40,
            24,
            56,
            1.0,
            0.0,
            BlockSizes::tiny(),
        );
    }

    #[test]
    fn matches_reference_transposed_b() {
        check(
            Transpose::No,
            Transpose::Yes,
            24,
            40,
            56,
            1.0,
            1.0,
            BlockSizes::tiny(),
        );
    }

    #[test]
    fn matches_reference_both_transposed() {
        check(
            Transpose::Yes,
            Transpose::Yes,
            31,
            17,
            13,
            2.0,
            0.0,
            BlockSizes::tiny(),
        );
    }

    #[test]
    fn dimension_one_edge_cases() {
        for (m, n, k) in [(1, 1, 1), (1, 64, 64), (64, 1, 64), (64, 64, 1)] {
            check(
                Transpose::No,
                Transpose::No,
                m,
                n,
                k,
                1.0,
                0.0,
                BlockSizes::default_sizes(),
            );
        }
    }

    #[test]
    fn zero_k_scales_by_beta_only() {
        let mut c = vec![2.0; 4];
        sgemm(
            Transpose::No,
            Transpose::No,
            2,
            2,
            0,
            1.0,
            &[],
            1,
            &[],
            1,
            0.5,
            &mut c,
            2,
        );
        assert_eq!(c, vec![1.0; 4]);
    }

    #[test]
    fn alpha_zero_skips_product() {
        let a = vec![f32::NAN; 4];
        let b = vec![f32::NAN; 4];
        let mut c = vec![3.0; 4];
        sgemm(
            Transpose::No,
            Transpose::No,
            2,
            2,
            2,
            0.0,
            &a,
            2,
            &b,
            2,
            1.0,
            &mut c,
            2,
        );
        assert_eq!(c, vec![3.0; 4]);
    }

    #[test]
    fn sgemm_mat_identity() {
        let i = Matrix::from_fn(5, 5, |r, c| if r == c { 1.0 } else { 0.0 });
        let m = Matrix::from_fn(5, 3, |r, c| (r * 3 + c) as f32);
        let p = sgemm_mat(Transpose::No, &i, Transpose::No, &m);
        assert_eq!(p, m);
    }

    #[test]
    fn sgemm_mat_transpose_shapes() {
        let a = Matrix::from_fn(3, 5, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(3, 4, |r, c| (r * c) as f32);
        let p = sgemm_mat(Transpose::Yes, &a, Transpose::No, &b); // 5x4
        assert_eq!(p.rows(), 5);
        assert_eq!(p.cols(), 4);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn sgemm_mat_rejects_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        sgemm_mat(Transpose::No, &a, Transpose::No, &b);
    }
}
