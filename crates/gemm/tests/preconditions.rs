//! Precondition tests for the GEMM entry points, real and
//! split-complex: a short packed strip, an undersized C tile, a leading
//! dimension smaller than the stored row or a slice that does not cover
//! its operand must panic with a message at the API boundary — the raw
//! kernel bodies and the packing routines index on the strength of
//! these checks, so they are `assert!`s, live in release builds too.

use gcnn_gemm::kernel;
use gcnn_gemm::{cgemm_split, sgemm, Transpose};

#[test]
#[should_panic(expected = "A strip short")]
fn microkernel_rejects_short_a_strip() {
    let (k, kc) = (kernel::select(), 4);
    let a = vec![0.0f32; kc * k.mr() - 1];
    let b = vec![0.0f32; kc * k.nr()];
    let mut c = vec![0.0f32; k.mr() * k.nr()];
    k.run(kc, 1.0, &a, &b, 0.0, &mut c, k.nr());
}

#[test]
#[should_panic(expected = "B strip short")]
fn microkernel_rejects_short_b_strip() {
    let (k, kc) = (kernel::select(), 4);
    let a = vec![0.0f32; kc * k.mr()];
    let b = vec![0.0f32; kc * k.nr() - 1];
    let mut c = vec![0.0f32; k.mr() * k.nr()];
    k.run(kc, 1.0, &a, &b, 0.0, &mut c, k.nr());
}

#[test]
#[should_panic(expected = "C tile out of bounds")]
fn microkernel_rejects_wrong_accumulator_size() {
    for k in kernel::available() {
        let kc = 4;
        let a = vec![0.0f32; kc * k.mr()];
        let b = vec![0.0f32; kc * k.nr()];
        let mut c = vec![0.0f32; k.mr() * k.nr() - 1];
        k.run(kc, 1.0, &a, &b, 0.0, &mut c, k.nr());
    }
}

#[test]
#[should_panic(expected = "C tile out of bounds")]
fn microkernel_rejects_ldc_below_tile_width() {
    let (k, kc) = (kernel::select(), 2);
    let a = vec![0.0f32; kc * k.mr()];
    let b = vec![0.0f32; kc * k.nr()];
    let mut c = vec![0.0f32; k.mr() * k.nr()];
    k.run(kc, 1.0, &a, &b, 0.0, &mut c, k.nr() - 1);
}

/// A 5×7 · 7×3 product whose operand `which` is wrong in the way
/// `fault` says, under the given transposes.
fn faulty_sgemm(ta: Transpose, tb: Transpose, which: char, fault: &str) {
    let (m, n, k) = (5usize, 3usize, 7usize);
    let (a_rows, a_cols) = if ta == Transpose::Yes { (k, m) } else { (m, k) };
    let (b_rows, b_cols) = if tb == Transpose::Yes { (n, k) } else { (k, n) };
    let (mut lda, mut ldb, mut ldc) = (a_cols, b_cols, n);
    let (mut a_len, mut b_len, mut c_len) = (a_rows * lda, b_rows * ldb, m * ldc);
    let (ld, len) = match which {
        'a' => (&mut lda, &mut a_len),
        'b' => (&mut ldb, &mut b_len),
        _ => (&mut ldc, &mut c_len),
    };
    match fault {
        "ld" => *ld -= 1,
        _ => *len -= 1,
    }
    let (a, b) = (vec![1.0f32; a_len], vec![1.0f32; b_len]);
    let mut c = vec![0.0f32; c_len];
    sgemm(ta, tb, m, n, k, 1.0, &a, lda, &b, ldb, 0.0, &mut c, ldc);
}

#[test]
#[should_panic(expected = "lda 6 < stored row length 7")]
fn sgemm_rejects_small_lda() {
    faulty_sgemm(Transpose::No, Transpose::No, 'a', "ld");
}

#[test]
#[should_panic(expected = "lda 4 < stored row length 5")]
fn sgemm_rejects_small_lda_transposed() {
    faulty_sgemm(Transpose::Yes, Transpose::No, 'a', "ld");
}

#[test]
#[should_panic(expected = "ldb 2 < stored row length 3")]
fn sgemm_rejects_small_ldb() {
    faulty_sgemm(Transpose::No, Transpose::No, 'b', "ld");
}

#[test]
#[should_panic(expected = "ldb 6 < stored row length 7")]
fn sgemm_rejects_small_ldb_transposed() {
    faulty_sgemm(Transpose::No, Transpose::Yes, 'b', "ld");
}

#[test]
#[should_panic(expected = "ldc 2 < stored row length 3")]
fn sgemm_rejects_small_ldc() {
    faulty_sgemm(Transpose::No, Transpose::No, 'c', "ld");
}

#[test]
#[should_panic(expected = "a has 34 elements, stored 5x7 (ld 7) needs 35")]
fn sgemm_rejects_short_a() {
    faulty_sgemm(Transpose::No, Transpose::No, 'a', "len");
}

#[test]
#[should_panic(expected = "a has 34 elements, stored 7x5 (ld 5) needs 35")]
fn sgemm_rejects_short_a_transposed() {
    faulty_sgemm(Transpose::Yes, Transpose::Yes, 'a', "len");
}

#[test]
#[should_panic(expected = "b has 20 elements, stored 7x3 (ld 3) needs 21")]
fn sgemm_rejects_short_b() {
    faulty_sgemm(Transpose::Yes, Transpose::No, 'b', "len");
}

#[test]
#[should_panic(expected = "b has 20 elements, stored 3x7 (ld 7) needs 21")]
fn sgemm_rejects_short_b_transposed() {
    // m = 5 rows against a k-contiguous B: the no-pack small-M path on
    // every kernel in the table.
    faulty_sgemm(Transpose::No, Transpose::Yes, 'b', "len");
}

#[test]
#[should_panic(expected = "c has 14 elements, stored 5x3 (ld 3) needs 15")]
fn sgemm_rejects_short_c() {
    faulty_sgemm(Transpose::No, Transpose::No, 'c', "len");
}

/// A 5×7 · 7×3 split-complex product, B conjugated and stored as `tb`
/// says, whose operand `which` is wrong in the way `fault` says: a
/// leading dimension one below the stored row, or an imaginary plane one
/// float short (the real plane is whole, so both planes must be checked).
fn faulty_cgemm(tb: Transpose, which: char, fault: &str) {
    let (m, n, k) = (5usize, 3usize, 7usize);
    let b_cols = if tb == Transpose::Yes { k } else { n };
    let (mut lda, mut ldb, mut ldc) = (k, b_cols, n);
    let (mut a_cut, mut b_cut, mut c_cut) = (0, 0, 0);
    let (ld, cut) = match which {
        'a' => (&mut lda, &mut a_cut),
        'b' => (&mut ldb, &mut b_cut),
        _ => (&mut ldc, &mut c_cut),
    };
    match fault {
        "ld" => *ld -= 1,
        _ => *cut = 1,
    }
    let (a, b) = (vec![1.0f32; m * k], vec![1.0f32; k * n]);
    let (mut c_re, mut c_im) = (vec![0.0f32; m * n], vec![0.0f32; m * n - c_cut]);
    let (a_im, b_im) = (&a[..m * k - a_cut], &b[..k * n - b_cut]);
    cgemm_split(
        tb, false, true, m, n, k, &a, a_im, lda, &b, b_im, ldb, &mut c_re, &mut c_im, ldc,
    );
}

#[test]
#[should_panic(expected = "cgemm_split: lda 6 < stored row length 7")]
fn cgemm_split_rejects_small_lda() {
    faulty_cgemm(Transpose::No, 'a', "ld");
}

#[test]
#[should_panic(expected = "cgemm_split: ldb 2 < stored row length 3")]
fn cgemm_split_rejects_small_ldb() {
    faulty_cgemm(Transpose::No, 'b', "ld");
}

#[test]
#[should_panic(expected = "cgemm_split: ldb 6 < stored row length 7")]
fn cgemm_split_rejects_small_ldb_transposed() {
    faulty_cgemm(Transpose::Yes, 'b', "ld");
}

#[test]
#[should_panic(expected = "cgemm_split: ldc 2 < stored row length 3")]
fn cgemm_split_rejects_small_ldc() {
    faulty_cgemm(Transpose::No, 'c', "ld");
}

#[test]
#[should_panic(expected = "cgemm_split: a has 34 elements, stored 5x7 (ld 7) needs 35")]
fn cgemm_split_rejects_short_a() {
    faulty_cgemm(Transpose::No, 'a', "len");
}

#[test]
#[should_panic(expected = "cgemm_split: b has 20 elements, stored 7x3 (ld 3) needs 21")]
fn cgemm_split_rejects_short_b() {
    faulty_cgemm(Transpose::No, 'b', "len");
}

#[test]
#[should_panic(expected = "cgemm_split: b has 20 elements, stored 3x7 (ld 7) needs 21")]
fn cgemm_split_rejects_short_b_transposed() {
    faulty_cgemm(Transpose::Yes, 'b', "len");
}

#[test]
#[should_panic(expected = "cgemm_split: c has 14 elements, stored 5x3 (ld 3) needs 15")]
fn cgemm_split_rejects_short_c() {
    faulty_cgemm(Transpose::No, 'c', "len");
}
