//! Debug-build precondition tests for the slice-primitive dispatchers:
//! mismatched buffer lengths must trip the `debug_assert!` guards. The
//! whole file is gated on `debug_assertions` because release CI compiles
//! the asserts away (the guards are defense-in-depth, not release-mode
//! bounds checks — the bodies run over the shorter of the two lengths,
//! so they stay in bounds whatever those are; see DESIGN.md "Soundness
//! auditing").

#![cfg(debug_assertions)]

use gcnn_tensor::simd;

#[test]
#[should_panic]
fn saxpy_rejects_length_mismatch() {
    let x = [1.0f32; 8];
    let mut y = [0.0f32; 7];
    simd::saxpy(2.0, &x, &mut y);
}

#[test]
#[should_panic]
fn scale_add_rejects_length_mismatch() {
    let x = [1.0f32; 5];
    let mut y = [0.0f32; 9];
    simd::scale_add(0.5, &mut y, &x);
}
