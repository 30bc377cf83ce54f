//! Property-based tests for the tensor substrate.

use gcnn_tensor::im2col::{col2im, im2col, ConvGeometry};
use gcnn_tensor::{Matrix, Shape4};
use proptest::prelude::*;

fn small_shape() -> impl Strategy<Value = Shape4> {
    (1usize..4, 1usize..4, 1usize..8, 1usize..8).prop_map(|(n, c, h, w)| Shape4::new(n, c, h, w))
}

proptest! {
    /// NCHW → NCHWc → NCHW is the identity for any channel count,
    /// including remainders (`c % block != 0`), any block, and any baked
    /// spatial padding — the contract `Network::infer_ws` relies on at
    /// every layout transition.
    #[test]
    fn nchwc_pack_unpack_roundtrip(
        shape in small_shape(),
        wide_c in 1usize..20,
        block_sel in 0usize..2,
        pad in 0usize..3,
        seed in 0u64..1000,
    ) {
        use gcnn_tensor::nchwc::{pack_nchwc_into, packed_len, unpack_nchwc_from};
        // Stretch the channel axis past the block width so remainder
        // lanes (and multi-block counts) are actually exercised.
        let shape = Shape4::new(shape.n, wide_c, shape.h, shape.w);
        let block = [8usize, 16][block_sel];
        let t = gcnn_tensor::init::uniform_tensor(shape, -1.0, 1.0, seed);
        // Remainder lanes and padded borders must be zero, never NaN —
        // the conv kernels read them unconditionally.
        let mut padded = vec![f32::NAN; packed_len(shape, block, pad)];
        pack_nchwc_into(t.as_slice(), shape, block, pad, &mut padded);
        prop_assert!(padded.iter().all(|v| v.is_finite()));
        // Unpack works on pad-0 buffers (the only form the network
        // ever unpacks) and must be the exact inverse of pack.
        let mut packed = vec![f32::NAN; packed_len(shape, block, 0)];
        pack_nchwc_into(t.as_slice(), shape, block, 0, &mut packed);
        let mut back = vec![0.0f32; shape.len()];
        unpack_nchwc_from(&packed, shape, block, &mut back);
        prop_assert_eq!(back.as_slice(), t.as_slice());
    }

    /// Repacking a pad-0 packed buffer to a padded one preserves every
    /// interior value (the packed-to-packed transition between adjacent
    /// blocked conv layers).
    #[test]
    fn nchwc_repad_preserves_interior(
        shape in small_shape(),
        wide_c in 1usize..20,
        pad in 1usize..3,
        seed in 0u64..1000,
    ) {
        use gcnn_tensor::nchwc::{pack_nchwc_into, packed_len, repad_packed};
        let shape = Shape4::new(shape.n, wide_c, shape.h, shape.w);
        let block = 8usize;
        let t = gcnn_tensor::init::uniform_tensor(shape, -1.0, 1.0, seed);
        let mut tight = vec![0.0f32; packed_len(shape, block, 0)];
        pack_nchwc_into(t.as_slice(), shape, block, 0, &mut tight);
        let mut padded = vec![0.0f32; packed_len(shape, block, pad)];
        repad_packed(&tight, shape, block, pad, &mut padded);
        let mut direct = vec![0.0f32; packed_len(shape, block, pad)];
        pack_nchwc_into(t.as_slice(), shape, block, pad, &mut direct);
        prop_assert_eq!(padded, direct);
    }

    /// im2col followed by summing each column group equals a box filter —
    /// here we only check the adjoint identity <im2col(x), y> = <x, col2im(y)>,
    /// which pins both functions to each other.
    #[test]
    fn im2col_col2im_adjoint(
        in_hw in 3usize..9,
        channels in 1usize..3,
        kernel in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in 0u64..1000,
    ) {
        let geom = ConvGeometry { in_h: in_hw, in_w: in_hw, channels, kernel, stride, pad };
        prop_assume!(geom.is_valid());
        let xlen = channels * in_hw * in_hw;
        let x = gcnn_tensor::init::uniform_matrix(1, xlen, -1.0, 1.0, seed);
        let mut cols = Matrix::zeros(geom.col_rows(), geom.col_cols());
        im2col(x.as_slice(), &geom, &mut cols);
        let y = gcnn_tensor::init::uniform_matrix(geom.col_rows(), geom.col_cols(), -1.0, 1.0, seed + 1);
        let mut folded = vec![0.0f32; xlen];
        col2im(&y, &geom, &mut folded);

        let lhs: f32 = cols.as_slice().iter().zip(y.as_slice()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.as_slice().iter().zip(&folded).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0), "lhs {lhs} rhs {rhs}");
    }

    /// Every element that im2col extracts comes from the input or padding.
    #[test]
    fn im2col_values_come_from_input(
        in_hw in 3usize..7,
        kernel in 1usize..4,
        stride in 1usize..3,
        seed in 0u64..1000,
    ) {
        let geom = ConvGeometry { in_h: in_hw, in_w: in_hw, channels: 1, kernel, stride, pad: 0 };
        prop_assume!(geom.is_valid());
        let x = gcnn_tensor::init::uniform_matrix(1, in_hw * in_hw, 0.5, 1.5, seed);
        let mut cols = Matrix::zeros(geom.col_rows(), geom.col_cols());
        im2col(x.as_slice(), &geom, &mut cols);
        for &v in cols.as_slice() {
            prop_assert!(x.as_slice().contains(&v));
        }
    }
}
