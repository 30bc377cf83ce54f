//! Differential conformance suite: every convolution path against
//! `reference.rs` (never against another path), forward and both
//! backward passes, on shapes the model zoo never produces.
//!
//! One table of shapes ([`rows`]) × one table of paths ([`PATHS`]); a
//! later path is one more entry of `PATHS`, a later shape one more row.
//! The NCHWc tile runs at both channel blocks: `direct` at the one
//! `preferred_block()` picks, `nchwc-other-block` at the other.
//! Every pass runs out of a **NaN-poisoned arena** — each size class the
//! rows can reach is refilled with NaN-filled buffers first, and the pass
//! must then draw all its scratch from those (zero pool misses) — so "the
//! kernel overwrites all of its scratch" is tested, the zero padding rows
//! and lanes of the FFT passes' buffers included; and runs twice, the
//! second result bit-identical to the first. The poisoned runs are at
//! pool width 1 (the poison and the miss counter are this thread's); the
//! pass then runs at widths 2, 3 and 4 and must give the same bits again —
//! one owner per output and a fixed summation order, whatever the pool.
//! `scripts/verify.sh` repeats
//! the suite under `GCNN_FORCE_SCALAR=1`.

use gcnn_conv::{
    nchwc, reference, ConvAlgorithm, ConvConfig, DirectConv, FftConv, Strategy, UnrollConv,
};
use gcnn_fft::rfft::BLOCK_LANES;
use gcnn_gemm::{sgemm, Transpose};
use gcnn_tensor::im2col::im2col_into;
use gcnn_tensor::init::uniform_tensor;
use gcnn_tensor::nchwc::unpack_nchwc_from;
use gcnn_tensor::simd::preferred_block;
use gcnn_tensor::workspace::{alloc_scope, on_calling_thread, take_f32};
use gcnn_tensor::Tensor4;

/// The paths under test. A path whose `supports` refuses a row skips it.
const PATHS: [(&str, &dyn ConvAlgorithm); 4] = [
    ("direct", &DirectConv),
    ("nchwc-other-block", &OtherBlock),
    ("fft", &FftConv),
    ("unroll", &UnrollConv),
];

/// `DirectConv`'s forward — pack, `fused_conv_relu` without ReLU, unpack
/// — at the channel block `preferred_block()` does *not* pick (8 on an
/// AVX-512 host, 16 elsewhere), so both blocks' tiles meet every row.
/// Its backward passes are `ConvAlgorithm`'s defaults, `DirectConv`'s
/// own: forward passes of this tile over rearranged operands.
struct OtherBlock;

impl ConvAlgorithm for OtherBlock {
    fn strategy(&self) -> Strategy {
        Strategy::Direct
    }

    fn forward(&self, cfg: &ConvConfig, input: &Tensor4, filters: &Tensor4) -> Tensor4 {
        let block = if preferred_block() == 16 { 8 } else { 16 };
        let mut pin = take_f32(nchwc::packed_input_len(cfg, block));
        let mut pw = take_f32(nchwc::packed_filter_len(cfg, block));
        let mut pout = take_f32(nchwc::packed_output_len(cfg, block));
        nchwc::pack_input(cfg, input, block, &mut pin);
        nchwc::pack_filters(cfg, filters, block, &mut pw);
        nchwc::fused_conv_relu(cfg, block, &pin, &pw, &mut pout, false);
        let mut out = Tensor4::zeros(cfg.output_shape());
        unpack_nchwc_from(&pout, out.shape(), block, out.as_mut_slice());
        out
    }
}

/// Largest relative L2 distance from the reference.
const TOL: f32 = 1e-4;

/// Largest scratch size class (in floats) a row may reach — the operands
/// of the rows that span three lane blocks of the 16×16 transform (up to
/// 2 209 planes, 318 096 floats; a unit's buffer pair there is 33 280);
/// the poisoned run's zero-miss assertion is what holds the table to it.
const MAX_CLASS: usize = 1 << 19;

/// Buffers poisoned per size class: what a pass holds of one class at
/// most (the FFT pass peaks at seven: three split operands and one
/// participant's unit buffer) and one to spare.
const PER_CLASS: usize = 8;

fn cfg(batch: usize, channels: usize, input: usize, filters: usize, kernel: usize) -> ConvConfig {
    ConvConfig::with_channels(batch, channels, input, filters, kernel, 1)
}

fn padded(pad: usize, mut cfg: ConvConfig) -> ConvConfig {
    cfg.pad = pad;
    cfg
}

fn strided(stride: usize, mut cfg: ConvConfig) -> ConvConfig {
    cfg.stride = stride;
    cfg
}

/// The shape table.
fn rows() -> Vec<(&'static str, ConvConfig)> {
    // Planes per lane block of the transforms' passes (the straddling rows
    // use input 9 → the 16×16 plan).
    let b = BLOCK_LANES;
    // Batch, channel and filter counts any two of which multiply to more
    // than two blocks, so every operand and every product of the two rows
    // that use them is three blocks wide.
    let (few, many) = (46, 47);
    assert!(few * few > 2 * b && many * many <= 3 * b);
    vec![
        ("small pow2", cfg(2, 3, 8, 4, 3)),
        ("non-pow2 input 7", cfg(1, 1, 7, 2, 5)),
        ("input 12, even kernel", cfg(3, 2, 12, 5, 6)),
        ("1x1 kernel", cfg(2, 4, 5, 2, 1)),
        ("pad 1", padded(1, cfg(2, 2, 6, 3, 3))),
        ("pad = kernel", padded(3, cfg(2, 3, 4, 2, 3))),
        ("pad > kernel", padded(3, cfg(1, 2, 5, 3, 2))),
        ("1x1 input", cfg(3, 2, 1, 2, 1)),
        ("1x1 input, pad 3, k 6", padded(3, cfg(2, 2, 1, 3, 6))),
        ("k = input", cfg(2, 3, 7, 2, 7)),
        ("k = input + 2 pad", padded(2, cfg(2, 2, 3, 3, 7))),
        ("input 13, pad 1", padded(1, cfg(1, 2, 13, 3, 4))),
        ("input 24", cfg(2, 1, 24, 2, 5)),
        ("c = f = 1", cfg(3, 1, 7, 1, 3)),
        ("batch 5 > f > c", padded(1, cfg(5, 2, 9, 3, 3))),
        ("batch 7", cfg(7, 3, 6, 2, 2)),
        ("B - 1 channel planes", cfg(1, b - 1, 9, 1, 2)),
        ("B channel planes", cfg(1, b, 9, 1, 2)),
        ("B + 1 channel planes", cfg(1, b + 1, 9, 1, 2)),
        ("B + 1 filter planes", cfg(1, 1, 9, b + 1, 2)),
        // The transforms' row passes carry two rows per transform: odd
        // data heights and crops end on a lone row, a one-row gradient is
        // nothing else.
        ("odd heights, odd crops", cfg(2, 3, 11, 4, 5)),
        ("padded odd input", padded(1, cfg(3, 2, 5, 3, 2))),
        ("one-row gradient", cfg(3, 2, 3, 3, 3)),
        // `fft_pass` runs a product as dot products when both its output
        // axes are under the CGEMM's 32-column row tile: every pass of the
        // first row (Conv1's backward-data shape, c = 3 at batch 4), and
        // around the tile the forward pass (batch × filters) of the next.
        ("dot products, c = 3, batch 4", cfg(4, 3, 12, 16, 5)),
        ("31 filters", cfg(4, 2, 6, 31, 3)),
        ("32 filters", cfg(4, 2, 6, 32, 3)),
        ("33 filters", cfg(4, 2, 6, 33, 3)),
        // A forward transform whose window ends at `e ≤ n/2` skips its
        // first `log2(n / e.next_power_of_two())` stages: the filters here
        // do not, but the gradients (8×8 and 5×5 in the 16×16 plan) do, in
        // backward-data and backward-filters.
        ("gradient window 8 of 16", cfg(3, 2, 16, 4, 9)),
        ("gradient window 5 of 16", cfg(2, 3, 16, 3, 12)),
        // Every pass's output is past the size below which the pool keeps
        // a region on its caller: the one row whose regions are shared.
        ("outputs the pool shares", cfg(5, 16, 24, 16, 3)),
        // Strides above 1 (FFT refuses them), at and above
        // the kernel edge, with and without padding.
        ("stride 2", strided(2, cfg(3, 2, 9, 5, 3))),
        ("stride 2, even kernel", strided(2, cfg(2, 3, 10, 6, 4))),
        ("stride 3 > kernel 2", strided(3, cfg(2, 4, 7, 2, 2))),
        ("stride 4, k 11, c 3", strided(4, cfg(2, 3, 31, 17, 11))),
        (
            "stride 2, pad > kernel",
            padded(3, strided(2, cfg(2, 10, 6, 9, 2))),
        ),
        (
            "stride 5 > kernel 1, pad 2",
            padded(2, strided(5, cfg(2, 3, 9, 3, 1))),
        ),
        // The NCHWc packs' pitch is min(c, block): around both channel
        // blocks (8 and 16) — one channel, one below, at and one above a
        // block — the input pixel and the filter tap change width.
        (
            "c = 1, stride 3, pad 2",
            padded(2, strided(3, cfg(2, 1, 8, 9, 3))),
        ),
        ("c = 7 = 8 - 1", cfg(2, 7, 6, 9, 3)),
        (
            "c = 8, stride 2, pad 1",
            padded(1, strided(2, cfg(2, 8, 7, 5, 3))),
        ),
        ("c = 9 = 8 + 1", cfg(2, 9, 5, 3, 2)),
        ("c = 15 = 16 - 1, pad 1", padded(1, cfg(1, 15, 5, 17, 3))),
        ("c = 16", cfg(2, 16, 5, 3, 3)),
        (
            "c = 17 = 16 + 1, stride 2, pad 2",
            padded(2, strided(2, cfg(1, 17, 6, 4, 3))),
        ),
        // o² = 225 = nr·q + 1 for every `nr` in `kernel::available()`
        // (8, 16, 32): one column past the last full SGEMM tile.
        ("SGEMM edge o = 15", cfg(2, 3, 17, 5, 3)),
        ("SGEMM edge o = 15, c 11, f 17", cfg(3, 11, 17, 17, 3)),
        // Unrolling's window product: c·k² = 36 taps, so a run of `kx`
        // taps straddles a 32-line strip; (o − 1)·i + o = 33 positions,
        // one past a strip; 9 filters, one past the 8-row tile.
        ("windows straddle strips", cfg(2, 4, 7, 9, 3)),
        // LeNet-5's two conv layers at its training batch.
        ("LeNet conv1, batch 32", cfg(32, 1, 32, 6, 5)),
        ("LeNet conv2, batch 32", cfg(32, 6, 14, 16, 5)),
        // `fft_pass` transposes the product when its first output axis is
        // the longer one: the forward pass of the first row does and its
        // inverse reads the lanes transposed, the second row's does not.
        (
            "3 blocks everywhere, batch > filters",
            cfg(many, few, 9, few, 2),
        ),
        (
            "3 blocks everywhere, batch < filters",
            cfg(few, many, 9, many, 2),
        ),
    ]
}

/// Every FFT row's transform size is the one rule `FftConv` plans with
/// (`fft_conv.rs` pins that it does): the smallest power of two that
/// holds the padded input.
#[test]
fn fft_size_is_the_padded_rule() {
    for (row, cfg) in rows()
        .into_iter()
        .filter(|(_, cfg)| FftConv.supports(cfg).is_ok())
    {
        let (n, padded) = (cfg.fft_size(), cfg.input + 2 * cfg.pad);
        let smallest = (0..).map(|e| 1usize << e).find(|&p| p >= padded);
        assert_eq!(Some(n), smallest, "{row} ({cfg})");
    }
}

/// Leave [`PER_CLASS`] NaN-filled buffers on top of every size class up
/// to [`MAX_CLASS`] of this thread's arena (the shelves are LIFO).
fn poison_arena() {
    let mut class = 1;
    while class <= MAX_CLASS {
        let held: Vec<_> = (0..PER_CLASS)
            .map(|_| {
                let mut buf = take_f32(class);
                buf.fill(f32::NAN);
                buf
            })
            .collect();
        drop(held);
        class *= 2;
    }
}

/// `run` out of a poisoned arena, twice: no scratch from anywhere else,
/// within [`TOL`] of `want`, and the same bits both times — and at every
/// pool width. Returns the poisoned run's output.
fn check(what: &str, want: &Tensor4, run: impl Fn() -> Tensor4) -> Tensor4 {
    // Width 1: the poison is in this thread's arena and `alloc_scope`
    // counts this thread's misses, so this thread must run every piece.
    let poisoned = || {
        on_calling_thread(|| {
            poison_arena();
            let (got, misses) = alloc_scope(&run);
            assert_eq!(misses, 0, "{what}: scratch beyond the poisoned classes");
            got
        })
    };
    let got = poisoned();
    let dist = got.rel_l2_dist(want).expect("same output shape");
    assert!(dist < TOL, "{what}: rel l2 {dist} from the reference");
    let bits = |t: &Tensor4| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got), bits(&poisoned()), "{what}: second run differs");
    for width in 2..=4 {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(width);
        let wide = pool.build().expect("pool").install(&run);
        assert_eq!(bits(&got), bits(&wide), "{what}: differs at width {width}");
    }
    got
}

/// The [`PATHS`] that run `cfg`.
fn paths(
    cfg: &ConvConfig,
) -> impl Iterator<Item = (&'static str, &'static dyn ConvAlgorithm)> + '_ {
    PATHS
        .into_iter()
        .filter(|(_, algo)| algo.supports(cfg).is_ok())
}

#[test]
fn forward_matches_reference() {
    for (row, cfg) in rows() {
        let x = uniform_tensor(cfg.input_shape(), -1.0, 1.0, 30);
        let w = uniform_tensor(cfg.filter_shape(), -1.0, 1.0, 31);
        let want = reference::forward_ref(&cfg, &x, &w);
        for (path, algo) in paths(&cfg) {
            check(&format!("{path} forward, {row} ({cfg})"), &want, || {
                algo.forward(&cfg, &x, &w)
            });
        }
    }
}

/// `UnrollConv::forward` packs its columns straight from the image —
/// as windows at stride 1 without padding, gathered otherwise; on every
/// row it must give the bits of the written-out `im2col_into` + `sgemm`
/// it replaces, from the poisoned arena and at every pool width.
#[test]
fn windowed_forward_matches_im2col_bit_for_bit() {
    for (row, cfg) in rows() {
        let x = uniform_tensor(cfg.input_shape(), -1.0, 1.0, 30);
        let w = uniform_tensor(cfg.filter_shape(), -1.0, 1.0, 31);
        let (o2, ckk) = (
            cfg.output() * cfg.output(),
            cfg.filter_shape().len() / cfg.filters,
        );
        let mut cols = vec![0.0; ckk * o2];
        let mut want = Tensor4::zeros(cfg.output_shape());
        for (n, y) in want
            .as_mut_slice()
            .chunks_exact_mut(cfg.filters * o2)
            .enumerate()
        {
            im2col_into(x.image(n), &cfg.geometry(), &mut cols);
            sgemm(
                Transpose::No,
                Transpose::No,
                cfg.filters,
                o2,
                ckk,
                1.0,
                w.as_slice(),
                ckk,
                &cols,
                o2,
                0.0,
                y,
                o2,
            );
        }
        let what = format!("unroll forward against im2col, {row} ({cfg})");
        let got = check(&what, &want, || UnrollConv.forward(&cfg, &x, &w));
        let bits = |t: &Tensor4| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert!(bits(&got) == bits(&want), "{what}");
    }
}

#[test]
fn backward_data_matches_reference() {
    for (row, cfg) in rows() {
        let g = uniform_tensor(cfg.output_shape(), -1.0, 1.0, 32);
        let w = uniform_tensor(cfg.filter_shape(), -1.0, 1.0, 33);
        let want = reference::backward_data_ref(&cfg, &g, &w);
        for (path, algo) in paths(&cfg) {
            check(
                &format!("{path} backward-data, {row} ({cfg})"),
                &want,
                || algo.backward_data(&cfg, &g, &w),
            );
        }
    }
}

#[test]
fn backward_filters_matches_reference() {
    for (row, cfg) in rows() {
        let x = uniform_tensor(cfg.input_shape(), -1.0, 1.0, 34);
        let g = uniform_tensor(cfg.output_shape(), -1.0, 1.0, 35);
        let want = reference::backward_filters_ref(&cfg, &x, &g);
        for (path, algo) in paths(&cfg) {
            check(
                &format!("{path} backward-filters, {row} ({cfg})"),
                &want,
                || algo.backward_filters(&cfg, &x, &g),
            );
        }
    }
}
