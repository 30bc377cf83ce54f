//! The arena under the real pool, at the default width. Alone in its
//! binary: it reads the process-wide miss counter.

use gcnn_conv::{ConvAlgorithm, ConvConfig, UnrollConv};
use gcnn_tensor::init::uniform_tensor;
use gcnn_tensor::workspace;

/// Repeated identical forward passes at AlexNet conv3's extents: every
/// participant of the per-image region warms its own arena once — SGEMM's
/// two pack buffers; the gathered columns take none — and after that
/// nobody misses, whichever thread claims which image.
#[test]
fn arena_misses_stop_at_participants_times_classes() {
    let mut cfg = ConvConfig::with_channels(4, 256, 13, 384, 3, 1);
    cfg.pad = 1;
    let x = uniform_tensor(cfg.input_shape(), -1.0, 1.0, 40);
    let w = uniform_tensor(cfg.filter_shape(), -0.1, 0.1, 41);
    let participants = rayon::current_num_threads().min(cfg.batch) as u64;
    const CLASSES: u64 = 2;

    let before = workspace::fresh_allocs();
    let first = UnrollConv.forward(&cfg, &x, &w);
    let mut misses = Vec::new();
    for _ in 0..6 {
        let again = UnrollConv.forward(&cfg, &x, &w);
        assert!(
            first.as_slice() == again.as_slice(),
            "forward is not repeatable"
        );
        misses.push(workspace::fresh_allocs() - before);
    }
    let total = misses[misses.len() - 1];
    assert!(
        (CLASSES..=participants * CLASSES).contains(&total),
        "{total} misses with {participants} participants: {misses:?}"
    );
}
