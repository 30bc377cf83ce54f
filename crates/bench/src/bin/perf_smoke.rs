//! perf_smoke — tracked wall-clock timings of the hot paths every figure
//! depends on, at the paper's base configuration `(64,128,64,11,1)`.
//!
//! Times the im2col-shaped SGEMM (`m = f`, `n = b·oh·ow`, `k = c·k²`),
//! AlexNet's SGEMMs and its conv layers on the fused NCHWc path,
//! a batched 2-D real FFT of the fft-conv plane set, and one
//! forward + backward convolution per strategy, then writes
//! `results/BENCH_hotpaths.json` with mean/p50/p95 per section so the
//! performance trajectory is comparable across PRs.
//!
//! Timing goes through the shared `gcnn_bench::timing` util (warmup
//! then trimmed-median aggregation) — the same one `bench_report` uses —
//! so every number in `results/` is produced the same way.
//!
//! Environment knobs:
//! * `GCNN_PERF_ITERS` — iterations per section (default 10).
//! * `GCNN_PERF_WARMUP` — untimed warmup iterations (default 1).
//! * `GCNN_PERF_DIRECT_ITERS` — iterations for the `Direct` strategy
//!   (default 2: its backward passes are still scalar loops and cost
//!   tens of seconds per iteration at the base config; it also gets no
//!   warmup).
//!
//! A second report, `results/BENCH_simd.json`, records scalar-vs-SIMD
//! throughput of the GEMM and FFT micro-kernels: each micro-bench runs
//! under the native dispatch table and again with the table pinned to
//! scalar (`set_force_scalar`), and the p50 ratio is the speedup
//! `bench_compare --simd` gates on so a silent dispatch regression to
//! scalar fails CI.
//!
//! A third, `results/BENCH_fft.json`, is the rfft A/B broken out per
//! transform size × batch count (the aggregate in `BENCH_simd` is its
//! geometric mean); `bench_compare --fft` gates on it.
//!
//! A fourth, `results/BENCH_layout.json`, A/Bs the fused NCHWc
//! conv+ReLU(+pool) path against the unfused planar unrolling path over
//! LeNet's remainder-heavy layers and two conv-heavy zoo shapes whose
//! channel counts fill the SIMD block; `bench_compare --layout` gates
//! on the headline geomean.

#![forbid(unsafe_code)]

use gcnn_bench::timing::{env_usize, stats, time_wall, Repeats};
use gcnn_conv::{algorithm_for, ConvConfig, Strategy};
use gcnn_fft::RfftPlan;
use gcnn_gemm::{gemm_flops, sgemm, Transpose};
use gcnn_tensor::init::{uniform_tensor, xavier_filters};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Section {
    name: String,
    iters: usize,
    mean_ms: f64,
    p50_ms: f64,
    p95_ms: f64,
    min_ms: f64,
    max_ms: f64,
    /// Sustained GFLOP/s over the mean, where a FLOP count is defined.
    gflops: Option<f64>,
    note: Option<String>,
}

#[derive(Debug, Serialize)]
struct Report {
    config: ConvConfig,
    sections: Vec<Section>,
}

fn section(name: &str, samples: Vec<f64>, flops: Option<u64>, note: Option<String>) -> Section {
    let st = stats(&samples);
    let s = Section {
        name: name.to_string(),
        iters: st.iters,
        mean_ms: st.mean_ms,
        p50_ms: st.p50_ms,
        p95_ms: st.p95_ms,
        min_ms: st.min_ms,
        max_ms: st.max_ms,
        gflops: flops.map(|f| f as f64 / (st.mean_ms * 1e6)),
        note,
    };
    println!(
        "{:<24} iters {:>3}  mean {:>10} ms  p50 {:>10} ms  p95 {:>10} ms{}",
        s.name,
        s.iters,
        gcnn_bench::ms(s.mean_ms),
        gcnn_bench::ms(s.p50_ms),
        gcnn_bench::ms(s.p95_ms),
        s.gflops
            .map(|g| format!("  {g:.2} GFLOP/s"))
            .unwrap_or_default(),
    );
    s
}

fn skipped(name: &str, reason: String) -> Section {
    println!("{name:<24} skipped: {reason}");
    Section {
        name: name.to_string(),
        iters: 0,
        mean_ms: 0.0,
        p50_ms: 0.0,
        p95_ms: 0.0,
        min_ms: 0.0,
        max_ms: 0.0,
        gflops: None,
        note: Some(reason),
    }
}

/// The im2col GEMM of the whole base-config batch: `m = f = 64`,
/// `n = b·oh·ow = 891136`, `k = c·k² = 363`.
fn bench_sgemm(cfg: &ConvConfig, repeats: Repeats) -> Section {
    let m = cfg.filters;
    let n = cfg.batch * cfg.output() * cfg.output();
    let k = cfg.channels * cfg.kernel * cfg.kernel;
    let a = uniform_tensor(gcnn_tensor::Shape4::new(1, 1, m, k), -1.0, 1.0, 11);
    let b = uniform_tensor(gcnn_tensor::Shape4::new(1, 1, k, n), -1.0, 1.0, 12);
    let mut c = vec![0.0f32; m * n];
    let samples = time_wall(repeats, || {
        sgemm(
            Transpose::No,
            Transpose::No,
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            k,
            b.as_slice(),
            n,
            0.0,
            &mut c,
            n,
        );
    });
    section(
        "sgemm_im2col_base",
        samples,
        Some(gemm_flops(m, n, k)),
        Some(format!("m={m} n={n} k={k}")),
    )
}

/// The SGEMMs of one AlexNet forward pass at batch 4, one section per
/// layer, shapes read off `zoo::alexnet()`: each conv layer's per-image
/// im2col product `W(f × ck²) · cols(ck² × o²)` and each FC layer's
/// `X(4 × in) · Wᵀ`. These are the shapes EXPERIMENTS.md states against
/// the probed FMA peak (conv) and stream bandwidth (FC).
fn bench_sgemm_alexnet(repeats: Repeats) -> Vec<Section> {
    const BATCH: usize = 4;
    let layers = gcnn_models::layer::walk(&gcnn_models::zoo::alexnet(), BATCH);
    let shape = |l: &gcnn_models::LayerInstance| match (l.conv, l.fc) {
        (Some(c), _) => {
            let (o2, ckk) = (c.output() * c.output(), c.channels * c.kernel * c.kernel);
            Some((Transpose::No, c.filters, o2, ckk))
        }
        (_, Some((inf, outf))) => Some((Transpose::Yes, BATCH, outf, inf)),
        _ => None,
    };
    layers
        .iter()
        .filter_map(|l| Some((l, shape(l)?)))
        .map(|(layer, (transb, m, n, k))| {
            let a = uniform_tensor(gcnn_tensor::Shape4::new(1, 1, m, k), -1.0, 1.0, 41);
            let b = uniform_tensor(gcnn_tensor::Shape4::new(1, 1, k, n), -1.0, 1.0, 42);
            let ldb = if transb == Transpose::Yes { k } else { n };
            let mut c = vec![0.0f32; m * n];
            let samples = time_wall(repeats, || {
                sgemm(
                    Transpose::No,
                    transb,
                    m,
                    n,
                    k,
                    1.0,
                    a.as_slice(),
                    k,
                    b.as_slice(),
                    ldb,
                    0.0,
                    &mut c,
                    n,
                );
            });
            let note = format!("m={m} n={n} k={k}");
            section(
                &format!("sgemm_alexnet_{}", layer.name),
                samples,
                Some(gemm_flops(m, n, k)),
                Some(note),
            )
        })
        .collect()
}

/// The five AlexNet conv layers at batch 4 on the fused NCHWc path
/// (conv+ReLU over prepacked operands at the host's preferred block),
/// one section per layer beside its `sgemm_alexnet_*` im2col product,
/// shapes read off `zoo::alexnet()`. GFLOP/s count the layer's useful
/// FLOPs — remainder lanes (conv1's 3 channels in a 16-wide block) earn
/// nothing — so the figure is comparable with the SGEMM sections and
/// with the probed FMA peak in EXPERIMENTS.md.
fn bench_nchwc_alexnet(repeats: Repeats) -> Vec<Section> {
    use gcnn_conv::nchwc;
    const BATCH: usize = 4;
    let block = gcnn_tensor::simd::preferred_block();
    gcnn_models::layer::walk(&gcnn_models::zoo::alexnet(), BATCH)
        .iter()
        .filter_map(|l| Some((l, l.conv?)))
        .map(|(layer, cfg)| {
            let x = uniform_tensor(cfg.input_shape(), -1.0, 1.0, 43);
            let w = xavier_filters(cfg.filter_shape(), 44);
            let mut pin = vec![0.0f32; nchwc::packed_input_len(&cfg, block)];
            let mut pw = vec![0.0f32; nchwc::packed_filter_len(&cfg, block)];
            let mut pout = vec![0.0f32; nchwc::packed_output_len(&cfg, block)];
            nchwc::pack_input(&cfg, &x, block, &mut pin);
            nchwc::pack_filters(&cfg, &w, block, &mut pw);
            let samples = time_wall(repeats, || {
                nchwc::fused_conv_relu(&cfg, block, &pin, &pw, &mut pout, true);
                std::hint::black_box(&pout);
            });
            let note = format!(
                "b{BATCH} c{} i{} f{} k{} s{} p{} block {block}",
                cfg.channels, cfg.input, cfg.filters, cfg.kernel, cfg.stride, cfg.pad
            );
            section(
                &format!("nchwc_alexnet_{}", layer.name),
                samples,
                Some(cfg.forward_flops()),
                Some(note),
            )
        })
        .collect()
}

/// Batched 2-D real FFT round-trip over the fft-conv input plane set
/// (`b·c` planes of the size `FftConv` plans, [`ConvConfig::fft_size`]).
fn bench_batched_fft(cfg: &ConvConfig, repeats: Repeats) -> Section {
    let fft_n = cfg.fft_size();
    let planes = cfg.batch * cfg.channels;
    let plan = RfftPlan::cached(fft_n);
    let data = uniform_tensor(
        gcnn_tensor::Shape4::new(planes, 1, fft_n, fft_n),
        -1.0,
        1.0,
        13,
    );
    let mut sre = vec![0.0f32; planes * plan.spectrum_len()];
    let mut sim = vec![0.0f32; planes * plan.spectrum_len()];
    let mut back = vec![0.0f32; planes * fft_n * fft_n];
    let samples = time_wall(repeats, || {
        gcnn_fft::rfft_forward_batch_split(&plan, data.as_slice(), &mut sre, &mut sim);
        gcnn_fft::rfft_inverse_batch_split(&plan, &sre, &sim, &mut back);
        std::hint::black_box(&back);
    });
    section(
        "batched_rfft_roundtrip",
        samples,
        None,
        Some(format!("{planes} planes of {fft_n}x{fft_n}")),
    )
}

/// Scalar-vs-SIMD micro-bench report (`results/BENCH_simd.json`).
#[derive(Debug, Serialize)]
struct SimdReport {
    /// The natively dispatched ISA ([`gcnn_tensor::simd::Isa::name`]).
    isa: String,
    /// The SGEMM register-tile kernel the native table selects, e.g.
    /// `avx512f 8x32` — wider than `isa` on an AVX-512 host.
    sgemm_kernel: String,
    sections: Vec<Section>,
    /// `scalar p50 / simd p50` of the 256³ SGEMM micro-bench.
    sgemm_speedup: f64,
    /// Geometric mean of the per-size×batch rfft sweep speedups (the
    /// per-entry breakdown lives in `results/BENCH_fft.json`).
    rfft_speedup: f64,
}

/// One cell of the rfft A/B sweep: a `n×n` round-trip at one batch
/// count, dispatched natively and with the table pinned to scalar.
#[derive(Debug, Serialize)]
struct FftEntry {
    n: usize,
    batch: usize,
    simd_p50_ms: f64,
    scalar_p50_ms: f64,
    /// `scalar p50 / simd p50` for this cell.
    speedup: f64,
}

/// Per-size × batch rfft A/B report (`results/BENCH_fft.json`). A
/// single aggregate number hid size-dependent regressions (small
/// transforms are shuffle-bound, large ones bandwidth-bound); the sweep
/// exposes every cell and the gate enforces both the geomean and a
/// per-cell floor.
#[derive(Debug, Serialize)]
struct FftReport {
    /// The natively dispatched ISA ([`gcnn_tensor::simd::Isa::name`]).
    isa: String,
    entries: Vec<FftEntry>,
    /// Geometric mean of the per-entry speedups — the number
    /// `bench_compare --fft` gates on.
    overall_speedup: f64,
}

/// A/B the batched rfft round-trip over transform sizes × batch counts.
fn bench_fft_sweep(repeats: Repeats) -> FftReport {
    let isa = gcnn_tensor::simd::isa().name().to_string();
    println!("fft A/B sweep: native isa = {isa}");
    let mut entries = Vec::new();
    for n in [16usize, 32, 64, 128] {
        for batch in [1usize, 8, 32] {
            let plan = RfftPlan::cached(n);
            let data = uniform_tensor(
                gcnn_tensor::Shape4::new(batch, 1, n, n),
                -1.0,
                1.0,
                (n * 131 + batch) as u64,
            );
            let mut sre = vec![0.0f32; batch * plan.spectrum_len()];
            let mut sim = vec![0.0f32; batch * plan.spectrum_len()];
            let mut back = vec![0.0f32; batch * n * n];
            let mut round_trip = || {
                gcnn_fft::rfft_forward_batch_split(&plan, data.as_slice(), &mut sre, &mut sim);
                gcnn_fft::rfft_inverse_batch_split(&plan, &sre, &sim, &mut back);
                std::hint::black_box(&back);
            };
            // A small-n round-trip runs in a few µs — below clock
            // jitter when timed one call at a time. Calibrate an
            // inner-repetition count so each timed sample spans ≥ ~2 ms
            // (per-call times are recovered by dividing), sized off the
            // dispatched path so the slower scalar arm only gets a
            // wider window.
            round_trip();
            let t = std::time::Instant::now();
            round_trip();
            let est_ms = t.elapsed().as_secs_f64() * 1e3;
            let inner = ((2.0 / est_ms.max(1e-6)).ceil() as usize).clamp(1, 65536);
            let (s_simd, s_scalar, speedup) =
                ab_scalar(&format!("rfft_{n}x{n}_b{batch}"), repeats, None, || {
                    for _ in 0..inner {
                        round_trip();
                    }
                });
            entries.push(FftEntry {
                n,
                batch,
                simd_p50_ms: s_simd.p50_ms / inner as f64,
                scalar_p50_ms: s_scalar.p50_ms / inner as f64,
                speedup,
            });
        }
    }
    let overall_speedup = (entries
        .iter()
        .map(|e| e.speedup.max(1e-12).ln())
        .sum::<f64>()
        / entries.len() as f64)
        .exp();
    println!("fft A/B sweep: overall {overall_speedup:.2}x over scalar (geomean)");
    FftReport {
        isa,
        entries,
        overall_speedup,
    }
}

/// One cell of the layout A/B sweep: a conv(+ReLU(+pool)) chain run
/// fused over packed NCHWc and unfused over planar NCHW.
#[derive(Debug, Serialize)]
struct LayoutEntry {
    name: String,
    cfg: ConvConfig,
    /// Max-pool window fused after conv+ReLU, when the shape pools.
    pool_window: Option<usize>,
    /// Max-pool stride fused after conv+ReLU, when the shape pools.
    pool_stride: Option<usize>,
    /// Whether this entry gates: true for shapes whose channel counts
    /// fill the SIMD block. Remainder-heavy shapes (LeNet's 1- and
    /// 6-channel layers) are kept for honesty but never gate — their
    /// padded lanes do wasted work and planar can win.
    headline: bool,
    fused_p50_ms: f64,
    planar_p50_ms: f64,
    /// One-time input+filter packing cost. In a network, activations
    /// stay packed across adjacent blocked layers, so this is paid per
    /// chain boundary, not per layer — reported, not gated.
    pack_p50_ms: f64,
    /// `planar p50 / fused p50` for this cell.
    speedup: f64,
}

/// The NCHWc layout A/B report (`results/BENCH_layout.json`).
#[derive(Debug, Serialize)]
struct LayoutReport {
    /// The natively dispatched ISA ([`gcnn_tensor::simd::Isa::name`]).
    isa: String,
    /// Inner channel-block width the packed path ran with.
    block: usize,
    entries: Vec<LayoutEntry>,
    /// Geometric mean of the headline-entry speedups — the number
    /// `bench_compare --layout` gates on.
    overall_speedup: f64,
}

/// A/B the fused packed conv path against the unfused planar one.
fn bench_layout(repeats: Repeats) -> LayoutReport {
    use gcnn_conv::layers::{PoolKind, PoolLayer, ReluLayer};
    use gcnn_conv::nchwc;
    use gcnn_tensor::workspace;

    let isa = gcnn_tensor::simd::isa().name().to_string();
    let block = gcnn_tensor::simd::preferred_block();
    println!("layout A/B sweep: isa = {isa}, channel block = {block}");

    struct Case {
        name: &'static str,
        cfg: ConvConfig,
        pool: Option<(usize, usize)>,
        headline: bool,
    }
    let mut vgg3 = ConvConfig::with_channels(8, 128, 28, 256, 3, 1);
    vgg3.pad = 1;
    let mut vgg4 = ConvConfig::with_channels(8, 256, 14, 256, 3, 1);
    vgg4.pad = 1;
    let mut alex3 = ConvConfig::with_channels(8, 192, 13, 384, 3, 1);
    alex3.pad = 1;
    let cases = [
        Case {
            name: "lenet_conv1",
            cfg: ConvConfig::with_channels(64, 1, 32, 6, 5, 1),
            pool: Some((2, 2)),
            headline: false,
        },
        Case {
            name: "lenet_conv2",
            cfg: ConvConfig::with_channels(64, 6, 14, 16, 5, 1),
            pool: Some((2, 2)),
            headline: false,
        },
        Case {
            name: "vgg3_like",
            cfg: vgg3,
            pool: None,
            headline: true,
        },
        Case {
            name: "vgg4_like",
            cfg: vgg4,
            pool: None,
            headline: true,
        },
        Case {
            name: "alexnet_conv3_like",
            cfg: alex3,
            pool: None,
            headline: true,
        },
    ];

    let mut entries = Vec::new();
    for case in &cases {
        let cfg = &case.cfg;
        let x = uniform_tensor(cfg.input_shape(), -1.0, 1.0, 61);
        let w = xavier_filters(cfg.filter_shape(), 62);

        // Planar baseline: the exact layer sequence a planar network
        // executes — unrolling conv, then ReLU, then max-pool.
        let algo = algorithm_for(Strategy::Unrolling);
        let planar = time_wall(repeats, || {
            let y = algo.forward(cfg, &x, &w);
            let y = ReluLayer.forward(&y);
            let y = match case.pool {
                Some((pw, ps)) => PoolLayer::new(PoolKind::Max, pw, ps).forward(&y).output,
                None => y,
            };
            std::hint::black_box(&y);
        });

        // Fused packed path. Input and filters are prepacked: within a
        // network, activations stay packed across adjacent blocked
        // layers, so packing is a chain-boundary cost (timed separately
        // below, never folded into the kernel comparison).
        let mut pin = vec![0.0f32; nchwc::packed_input_len(cfg, block)];
        let mut pwb = vec![0.0f32; nchwc::packed_filter_len(cfg, block)];
        nchwc::pack_input(cfg, &x, block, &mut pin);
        nchwc::pack_filters(cfg, &w, block, &mut pwb);
        let out_len = match case.pool {
            Some((pw, ps)) => {
                let po = nchwc::pooled_output(cfg, pw, ps);
                cfg.batch * cfg.filters.div_ceil(block) * block * po * po
            }
            None => nchwc::packed_output_len(cfg, block),
        };
        let mut pout = vec![0.0f32; out_len];
        let fused_body = |pout: &mut [f32]| match case.pool {
            Some((pw, ps)) => nchwc::fused_conv_relu_pool(cfg, block, pw, ps, &pin, &pwb, pout),
            None => nchwc::fused_conv_relu(cfg, block, &pin, &pwb, pout, true),
        };
        // The zero-alloc contract is part of what ships: a warm fused
        // call must be entirely arena-served.
        // At width 1, so the thread that is counted is the thread that
        // was warmed and runs every image.
        let (_, fresh) = workspace::on_calling_thread(|| {
            fused_body(&mut pout);
            fused_body(&mut pout);
            workspace::alloc_scope(|| fused_body(&mut pout))
        });
        assert_eq!(
            fresh, 0,
            "{}: warm fused path allocated {fresh} fresh bytes",
            case.name
        );
        let fused = time_wall(repeats, || {
            fused_body(&mut pout);
            std::hint::black_box(&pout);
        });

        let pack = time_wall(repeats, || {
            nchwc::pack_input(cfg, &x, block, &mut pin);
            nchwc::pack_filters(cfg, &w, block, &mut pwb);
        });

        let sp = stats(&planar);
        let sf = stats(&fused);
        let sk = stats(&pack);
        let speedup = if sf.p50_ms > 0.0 {
            sp.p50_ms / sf.p50_ms
        } else {
            1.0
        };
        println!(
            "{:<20} planar {:>9} ms  fused {:>9} ms  pack {:>9} ms  {:>5.2}x{}",
            case.name,
            gcnn_bench::ms(sp.p50_ms),
            gcnn_bench::ms(sf.p50_ms),
            gcnn_bench::ms(sk.p50_ms),
            speedup,
            if case.headline { "  [headline]" } else { "" },
        );
        entries.push(LayoutEntry {
            name: case.name.to_string(),
            cfg: *cfg,
            pool_window: case.pool.map(|(pw, _)| pw),
            pool_stride: case.pool.map(|(_, ps)| ps),
            headline: case.headline,
            fused_p50_ms: sf.p50_ms,
            planar_p50_ms: sp.p50_ms,
            pack_p50_ms: sk.p50_ms,
            speedup,
        });
    }
    let headline: Vec<f64> = entries
        .iter()
        .filter(|e| e.headline)
        .map(|e| e.speedup)
        .collect();
    let overall_speedup = (headline.iter().map(|s| s.max(1e-12).ln()).sum::<f64>()
        / headline.len().max(1) as f64)
        .exp();
    println!("layout A/B sweep: headline fused {overall_speedup:.2}x over planar (geomean)");
    LayoutReport {
        isa,
        block,
        entries,
        overall_speedup,
    }
}

/// Time `body` under the native dispatch table, then with the table
/// pinned to scalar; returns the two sections and the p50 speedup.
fn ab_scalar(
    name: &str,
    repeats: Repeats,
    flops: Option<u64>,
    mut body: impl FnMut(),
) -> (Section, Section, f64) {
    let simd = time_wall(repeats, &mut body);
    gcnn_tensor::simd::set_force_scalar(true);
    let scalar = time_wall(repeats, &mut body);
    gcnn_tensor::simd::set_force_scalar(false);
    let s_simd = section(&format!("{name}_simd"), simd, flops, None);
    let s_scalar = section(&format!("{name}_scalar"), scalar, flops, None);
    let speedup = if s_simd.p50_ms > 0.0 {
        s_scalar.p50_ms / s_simd.p50_ms
    } else {
        1.0
    };
    (s_simd, s_scalar, speedup)
}

/// The SIMD A/B suite: the 256×256×256 SGEMM the acceptance gate tracks;
/// the FFT number is the geomean of the per-size sweep in `fft_report`
/// (the old single-cell aggregate hid size-dependent regressions).
fn bench_simd(repeats: Repeats, fft_report: &FftReport) -> SimdReport {
    let isa = gcnn_tensor::simd::isa().name().to_string();
    let sgemm_kernel = format!("{:?}", gcnn_gemm::kernel::select());
    println!("simd A/B: native isa = {isa}, sgemm kernel = {sgemm_kernel}");

    let (m, n, k) = (256usize, 256, 256);
    let a = uniform_tensor(gcnn_tensor::Shape4::new(1, 1, m, k), -1.0, 1.0, 31);
    let b = uniform_tensor(gcnn_tensor::Shape4::new(1, 1, k, n), -1.0, 1.0, 32);
    let mut c = vec![0.0f32; m * n];
    let (g_simd, g_scalar, sgemm_speedup) =
        ab_scalar("sgemm_256", repeats, Some(gemm_flops(m, n, k)), || {
            sgemm(
                Transpose::No,
                Transpose::No,
                m,
                n,
                k,
                1.0,
                a.as_slice(),
                k,
                b.as_slice(),
                n,
                0.0,
                &mut c,
                n,
            );
        });

    let rfft_speedup = fft_report.overall_speedup;
    println!("simd A/B: sgemm {sgemm_speedup:.2}x, rfft {rfft_speedup:.2}x over scalar");
    SimdReport {
        isa,
        sgemm_kernel,
        sections: vec![g_simd, g_scalar],
        sgemm_speedup,
        rfft_speedup,
    }
}

/// One forward + full backward (data + filters) for one algorithm.
fn bench_algo(
    cfg: &ConvConfig,
    algo: &dyn gcnn_conv::ConvAlgorithm,
    tag: &str,
    repeats: Repeats,
) -> Vec<Section> {
    if let Err(err) = algo.supports(cfg) {
        return vec![skipped(&format!("conv_{tag}"), format!("{err:?}"))];
    }
    if repeats.reps == 0 {
        return vec![skipped(&format!("conv_{tag}"), "iters = 0".to_string())];
    }
    let x = uniform_tensor(cfg.input_shape(), -1.0, 1.0, 21);
    let w = xavier_filters(cfg.filter_shape(), 22);
    let y = algo.forward(cfg, &x, &w);

    let fwd = time_wall(repeats, || {
        std::hint::black_box(algo.forward(cfg, &x, &w));
    });
    let bwd = time_wall(repeats, || {
        std::hint::black_box(algo.backward_data(cfg, &y, &w));
        std::hint::black_box(algo.backward_filters(cfg, &x, &y));
    });
    vec![
        section(
            &format!("conv_{tag}_fwd"),
            fwd,
            Some(cfg.forward_flops()),
            None,
        ),
        section(&format!("conv_{tag}_bwd"), bwd, None, None),
    ]
}

fn main() {
    let repeats = Repeats::new(
        env_usize("GCNN_PERF_WARMUP", 1),
        env_usize("GCNN_PERF_ITERS", 10),
    );
    // Direct's scalar backward passes take tens of seconds: no warmup,
    // few reps.
    let direct_repeats = Repeats::new(0, env_usize("GCNN_PERF_DIRECT_ITERS", 2));
    let cfg = ConvConfig::paper_base();
    println!(
        "perf_smoke: base config {:?} (output {}), {} iters after {} warmup",
        cfg,
        cfg.output(),
        repeats.reps,
        repeats.warmup
    );

    let mut sections = Vec::new();
    sections.push(bench_sgemm(&cfg, repeats));
    sections.extend(bench_sgemm_alexnet(repeats));
    sections.extend(bench_nchwc_alexnet(repeats));
    sections.push(bench_batched_fft(&cfg, repeats));
    for strat in [Strategy::Unrolling, Strategy::Fft] {
        let algo = algorithm_for(strat);
        let tag = format!("{strat:?}").to_lowercase();
        sections.extend(bench_algo(&cfg, algo, &tag, repeats));
    }
    // Winograd has no `Strategy` slot of its own (it rides the
    // transform-domain family) and F(2x2,3x3) needs k = 3, so it is
    // tracked at the 3x3 variant of the base config.
    let wcfg = ConvConfig { kernel: 3, ..cfg };
    let winograd = gcnn_conv::WinogradConv::new();
    sections.extend(bench_algo(&wcfg, &winograd, "winograd_3x3", repeats));
    {
        let algo = algorithm_for(Strategy::Direct);
        sections.extend(bench_algo(&cfg, algo, "direct", direct_repeats));
    }

    let report = Report {
        config: cfg,
        sections,
    };
    match gcnn_bench::write_json("BENCH_hotpaths", &report) {
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("failed to write BENCH_hotpaths.json: {e}"),
    }

    let fft_report = bench_fft_sweep(repeats);
    match gcnn_bench::write_json("BENCH_fft", &fft_report) {
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("failed to write BENCH_fft.json: {e}"),
    }

    let simd_report = bench_simd(repeats, &fft_report);
    match gcnn_bench::write_json("BENCH_simd", &simd_report) {
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("failed to write BENCH_simd.json: {e}"),
    }

    let layout_report = bench_layout(repeats);
    match gcnn_bench::write_json("BENCH_layout", &layout_report) {
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("failed to write BENCH_layout.json: {e}"),
    }
}
