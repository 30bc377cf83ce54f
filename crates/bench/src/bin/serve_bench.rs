//! serve_bench — closed-loop load generator for the `gcnn-serve`
//! inference service.
//!
//! Sweeps the two axes the serving layer exists to trade off: the
//! batch cap (`max_batch`, the paper's `b` axis applied at serving
//! time) and the offered load (total requests kept in flight across
//! all client connections). Each cell starts a fresh loopback server
//! with one worker per detected core minus the client side (on this
//! repo's 1-core CI container: exactly one), drives it with pipelining
//! clients for a fixed window, and records throughput plus the
//! server-side p50/p99 end-to-end latency into
//! `results/BENCH_serve.json` — the committed baseline that
//! `bench_compare --serve` gates against.
//!
//! The headline number is `batched_speedup`: throughput at the largest
//! batch cap over throughput at cap 1, both at the highest offered
//! load. Dynamic batching earns its latency budget only if this
//! exceeds 1, so `bench_compare` fails CI when it regresses below the
//! gate.
//!
//! `--smoke` runs a single short cell and asserts functional
//! correctness instead of recording numbers: every response must be
//! `Ok` and match a locally computed forward pass, and the batch-size
//! histogram must show at least one multi-request batch (proof the
//! coalescing path actually ran). Non-zero exit on any violation —
//! this is the CI `serve-smoke` job.
//!
//! Environment knobs:
//! * `GCNN_SERVE_MS` — measurement window per cell, ms (default 400;
//!   smoke default 250).
//! * `GCNN_SERVE_CONNS` — client connections (default 4).

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcnn_bench::timing::env_usize;
use gcnn_conv::Strategy;
use gcnn_models::Network;
use gcnn_serve::{BatchPolicy, Client, ServeConfig, Server, Status};
use gcnn_tensor::{Shape4, Tensor4};
use serde::Serialize;

/// Input geometry: LeNet-5 on 16×16 single-channel images — small
/// enough that a cell's window fits hundreds of batches on one core,
/// conv-shaped enough that batching amortizes real lowering work.
const SIZE: usize = 16;
const CLASSES: usize = 4;
const SEED: u64 = 42;

/// Per-request queue-delay budget. Small relative to a batch service
/// time so cap=1 cells are not penalized by idle waiting, large enough
/// that concurrent arrivals coalesce.
const MAX_DELAY: Duration = Duration::from_millis(2);

fn bench_net() -> Network {
    Network::lenet5(SIZE, CLASSES, Strategy::Unrolling, SEED)
}

fn image(seed: u64) -> Vec<f32> {
    (0..SIZE * SIZE)
        .map(|i| ((seed as usize * 31 + i * 7) % 97) as f32 / 97.0 - 0.5)
        .collect()
}

#[derive(Debug, Serialize)]
struct Cell {
    max_batch: usize,
    conns: usize,
    /// Requests kept in flight per connection (closed loop).
    depth: usize,
    /// conns × depth — the offered-load axis.
    offered_inflight: usize,
    window_ms: u64,
    completed: u64,
    shed: u64,
    throughput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    mean_batch: f64,
    batches_multi: u64,
}

#[derive(Debug, Serialize)]
struct Report {
    model: String,
    input: [usize; 3],
    workers: usize,
    max_delay_ms: u64,
    cells: Vec<Cell>,
    /// Throughput at the largest cap / throughput at cap 1, both at
    /// the highest offered load. The acceptance gate.
    batched_speedup: f64,
    cap1_throughput_rps: f64,
    capmax_throughput_rps: f64,
}

/// Drive one server configuration with closed-loop pipelining clients
/// for `window`; returns the cell record.
fn run_cell(max_batch: usize, conns: usize, depth: usize, window: Duration) -> Cell {
    // Admission must never bite at the measured loads: shed/resend
    // cycles would turn a throughput cell into an admission-control
    // cell. The overload path has its own integration tests.
    let policy = BatchPolicy::new(max_batch, MAX_DELAY)
        .with_queue_cap(conns * depth + max_batch.saturating_mul(4));
    let server = Server::start(ServeConfig::loopback(1, policy, (1, SIZE, SIZE)), |_| {
        bench_net()
    })
    .expect("bind loopback server");
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let t0 = Instant::now();
    let clients: Vec<_> = (0..conns)
        .map(|conn| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let pixels = image(conn as u64);
                for _ in 0..depth {
                    client
                        .send(1, SIZE as u16, SIZE as u16, &pixels)
                        .expect("send");
                }
                let mut ok = 0u64;
                let mut inflight = depth;
                loop {
                    let resp = client.recv().expect("recv").expect("server closed mid-run");
                    if resp.status == Status::Ok {
                        ok += 1;
                    }
                    inflight -= 1;
                    if stop.load(Ordering::Relaxed) {
                        if inflight == 0 {
                            return ok;
                        }
                    } else {
                        client
                            .send(1, SIZE as u16, SIZE as u16, &pixels)
                            .expect("send");
                        inflight += 1;
                    }
                }
            })
        })
        .collect();

    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let mut completed = 0u64;
    for handle in clients {
        completed += handle.join().expect("client thread");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = server.stats();
    server.shutdown();

    Cell {
        max_batch,
        conns,
        depth,
        offered_inflight: conns * depth,
        window_ms: window.as_millis() as u64,
        completed,
        shed: stats.shed,
        throughput_rps: completed as f64 / elapsed,
        p50_ms: stats.p50_ms,
        p99_ms: stats.p99_ms,
        mean_batch: stats.mean_batch,
        batches_multi: stats.batches_multi,
    }
}

fn run_sweep(window: Duration, conns: usize) {
    let caps = [1usize, 4, 8];
    let depths = [1usize, 4];
    let mut cells = Vec::new();
    println!(
        "{:>9} {:>6} {:>9} {:>11} {:>9} {:>9} {:>11} {:>13}",
        "max_batch",
        "conns",
        "inflight",
        "thru r/s",
        "p50 ms",
        "p99 ms",
        "mean batch",
        "multi-batches"
    );
    for &cap in &caps {
        for &depth in &depths {
            let cell = run_cell(cap, conns, depth, window);
            println!(
                "{:>9} {:>6} {:>9} {:>11.0} {:>9.2} {:>9.2} {:>11.2} {:>13}",
                cell.max_batch,
                cell.conns,
                cell.offered_inflight,
                cell.throughput_rps,
                cell.p50_ms,
                cell.p99_ms,
                cell.mean_batch,
                cell.batches_multi
            );
            cells.push(cell);
        }
    }

    let max_cap = *caps.iter().max().expect("non-empty");
    let max_depth = *depths.iter().max().expect("non-empty");
    let at = |cap: usize| {
        cells
            .iter()
            .find(|c| c.max_batch == cap && c.depth == max_depth)
            .expect("swept cell")
            .throughput_rps
    };
    let cap1 = at(1);
    let capmax = at(max_cap);
    let report = Report {
        model: format!("lenet5-{SIZE}x{SIZE}-im2col"),
        input: [1, SIZE, SIZE],
        workers: 1,
        max_delay_ms: MAX_DELAY.as_millis() as u64,
        cells,
        batched_speedup: capmax / cap1,
        cap1_throughput_rps: cap1,
        capmax_throughput_rps: capmax,
    };
    println!(
        "\nbatched speedup (cap {max_cap} vs cap 1, {conns}x{max_depth} in flight): {:.2}x",
        report.batched_speedup
    );
    let path = gcnn_bench::write_json("BENCH_serve", &report).expect("write results");
    println!("wrote {path}");
}

/// The CI smoke: one short high-concurrency cell with functional
/// assertions. Exits non-zero on any violation.
fn run_smoke(window: Duration, conns: usize) {
    let net = bench_net();
    let policy = BatchPolicy::new(8, Duration::from_millis(5)).with_queue_cap(256);
    let server = Server::start(ServeConfig::loopback(1, policy, (1, SIZE, SIZE)), |_| {
        bench_net()
    })
    .expect("bind loopback server");
    let addr = server.local_addr();

    // Correctness probe: a served response must match the local
    // forward pass bit-for-bit-ish (both run the same f32 kernels).
    let probe = image(7);
    let expected = {
        let input =
            Tensor4::from_vec(Shape4::new(1, 1, SIZE, SIZE), probe.clone()).expect("probe shape");
        net.forward(&input).as_slice().to_vec()
    };
    let mut probe_client = Client::connect(addr).expect("connect probe");
    let resp = probe_client
        .infer(1, SIZE as u16, SIZE as u16, &probe)
        .expect("probe roundtrip");
    assert_eq!(resp.status, Status::Ok, "smoke: probe not served Ok");
    assert_eq!(resp.values.len(), CLASSES, "smoke: wrong logit count");
    for (got, want) in resp.values.iter().zip(&expected) {
        assert!(
            (got - want).abs() < 1e-5,
            "smoke: served logits diverge from local forward ({got} vs {want})"
        );
    }

    let stats = server.stats();
    assert_eq!(stats.bad_requests, 0, "smoke: spurious bad requests");
    server.shutdown();

    // Concurrent burst against a fresh server (run_cell starts its
    // own): every response Ok, and the batch histogram must prove
    // coalescing happened.
    let cell = run_cell(8, conns, 8, window);
    assert_eq!(cell.shed, 0, "smoke: unexpected load-shedding: {cell:?}");
    assert!(
        cell.completed >= (conns * 8) as u64,
        "smoke: burst barely ran: {cell:?}"
    );
    assert!(
        cell.batches_multi >= 1,
        "smoke: no multi-request batch formed — dynamic batching is not coalescing: {cell:?}"
    );
    println!(
        "serve smoke OK: {} responses, {} multi-batches (mean batch {:.2}), p99 {:.2} ms",
        cell.completed, cell.batches_multi, cell.mean_batch, cell.p99_ms
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let conns = env_usize("GCNN_SERVE_CONNS", 4);
    let window_ms = env_usize("GCNN_SERVE_MS", if smoke { 250 } else { 400 });
    let window = Duration::from_millis(window_ms as u64);
    if smoke {
        run_smoke(window, conns);
    } else {
        run_sweep(window, conns);
    }
}
