//! Criterion bench of the real FFT substrate: the batch-major lane
//! engine over lane counts, and the batched 2-D real transforms.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gcnn_fft::{
    fft_flops, fft_lanes_inplace, rfft_forward_batch_split, rfft_inverse_batch_split, Direction,
    FftPlan, RfftPlan,
};
use std::hint::black_box;

fn signal(len: usize, seed: f32) -> Vec<f32> {
    (0..len).map(|i| (i as f32 * seed).sin()).collect()
}

fn bench_fft_lanes(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_lanes");
    for &n in &[256usize, 1024] {
        let plan = FftPlan::new(n);
        for &lanes in &[1usize, 8, 64] {
            let (re0, im0) = (signal(n * lanes, 0.37), signal(n * lanes, 0.91));
            group.throughput(Throughput::Elements(lanes as u64 * fft_flops(n)));
            group.bench_with_input(
                BenchmarkId::new(&format!("n{n}"), lanes),
                &lanes,
                |bench, _| {
                    let (mut re, mut im) = (re0.clone(), im0.clone());
                    bench.iter(|| {
                        fft_lanes_inplace(
                            black_box(&mut re),
                            black_box(&mut im),
                            &plan,
                            Direction::Forward,
                            lanes,
                        );
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_rfft_2d(c: &mut Criterion) {
    let mut group = c.benchmark_group("rfft_2d_roundtrip");
    let batch = 8usize;
    for &n in &[32usize, 64, 128] {
        let plan = RfftPlan::cached(n);
        let planes: Vec<f32> = (0..batch * n * n)
            .map(|i| ((i * 37) % 23) as f32 - 11.0)
            .collect();
        let mut sre = vec![0.0f32; batch * plan.spectrum_len()];
        let mut sim = vec![0.0f32; batch * plan.spectrum_len()];
        let mut back = vec![0.0f32; planes.len()];
        // Forward + inverse, each two 1-D passes over ~n lines.
        group.throughput(Throughput::Elements(
            batch as u64 * 4 * n as u64 * fft_flops(n),
        ));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| {
                rfft_forward_batch_split(&plan, black_box(&planes), &mut sre, &mut sim);
                rfft_inverse_batch_split(&plan, &sre, &sim, &mut back);
                black_box(&back);
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fft_lanes, bench_rfft_2d);
criterion_main!(benches);
