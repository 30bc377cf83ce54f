//! Criterion bench of the real SGEMM/CGEMM substrate (the "cuBLAS" this
//! repository built from scratch). These are CPU wall-clock numbers for
//! the library's own kernels, not modeled GPU numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gcnn_gemm::{cgemm_split, gemm_flops, sgemm, Transpose};
use std::hint::black_box;

fn lcg_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        })
        .collect()
}

fn bench_sgemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("sgemm");
    for &n in &[64usize, 128, 256, 512] {
        let a = lcg_vec(n * n, 1);
        let b = lcg_vec(n * n, 2);
        let mut out = vec![0.0f32; n * n];
        group.throughput(Throughput::Elements(gemm_flops(n, n, n)));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, &n| {
            bench.iter(|| {
                sgemm(
                    Transpose::No,
                    Transpose::No,
                    n,
                    n,
                    n,
                    1.0,
                    black_box(&a),
                    n,
                    black_box(&b),
                    n,
                    0.0,
                    &mut out,
                    n,
                );
            });
        });
    }
    group.finish();
}

fn bench_sgemm_conv_shape(c: &mut Criterion) {
    // The Caffe forward GEMM at the paper's base config:
    // [64 × 363] · [363 × 13924] per image.
    let (m, k, n) = (64usize, 363usize, 13924usize);
    let a = lcg_vec(m * k, 3);
    let b = lcg_vec(k * n, 4);
    let mut out = vec![0.0f32; m * n];
    let mut group = c.benchmark_group("sgemm_conv_shape");
    group.throughput(Throughput::Elements(gemm_flops(m, n, k)));
    group.bench_function("caffe_fwd_base", |bench| {
        bench.iter(|| {
            sgemm(
                Transpose::No,
                Transpose::No,
                m,
                n,
                k,
                1.0,
                black_box(&a),
                k,
                black_box(&b),
                n,
                0.0,
                &mut out,
                n,
            );
        });
    });
    group.finish();
}

fn bench_cgemm(c: &mut Criterion) {
    let n = 96usize;
    let (re, im) = (lcg_vec(n * n, 5), lcg_vec(n * n, 6));
    let mut out_re = vec![0.0f32; n * n];
    let mut out_im = vec![0.0f32; n * n];
    c.bench_function("cgemm_split_96", |bench| {
        bench.iter(|| {
            cgemm_split(
                Transpose::No,
                false,
                false,
                n,
                n,
                n,
                black_box(&re),
                black_box(&im),
                n,
                black_box(&re),
                black_box(&im),
                n,
                &mut out_re,
                &mut out_im,
                n,
            );
        });
    });
}

criterion_group!(benches, bench_sgemm, bench_sgemm_conv_shape, bench_cgemm);
criterion_main!(benches);
