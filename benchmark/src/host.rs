//! Probed machine peaks and process memory.
//!
//! Every `*_pct_peak` metric divides by a number measured here, in the
//! same run, never by a datasheet figure: a register-resident FMA loop
//! for compute and a streaming triad for memory bandwidth. Both run on
//! as many threads as the product's pool advertises, so a kernel is
//! compared with what the threads it can use could do.

use std::hint::black_box;
use std::time::Instant;

/// Independent accumulators per thread: FMA latency (4 cycles) times
/// issue width (2 per cycle) needs 8 in flight; 12 leaves slack.
const ACCUMULATORS: usize = 12;
/// Timed repetitions of each probe; the best one is the peak.
const REPS: usize = 5;

/// What the host can do, as measured.
#[derive(Debug, Clone, Copy)]
pub struct HostPeaks {
    pub fma_gflops: f64,
    pub stream_gbps: f64,
}

/// Cores the OS offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Threads the product's kernels fan out to.
pub fn pool_threads() -> usize {
    rayon::current_num_threads()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn fma_avx512(iters: u64) -> (f32, u64) {
    use std::arch::x86_64::{_mm512_fmadd_ps, _mm512_reduce_add_ps, _mm512_set1_ps};
    let a = _mm512_set1_ps(black_box(0.999_9));
    let b = _mm512_set1_ps(black_box(1e-4));
    let mut acc = [_mm512_set1_ps(1.0); ACCUMULATORS];
    for _ in 0..iters {
        for r in &mut acc {
            *r = _mm512_fmadd_ps(*r, a, b);
        }
    }
    let sum = acc.iter().map(|r| _mm512_reduce_add_ps(*r)).sum();
    (sum, iters * (ACCUMULATORS * 16 * 2) as u64)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_avx2(iters: u64) -> (f32, u64) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_castps256_ps128, _mm256_extractf128_ps, _mm256_fmadd_ps,
        _mm256_set1_ps, _mm_add_ps, _mm_add_ss, _mm_cvtss_f32, _mm_movehl_ps, _mm_shuffle_ps,
    };
    let a = _mm256_set1_ps(black_box(0.999_9));
    let b = _mm256_set1_ps(black_box(1e-4));
    let mut acc = [_mm256_set1_ps(1.0); ACCUMULATORS];
    for _ in 0..iters {
        for r in &mut acc {
            *r = _mm256_fmadd_ps(*r, a, b);
        }
    }
    let mut total = acc[0];
    for r in &acc[1..] {
        total = _mm256_add_ps(total, *r);
    }
    let quad = _mm_add_ps(
        _mm256_castps256_ps128(total),
        _mm256_extractf128_ps::<1>(total),
    );
    let pair = _mm_add_ps(quad, _mm_movehl_ps(quad, quad));
    let sum = _mm_cvtss_f32(_mm_add_ss(pair, _mm_shuffle_ps::<1>(pair, pair)));
    (sum, iters * (ACCUMULATORS * 8 * 2) as u64)
}

/// Portable fallback: the compiler vectorises the lane arrays at
/// whatever width the build target allows.
fn fma_portable(iters: u64) -> (f32, u64) {
    let a = black_box(0.999_9f32);
    let b = black_box(1e-4f32);
    let mut acc = [[1.0f32; 8]; ACCUMULATORS];
    for _ in 0..iters {
        for r in &mut acc {
            for x in r.iter_mut() {
                *x = x.mul_add(a, b);
            }
        }
    }
    let sum = acc.iter().flatten().sum();
    (sum, iters * (ACCUMULATORS * 8 * 2) as u64)
}

/// The FMA loops this CPU can run, widest first.
fn fma_kernels() -> Vec<fn(u64) -> (f32, u64)> {
    let mut kernels: Vec<fn(u64) -> (f32, u64)> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: `avx512f` was detected on this CPU just above.
            kernels.push(|n| unsafe { fma_avx512(n) });
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: `avx2` and `fma` were detected on this CPU just above.
            kernels.push(|n| unsafe { fma_avx2(n) });
        }
    }
    kernels.push(fma_portable);
    kernels
}

/// Peak single-precision FMA rate over `threads` threads, GFLOP/s: the
/// best of every kernel this CPU supports, [`REPS`] timed runs each.
pub fn peak_fma_gflops(threads: usize) -> f64 {
    const ITERS: u64 = 4_000_000; // ≈ 25 ms at one 12-wide round per 6 cycles
    let mut best = 0.0f64;
    for kernel in fma_kernels() {
        for _ in 0..REPS {
            let t0 = Instant::now();
            let flops: u64 = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| s.spawn(move || black_box(kernel(black_box(ITERS))).1))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("FMA probe thread panicked"))
                    .sum()
            });
            best = best.max(flops as f64 / t0.elapsed().as_secs_f64() / 1e9);
        }
    }
    best
}

/// Size of the largest cache `cpu0` reports in sysfs, bytes.
pub fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let bytes = match size.chars().last() {
            Some('K') => size[..size.len() - 1].parse::<u64>().map(|k| k << 10),
            Some('M') => size[..size.len() - 1].parse::<u64>().map(|m| m << 20),
            _ => size.parse::<u64>(),
        };
        if let Ok(bytes) = bytes {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, bytes));
            }
        }
    }
    best.map(|(_, b)| b)
}

/// Working set of the bandwidth probe: four times the last-level
/// cache, so at most a quarter of any pass can hit in cache; capped at
/// an eighth of physical memory. Returns `(bytes, llc_bytes)`.
pub fn stream_working_set() -> (u64, u64) {
    let llc = llc_bytes().unwrap_or(32 << 20);
    let mem_total = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("MemTotal:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .map_or(u64::MAX, |kb| kb << 10);
    ((4 * llc).min(mem_total / 8), llc)
}

/// Sustained bandwidth of the STREAM triad `a = b + s·c` over three
/// arrays totalling `working_set` bytes, split over `threads` threads,
/// GB/s (computed bytes: two reads and one write per element).
pub fn stream_gbps(threads: usize, working_set: u64) -> f64 {
    let len = (working_set / 12) as usize / threads * threads;
    let mut a = vec![0.0f32; len];
    let b = vec![1.0f32; len];
    let c = vec![2.0f32; len];
    let chunk = len / threads;
    let mut best = 0.0f64;
    // One untimed pass faults `a` in.
    for rep in 0..=REPS {
        let s = black_box(3.0f32);
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for ((ac, bc), cc) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    for ((x, y), z) in ac.iter_mut().zip(bc).zip(cc) {
                        *x = y + s * z;
                    }
                });
            }
        });
        let secs = t0.elapsed().as_secs_f64();
        black_box(&a);
        if rep > 0 {
            best = best.max((len * 12) as f64 / secs / 1e9);
        }
    }
    best
}

/// Probe both peaks and print what was measured and on what.
pub fn probe() -> HostPeaks {
    let threads = pool_threads();
    let (working_set, llc) = stream_working_set();
    let peaks = HostPeaks {
        fma_gflops: peak_fma_gflops(threads),
        stream_gbps: stream_gbps(threads, working_set),
    };
    println!(
        "host: nproc {} pool_threads {} llc {:.1} MiB triad_working_set {:.1} MiB",
        nproc(),
        threads,
        llc as f64 / 1048576.0,
        working_set as f64 / 1048576.0,
    );
    peaks
}

/// `VmHWM` of this process, MiB: the high-water mark of resident memory.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}
