//! Property-based tests pinning the optimized GEMM to the reference.

use gcnn_gemm::blocking::BlockSizes;
use gcnn_gemm::kernel;
use gcnn_gemm::naive::sgemm_ref;
use gcnn_gemm::pack::OperandView;
use gcnn_gemm::sgemm::sgemm_blocked;
use gcnn_tensor::workspace;
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;

/// A dense operand view (`t`: stored transposed).
fn view(data: &[f32], ld: usize, t: bool) -> OperandView<'_> {
    OperandView::new(data, ld, t)
}

/// Deterministic pseudo-random vector from a seed (keeps case sizes
/// independent of proptest's value trees).
fn lcg_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) * 4.0 - 2.0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blocked_matches_reference(
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..40,
        ta in any::<bool>(),
        tb in any::<bool>(),
        alpha in -2.0f32..2.0,
        beta in -2.0f32..2.0,
        tiny in any::<bool>(),
        seed in 0u64..10_000,
    ) {
        let (ar, ac) = if ta { (k, m) } else { (m, k) };
        let (br, bc) = if tb { (n, k) } else { (k, n) };
        let a = lcg_vec(ar * ac, seed);
        let b = lcg_vec(br * bc, seed + 1);
        let c0: Vec<f32> = (0..m * n).map(|i| (i % 11) as f32 - 5.0).collect();

        let blocks = if tiny { BlockSizes::tiny() } else { BlockSizes::default_sizes() };

        let mut c_opt = c0.clone();
        sgemm_blocked(m, n, k, alpha, &view(&a, ac, ta), &view(&b, bc, tb), beta, &mut c_opt, n, blocks);
        let mut c_ref = c0;
        sgemm_ref(ta, tb, m, n, k, alpha, &a, ac, &b, bc, beta, &mut c_ref, n);

        let tol = 1e-3 * (k as f32).sqrt() * alpha.abs().max(1.0);
        for (i, (x, y)) in c_opt.iter().zip(&c_ref).enumerate() {
            prop_assert!((x - y).abs() <= tol, "elem {i}: {x} vs {y}");
        }
    }

    /// GEMM is linear in alpha: gemm(2a) == 2 * gemm(a) when beta = 0.
    #[test]
    fn linear_in_alpha(m in 1usize..16, n in 1usize..16, k in 1usize..16, alpha in -2.0f32..2.0) {
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 13) % 7) as f32 - 3.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 17) % 5) as f32 - 2.0).collect();

        let mut c1 = vec![0.0f32; m * n];
        sgemm_blocked(m, n, k, alpha, &view(&a, k, false), &view(&b, n, false), 0.0, &mut c1, n, BlockSizes::tiny());
        let mut c2 = vec![0.0f32; m * n];
        sgemm_blocked(m, n, k, 2.0 * alpha, &view(&a, k, false), &view(&b, n, false), 0.0, &mut c2, n, BlockSizes::tiny());

        for (x, y) in c1.iter().zip(&c2) {
            prop_assert!((2.0 * x - y).abs() < 1e-3 * x.abs().max(1.0));
        }
    }

    /// The driver must be oblivious to pool width: the same problem
    /// solved under pools of 1, 2, and `max` threads (and under both
    /// tiny and default block sizes) matches the reference. Row blocks
    /// are the parallel tasks, so this pins the row-block arithmetic and
    /// the one-owner-per-C-row rule.
    #[test]
    fn blocked_matches_reference_across_pools(
        m in 1usize..48,
        n in 1usize..48,
        k in 1usize..32,
        alpha in -2.0f32..2.0,
        beta in -2.0f32..2.0,
        seed in 0u64..10_000,
    ) {
        let a = lcg_vec(m * k, seed);
        let b = lcg_vec(k * n, seed + 1);
        let c0: Vec<f32> = (0..m * n).map(|i| (i % 7) as f32 - 3.0).collect();

        let mut c_ref = c0.clone();
        sgemm_ref(false, false, m, n, k, alpha, &a, k, &b, n, beta, &mut c_ref, n);
        let tol = 1e-3 * (k as f32).sqrt() * alpha.abs().max(1.0);

        let max_threads = rayon::current_num_threads().max(4);
        for threads in [1, 2, max_threads] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            for blocks in [BlockSizes::tiny(), BlockSizes::default_sizes()] {
                let mut c_opt = c0.clone();
                pool.install(|| {
                    sgemm_blocked(
                        m, n, k, alpha, &view(&a, k, false), &view(&b, n, false),
                        beta, &mut c_opt, n, blocks,
                    )
                });
                for (i, (x, y)) in c_opt.iter().zip(&c_ref).enumerate() {
                    prop_assert!(
                        (x - y).abs() <= tol,
                        "threads={threads} blocks={blocks:?} elem {i}: {x} vs {y}"
                    );
                }
            }
        }
    }

    /// (A·B)ᵀ == Bᵀ·Aᵀ.
    #[test]
    fn transpose_identity(m in 1usize..12, n in 1usize..12, k in 1usize..12) {
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 31) % 9) as f32 - 4.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 23) % 11) as f32 - 5.0).collect();

        let mut ab = vec![0.0f32; m * n];
        sgemm_blocked(m, n, k, 1.0, &view(&a, k, false), &view(&b, n, false), 0.0, &mut ab, n, BlockSizes::tiny());

        // Bᵀ·Aᵀ computed with transpose flags on the stored (untransposed) buffers.
        let mut btat = vec![0.0f32; n * m];
        sgemm_blocked(n, m, k, 1.0, &view(&b, n, true), &view(&a, k, true), 0.0, &mut btat, m, BlockSizes::tiny());

        for i in 0..m {
            for j in 0..n {
                prop_assert!((ab[i * n + j] - btat[j * m + i]).abs() < 1e-3);
            }
        }
    }
}

/// Fill the `rows × cols` window of a fresh `ld`-strided buffer from
/// `vals`, leaving `gutter` in the padding.
fn strided(rows: usize, cols: usize, ld: usize, vals: &[f32], gutter: f32) -> Vec<f32> {
    let mut out = vec![gutter; rows * ld];
    for (row, src) in out.chunks_mut(ld).zip(vals.chunks(cols)) {
        row[..cols].copy_from_slice(src);
    }
    out
}

/// One SGEMM against the reference: all four leading dimensions padded,
/// C poisoned with NaN/Inf when `beta == 0` (overwrite must not read
/// it), the `ldc` gutter checked untouched.
#[allow(clippy::too_many_arguments)] // mirrors the BLAS signature
fn check_case(
    ta: bool,
    tb: bool,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    beta: f32,
    blocks: BlockSizes,
) {
    let (ar, ac) = if ta { (k, m) } else { (m, k) };
    let (br, bc) = if tb { (n, k) } else { (k, n) };
    let (lda, ldb, ldc) = (ac + 3, bc + 1, n + 2);
    let seed = (m * 31 + n * 17 + k) as u64;
    let a = strided(ar, ac, lda, &lcg_vec(ar * ac, seed), f32::NAN);
    let b = strided(br, bc, ldb, &lcg_vec(br * bc, seed + 1), f32::NAN);
    let c_vals = lcg_vec(m * n, seed + 2);
    const GUTTER: f32 = -77.0;

    let mut c_ref = strided(m, n, ldc, &c_vals, GUTTER);
    let mut c_opt = c_ref.clone();
    if beta == 0.0 {
        for (i, row) in c_opt.chunks_mut(ldc).enumerate() {
            row[..n].fill(if i % 2 == 0 { f32::NAN } else { f32::INFINITY });
        }
        for row in c_ref.chunks_mut(ldc) {
            row[..n].fill(0.0);
        }
    }
    let (av, bv) = (view(&a, lda, ta), view(&b, ldb, tb));
    sgemm_blocked(m, n, k, alpha, &av, &bv, beta, &mut c_opt, ldc, blocks);
    sgemm_ref(
        ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c_ref, ldc,
    );

    let tol = 1e-3 * (k as f32).sqrt() * alpha.abs().max(1.0);
    let what = format!("ta={ta} tb={tb} ({m},{n},{k}) alpha={alpha} beta={beta} {blocks:?}");
    for (idx, (x, y)) in c_opt.iter().zip(&c_ref).enumerate() {
        if idx % ldc < n {
            assert!((x - y).abs() <= tol, "{what} elem {idx}: {x} vs {y}");
        } else {
            assert_eq!(*x, GUTTER, "{what}: wrote the ldc gutter at {idx}");
        }
    }
}

/// Shapes straddling every blocking boundary of the kernel the driver
/// will select — one row/column/slab either side of a register strip
/// and of a cache block, the small-`m` no-pack path (`A·Bᵀ` with
/// `m <= mr`) on both sides of its threshold — for all four transpose
/// combinations and `alpha`, `beta` each in {0, 1, other}.
#[test]
fn boundary_shapes_match_reference() {
    let kern = kernel::select();
    let (mr, nr) = (kern.mr(), kern.nr());
    let tiny = BlockSizes::tiny();
    let BlockSizes { mc, kc, nc } = tiny.snapped_to(&kern);
    let scalars = [0.0f32, 1.0, -0.75];
    for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
        for m in [1, mr - 1, mr, mr + 1, mc + 1] {
            for n in [1, nr - 1, nr + 1, 169, nc + 1] {
                for k in [1, kc - 1, kc + 1] {
                    for alpha in scalars {
                        for beta in scalars {
                            check_case(ta, tb, m, n, k, alpha, beta, tiny);
                        }
                    }
                }
            }
        }
        // The default blocks' own boundaries, one dimension at a time.
        let full = BlockSizes::default_sizes();
        let BlockSizes { mc, kc, nc } = full.snapped_to(&kern);
        for (m, n, k) in [
            (mc + 1, nr + 1, 9),
            (mr + 1, nc + 1, 9),
            (mr + 1, nr + 1, kc + 1),
        ] {
            check_case(ta, tb, m, n, k, 1.0, 0.0, full);
            check_case(ta, tb, m, n, k, -0.75, 1.0, full);
        }
    }
}

/// The property above draws C no larger than 47×47, which the pool keeps
/// on its caller; this C is past that size and has seven row blocks, so
/// at widths 2 and 4 workers really take some of them. One owner per C
/// row and a fixed k order: the result is the bits of width 1.
#[test]
fn row_blocks_on_a_real_pool_give_the_same_bits() {
    let (m, n, k) = (190, 97, 45);
    let a = lcg_vec(m * k, 11);
    let b = lcg_vec(k * n, 12);
    let c0: Vec<f32> = (0..m * n).map(|i| (i % 5) as f32 - 2.0).collect();
    let run = |threads: usize| {
        let mut c = c0.clone();
        let pool = ThreadPoolBuilder::new().num_threads(threads).build();
        pool.expect("pool").install(|| {
            let (av, bv) = (view(&a, k, false), view(&b, n, false));
            sgemm_blocked(m, n, k, 0.5, &av, &bv, -1.5, &mut c, n, BlockSizes::tiny())
        });
        c.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    };
    let one = run(1);
    let mut c_ref = c0.clone();
    sgemm_ref(
        false, false, m, n, k, 0.5, &a, k, &b, n, -1.5, &mut c_ref, n,
    );
    for (x, y) in one.iter().zip(&c_ref) {
        assert!((f32::from_bits(*x) - y).abs() <= 1e-3 * (k as f32).sqrt());
    }
    for threads in [2, 4] {
        assert!(run(threads) == one, "C differs at {threads} threads");
    }
}

/// The second of two identical GEMM calls must run entirely out of the
/// workspace arena: zero fresh pool allocations.
#[test]
fn repeated_sgemm_is_steady_state_allocation_free() {
    let m = 48;
    let n = 200;
    let k = 96;
    let a = lcg_vec(m * k, 3);
    let b = lcg_vec(k * n, 4);
    let mut c = vec![0.0f32; m * n];
    let blocks = BlockSizes::default_sizes();

    let run = |c: &mut [f32]| {
        sgemm_blocked(
            m,
            n,
            k,
            1.0,
            &view(&a, k, false),
            &view(&b, n, false),
            0.0,
            c,
            n,
            blocks,
        )
    };

    // Width 1: `alloc_scope` counts this thread only, so this thread
    // must be the one that warms up and the one that is counted.
    let (_, misses) = workspace::on_calling_thread(|| {
        run(&mut c); // warm the thread-local pools
        workspace::alloc_scope(|| run(&mut c))
    });
    assert_eq!(
        misses, 0,
        "second identical GEMM call took {misses} fresh allocations"
    );

    // Same for the no-pack small-M path (4 rows of A against Bᵀ).
    let bt = lcg_vec(n * k, 5);
    let small = |c: &mut [f32]| {
        let (av, bv) = (view(&a, k, false), view(&bt, k, true));
        sgemm_blocked(4, n, k, 1.0, &av, &bv, 0.0, c, n, blocks)
    };
    let (_, misses) = workspace::on_calling_thread(|| {
        small(&mut c);
        workspace::alloc_scope(|| small(&mut c))
    });
    assert_eq!(misses, 0, "small-M GEMM took {misses} fresh allocations");
}
