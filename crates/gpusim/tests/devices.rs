//! Device-table acceptance tests:
//!
//! * Maxwell validation — [`DeviceSpec::gm204`] must reproduce maxDNN's
//!   (arXiv:1501.06633) published platform numbers: 4612 GFLOP/s peak,
//!   and 25 % register-limited occupancy for the Maxas-derived
//!   256-thread / 128-register convolution kernel, within 5 %;
//! * model invariants — every preset admits at least one maximal block
//!   and a max-register warp, and has finite positive bandwidths, since
//!   the occupancy, timing and transfer models divide by these fields.

use gcnn_gpusim::{occupancy, DeviceSpec, OccupancyLimiter};

/// maxDNN's platform headline: "the GTX980 has a peak of 4612 GFLOPS".
#[test]
fn gm204_peak_flops_matches_maxdnn() {
    let gm204 = DeviceSpec::gm204();
    let gflops = gm204.peak_flops() / 1e9;
    assert!(
        (gflops - 4612.0).abs() / 4612.0 < 0.05,
        "GM204 peak {gflops} GFLOP/s drifted from maxDNN's published 4612"
    );
}

/// maxDNN's convolution kernel inherits the Maxas SGEMM shape: 256
/// threads per block at 128 registers per thread. On GM204's 64 K
/// register file that admits 65536/4096 = 16 warps -> 2 resident
/// 8-warp blocks -> 25 % theoretical occupancy, register-limited —
/// the published low-occupancy / high-ILP operating point the paper
/// reports 96.3 % computational efficiency at. The occupancy model
/// must land within 5 % of that figure.
#[test]
fn gm204_occupancy_matches_maxdnn_within_5_percent() {
    const MAXDNN_PUBLISHED_OCCUPANCY: f64 = 0.25;
    let gm204 = DeviceSpec::gm204();
    let occ = occupancy(&gm204, 128, 0, 256);
    assert_eq!(occ.limiter, OccupancyLimiter::Registers);
    assert_eq!(occ.blocks_per_sm, 2);
    assert_eq!(occ.active_warps, 16);
    let rel_err = (occ.theoretical - MAXDNN_PUBLISHED_OCCUPANCY).abs() / MAXDNN_PUBLISHED_OCCUPANCY;
    assert!(
        rel_err < 0.05,
        "model occupancy {} vs maxDNN published {MAXDNN_PUBLISHED_OCCUPANCY} (rel err {rel_err})",
        occ.theoretical
    );
}

/// Maxwell raised the resident-block cap to 32: a tiny-block kernel
/// that was block-limited at 16 on Kepler doubles its residency.
#[test]
fn gm204_block_cap_doubles_keplers() {
    let occ_kepler = occupancy(&DeviceSpec::k40c(), 8, 0, 32);
    let occ_maxwell = occupancy(&DeviceSpec::gm204(), 8, 0, 32);
    assert_eq!(occ_kepler.blocks_per_sm, 16);
    assert_eq!(occ_maxwell.blocks_per_sm, 32);
}

/// Every preset the models consume satisfies the invariants the
/// occupancy, timing and transfer models rely on.
#[test]
fn every_preset_satisfies_the_model_invariants() {
    for d in [
        DeviceSpec::k40c(),
        DeviceSpec::k80_single_die(),
        DeviceSpec::titan_x_maxwell(),
        DeviceSpec::gm204(),
    ] {
        let name = &d.name;
        assert!(!name.trim().is_empty());
        for (field, value) in [
            ("sm_count", d.sm_count),
            ("cores_per_sm", d.cores_per_sm),
            ("clock_mhz", d.clock_mhz),
            ("warp_size", d.warp_size),
            ("max_threads_per_sm", d.max_threads_per_sm),
            ("max_warps_per_sm", d.max_warps_per_sm),
            ("max_blocks_per_sm", d.max_blocks_per_sm),
            ("max_threads_per_block", d.max_threads_per_block),
            ("registers_per_sm", d.registers_per_sm),
            ("max_registers_per_thread", d.max_registers_per_thread),
            ("register_alloc_granularity", d.register_alloc_granularity),
            ("shared_mem_per_sm", d.shared_mem_per_sm),
            ("shared_mem_per_block", d.shared_mem_per_block),
            ("shared_alloc_granularity", d.shared_alloc_granularity),
            ("shared_banks", d.shared_banks),
            ("shared_bank_bytes", d.shared_bank_bytes),
            ("transaction_bytes", d.transaction_bytes),
        ] {
            assert!(value > 0, "{name}: {field} is 0");
        }
        assert!(d.global_mem_bytes > 0, "{name}: global_mem_bytes is 0");
        assert!(
            d.max_warps_per_sm * d.warp_size <= d.max_threads_per_sm,
            "{name}: max_warps_per_sm x warp_size exceeds max_threads_per_sm"
        );
        assert!(
            (d.warp_size..=d.max_threads_per_sm).contains(&d.max_threads_per_block),
            "{name}: max_threads_per_block outside [warp_size, max_threads_per_sm]"
        );
        assert!(
            d.shared_mem_per_block <= d.shared_mem_per_sm,
            "{name}: shared_mem_per_block exceeds shared_mem_per_sm"
        );
        assert!(
            u64::from(d.max_registers_per_thread) * u64::from(d.warp_size)
                <= u64::from(d.registers_per_sm),
            "{name}: register file cannot hold one max-register warp"
        );
        for (field, value) in [
            ("mem_bandwidth_gbs", d.mem_bandwidth_gbs),
            ("pcie_pinned_gbs", d.pcie_pinned_gbs),
            ("pcie_pageable_gbs", d.pcie_pageable_gbs),
        ] {
            assert!(
                value.is_finite() && value > 0.0,
                "{name}: {field} = {value}"
            );
        }
        for (field, value) in [
            ("launch_overhead_us", d.launch_overhead_us),
            ("transfer_latency_us", d.transfer_latency_us),
        ] {
            assert!(
                value.is_finite() && value >= 0.0,
                "{name}: {field} = {value}"
            );
        }
    }
}
