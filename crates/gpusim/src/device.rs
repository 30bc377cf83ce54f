//! GPU device presets. Each device is a constructor: the paper's
//! K40c, maxDNN's GM204 and the two siblings of the sensitivity sweep.

use serde::{Deserialize, Serialize};

/// Static description of a GPU, in the terms the occupancy and timing
/// models consume.
///
/// [`DeviceSpec::k40c`] reproduces the paper's experimental platform
/// (§III-A) plus the Kepler GK110B allocation granularities from the
/// CUDA occupancy calculator; the other presets override it field by
/// field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Marketing name.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// CUDA cores per SM.
    pub cores_per_sm: u32,
    /// Core clock in MHz.
    pub clock_mhz: u32,
    /// Threads per warp.
    pub warp_size: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Maximum threads per block.
    pub max_threads_per_block: u32,
    /// 32-bit registers per SM.
    pub registers_per_sm: u32,
    /// Maximum registers one thread may use.
    pub max_registers_per_thread: u32,
    /// Register allocation granularity (registers per warp are rounded
    /// up to a multiple of this).
    pub register_alloc_granularity: u32,
    /// Shared memory per SM, bytes.
    pub shared_mem_per_sm: u32,
    /// Maximum shared memory per block, bytes.
    pub shared_mem_per_block: u32,
    /// Shared-memory allocation granularity, bytes.
    pub shared_alloc_granularity: u32,
    /// Number of shared-memory banks.
    pub shared_banks: u32,
    /// Shared-memory bank width in bytes.
    pub shared_bank_bytes: u32,
    /// Device (global) memory capacity, bytes.
    pub global_mem_bytes: u64,
    /// Peak global-memory bandwidth, GB/s.
    pub mem_bandwidth_gbs: f64,
    /// Global-memory transaction size, bytes.
    pub transaction_bytes: u32,
    /// Effective PCIe bandwidth for pinned host memory, GB/s.
    pub pcie_pinned_gbs: f64,
    /// Effective PCIe bandwidth for pageable host memory, GB/s.
    pub pcie_pageable_gbs: f64,
    /// Fixed cost of one kernel launch, microseconds.
    pub launch_overhead_us: f64,
    /// Fixed latency of one PCIe transfer, microseconds.
    pub transfer_latency_us: f64,
}

impl DeviceSpec {
    /// The paper's Tesla K40c (§III-A): *"15 Streaming Multiprocessors,
    /// each SM with 192 processing units […] maximum core clock rate of
    /// 745 MHz. Therefore, all the 2880 CUDA cores provide a peak
    /// single-precision floating point performance of 4.29 TFLOPS. Each
    /// SM has 256 KB register files and 48 KB on-chip memory. The card is
    /// also equipped with 12 GB device memory and has 288 GB/s peak
    /// memory bandwidth."*
    pub fn k40c() -> Self {
        DeviceSpec {
            name: "Tesla K40c".to_string(),
            sm_count: 15,
            cores_per_sm: 192,
            clock_mhz: 745,
            warp_size: 32,
            max_threads_per_sm: 2048,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 16,
            max_threads_per_block: 1024,
            registers_per_sm: 65_536,
            max_registers_per_thread: 255,
            register_alloc_granularity: 256,
            shared_mem_per_sm: 48 * 1024,
            shared_mem_per_block: 48 * 1024,
            shared_alloc_granularity: 256,
            shared_banks: 32,
            shared_bank_bytes: 4,
            global_mem_bytes: 12 * 1024 * 1024 * 1024,
            mem_bandwidth_gbs: 288.0,
            transaction_bytes: 128,
            pcie_pinned_gbs: 10.0,
            pcie_pageable_gbs: 6.0,
            launch_overhead_us: 5.0,
            transfer_latency_us: 10.0,
        }
    }

    /// One GK210 die of a Tesla K80 (the K40's dual-die sibling): 13
    /// SMs at a lower clock but a doubled register file per SM.
    pub fn k80_single_die() -> Self {
        DeviceSpec {
            name: "Tesla K80 (one die)".to_string(),
            sm_count: 13,
            clock_mhz: 562,
            registers_per_sm: 131_072,
            mem_bandwidth_gbs: 240.0,
            ..Self::k40c()
        }
    }

    /// GeForce GTX Titan X (Maxwell GM200): the GM204's SMM (below),
    /// 24 of them at a lower clock, with 12 GB at 336 GB/s.
    pub fn titan_x_maxwell() -> Self {
        DeviceSpec {
            name: "GTX Titan X (Maxwell)".to_string(),
            sm_count: 24,
            clock_mhz: 1000,
            global_mem_bytes: 12 * 1024 * 1024 * 1024,
            mem_bandwidth_gbs: 336.0,
            ..Self::gm204()
        }
    }

    /// GeForce GTX 980 (Maxwell GM204) — the platform maxDNN
    /// (arXiv:1501.06633) published its occupancy/efficiency numbers
    /// on. Validation anchors, asserted in `tests/devices.rs`:
    ///
    /// * 16 SMMs × 128 cores @ 1126 MHz → 4612 GFLOP/s peak single
    ///   precision (the paper's "4612 GFLOPS" headline);
    /// * maxDNN's Maxas-derived convolution kernel runs 256-thread
    ///   blocks at 128 registers/thread: the 64 K-register file admits
    ///   65536/4096 = 16 warps → 2 resident blocks → 25 % theoretical
    ///   occupancy, register-limited — the paper's low-occupancy /
    ///   high-ILP operating point (96.3 % computational efficiency
    ///   regardless). The occupancy model must reproduce that within 5 %;
    /// * Maxwell doubles the resident-block cap to 32 and splits shared
    ///   memory (96 KB per SMM) from the 48 KB per-block limit.
    pub fn gm204() -> Self {
        DeviceSpec {
            name: "GTX 980 (GM204)".to_string(),
            sm_count: 16,
            cores_per_sm: 128,
            clock_mhz: 1126,
            max_blocks_per_sm: 32,
            shared_mem_per_sm: 96 * 1024,
            global_mem_bytes: 4 * 1024 * 1024 * 1024,
            mem_bandwidth_gbs: 224.0,
            ..Self::k40c()
        }
    }

    /// Total CUDA cores.
    pub fn total_cores(&self) -> u32 {
        self.sm_count * self.cores_per_sm
    }

    /// Peak single-precision throughput in FLOP/s (2 FLOPs per core per
    /// cycle — fused multiply-add).
    pub fn peak_flops(&self) -> f64 {
        2.0 * self.total_cores() as f64 * self.clock_mhz as f64 * 1e6
    }

    /// Peak global-memory bandwidth in bytes/s.
    pub fn mem_bandwidth_bytes(&self) -> f64 {
        self.mem_bandwidth_gbs * 1e9
    }

    /// Aggregate shared-memory bandwidth in bytes/s (all SMs, all banks,
    /// one bank-width word per bank per cycle).
    pub fn shared_bandwidth_bytes(&self) -> f64 {
        self.sm_count as f64
            * self.shared_banks as f64
            * self.shared_bank_bytes as f64
            * self.clock_mhz as f64
            * 1e6
    }

    /// Clock period in seconds.
    pub fn cycle_seconds(&self) -> f64 {
        1.0 / (self.clock_mhz as f64 * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k40c_matches_paper_headline_numbers() {
        let d = DeviceSpec::k40c();
        assert_eq!(d.total_cores(), 2880);
        // Paper: "peak single-precision floating point performance of
        // 4.29 TFLOPS".
        let tflops = d.peak_flops() / 1e12;
        assert!((tflops - 4.29).abs() < 0.01, "got {tflops}");
        assert_eq!(d.global_mem_bytes, 12 * 1024 * 1024 * 1024);
        assert!((d.mem_bandwidth_gbs - 288.0).abs() < f64::EPSILON);
        // "256KB register files" = 65536 × 4-byte registers.
        assert_eq!(d.registers_per_sm * 4, 256 * 1024);
        assert_eq!(d.shared_mem_per_sm, 48 * 1024);
    }

    #[test]
    fn device_zoo_headline_flops() {
        // K80 (one die): 2 × 13 × 192 × 562 MHz ≈ 2.8 TFLOP/s.
        let k80 = DeviceSpec::k80_single_die();
        assert!((k80.peak_flops() / 1e12 - 2.8).abs() < 0.1);
        assert_eq!(
            k80.registers_per_sm,
            2 * DeviceSpec::k40c().registers_per_sm
        );
        // Titan X: 2 × 3072 × 1000 MHz ≈ 6.1 TFLOP/s.
        let tx = DeviceSpec::titan_x_maxwell();
        assert_eq!(tx.total_cores(), 3072);
        assert!((tx.peak_flops() / 1e12 - 6.14).abs() < 0.1);
        assert!(tx.mem_bandwidth_gbs > k80.mem_bandwidth_gbs);
    }

    #[test]
    fn derived_quantities_positive() {
        let d = DeviceSpec::k40c();
        assert!(d.mem_bandwidth_bytes() > 1e11);
        assert!(d.shared_bandwidth_bytes() > d.mem_bandwidth_bytes());
        assert!(d.cycle_seconds() > 0.0 && d.cycle_seconds() < 1e-8);
    }
}
