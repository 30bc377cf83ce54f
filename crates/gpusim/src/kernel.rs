//! Kernel launch descriptions — the interface between framework models
//! and the timing engine.

use serde::{Deserialize, Serialize};

/// Grid/block geometry of a launch (flattened to 1-D counts; the models
//  only need totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaunchConfig {
    /// Number of thread blocks in the grid.
    pub grid_blocks: u32,
    /// Threads per block.
    pub block_threads: u32,
}

impl LaunchConfig {
    /// Create a launch geometry.
    pub const fn new(grid_blocks: u32, block_threads: u32) -> Self {
        LaunchConfig {
            grid_blocks,
            block_threads,
        }
    }
}

/// Global-memory access pattern of a kernel's loads or stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Consecutive lanes touch consecutive words — 100 % efficiency.
    Coalesced,
    /// Consecutive lanes step by `stride_words` 4-byte words
    /// (`stride_words == 0` is a broadcast).
    Strided {
        /// Word stride between lanes.
        stride_words: u32,
    },
    /// Every lane touches an unrelated cache line.
    Random,
    /// Coalesced but misaligned to the 128-byte transaction boundary.
    Unaligned,
}

/// Shared-memory traffic of a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SharedAccessDesc {
    /// Useful bytes read + written through shared memory over the whole
    /// launch.
    pub bytes: u64,
    /// Word stride between consecutive lanes (bank-conflict driver):
    /// odd = conflict-free, powers of two conflict, 0 = broadcast.
    pub bank_stride_words: u32,
    /// Fraction of accesses that are warp-wide broadcasts (pushes the
    /// nvprof shared-efficiency metric above 100 %).
    pub broadcast_fraction: f32,
}

impl SharedAccessDesc {
    /// No shared-memory traffic.
    pub const fn none() -> Self {
        SharedAccessDesc {
            bytes: 0,
            bank_stride_words: 1,
            broadcast_fraction: 0.0,
        }
    }

    /// Conflict-free traffic of `bytes`.
    pub const fn clean(bytes: u64) -> Self {
        SharedAccessDesc {
            bytes,
            bank_stride_words: 1,
            broadcast_fraction: 0.0,
        }
    }
}

/// Full description of one kernel launch — everything the occupancy,
/// coalescing, bank and timing models need.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelDesc {
    /// Kernel name as it would appear in nvprof (e.g.
    /// `im2col_gpu_kernel`, `cuDNN_gemm`, `decimateInFrequency`).
    pub name: String,
    /// Grid/block geometry.
    pub launch: LaunchConfig,
    /// Registers per thread (Table II of the paper for the framework
    /// hotspot kernels).
    pub regs_per_thread: u32,
    /// Static + dynamic shared memory per block, bytes.
    pub smem_per_block: u32,
    /// Useful floating-point operations over the whole launch.
    pub flops: u64,
    /// Useful global-memory bytes loaded.
    pub gmem_load_bytes: u64,
    /// Load access pattern.
    pub load_pattern: AccessPattern,
    /// Fraction of loads served by the L2/texture cache (never reaching
    /// DRAM). Tiled GEMMs re-reading resident panels sit near 0.75;
    /// streaming kernels at 0. Affects the memory roof only — the
    /// gld-efficiency *metric* is a request-level property and stays
    /// pattern-derived, which is how nvprof can report terrible
    /// efficiency for kernels that are nonetheless fast (paper §V-C-2).
    pub load_cached_fraction: f32,
    /// Useful global-memory bytes stored.
    pub gmem_store_bytes: u64,
    /// Store access pattern.
    pub store_pattern: AccessPattern,
    /// Shared-memory traffic.
    pub shared: SharedAccessDesc,
    /// Fraction of warp lanes doing useful work (branch divergence):
    /// the nvprof warp-execution-efficiency metric, 0–1.
    pub warp_efficiency: f32,
    /// Fraction of peak ALU throughput the instruction mix can sustain
    /// once latency is hidden (FMA density, ILP quality). cuBLAS-class
    /// kernels reach ~0.6–0.75; naive kernels much less.
    pub compute_efficiency: f32,
    /// Occupancy (as a fraction of max warps) this kernel needs to fully
    /// hide latency. Register-rich kernels with high ILP need less
    /// (cuda-convnet2); thin kernels need more.
    pub occupancy_needed: f32,
    /// Fraction of launched lanes that map to real work (tile
    /// quantization: e.g. cuda-convnet2's 128-image tiles waste lanes
    /// when the batch is not a multiple of 128).
    pub lane_utilization: f32,
}

impl KernelDesc {
    /// A baseline descriptor with sane defaults; framework models tweak
    /// the fields they care about.
    pub fn new(name: impl Into<String>, launch: LaunchConfig) -> Self {
        KernelDesc {
            name: name.into(),
            launch,
            regs_per_thread: 32,
            smem_per_block: 0,
            flops: 0,
            gmem_load_bytes: 0,
            load_pattern: AccessPattern::Coalesced,
            load_cached_fraction: 0.0,
            gmem_store_bytes: 0,
            store_pattern: AccessPattern::Coalesced,
            shared: SharedAccessDesc::none(),
            warp_efficiency: 1.0,
            compute_efficiency: 0.5,
            occupancy_needed: 0.25,
            lane_utilization: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let k = KernelDesc::new("test", LaunchConfig::new(1, 32));
        assert_eq!(k.warp_efficiency, 1.0);
        assert_eq!(k.lane_utilization, 1.0);
        assert!(k.compute_efficiency > 0.0 && k.compute_efficiency <= 1.0);
    }
}
