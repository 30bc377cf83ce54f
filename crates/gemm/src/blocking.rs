//! Cache-blocking parameters for the Goto/BLIS-style GEMM.
//!
//! The register tile is not here: it belongs to the micro-kernel
//! ([`crate::kernel::MicroKernel`]), which [`crate::kernel::select`]
//! picks per call. The cache-level blocks are nominal sizes the driver
//! snaps to that tile ([`BlockSizes::snapped_to`]) — `mc` a whole number
//! of `mr` strips, `nc` a whole number of `nr` strips — so every packed
//! strip but the one at the matrix edge is full.

use crate::kernel::MicroKernel;

/// Cache-level blocking sizes.
///
/// The three outer loops of the blocked GEMM walk `N` in `nc` column
/// panels, `K` in `kc` slabs (one packed B panel `kc × nc`, shared by
/// every row block) and `M` in `mc` row blocks (one packed A block
/// `mc × kc`); the `kc × nr` B strip the micro-kernel sweeps the A
/// block against stays in L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSizes {
    /// `M`-dimension block (rows of A packed at once).
    pub mc: usize,
    /// `K`-dimension block (shared inner dimension per packing pass).
    pub kc: usize,
    /// `N`-dimension block (columns of B packed at once).
    pub nc: usize,
}

impl BlockSizes {
    /// Sizes for typical x86 cache hierarchies; good defaults for every
    /// matrix in this workspace. At the widest tile (`nr = 32`) the
    /// `kc × nr` B strip is 32 KiB of a 48 KiB L1, and the packed A
    /// block (≤ 128 KiB) and B panel (1 MiB) share a 2 MiB L2.
    pub const fn default_sizes() -> Self {
        BlockSizes {
            mc: 128,
            kc: 256,
            nc: 1024,
        }
    }

    /// Small blocks used by tests to force many partial tiles: two
    /// strips per block at every tile shape in the kernel table.
    pub const fn tiny() -> Self {
        BlockSizes {
            mc: 28,
            kc: 7,
            nc: 64,
        }
    }

    /// Every block must hold at least one element.
    pub fn validate(&self) -> bool {
        self.mc > 0 && self.kc > 0 && self.nc > 0
    }

    /// These sizes with `mc`/`nc` rounded down to whole strips of
    /// `kernel`'s tile (and up to one strip if smaller) — the blocking
    /// the driver actually walks.
    pub fn snapped_to(&self, kernel: &MicroKernel) -> Self {
        let snap = |x: usize, unit: usize| (x / unit).max(1) * unit;
        BlockSizes {
            mc: snap(self.mc, kernel.mr()),
            kc: self.kc,
            nc: snap(self.nc, kernel.nr()),
        }
    }
}

impl Default for BlockSizes {
    fn default() -> Self {
        Self::default_sizes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{available, select};

    #[test]
    fn defaults_are_valid() {
        assert!(BlockSizes::default_sizes().validate());
        assert!(BlockSizes::tiny().validate());
        for k in available() {
            for blocks in [BlockSizes::default_sizes(), BlockSizes::tiny()] {
                let s = blocks.snapped_to(&k);
                assert!(s.validate(), "{k:?}");
                assert_eq!((s.mc % k.mr(), s.nc % k.nr(), s.kc), (0, 0, blocks.kc));
                assert!(s.mc <= blocks.mc && s.nc <= blocks.nc, "{k:?}");
            }
            // Tiny blocks still hold two strips each way.
            let t = BlockSizes::tiny().snapped_to(&k);
            assert!(t.mc >= 2 * k.mr() && t.nc >= 2 * k.nr(), "{k:?}");
        }
    }

    #[test]
    fn tile_matches_arch() {
        let k = select();
        let expect = match k.name() {
            "avx512f" => (8, 32),
            "avx2+fma" => (6, 16),
            "neon" | "scalar" => (8, 8),
            other => panic!("unknown kernel {other}"),
        };
        assert_eq!((k.mr(), k.nr()), expect);
        if gcnn_tensor::simd::avx512f() {
            assert_eq!(k.name(), "avx512f");
        }
    }

    #[test]
    fn invalid_blocks_detected() {
        let ok = BlockSizes::tiny();
        assert!(!BlockSizes { mc: 0, ..ok }.validate());
        assert!(!BlockSizes { kc: 0, ..ok }.validate());
        assert!(!BlockSizes { nc: 0, ..ok }.validate());
        // Sub-strip blocks are legal: they snap up to one strip.
        let k = select();
        let one = BlockSizes {
            mc: 1,
            kc: 1,
            nc: 1,
        };
        let s = one.snapped_to(&k);
        assert_eq!((s.mc, s.kc, s.nc), (k.mr(), 1, k.nr()));
    }
}
