//! Device-memory allocation tracking.
//!
//! Paper §V-B: *"GPU cannot afford a large memory-consuming application
//! due to its limit device memory. Thus memory usage also should be
//! considered"* — and the paper measures peak usage per implementation
//! with `nvidia-smi` (Fig. 5) and reports crashes when FFT workspaces
//! blow past the card. [`MemoryTracker`] reproduces both: it tracks the
//! high-water mark of a plan's allocations and raises [`OomError`] when
//! the 12 GB card would have been exhausted.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Allocation failure: the device is out of memory.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OomError {
    /// The allocation that failed.
    pub requested: u64,
    /// Bytes in use at the time.
    pub in_use: u64,
    /// Device capacity.
    pub capacity: u64,
    /// Label of the failed allocation.
    pub label: String,
}

impl fmt::Display for OomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of device memory allocating '{}': requested {} B with {} B in use of {} B",
            self.label, self.requested, self.in_use, self.capacity
        )
    }
}

impl std::error::Error for OomError {}

/// Handle to a live allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocationId(usize);

/// A device-memory book-keeper with peak tracking.
#[derive(Debug, Clone)]
pub struct MemoryTracker {
    capacity: u64,
    in_use: u64,
    peak: u64,
    live: Vec<Option<(String, u64)>>,
}

impl MemoryTracker {
    /// Tracker for a device with the given capacity in bytes.
    pub fn new(capacity: u64) -> Self {
        MemoryTracker {
            capacity,
            in_use: 0,
            peak: 0,
            live: Vec::new(),
        }
    }

    /// Allocate `bytes` under `label`.
    pub fn alloc(
        &mut self,
        label: impl Into<String>,
        bytes: u64,
    ) -> Result<AllocationId, OomError> {
        let label = label.into();
        let Some(in_use) = self
            .in_use
            .checked_add(bytes)
            .filter(|&n| n <= self.capacity)
        else {
            return Err(OomError {
                requested: bytes,
                in_use: self.in_use,
                capacity: self.capacity,
                label,
            });
        };
        self.in_use = in_use;
        self.peak = self.peak.max(self.in_use);
        self.live.push(Some((label, bytes)));
        Ok(AllocationId(self.live.len() - 1))
    }

    /// Release an allocation. Double frees are rejected.
    pub fn free(&mut self, id: AllocationId) {
        let slot = self
            .live
            .get_mut(id.0)
            .expect("MemoryTracker::free: unknown allocation");
        let (_, bytes) = slot.take().expect("MemoryTracker::free: double free");
        self.in_use -= bytes;
    }

    /// Bytes currently allocated.
    pub fn in_use(&self) -> u64 {
        self.in_use
    }

    /// High-water mark since construction.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Device capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_peak_across_alloc_free() {
        let mut t = MemoryTracker::new(1000);
        let a = t.alloc("a", 400).unwrap();
        let _b = t.alloc("b", 500).unwrap();
        assert_eq!(t.peak(), 900);
        t.free(a);
        assert_eq!(t.in_use(), 500);
        let _c = t.alloc("c", 300).unwrap();
        assert_eq!(t.peak(), 900); // 800 < 900
    }

    #[test]
    fn oom_raises_with_context() {
        let mut t = MemoryTracker::new(100);
        t.alloc("base", 80).unwrap();
        let err = t.alloc("ws", 30).unwrap_err();
        assert_eq!(err.requested, 30);
        assert_eq!(err.in_use, 80);
        assert!(err.to_string().contains("'ws'"));
    }

    #[test]
    fn overflowing_request_is_oom_and_leaves_in_use() {
        let mut t = MemoryTracker::new(12 << 30);
        t.alloc("a", 1000).unwrap();
        let err = t.alloc("huge", u64::MAX - 10).unwrap_err();
        assert_eq!(err.requested, u64::MAX - 10);
        assert_eq!(err.in_use, 1000);
        assert_eq!(t.in_use(), 1000);
        assert_eq!(t.peak(), 1000);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut t = MemoryTracker::new(100);
        let a = t.alloc("a", 10).unwrap();
        t.free(a);
        t.free(a);
    }
}
