//! Twiddle-factor plans and the process-wide plan cache.

use gcnn_tensor::Complex32;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Upper bound on distinct plan sizes each process-wide cache retains.
/// Convolution workloads use a handful of transform sizes; a service
/// that sweeps many shapes must not grow plan memory without bound, so
/// the caches evict least-recently-used entries past this count.
pub const PLAN_CACHE_CAP: usize = 32;

/// Precomputed tables for a radix-2 FFT of one power-of-two size.
///
/// Holds the forward twiddles `W_n^k = e^(−2πik/n)` for `k < n/2` as
/// **split-complex** planes (`re[k]`, `im[k]`), the layout the
/// batch-major lane kernels broadcast from: the twiddle multiply is
/// pure FMA with no per-element shuffle. The inverse twiddle is derived
/// in the kernels by negating `im` — no second table. Creating a plan
/// is `O(n)`; transforms reuse it, the same way cuFFT/fbfft plans are
/// created once per layer shape.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    log2n: u32,
    /// Real plane of the forward table: `cos(−2πk/n)`, `k ∈ [0, n/2)`.
    tw_re: Vec<f32>,
    /// Imaginary plane of the forward table: `sin(−2πk/n)`. The inverse
    /// table is this negated.
    tw_im: Vec<f32>,
    /// `bitrev[i]` = bit-reversed `i` over `log2n` bits.
    bitrev: Vec<u32>,
}

impl FftPlan {
    /// Build a plan for size `n`.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two or is zero.
    // AUDIT: cold-path — a plan is built once per transform size and cached
    // in the per-thread LRU; steady-state transforms only read it.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FftPlan: size {n} not a power of two");
        let log2n = n.trailing_zeros();
        let half = n / 2;
        let mut tw_re = Vec::with_capacity(half.max(1));
        let mut tw_im = Vec::with_capacity(half.max(1));
        for k in 0..half.max(1) {
            let theta = -2.0 * std::f32::consts::PI * k as f32 / n as f32;
            let w = Complex32::from_polar_unit(theta);
            tw_re.push(w.re);
            tw_im.push(w.im);
        }
        let mut bitrev = vec![0u32; n];
        for (i, slot) in bitrev.iter_mut().enumerate() {
            *slot = (i as u32).reverse_bits() >> (32 - log2n.max(1));
        }
        if n == 1 {
            bitrev[0] = 0;
        }
        FftPlan {
            n,
            log2n,
            tw_re,
            tw_im,
            bitrev,
        }
    }

    /// Fetch the shared plan for size `n` from the process-wide cache,
    /// building it on first request.
    ///
    /// A convolution layer transforms thousands of planes of one size;
    /// cuFFT amortizes that by creating the plan once (`cufftPlan2d`)
    /// and executing it per plane. This is the same split: `cached` is
    /// the plan-creation step, [`crate::split::fft_lanes_inplace`] the
    /// execute step. Lock is held only for the map lookup/insert; the
    /// `O(n)` table build happens outside any per-transform path.
    /// Entries are LRU-bounded at [`PLAN_CACHE_CAP`].
    pub fn cached(n: usize) -> Arc<FftPlan> {
        static CACHE: OnceLock<Mutex<PlanLru<Arc<FftPlan>>>> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(PlanLru::new(PLAN_CACHE_CAP)));
        let mut lru = cache.lock().expect("FftPlan cache poisoned");
        match lru.get(n) {
            Some(plan) => {
                gcnn_trace::counter_inc("fft.plan_cache.hits");
                plan
            }
            None => {
                gcnn_trace::counter_inc("fft.plan_cache.misses");
                let plan = Arc::new(FftPlan::new(n));
                if lru.insert(n, Arc::clone(&plan)) {
                    gcnn_trace::counter_inc("fft.plan_cache.evictions");
                }
                plan
            }
        }
    }

    /// Transform size.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the degenerate size-1 plan.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n <= 1
    }

    /// `log2(n)`.
    #[inline]
    pub fn log2n(&self) -> u32 {
        self.log2n
    }

    /// The split-complex **forward** twiddle planes `(re, im)`,
    /// `k < n/2`. Inverse-direction kernels negate `im` on the fly
    /// (a sign flip folds into FMA operands; no second table and no
    /// shuffle), so only the forward planes are stored.
    #[inline]
    pub fn table_split(&self) -> (&[f32], &[f32]) {
        (&self.tw_re, &self.tw_im)
    }

    /// The bit-reversal table (`bitrev[i]` = reversed `i`), for the
    /// batch-major row permutation in [`crate::split`].
    #[inline]
    pub fn bitrev_table(&self) -> &[u32] {
        &self.bitrev
    }
}

/// A bounded least-recently-used map from transform size to plan. Kept
/// deliberately tiny: the plan caches see at most a few dozen distinct
/// power-of-two sizes, so a stamp scan on eviction is cheaper than a
/// linked-list LRU and has no unsafe.
#[derive(Debug)]
pub(crate) struct PlanLru<V: Clone> {
    cap: usize,
    tick: u64,
    map: HashMap<usize, (V, u64)>,
}

impl<V: Clone> PlanLru<V> {
    pub(crate) fn new(cap: usize) -> Self {
        assert!(cap > 0, "PlanLru: zero capacity");
        PlanLru {
            cap,
            tick: 0,
            map: HashMap::new(),
        }
    }

    /// Look up `key`, refreshing its recency stamp on hit.
    pub(crate) fn get(&mut self, key: usize) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&key).map(|(v, stamp)| {
            *stamp = tick;
            v.clone()
        })
    }

    /// Insert `key`, evicting the least-recently-used entry when at
    /// capacity. Returns true when an eviction happened.
    pub(crate) fn insert(&mut self, key: usize, value: V) -> bool {
        self.tick += 1;
        let mut evicted = false;
        if self.map.len() >= self.cap && !self.map.contains_key(&key) {
            if let Some(&oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k)
            {
                self.map.remove(&oldest);
                evicted = true;
            }
        }
        self.map.insert(key, (value, self.tick));
        evicted
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.map.len()
    }

    #[cfg(test)]
    fn contains(&self, key: usize) -> bool {
        self.map.contains_key(&key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn rejects_non_pow2() {
        FftPlan::new(12);
    }

    #[test]
    fn twiddles_on_unit_circle() {
        let p = FftPlan::new(16);
        let (re, im) = p.table_split();
        assert_eq!((re.len(), im.len()), (8, 8));
        for k in 0..8 {
            assert!((re[k].hypot(im[k]) - 1.0).abs() < 1e-6);
        }
        // W^0 = 1, W^{n/4} = −i for forward.
        assert!((re[0] - 1.0).abs() < 1e-6 && im[0].abs() < 1e-6);
        assert!(re[4].abs() < 1e-6 && (im[4] + 1.0).abs() < 1e-6);
    }

    #[test]
    fn bitrev_is_involution() {
        let p = FftPlan::new(32);
        let t = p.bitrev_table();
        assert!((0..32).any(|i| t[i] as usize != i));
        for i in 0..32 {
            assert_eq!(t[t[i] as usize] as usize, i);
        }
    }

    #[test]
    fn bitrev_known_order_8() {
        assert_eq!(FftPlan::new(8).bitrev_table(), [0, 4, 2, 6, 1, 5, 3, 7]);
    }

    #[test]
    fn cached_returns_same_plan() {
        let a = FftPlan::cached(64);
        let b = FftPlan::cached(64);
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        let c = FftPlan::cached(128);
        assert!(!std::sync::Arc::ptr_eq(&a, &c));
        assert_eq!(c.len(), 128);
    }

    #[test]
    fn size_one_plan() {
        let p = FftPlan::new(1);
        assert!(p.is_empty());
        assert_eq!(p.bitrev_table(), [0]);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru = PlanLru::new(2);
        assert!(!lru.insert(8, "a"));
        assert!(!lru.insert(16, "b"));
        // Touch 8 so 16 becomes the eviction victim.
        assert_eq!(lru.get(8), Some("a"));
        assert!(lru.insert(32, "c"));
        assert_eq!(lru.len(), 2);
        assert!(lru.contains(8));
        assert!(!lru.contains(16));
        assert!(lru.contains(32));
    }

    #[test]
    fn lru_reinsert_does_not_evict() {
        let mut lru = PlanLru::new(2);
        lru.insert(8, 1);
        lru.insert(16, 2);
        // Overwriting a resident key must not evict the other entry.
        assert!(!lru.insert(8, 3));
        assert_eq!(lru.get(8), Some(3));
        assert_eq!(lru.get(16), Some(2));
    }

    #[test]
    fn lru_bounds_entry_count() {
        let mut lru = PlanLru::new(4);
        let mut evictions = 0;
        for k in 0..10usize {
            if lru.insert(1 << k, k) {
                evictions += 1;
            }
        }
        assert_eq!(lru.len(), 4);
        assert_eq!(evictions, 6);
    }
}
