//! The live (enabled-mode) metrics registry.

use crate::snapshot::{build_tree, Snapshot, SpanStat};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Thread-safe store of counters, gauges and span statistics.
///
/// Counters and gauges are handed out as `Arc<AtomicU64>` cells, so the
/// per-increment cost after the first registration is one read-lock +
/// hash lookup (or nothing, if the caller caches the [`Counter`]
/// handle). Span stats merge under a mutex at span *end* only — span
/// bodies never hold a lock.
///
/// [`Counter`]: crate::Counter
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<HashMap<String, Arc<AtomicU64>>>,
    /// Gauges store `f64::to_bits`; last write wins.
    gauges: RwLock<HashMap<String, Arc<AtomicU64>>>,
    spans: Mutex<HashMap<String, SpanStat>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry (tests; production code uses
    /// [`crate::registry`]).
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn cell(map: &RwLock<HashMap<String, Arc<AtomicU64>>>, name: &str) -> Arc<AtomicU64> {
        if let Some(c) = map.read().expect("registry lock").get(name) {
            return Arc::clone(c);
        }
        let mut w = map.write().expect("registry lock");
        Arc::clone(w.entry(name.to_string()).or_default())
    }

    /// The atomic cell behind a counter, registering it on first use.
    pub fn counter_cell(&self, name: &str) -> Arc<AtomicU64> {
        Self::cell(&self.counters, name)
    }

    /// Add `delta` to a counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.counter_cell(name).fetch_add(delta, Ordering::Relaxed);
    }

    /// Set a gauge to `value` (last write wins).
    pub fn gauge_set(&self, name: &str, value: f64) {
        Self::cell(&self.gauges, name).store(value.to_bits(), Ordering::Relaxed);
    }

    /// Merge one completed span observation into the stats for `path`.
    pub fn record_span(&self, path: &str, elapsed_ns: u64) {
        let mut spans = self.spans.lock().expect("registry lock");
        match spans.get_mut(path) {
            Some(stat) => stat.record(elapsed_ns),
            None => {
                spans.insert(path.to_string(), SpanStat::one(elapsed_ns));
            }
        }
    }

    /// Copy out every metric. Counters that were registered but never
    /// incremented appear with value 0.
    pub fn snapshot(&self) -> Snapshot {
        let counters: BTreeMap<String, u64> = self
            .counters
            .read()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges: BTreeMap<String, f64> = self
            .gauges
            .read()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
            .collect();
        let flat: BTreeMap<String, SpanStat> = self
            .spans
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        Snapshot {
            counters,
            gauges,
            spans: build_tree(&flat),
        }
    }

    /// Zero every counter and drop all gauges and span stats. Counters
    /// are zeroed *in place* rather than dropped: hot paths cache their
    /// [`Counter`] handles in statics, and those handles must keep
    /// feeding the same cells the next snapshot reads.
    ///
    /// [`Counter`]: crate::Counter
    pub fn reset(&self) {
        for cell in self.counters.read().expect("registry lock").values() {
            cell.store(0, Ordering::Relaxed);
        }
        self.gauges.write().expect("registry lock").clear();
        self.spans.lock().expect("registry lock").clear();
    }
}

/// The process-wide registry every instrumentation site reports to.
pub fn registry() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_registry_counts_and_resets() {
        let r = MetricsRegistry::new();
        r.counter_add("c", 2);
        r.counter_add("c", 3);
        r.gauge_set("g", 2.5);
        r.gauge_set("g", 7.5);
        r.record_span("s", 1_000_000);
        let snap = r.snapshot();
        assert_eq!(snap.counter("c"), 5);
        assert_eq!(snap.gauges.get("g").copied(), Some(7.5));
        assert_eq!(snap.span("s").unwrap().count, 1);

        r.reset();
        let snap = r.snapshot();
        assert_eq!(snap.counter("c"), 0);
        assert_eq!(snap.gauges.get("g").copied(), None);
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn reset_keeps_cached_counter_handles_live() {
        let r = MetricsRegistry::new();
        let handle = r.counter_cell("cached");
        handle.fetch_add(5, Ordering::Relaxed);
        r.reset();
        handle.fetch_add(2, Ordering::Relaxed);
        assert_eq!(
            r.snapshot().counter("cached"),
            2,
            "increments through a pre-reset handle must stay visible"
        );
    }

    #[test]
    fn counter_cell_is_shared() {
        let r = MetricsRegistry::new();
        let a = r.counter_cell("shared");
        let b = r.counter_cell("shared");
        a.fetch_add(4, Ordering::Relaxed);
        assert_eq!(b.load(Ordering::Relaxed), 4);
    }
}
