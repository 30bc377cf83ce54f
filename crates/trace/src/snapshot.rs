//! Serializable views of the registry: counter/gauge maps and the
//! nested span tree, as the bench binaries and `gcnn-core`'s renderer
//! read them.

use serde::Serialize;
use std::collections::BTreeMap;

/// Raw accumulated statistics of one span path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed spans at this path.
    pub count: u64,
    /// Sum of elapsed nanoseconds.
    pub total_ns: u64,
    /// Fastest single span.
    pub min_ns: u64,
    /// Slowest single span.
    pub max_ns: u64,
}

impl SpanStat {
    /// A stat holding one observation of `ns` nanoseconds.
    pub fn one(ns: u64) -> Self {
        SpanStat {
            count: 1,
            total_ns: ns,
            min_ns: ns,
            max_ns: ns,
        }
    }

    /// Fold another observation into this stat.
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }
}

/// One node of the span tree. Paths are `/`-joined span names; a node
/// with `count == 0` was never closed itself and exists only because a
/// child was recorded under it.
#[derive(Debug, Clone, Serialize)]
pub struct SpanNode {
    /// Last path segment.
    pub name: String,
    /// Full `/`-joined path from the root.
    pub path: String,
    /// Completed spans at this exact path.
    pub count: u64,
    /// Total milliseconds across all completions.
    pub total_ms: f64,
    /// Mean milliseconds per completion (0 when `count == 0`).
    pub mean_ms: f64,
    /// Fastest completion in milliseconds.
    pub min_ms: f64,
    /// Slowest completion in milliseconds.
    pub max_ms: f64,
    /// Child spans, sorted by name.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Depth-first search for a node by full path.
    pub fn find(&self, path: &str) -> Option<&SpanNode> {
        if self.path == path {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(path))
    }
}

/// A point-in-time copy of the registry's contents.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Snapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Root spans (each carrying its subtree).
    pub spans: Vec<SpanNode>,
}

impl Snapshot {
    /// Counter value, 0 when the counter was never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Find a span node by its full `/`-joined path.
    pub fn span(&self, path: &str) -> Option<&SpanNode> {
        self.spans.iter().find_map(|s| s.find(path))
    }
}

const NS_PER_MS: f64 = 1e6;

/// Assemble the nested tree from a flat `path → stat` map, creating
/// zero-count intermediate nodes for paths that only ever appeared as
/// prefixes.
pub(crate) fn build_tree(flat: &BTreeMap<String, SpanStat>) -> Vec<SpanNode> {
    #[derive(Default)]
    struct Tmp {
        stat: Option<SpanStat>,
        children: BTreeMap<String, Tmp>,
    }

    let mut root = Tmp::default();
    for (path, stat) in flat {
        let mut node = &mut root;
        for seg in path.split('/') {
            node = node.children.entry(seg.to_string()).or_default();
        }
        node.stat = Some(*stat);
    }

    fn convert(name: &str, prefix: &str, tmp: &Tmp) -> SpanNode {
        let path = if prefix.is_empty() {
            name.to_string()
        } else {
            format!("{prefix}/{name}")
        };
        let (count, total_ms, mean_ms, min_ms, max_ms) = match tmp.stat {
            Some(s) => (
                s.count,
                s.total_ns as f64 / NS_PER_MS,
                s.total_ns as f64 / NS_PER_MS / s.count.max(1) as f64,
                s.min_ns as f64 / NS_PER_MS,
                s.max_ns as f64 / NS_PER_MS,
            ),
            None => (0, 0.0, 0.0, 0.0, 0.0),
        };
        let children = tmp
            .children
            .iter()
            .map(|(n, t)| convert(n, &path, t))
            .collect();
        SpanNode {
            name: name.to_string(),
            path,
            count,
            total_ms,
            mean_ms,
            min_ms,
            max_ms,
            children,
        }
    }

    root.children
        .iter()
        .map(|(n, t)| convert(n, "", t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_record_accumulates() {
        let mut s = SpanStat::one(10);
        s.record(30);
        s.record(20);
        assert_eq!(s.count, 3);
        assert_eq!(s.total_ns, 60);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 30);
    }

    #[test]
    fn tree_builds_synthetic_parents() {
        let mut flat = BTreeMap::new();
        flat.insert("a/b/c".to_string(), SpanStat::one(2_000_000));
        flat.insert("a".to_string(), SpanStat::one(5_000_000));
        let tree = build_tree(&flat);
        assert_eq!(tree.len(), 1);
        let a = &tree[0];
        assert_eq!(a.path, "a");
        assert_eq!(a.count, 1);
        let b = &a.children[0];
        assert_eq!(b.path, "a/b");
        assert_eq!(b.count, 0, "synthetic parent carries no observations");
        assert_eq!(b.children[0].path, "a/b/c");
        assert!((b.children[0].total_ms - 2.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_lookups() {
        let mut flat = BTreeMap::new();
        flat.insert("x/y".to_string(), SpanStat::one(1_500_000));
        let snap = Snapshot {
            counters: [("hits".to_string(), 3u64)].into_iter().collect(),
            gauges: [("temp".to_string(), 1.5f64)].into_iter().collect(),
            spans: build_tree(&flat),
        };
        assert_eq!(snap.counter("hits"), 3);
        assert_eq!(snap.counter("absent"), 0);
        assert_eq!(snap.gauges.get("temp").copied(), Some(1.5));
        assert_eq!(snap.span("x/y").unwrap().count, 1);
        assert!(snap.span("x/z").is_none());
    }
}
