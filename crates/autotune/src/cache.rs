//! The persistent tuning cache: an on-disk store of measured winners
//! keyed by `(device fingerprint, ConvConfig, direction)`.
//!
//! The file format is versioned JSON written atomically (temp file +
//! rename), so a crash mid-save can never leave a half-written cache.
//! Loading is paranoid by design: a missing file yields an empty cache,
//! and a truncated, garbage, or wrong-schema-version file yields an
//! empty cache flagged [`TuningCache::degraded`] — callers fall back to
//! heuristic selection and the process never panics on foreign bytes.
//!
//! The vendored `serde` stand-in derives only *serialization*;
//! deserialization is a hand-written decoder over [`serde_json::Value`]
//! matching the derive's encoding (struct fields by name, unit enum
//! variants as bare strings). The round-trip property tests in
//! `tests/cache_roundtrip.rs` hold the two sides together.

use crate::substrate::Direction;
use gcnn_conv::{ConvConfig, Strategy};
use gcnn_tensor::Layout;
use serde::Serialize;
use serde_json::Value;
use std::collections::HashMap;
use std::path::Path;
use std::sync::OnceLock;

/// Version stamp of the on-disk format. Bump on any incompatible change;
/// older files then degrade to heuristics instead of being misread.
///
/// v3 added the per-entry layout verdict (channel-blocked NCHWc vs.
/// planar) and tracks the `cpu/host/v3` substrate fingerprint; v2 is
/// skipped so cache schema and fingerprint versions stay in lockstep.
/// v1 and v2 files lack the `layout` field and must degrade, not be
/// misread as planar. v4 changes no field: it tracks the `cpu/host/v4`
/// fingerprint, so verdicts timed against kernels that no longer exist
/// (the per-tap NCHWc conv, the pre-Goto SGEMM) are dropped wholesale
/// rather than kept as unreachable entries.
pub const SCHEMA_VERSION: u32 = 4;

fn hit_counter() -> &'static gcnn_trace::Counter {
    static C: OnceLock<gcnn_trace::Counter> = OnceLock::new();
    C.get_or_init(|| gcnn_trace::counter("autotune.cache.hits"))
}

fn miss_counter() -> &'static gcnn_trace::Counter {
    static C: OnceLock<gcnn_trace::Counter> = OnceLock::new();
    C.get_or_init(|| gcnn_trace::counter("autotune.cache.misses"))
}

fn eviction_counter() -> &'static gcnn_trace::Counter {
    static C: OnceLock<gcnn_trace::Counter> = OnceLock::new();
    C.get_or_init(|| gcnn_trace::counter("autotune.cache.evictions"))
}

fn degraded_counter() -> &'static gcnn_trace::Counter {
    static C: OnceLock<gcnn_trace::Counter> = OnceLock::new();
    C.get_or_init(|| gcnn_trace::counter("autotune.cache.load_degraded"))
}

/// What a cached measurement is indexed by. A winner is only meaningful
/// on the device it was measured on, for the exact layer shape, for the
/// pass direction that was timed.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct CacheKey {
    /// Substrate fingerprint ([`crate::substrate::Substrate::fingerprint`]).
    pub device: String,
    /// The layer shape that was tuned.
    pub cfg: ConvConfig,
    /// Which pass was timed.
    pub direction: Direction,
}

/// The stored result of one tuning decision.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CacheEntry {
    /// Winning candidate's name ("cuDNN", "fbfft", "unrolling", …).
    pub implementation: String,
    /// The convolution strategy that candidate executes.
    pub strategy: Strategy,
    /// The tensor layout the winner executes in (planar `Nchw` for all
    /// candidates except the CPU channel-blocked `nchwc` path).
    pub layout: Layout,
    /// Its measured (trimmed-median) time, milliseconds.
    pub time_ms: f64,
    /// Peak workspace the winner required, bytes. JSON numbers travel
    /// as `f64`, so values are exact only up to 2⁵³ bytes (8 PiB) —
    /// far beyond any device this models.
    pub workspace_bytes: u64,
    /// How many timed repetitions produced `time_ms`.
    pub reps: usize,
}

/// One key/entry pair as it appears in the `entries` array on disk.
#[derive(Debug, Clone, Serialize)]
struct CacheRecord {
    key: CacheKey,
    entry: CacheEntry,
}

/// The whole file: version stamp plus records.
#[derive(Debug, Serialize)]
struct CacheFile {
    schema_version: u32,
    entries: Vec<CacheRecord>,
}

/// In-memory slot: the entry plus an LRU sequence number.
#[derive(Debug, Clone)]
struct Slot {
    seq: u64,
    entry: CacheEntry,
}

/// The tuning cache: an LRU-bounded map with atomic persistence and
/// degrade-don't-panic loading. See the module docs for the contract.
#[derive(Debug, Default)]
pub struct TuningCache {
    entries: HashMap<CacheKey, Slot>,
    next_seq: u64,
    capacity: Option<usize>,
    degraded: Option<String>,
}

impl TuningCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        TuningCache::default()
    }

    /// An empty cache holding at most `capacity` entries; inserting past
    /// that evicts the least-recently-used entry.
    pub fn with_capacity(capacity: usize) -> Self {
        TuningCache {
            capacity: Some(capacity.max(1)),
            ..TuningCache::default()
        }
    }

    /// Load from `path`. Missing file → empty cache (first run, not an
    /// error). Unreadable, corrupt, or version-mismatched file → empty
    /// cache with [`TuningCache::degraded`] set and a logged warning;
    /// never a panic.
    pub fn load(path: &Path) -> Self {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return TuningCache::new(),
            Err(e) => return TuningCache::new_degraded(path, format!("unreadable: {e}")),
        };
        match decode_cache_file(&text) {
            Ok(records) => {
                let mut cache = TuningCache::new();
                for (key, entry) in records {
                    cache.insert(key, entry);
                }
                cache
            }
            Err(reason) => TuningCache::new_degraded(path, reason),
        }
    }

    fn new_degraded(path: &Path, reason: String) -> Self {
        eprintln!(
            "warning: tuning cache {} ignored ({reason}); falling back to heuristics",
            path.display()
        );
        degraded_counter().inc();
        TuningCache {
            degraded: Some(reason),
            ..TuningCache::default()
        }
    }

    /// Why the last [`TuningCache::load`] discarded the file, if it did.
    /// `None` for a clean (or first-run empty) load.
    pub fn degraded(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    /// Number of cached decisions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no decisions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a decision, refreshing its LRU position. Ticks the
    /// `autotune.cache.hits` / `autotune.cache.misses` counters.
    pub fn lookup(&mut self, key: &CacheKey) -> Option<CacheEntry> {
        match self.entries.get_mut(key) {
            Some(slot) => {
                self.next_seq += 1;
                slot.seq = self.next_seq;
                hit_counter().inc();
                Some(slot.entry.clone())
            }
            None => {
                miss_counter().inc();
                None
            }
        }
    }

    /// Insert (or replace) a decision, evicting the least-recently-used
    /// entry when a capacity bound is exceeded.
    pub fn insert(&mut self, key: CacheKey, entry: CacheEntry) {
        self.next_seq += 1;
        let seq = self.next_seq;
        self.entries.insert(key, Slot { seq, entry });
        if let Some(cap) = self.capacity {
            while self.entries.len() > cap {
                let oldest = self
                    .entries
                    .iter()
                    .min_by_key(|(_, slot)| slot.seq)
                    .map(|(k, _)| k.clone())
                    .expect("non-empty map over capacity");
                self.entries.remove(&oldest);
                eviction_counter().inc();
            }
        }
    }

    /// Persist to `path` atomically: serialize everything, write to
    /// `<path>.tmp` in the same directory, then rename over the target.
    /// Records are sorted so identical contents produce identical bytes.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut records: Vec<CacheRecord> = self
            .entries
            .iter()
            .map(|(key, slot)| CacheRecord {
                key: key.clone(),
                entry: slot.entry.clone(),
            })
            .collect();
        records.sort_by_key(|r| record_sort_key(&r.key));
        let file = CacheFile {
            schema_version: SCHEMA_VERSION,
            entries: records,
        };
        let text = serde_json::to_string_pretty(&file)
            .map_err(|e| std::io::Error::other(format!("serialize tuning cache: {e:?}")))?;
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, path)
    }
}

fn record_sort_key(key: &CacheKey) -> (String, [usize; 7], String) {
    let c = &key.cfg;
    (
        key.device.clone(),
        [
            c.batch, c.channels, c.input, c.filters, c.kernel, c.stride, c.pad,
        ],
        key.direction.to_string(),
    )
}

// ---- hand-written decoding over serde_json::Value --------------------

fn decode_cache_file(text: &str) -> Result<Vec<(CacheKey, CacheEntry)>, String> {
    let value = serde_json::from_str(text).map_err(|e| format!("parse error: {e:?}"))?;
    let obj = value.as_object().ok_or("top level is not an object")?;
    let version = obj
        .get("schema_version")
        .and_then(Value::as_u64)
        .ok_or("missing schema_version")?;
    if version != u64::from(SCHEMA_VERSION) {
        return Err(format!(
            "schema version {version} (this build reads {SCHEMA_VERSION})"
        ));
    }
    let entries = obj
        .get("entries")
        .and_then(Value::as_array)
        .ok_or("missing entries array")?;
    entries
        .iter()
        .enumerate()
        .map(|(i, record)| decode_record(record).map_err(|e| format!("entry {i}: {e}")))
        .collect()
}

fn decode_record(value: &Value) -> Result<(CacheKey, CacheEntry), String> {
    let obj = value.as_object().ok_or("record is not an object")?;
    let key = decode_key(obj.get("key").ok_or("missing key")?)?;
    let entry = decode_entry(obj.get("entry").ok_or("missing entry")?)?;
    Ok((key, entry))
}

fn decode_key(value: &Value) -> Result<CacheKey, String> {
    let obj = value.as_object().ok_or("key is not an object")?;
    Ok(CacheKey {
        device: obj
            .get("device")
            .and_then(Value::as_str)
            .ok_or("key.device")?
            .to_string(),
        cfg: decode_config(obj.get("cfg").ok_or("key.cfg")?)?,
        direction: decode_direction(obj.get("direction").ok_or("key.direction")?)?,
    })
}

fn decode_config(value: &Value) -> Result<ConvConfig, String> {
    let field = |name: &str| -> Result<usize, String> {
        value
            .get(name)
            .and_then(Value::as_u64)
            .map(|v| v as usize)
            .ok_or_else(|| format!("cfg.{name}"))
    };
    Ok(ConvConfig {
        batch: field("batch")?,
        channels: field("channels")?,
        input: field("input")?,
        filters: field("filters")?,
        kernel: field("kernel")?,
        stride: field("stride")?,
        pad: field("pad")?,
    })
}

fn decode_direction(value: &Value) -> Result<Direction, String> {
    // The derive encodes unit variants as their bare name.
    match value.as_str() {
        Some("Forward") => Ok(Direction::Forward),
        Some("Backward") => Ok(Direction::Backward),
        Some("Training") => Ok(Direction::Training),
        _ => Err(format!("unknown direction {value:?}")),
    }
}

fn decode_strategy(value: &Value) -> Result<Strategy, String> {
    match value.as_str() {
        Some("Direct") => Ok(Strategy::Direct),
        Some("Unrolling") => Ok(Strategy::Unrolling),
        Some("Fft") => Ok(Strategy::Fft),
        _ => Err(format!("unknown strategy {value:?}")),
    }
}

fn decode_layout(value: &Value) -> Result<Layout, String> {
    match value.as_str() {
        Some("Nchw") => Ok(Layout::Nchw),
        Some("Chwn") => Ok(Layout::Chwn),
        Some("Hwcn") => Ok(Layout::Hwcn),
        Some("Nchw8c") => Ok(Layout::Nchw8c),
        Some("Nchw16c") => Ok(Layout::Nchw16c),
        _ => Err(format!("unknown layout {value:?}")),
    }
}

fn decode_entry(value: &Value) -> Result<CacheEntry, String> {
    let obj = value.as_object().ok_or("entry is not an object")?;
    Ok(CacheEntry {
        implementation: obj
            .get("implementation")
            .and_then(Value::as_str)
            .ok_or("entry.implementation")?
            .to_string(),
        strategy: decode_strategy(obj.get("strategy").ok_or("entry.strategy")?)?,
        layout: decode_layout(obj.get("layout").ok_or("entry.layout")?)?,
        time_ms: obj
            .get("time_ms")
            .and_then(Value::as_f64)
            .ok_or("entry.time_ms")?,
        workspace_bytes: obj
            .get("workspace_bytes")
            .and_then(Value::as_u64)
            .ok_or("entry.workspace_bytes")?,
        reps: obj
            .get("reps")
            .and_then(Value::as_u64)
            .ok_or("entry.reps")? as usize,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(device: &str, batch: usize) -> CacheKey {
        CacheKey {
            device: device.to_string(),
            cfg: ConvConfig::with_channels(batch, 3, 32, 16, 3, 1),
            direction: Direction::Training,
        }
    }

    fn entry(name: &str, ms: f64) -> CacheEntry {
        CacheEntry {
            implementation: name.to_string(),
            strategy: Strategy::Unrolling,
            layout: Layout::Nchw,
            time_ms: ms,
            workspace_bytes: 1024,
            reps: 5,
        }
    }

    #[test]
    fn lookup_hits_and_misses() {
        let mut cache = TuningCache::new();
        assert!(cache.lookup(&key("dev", 32)).is_none());
        cache.insert(key("dev", 32), entry("cuDNN", 1.5));
        let hit = cache.lookup(&key("dev", 32)).expect("hit");
        assert_eq!(hit.implementation, "cuDNN");
        assert!(cache.lookup(&key("other", 32)).is_none());
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let mut cache = TuningCache::with_capacity(2);
        cache.insert(key("dev", 32), entry("a", 1.0));
        cache.insert(key("dev", 64), entry("b", 2.0));
        // Touch 32 so 64 becomes the LRU victim.
        assert!(cache.lookup(&key("dev", 32)).is_some());
        cache.insert(key("dev", 96), entry("c", 3.0));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&key("dev", 64)).is_none(), "LRU evicted");
        assert!(cache.lookup(&key("dev", 32)).is_some());
        assert!(cache.lookup(&key("dev", 96)).is_some());
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join("gcnn_autotune_cache_test_rt");
        let path = dir.join("tune.json");
        let mut cache = TuningCache::new();
        cache.insert(key("sim/k40c", 32), entry("fbfft", 3.25));
        cache.insert(key("sim/k40c", 64), entry("cuDNN", 0.125));
        cache.save(&path).expect("save");
        let mut loaded = TuningCache::load(&path);
        assert!(loaded.degraded().is_none());
        assert_eq!(loaded.len(), 2);
        assert_eq!(
            loaded.lookup(&key("sim/k40c", 32)).unwrap(),
            entry("fbfft", 3.25)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_empty_not_degraded() {
        let cache = TuningCache::load(Path::new("/nonexistent/gcnn/tune.json"));
        assert!(cache.is_empty());
        assert!(cache.degraded().is_none());
    }

    #[test]
    fn wrong_schema_version_degrades() {
        let dir = std::env::temp_dir().join("gcnn_autotune_cache_test_ver");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tune.json");
        std::fs::write(&path, "{\"schema_version\": 999, \"entries\": []}").unwrap();
        let cache = TuningCache::load(&path);
        assert!(cache.is_empty());
        assert!(cache.degraded().unwrap().contains("999"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pre_layout_caches_degrade_to_heuristics() {
        // v1/v2 entries have no `layout` field; reading one as planar
        // would silently mis-bind layer boundaries, so both versions
        // must be rejected wholesale (cache degraded → heuristics), even
        // when the rest of the record would decode fine. A v3 file goes
        // the same way: its verdicts were timed against the per-tap
        // NCHWc kernel and the pre-Goto SGEMM.
        let dir = std::env::temp_dir().join("gcnn_autotune_cache_test_prelayout");
        std::fs::create_dir_all(&dir).unwrap();
        for old_version in [1u32, 2, 3] {
            let path = dir.join(format!("tune_v{old_version}.json"));
            let record = concat!(
                "{\"key\": {\"device\": \"cpu/host/v1/4threads/avx2\", ",
                "\"cfg\": {\"batch\": 32, \"channels\": 3, \"input\": 32, ",
                "\"filters\": 16, \"kernel\": 3, \"stride\": 1, \"pad\": 0}, ",
                "\"direction\": \"Forward\"}, ",
                "\"entry\": {\"implementation\": \"unrolling\", ",
                "\"strategy\": \"Unrolling\", \"time_ms\": 1.5, ",
                "\"workspace_bytes\": 1024, \"reps\": 5}}"
            );
            let text = format!("{{\"schema_version\": {old_version}, \"entries\": [{record}]}}");
            std::fs::write(&path, text).unwrap();
            let cache = TuningCache::load(&path);
            assert!(cache.is_empty(), "v{old_version} cache must not load");
            let reason = cache.degraded().expect("degraded");
            assert!(
                reason.contains(&format!("schema version {old_version}")),
                "reason should name the stale version, got: {reason}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn current_schema_missing_layout_field_degrades() {
        // Defense in depth: even a file claiming the current schema must be
        // rejected if an entry lacks the layout verdict.
        let dir = std::env::temp_dir().join("gcnn_autotune_cache_test_nolayout");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tune.json");
        let record = concat!(
            "{\"key\": {\"device\": \"d\", ",
            "\"cfg\": {\"batch\": 1, \"channels\": 1, \"input\": 8, ",
            "\"filters\": 1, \"kernel\": 3, \"stride\": 1, \"pad\": 0}, ",
            "\"direction\": \"Forward\"}, ",
            "\"entry\": {\"implementation\": \"direct\", ",
            "\"strategy\": \"Direct\", \"time_ms\": 1.0, ",
            "\"workspace_bytes\": 0, \"reps\": 1}}"
        );
        let text = format!("{{\"schema_version\": {SCHEMA_VERSION}, \"entries\": [{record}]}}");
        std::fs::write(&path, text).unwrap();
        let cache = TuningCache::load(&path);
        assert!(cache.is_empty());
        assert!(cache.degraded().unwrap().contains("entry.layout"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn blocked_layout_round_trips() {
        let dir = std::env::temp_dir().join("gcnn_autotune_cache_test_blocked");
        let path = dir.join("tune.json");
        let mut cache = TuningCache::new();
        let mut e = entry("nchwc", 0.75);
        e.layout = Layout::Nchw8c;
        cache.insert(key("cpu/host/v4/4threads/avx2/b8", 32), e.clone());
        cache.save(&path).expect("save");
        let mut loaded = TuningCache::load(&path);
        assert!(loaded.degraded().is_none());
        let hit = loaded
            .lookup(&key("cpu/host/v4/4threads/avx2/b8", 32))
            .expect("hit");
        assert_eq!(hit, e);
        assert_eq!(hit.layout, Layout::Nchw8c);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_is_deterministic() {
        let dir = std::env::temp_dir().join("gcnn_autotune_cache_test_det");
        let a_path = dir.join("a.json");
        let b_path = dir.join("b.json");
        let mut a = TuningCache::new();
        let mut b = TuningCache::new();
        // Insert in opposite orders; bytes must match after sorting.
        a.insert(key("dev", 32), entry("x", 1.0));
        a.insert(key("dev", 64), entry("y", 2.0));
        b.insert(key("dev", 64), entry("y", 2.0));
        b.insert(key("dev", 32), entry("x", 1.0));
        a.save(&a_path).unwrap();
        b.save(&b_path).unwrap();
        assert_eq!(
            std::fs::read_to_string(&a_path).unwrap(),
            std::fs::read_to_string(&b_path).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
