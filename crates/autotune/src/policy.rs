//! The policy engine: how a caller wants winners chosen.
//!
//! [`Policy::Heuristic`] is zero-measurement model-based dispatch (one
//! modeled run per candidate, equivalent to `gcnn-core::advisor`'s
//! `Scenario::Speed` ranking on the simulator substrate).
//! [`Policy::Measure`] is the cudnnFind path: consult the cache, and on
//! a miss run the full measurement sweep and remember the winner.
//! [`Policy::CacheOnly`] is serving mode: never measure, fall back to
//! the heuristic on a miss.

use crate::cache::{CacheEntry, CacheKey, TuningCache};
use crate::harness::{measure_candidates, pick_winner, MeasureParams, Outcome};
use crate::substrate::{Direction, Substrate};
use gcnn_conv::{ConvConfig, Strategy};
use gcnn_tensor::Layout;
use serde::Serialize;

/// How winners are selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Policy {
    /// Model-based pick; no measurement sweep, no cache interaction.
    Heuristic,
    /// Cached winner if present, else measure all candidates and cache
    /// the result.
    Measure,
    /// Cached winner if present, else heuristic — never measures.
    /// Serving mode: latency-safe even with a cold cache.
    CacheOnly,
}

/// Resource constraint on the selection, mirroring
/// `gcnn-core::advisor::Scenario::SpeedWithinMemory`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Constraint {
    /// Fastest candidate, any workspace.
    None,
    /// Fastest candidate whose peak workspace fits the byte budget.
    SpeedWithinMemory(u64),
}

impl Constraint {
    /// Whether a peak workspace of `bytes` satisfies the constraint.
    pub fn allows(&self, bytes: u64) -> bool {
        match self {
            Constraint::None => true,
            Constraint::SpeedWithinMemory(budget) => bytes <= *budget,
        }
    }
}

/// Where a [`Selection`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SelectionSource {
    /// Persistent cache hit.
    Cache,
    /// Fresh measurement sweep this call.
    Measured,
    /// Model-based heuristic (no measurement).
    Heuristic,
}

/// The chosen candidate for one layer configuration.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Selection {
    /// Winning candidate's name on the substrate.
    pub implementation: String,
    /// The convolution strategy it executes.
    pub strategy: Strategy,
    /// The tensor layout it executes in (planar [`Layout::Nchw`] for
    /// everything except the CPU channel-blocked `nchwc` candidate).
    pub layout: Layout,
    /// Its (measured or modeled) time, milliseconds.
    pub time_ms: f64,
    /// Its peak workspace, bytes.
    pub workspace_bytes: u64,
    /// How the choice was made.
    pub source: SelectionSource,
}

/// A configured selector: policy + constraint + measurement knobs.
#[derive(Debug, Clone)]
pub struct Tuner {
    /// Selection policy.
    pub policy: Policy,
    /// Memory constraint applied to every candidate.
    pub constraint: Constraint,
    /// Measurement knobs (used by [`Policy::Measure`] only).
    pub params: MeasureParams,
}

impl Tuner {
    /// A tuner with [`Constraint::None`] and environment-derived
    /// measurement knobs.
    pub fn new(policy: Policy) -> Self {
        Tuner {
            policy,
            constraint: Constraint::None,
            params: MeasureParams::from_env(),
        }
    }

    /// Replace the measurement knobs.
    pub fn with_params(mut self, params: MeasureParams) -> Self {
        self.params = params;
        self
    }

    /// Choose a candidate for `cfg`/`direction` on `sub`.
    ///
    /// Returns `None` when no candidate satisfies the constraint (e.g.
    /// an impossible memory budget). A degraded cache (corrupt file on
    /// load) is simply empty, so `Measure` re-measures and `CacheOnly`
    /// heuristically falls back — degradation never panics or errors.
    pub fn select(
        &self,
        sub: &dyn Substrate,
        cache: &mut TuningCache,
        cfg: &ConvConfig,
        direction: Direction,
    ) -> Option<Selection> {
        match self.policy {
            Policy::Heuristic => self.heuristic(sub, cfg, direction),
            Policy::Measure => {
                if let Some(sel) = self.cached(sub, cache, cfg, direction) {
                    return Some(sel);
                }
                let sel = self.measure(sub, cfg, direction)?;
                cache.insert(
                    self.key(sub, cfg, direction),
                    CacheEntry {
                        implementation: sel.implementation.clone(),
                        strategy: sel.strategy,
                        layout: sel.layout,
                        time_ms: sel.time_ms,
                        workspace_bytes: sel.workspace_bytes,
                        reps: self.params.repeats.reps.max(1),
                    },
                );
                Some(sel)
            }
            Policy::CacheOnly => self
                .cached(sub, cache, cfg, direction)
                .or_else(|| self.heuristic(sub, cfg, direction)),
        }
    }

    fn key(&self, sub: &dyn Substrate, cfg: &ConvConfig, direction: Direction) -> CacheKey {
        CacheKey {
            device: sub.fingerprint(),
            cfg: *cfg,
            direction,
        }
    }

    /// Cache probe; a hit whose stored workspace violates the current
    /// constraint is ignored (the entry was measured under a looser
    /// budget) and selection proceeds as a miss.
    fn cached(
        &self,
        sub: &dyn Substrate,
        cache: &mut TuningCache,
        cfg: &ConvConfig,
        direction: Direction,
    ) -> Option<Selection> {
        let entry = cache.lookup(&self.key(sub, cfg, direction))?;
        if !self.constraint.allows(entry.workspace_bytes) {
            return None;
        }
        Some(Selection {
            implementation: entry.implementation,
            strategy: entry.strategy,
            layout: entry.layout,
            time_ms: entry.time_ms,
            workspace_bytes: entry.workspace_bytes,
            source: SelectionSource::Cache,
        })
    }

    /// One modeled/real run per candidate, minimum cost wins. On the
    /// simulator substrate this ranks candidates by exactly the modeled
    /// time `gcnn-core::advisor::advise` ranks, so the two agree.
    fn heuristic(
        &self,
        sub: &dyn Substrate,
        cfg: &ConvConfig,
        direction: Direction,
    ) -> Option<Selection> {
        sub.candidates()
            .into_iter()
            .filter_map(|cand| {
                let run = sub.run_once(&cand.name, cfg, direction).ok()?;
                self.constraint
                    .allows(run.workspace_bytes)
                    .then_some(Selection {
                        implementation: cand.name,
                        strategy: cand.strategy,
                        layout: cand.layout,
                        time_ms: run.cost_ms,
                        workspace_bytes: run.workspace_bytes,
                        source: SelectionSource::Heuristic,
                    })
            })
            .min_by(|a, b| a.time_ms.total_cmp(&b.time_ms))
    }

    fn measure(
        &self,
        sub: &dyn Substrate,
        cfg: &ConvConfig,
        direction: Direction,
    ) -> Option<Selection> {
        let reports = measure_candidates(sub, cfg, direction, &self.params, &self.constraint);
        let winner = pick_winner(&reports)?;
        let Outcome::Measured {
            time_ms,
            workspace_bytes,
            ..
        } = &winner.outcome
        else {
            return None;
        };
        Some(Selection {
            implementation: winner.name.clone(),
            strategy: winner.strategy,
            layout: winner.layout,
            time_ms: *time_ms,
            workspace_bytes: *workspace_bytes,
            source: SelectionSource::Measured,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::MeasureParams;
    use crate::substrate::SimSubstrate;
    use crate::timing::Repeats;

    fn tuner(policy: Policy) -> Tuner {
        Tuner::new(policy).with_params(MeasureParams {
            repeats: Repeats::new(1, 3),
            timeout_ms: None,
        })
    }

    fn constrained(policy: Policy, budget: u64) -> Tuner {
        Tuner {
            constraint: Constraint::SpeedWithinMemory(budget),
            ..tuner(policy)
        }
    }

    #[test]
    fn measure_then_cache_hit() {
        let sub = SimSubstrate::k40c();
        let mut cache = TuningCache::new();
        let cfg = ConvConfig::paper_base();
        let t = tuner(Policy::Measure);

        let first = t
            .select(&sub, &mut cache, &cfg, Direction::Training)
            .expect("winner");
        assert_eq!(first.source, SelectionSource::Measured);
        assert_eq!(cache.len(), 1);

        let second = t
            .select(&sub, &mut cache, &cfg, Direction::Training)
            .expect("winner");
        assert_eq!(second.source, SelectionSource::Cache);
        assert_eq!(second.implementation, first.implementation);
        assert_eq!(second.time_ms, first.time_ms);
    }

    #[test]
    fn heuristic_never_touches_cache() {
        let sub = SimSubstrate::k40c();
        let mut cache = TuningCache::new();
        let cfg = ConvConfig::paper_base();
        let sel = tuner(Policy::Heuristic)
            .select(&sub, &mut cache, &cfg, Direction::Training)
            .expect("winner");
        assert_eq!(sel.source, SelectionSource::Heuristic);
        assert!(cache.is_empty());
    }

    #[test]
    fn heuristic_and_measured_agree_on_simulator() {
        // The simulator is deterministic, so a measured trimmed median
        // equals a single heuristic run — same winner either way.
        let sub = SimSubstrate::k40c();
        let mut cache = TuningCache::new();
        let cfg = ConvConfig::paper_base();
        let h = tuner(Policy::Heuristic)
            .select(&sub, &mut cache, &cfg, Direction::Training)
            .unwrap();
        let m = tuner(Policy::Measure)
            .select(&sub, &mut cache, &cfg, Direction::Training)
            .unwrap();
        assert_eq!(h.implementation, m.implementation);
        assert!((h.time_ms - m.time_ms).abs() < 1e-9);
    }

    #[test]
    fn cache_only_falls_back_to_heuristic() {
        let sub = SimSubstrate::k40c();
        let mut cache = TuningCache::new();
        let cfg = ConvConfig::paper_base();
        let sel = tuner(Policy::CacheOnly)
            .select(&sub, &mut cache, &cfg, Direction::Training)
            .expect("fallback winner");
        assert_eq!(sel.source, SelectionSource::Heuristic);
        assert!(cache.is_empty(), "CacheOnly must not write the cache");
    }

    #[test]
    fn memory_constraint_changes_or_blocks_choice() {
        let sub = SimSubstrate::k40c();
        let mut cache = TuningCache::new();
        let cfg = ConvConfig::paper_base();
        let unconstrained = tuner(Policy::Measure)
            .select(&sub, &mut cache, &cfg, Direction::Training)
            .unwrap();
        // Impossible budget → no selection at all.
        let blocked = constrained(Policy::Measure, 1).select(
            &sub,
            &mut TuningCache::new(),
            &cfg,
            Direction::Training,
        );
        assert!(blocked.is_none());
        // A budget just under the unconstrained winner's workspace must
        // not return anything exceeding it.
        if unconstrained.workspace_bytes > 1 {
            let budget = unconstrained.workspace_bytes - 1;
            if let Some(sel) = constrained(Policy::Measure, budget).select(
                &sub,
                &mut TuningCache::new(),
                &cfg,
                Direction::Training,
            ) {
                assert!(sel.workspace_bytes <= budget);
                assert_ne!(sel.implementation, unconstrained.implementation);
            }
        }
    }

    #[test]
    fn constrained_probe_ignores_looser_cache_entry() {
        let sub = SimSubstrate::k40c();
        let mut cache = TuningCache::new();
        let cfg = ConvConfig::paper_base();
        // Warm the cache without a constraint…
        let warm = tuner(Policy::Measure)
            .select(&sub, &mut cache, &cfg, Direction::Training)
            .unwrap();
        assert!(warm.workspace_bytes > 1);
        // …then select under a budget the cached entry violates: the
        // hit must be ignored, not returned.
        let sel =
            constrained(Policy::CacheOnly, 1).select(&sub, &mut cache, &cfg, Direction::Training);
        assert!(sel.is_none() || sel.unwrap().workspace_bytes <= 1);
    }
}
