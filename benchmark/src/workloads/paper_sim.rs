//! `paper_sim`: the paper's actual deliverable — the analytical GPU
//! model under its seven framework plans — timed on the host.
//!
//! One iteration evaluates the five parameter sweeps over all seven
//! implementations (Fig. 3), the layer breakdown and whole-model
//! comparison of the four Fig. 2 models, and one four-tenant
//! round-robin multi-tenant simulation. No CPU kernel runs. Host time
//! is what is measured; the *simulated* statistics must not move at
//! all, so their sum is recomputed every iteration and compared bit for
//! bit — a change meant to speed the simulator up must leave the model
//! alone.

use super::{timed_loop, traced_loop, Iter, RunStats, TraceCtx, Workload, WARMUP_ITERS};
use crate::calib::Calibrator;
use crate::spans::{Recorder, SpanId};
use gcnn_conv::{table1_configs, ConvConfig};
use gcnn_core::compare::runtime_comparison;
use gcnn_core::{compare_model, paper_sweeps, Sweep};
use gcnn_frameworks::cudnn::CuDnn;
use gcnn_frameworks::{all_implementations, ConvImplementation};
use gcnn_gpusim::timing::time_kernel;
use gcnn_gpusim::DeviceSpec;
use gcnn_models::{all_models, model_breakdown, ModelSpec};
use gcnn_mtsim::{simulate, Arrival, SchedPolicy, SimConfig, TenantSpec};
use std::hint::black_box;
use std::time::Duration;

/// Mini-batch of the model-level analyses (the paper's Fig. 2 setting
/// scaled to what `gcnn-models`' own tests use).
const MODEL_BATCH: usize = 32;
/// Jobs each simulated tenant submits.
const TENANT_JOBS: u32 = 24;
/// Round-robin service quantum of the simulated scheduler.
const QUANTUM_US: f64 = 500.0;

pub struct PaperSim {
    dev: DeviceSpec,
    sweeps: Vec<Sweep>,
    models: Vec<ModelSpec>,
    tenants: Vec<TenantSpec>,
    /// Sum of every simulated time of one iteration, as set-up saw it.
    expect_ms: f64,
    /// Simulated kernel plans evaluated per iteration.
    plans: u64,
}

/// What one iteration's pieces produced.
struct Modeled {
    total_ms: f64,
    plans: u64,
}

impl PaperSim {
    pub fn setup(seed: u64) -> Self {
        let dev = DeviceSpec::k40c();
        // Four tenants replaying Table I plans. The seed picks which
        // plan each tenant replays and how its arrivals are spaced; the
        // job count, and so the amount of simulated work, stays fixed.
        let impls = all_implementations();
        let table = table1_configs();
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let tenants = (0..4)
            .map(|t| {
                let (imp, cfg) = loop {
                    let imp = &impls[next(impls.len())];
                    let cfg = ConvConfig {
                        batch: 32,
                        ..table[next(table.len())]
                    };
                    if imp.supports(&cfg).is_ok() {
                        break (imp, cfg);
                    }
                };
                let arrival = if t % 2 == 0 {
                    Arrival::ClosedLoop
                } else {
                    Arrival::Open {
                        period_us: 2000.0 + 250.0 * next(8) as f64,
                    }
                };
                TenantSpec::from_plan(
                    &format!("tenant{t}-{}", imp.name()),
                    &imp.plan(&cfg),
                    arrival,
                    TENANT_JOBS,
                )
            })
            .collect();
        let mut w = PaperSim {
            dev,
            sweeps: paper_sweeps(),
            models: all_models(),
            tenants,
            expect_ms: 0.0,
            plans: 0,
        };
        let (first, _) = w.iterate(None);
        assert!(first.total_ms.is_finite() && first.total_ms > 0.0);
        // Reference: the paper's Fig. 3a claim, fbfft fastest at the
        // base configuration's batch sweep.
        let batch_sweep = runtime_comparison(&w.sweeps[0], &w.dev);
        assert_eq!(batch_sweep.winner_at(0).map(|(n, _)| n), Some("fbfft"));
        w.expect_ms = first.total_ms;
        w.plans = first.plans;
        for _ in 0..WARMUP_ITERS {
            assert_eq!(w.iterate(None).0.total_ms.to_bits(), w.expect_ms.to_bits());
        }
        w
    }

    /// One iteration; with a recorder, one span per analysis. Also
    /// returns the id of the sweep span, for the replay to attach to.
    fn iterate(&self, mut rec: Option<&mut Recorder>) -> (Modeled, SpanId) {
        let mut m = Modeled {
            total_ms: 0.0,
            plans: 0,
        };
        let sweep_span = spanned(&mut rec, "core.sweep", || {
            for sweep in &self.sweeps {
                let table = runtime_comparison(sweep, &self.dev);
                for cell in table.cells.iter().flatten() {
                    m.total_ms += cell.time().unwrap_or(0.0);
                    m.plans += 1;
                }
            }
        });
        spanned(&mut rec, "core.breakdown", || {
            for model in &self.models {
                let breakdown = model_breakdown(model, MODEL_BATCH, &CuDnn, &self.dev);
                m.total_ms += breakdown.total_ms();
                let cmp = compare_model(model, MODEL_BATCH, &self.dev);
                m.total_ms +=
                    cmp.oracle_ms() + cmp.totals.iter().filter_map(|(_, t)| *t).sum::<f64>();
                m.plans += (cmp.oracle.len() * (cmp.totals.len() + 1)) as u64;
            }
        });
        spanned(&mut rec, "mtsim.simulate", || {
            let policy = SchedPolicy::RoundRobin {
                quantum_us: QUANTUM_US,
            };
            m.total_ms += simulate(&self.dev, &self.tenants, SimConfig::new(policy)).makespan_ms;
            m.plans += self.tenants.len() as u64;
        });
        (m, sweep_span)
    }

    fn checked(&self, m: &Modeled) -> Iter {
        let same = m.total_ms.to_bits() == self.expect_ms.to_bits() && m.plans == self.plans;
        Iter::all(self.plans, same)
    }

    /// Kernel launches the simulated tenants make: one completion event
    /// each, plus one arrival event per job.
    fn sim_events(&self) -> u64 {
        self.tenants
            .iter()
            .map(|t| u64::from(t.jobs) * (t.launches_per_job() + 1))
            .sum()
    }

    /// Re-issue what the sweeps call below `runtime_comparison`: every
    /// supported implementation's `plan` at every sweep point, then
    /// `time_kernel` over every kernel of those plans.
    fn replay(&self, rec: &mut Recorder, parent: SpanId) -> (u64, u64) {
        let impls = all_implementations();
        let points: Vec<(&dyn ConvImplementation, ConvConfig)> = self
            .sweeps
            .iter()
            .flat_map(|s| s.configs())
            .flat_map(|(_, cfg)| impls.iter().map(move |i| (i.as_ref(), cfg)))
            .filter(|(i, cfg)| i.supports(cfg).is_ok())
            .collect();
        let plans = rec.replay(parent, "frameworks.plan_build", || {
            points
                .iter()
                .map(|(i, cfg)| i.plan(cfg))
                .collect::<Vec<_>>()
        });
        let kernels: u64 = plans.iter().map(|p| p.kernels.len() as u64).sum();
        rec.replay(parent, "gpusim.time_kernel", || {
            for pk in plans.iter().flat_map(|p| &p.kernels) {
                black_box(time_kernel(&self.dev, &pk.desc));
            }
        });
        (plans.len() as u64, kernels)
    }
}

impl Workload for PaperSim {
    fn item(&self) -> &'static str {
        "simulated kernel plan"
    }

    fn run(&mut self, window: Duration, calib: &mut Calibrator) -> RunStats {
        timed_loop(window, calib, || self.checked(&self.iterate(None).0))
    }

    fn run_traced(&mut self, window: Duration, ctx: &mut TraceCtx<'_>) -> RunStats {
        let (mut plans, mut kernels) = (0u64, 0u64);
        let this = &*self;
        let stats = traced_loop(window, ctx.rec, "sim.iter", |it| {
            let (m, sweep_span) = it.walk(|rec| this.iterate(Some(rec)));
            let (p, k) = this.replay(it.rec, sweep_span);
            plans += p;
            kernels += k;
            this.checked(&m)
        });
        let agg = crate::spans::aggregate(ctx.rec.spans());
        let ns = |name: &str| agg.get(name).map_or(0, |a| a.total_ns) as f64;
        if plans > 0 && kernels > 0 {
            ctx.metrics.set(
                "frameworks.plan_build_us",
                ns("frameworks.plan_build") / 1e3 / plans as f64,
            );
            ctx.metrics.set(
                "gpusim.time_kernel_ns",
                ns("gpusim.time_kernel") / kernels as f64,
            );
        }
        let iters = stats.iterations as f64;
        ctx.metrics
            .set("core.sweep_ms", ns("core.sweep") / 1e6 / iters);
        ctx.metrics
            .set("core.breakdown_ms", ns("core.breakdown") / 1e6 / iters);
        let sim_s = ns("mtsim.simulate") / 1e9;
        if sim_s > 0.0 {
            ctx.metrics.set(
                "mtsim.events_per_s",
                (self.sim_events() * stats.iterations) as f64 / sim_s,
            );
        }
        ctx.metrics.set("core.modeled_total_ms", self.expect_ms);
        stats
    }
}

/// Run `body` inside a span of `rec`, when there is a recorder.
fn spanned(rec: &mut Option<&mut Recorder>, name: &'static str, body: impl FnOnce()) -> SpanId {
    let id = rec.as_mut().map(|r| r.begin(name));
    body();
    if let (Some(r), Some(id)) = (rec.as_mut(), id) {
        r.end(id);
    }
    id.unwrap_or(SpanId::NONE)
}
