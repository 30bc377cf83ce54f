//! Measurement substrates: the things a candidate algorithm can be
//! timed *on*.
//!
//! cuDNN's `cudnnFindConvolutionForwardAlgorithm` measures candidates on
//! the physical GPU; this workspace has two substrates standing in for
//! it. [`SimSubstrate`] runs each implementation's [`ExecutionPlan`]
//! through the `gcnn-gpusim` device model (deterministic modeled
//! milliseconds — the same quantity the advisor ranks). [`CpuSubstrate`]
//! wall-clock-times the three *real* convolution strategies on actual
//! tensors, which is where warmup and trimmed-median aggregation earn
//! their keep.
//!
//! [`ExecutionPlan`]: gcnn_frameworks::ExecutionPlan

use gcnn_conv::{algorithm_for, nchwc, ConvAlgorithm, ConvConfig, DirectConv, Strategy};
use gcnn_frameworks::{all_implementations, implementation_by_name};
use gcnn_gpusim::DeviceSpec;
use gcnn_tensor::Layout;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Instant;

/// Which pass of a training iteration is being tuned. Part of the
/// persistent cache key: forward-only serving and full training can
/// legitimately pick different winners.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Forward pass only (inference serving).
    Forward,
    /// Backward-data + backward-filters only.
    Backward,
    /// One full training iteration (forward + both backward passes) —
    /// what the paper measures and what [`SimSubstrate`] models.
    Training,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Direction::Forward => "forward",
            Direction::Backward => "backward",
            Direction::Training => "training",
        })
    }
}

/// One selectable algorithm on a substrate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Candidate {
    /// Stable name — a framework name on [`SimSubstrate`] ("cuDNN",
    /// "fbfft", …), a strategy name on [`CpuSubstrate`].
    pub name: String,
    /// The convolution strategy the candidate executes.
    pub strategy: Strategy,
    /// The activation layout the candidate executes over. Planar
    /// [`Layout::Nchw`] for every candidate except the CPU substrate's
    /// `"nchwc"`, which runs the channel-blocked fused direct path.
    pub layout: Layout,
}

/// Cost of one repetition of a candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunCost {
    /// Cost in milliseconds — modeled device time on [`SimSubstrate`],
    /// wall-clock on [`CpuSubstrate`].
    pub cost_ms: f64,
    /// Peak workspace the run required, bytes: plan allocations on the
    /// simulator, fresh arena bytes on the CPU.
    pub workspace_bytes: u64,
}

/// A surface candidates can be measured on.
pub trait Substrate {
    /// Device fingerprint for the persistent cache key. Two processes
    /// with the same fingerprint must agree on what a measurement means.
    fn fingerprint(&self) -> String;

    /// All selectable candidates, in a stable order.
    fn candidates(&self) -> Vec<Candidate>;

    /// Execute one repetition of `candidate` at `cfg`/`direction`.
    /// `Err(reason)` marks the candidate unsupported there.
    fn run_once(
        &self,
        candidate: &str,
        cfg: &ConvConfig,
        direction: Direction,
    ) -> Result<RunCost, String>;
}

/// The seven framework implementations executed on the `gcnn-gpusim`
/// device model. Deterministic; one repetition equals one modeled
/// training iteration.
#[derive(Debug, Clone)]
pub struct SimSubstrate {
    /// The modeled device.
    pub dev: DeviceSpec,
}

impl SimSubstrate {
    /// A substrate over an explicit device.
    pub fn new(dev: DeviceSpec) -> Self {
        SimSubstrate { dev }
    }

    /// The paper's Tesla K40c.
    pub fn k40c() -> Self {
        SimSubstrate::new(DeviceSpec::k40c())
    }
}

impl Substrate for SimSubstrate {
    fn fingerprint(&self) -> String {
        // Everything the timing model's output depends on at first
        // order; a different SM count, clock or memory size is a
        // different device as far as cached winners are concerned.
        format!(
            "sim/{}/sm{}x{}@{}MHz/{}MiB",
            self.dev.name,
            self.dev.sm_count,
            self.dev.cores_per_sm,
            self.dev.clock_mhz,
            self.dev.global_mem_bytes >> 20
        )
    }

    fn candidates(&self) -> Vec<Candidate> {
        all_implementations()
            .iter()
            .map(|imp| Candidate {
                name: imp.name().to_string(),
                strategy: imp.strategy(),
                layout: Layout::Nchw,
            })
            .collect()
    }

    fn run_once(
        &self,
        candidate: &str,
        cfg: &ConvConfig,
        direction: Direction,
    ) -> Result<RunCost, String> {
        if direction != Direction::Training {
            // The framework plans model one full training iteration;
            // pretending they split per pass would fabricate data.
            return Err(format!(
                "simulator substrate models full training iterations, not {direction}"
            ));
        }
        let imp = implementation_by_name(candidate)
            .ok_or_else(|| format!("unknown implementation {candidate}"))?;
        imp.supports(cfg).map_err(|e| e.to_string())?;
        let plan = imp.plan(cfg);
        let report = plan
            .execute(&self.dev, 1)
            .map_err(|_| "out of device memory".to_string())?;
        Ok(RunCost {
            cost_ms: report.total_ms(),
            workspace_bytes: plan.peak_bytes(),
        })
    }
}

/// The three real `gcnn-conv` strategies, wall-clock-timed on this
/// machine with actual tensors. Workspace is accounted through the
/// arena: the bytes of fresh (pool-miss) checkouts the run triggers.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuSubstrate;

impl CpuSubstrate {
    /// Construct the CPU substrate.
    pub fn new() -> Self {
        CpuSubstrate
    }

    /// One timed repetition of the channel-blocked fused direct path.
    ///
    /// Forward-only — the packed path has no backward kernels. Packing
    /// (input and filters) happens outside the timed region: in a fused
    /// chain the pack cost is paid once at the chain boundary and
    /// amortized across its layers, so charging it to every layer would
    /// systematically bias the verdict toward planar.
    fn run_nchwc_once(&self, cfg: &ConvConfig, direction: Direction) -> Result<RunCost, String> {
        if direction != Direction::Forward {
            return Err(format!(
                "nchwc packed path is forward-only, not {direction}"
            ));
        }
        DirectConv.supports(cfg).map_err(|e| e.to_string())?;
        let block = gcnn_tensor::simd::preferred_block();
        let x = gcnn_tensor::init::uniform_tensor(cfg.input_shape(), -1.0, 1.0, 97);
        let w = gcnn_tensor::init::uniform_tensor(cfg.filter_shape(), -0.5, 0.5, 98);
        let mut pin = gcnn_tensor::workspace::take_f32(nchwc::packed_input_len(cfg, block));
        let mut pw = gcnn_tensor::workspace::take_f32(nchwc::packed_filter_len(cfg, block));
        let mut pout = gcnn_tensor::workspace::take_f32(nchwc::packed_output_len(cfg, block));
        nchwc::pack_input(cfg, &x, block, pin.as_mut_slice());
        nchwc::pack_filters(cfg, &w, block, pw.as_mut_slice());

        let bytes_before = gcnn_tensor::workspace::fresh_alloc_bytes();
        let t = Instant::now();
        nchwc::fused_conv_relu(
            cfg,
            block,
            pin.as_slice(),
            pw.as_slice(),
            std::hint::black_box(pout.as_mut_slice()),
            false,
        );
        Ok(RunCost {
            cost_ms: t.elapsed().as_secs_f64() * 1e3,
            workspace_bytes: gcnn_tensor::workspace::fresh_alloc_bytes() - bytes_before,
        })
    }
}

impl Substrate for CpuSubstrate {
    fn fingerprint(&self) -> String {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        // The SIMD dispatch path changes what a measurement means: a
        // verdict cached under the scalar kernels must not be trusted by
        // a process running the AVX2/NEON ones (and vice versa), so the
        // effective ISA is part of the device identity, and so is the
        // channel-block width the `nchwc` candidate runs at (an AVX-512
        // host reports `avx2+fma` but tunes the 16-wide zmm tile). The
        // generation tag invalidates verdicts whose kernels changed
        // under them: `v3` was the NCHWc layout candidate, `v4` the
        // output-stationary conv tile and the pack-once SGEMM — older
        // layout verdicts compared two kernels that no longer exist.
        let isa = gcnn_tensor::simd::isa_name();
        let block = gcnn_tensor::simd::preferred_block();
        format!("cpu/host/v4/{threads}threads/{isa}/b{block}")
    }

    fn candidates(&self) -> Vec<Candidate> {
        let mut cands: Vec<Candidate> = [Strategy::Direct, Strategy::Unrolling, Strategy::Fft]
            .into_iter()
            .map(|s| Candidate {
                name: s.to_string(),
                strategy: s,
                layout: Layout::Nchw,
            })
            .collect();
        // The channel-blocked fused direct path. Forward-only: training
        // keeps planar layouts, so this candidate rejects any direction
        // with a backward pass and can only win serving-style tunes.
        cands.push(Candidate {
            name: "nchwc".to_string(),
            strategy: Strategy::Direct,
            layout: gcnn_tensor::nchwc::preferred_layout(),
        });
        cands
    }

    fn run_once(
        &self,
        candidate: &str,
        cfg: &ConvConfig,
        direction: Direction,
    ) -> Result<RunCost, String> {
        let strategy = match candidate {
            "direct" => Strategy::Direct,
            "unrolling" => Strategy::Unrolling,
            "fft" => Strategy::Fft,
            "nchwc" => return self.run_nchwc_once(cfg, direction),
            other => return Err(format!("unknown strategy {other}")),
        };
        let algo = algorithm_for(strategy);
        algo.supports(cfg).map_err(|e| e.to_string())?;

        // Inputs are built outside the timed region; only the
        // convolution itself is measured.
        let x = gcnn_tensor::init::uniform_tensor(cfg.input_shape(), -1.0, 1.0, 97);
        let w = gcnn_tensor::init::uniform_tensor(cfg.filter_shape(), -0.5, 0.5, 98);
        let g = gcnn_tensor::init::uniform_tensor(cfg.output_shape(), -1.0, 1.0, 99);

        let bytes_before = gcnn_tensor::workspace::fresh_alloc_bytes();
        let t = Instant::now();
        match direction {
            Direction::Forward => {
                std::hint::black_box(algo.forward(cfg, &x, &w));
            }
            Direction::Backward => {
                std::hint::black_box(algo.backward_data(cfg, &g, &w));
                std::hint::black_box(algo.backward_filters(cfg, &x, &g));
            }
            Direction::Training => {
                std::hint::black_box(algo.forward(cfg, &x, &w));
                std::hint::black_box(algo.backward_data(cfg, &g, &w));
                std::hint::black_box(algo.backward_filters(cfg, &x, &g));
            }
        }
        Ok(RunCost {
            cost_ms: t.elapsed().as_secs_f64() * 1e3,
            workspace_bytes: gcnn_tensor::workspace::fresh_alloc_bytes() - bytes_before,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_candidates_are_the_seven_implementations() {
        let sub = SimSubstrate::k40c();
        let c = sub.candidates();
        assert_eq!(c.len(), 7);
        assert!(c.iter().any(|c| c.name == "fbfft"));
        assert!(c
            .iter()
            .all(|c| c.name != "fbfft" || c.strategy == Strategy::Fft));
    }

    #[test]
    fn sim_run_matches_plan_execution() {
        let sub = SimSubstrate::k40c();
        let cfg = ConvConfig::paper_base();
        let run = sub.run_once("cuDNN", &cfg, Direction::Training).unwrap();
        let imp = implementation_by_name("cuDNN").unwrap();
        let want = imp.plan(&cfg).execute(&sub.dev, 1).unwrap().total_ms();
        assert!((run.cost_ms - want).abs() < 1e-9);
        assert_eq!(run.workspace_bytes, imp.plan(&cfg).peak_bytes());
    }

    #[test]
    fn sim_rejects_unsupported_and_non_training() {
        let sub = SimSubstrate::k40c();
        let strided = ConvConfig::from_tuple(64, 32, 64, 5, 2);
        assert!(sub
            .run_once("fbfft", &strided, Direction::Training)
            .is_err());
        assert!(sub
            .run_once("cuDNN", &ConvConfig::paper_base(), Direction::Forward)
            .is_err());
        assert!(sub
            .run_once(
                "no-such-impl",
                &ConvConfig::paper_base(),
                Direction::Training
            )
            .is_err());
    }

    #[test]
    fn cpu_runs_all_three_strategies() {
        let sub = CpuSubstrate::new();
        let cfg = ConvConfig::with_channels(2, 2, 8, 4, 3, 1);
        for cand in sub.candidates() {
            if cand.name == "nchwc" {
                continue; // forward-only; covered below
            }
            let run = sub
                .run_once(&cand.name, &cfg, Direction::Training)
                .unwrap_or_else(|e| panic!("{}: {e}", cand.name));
            assert!(run.cost_ms > 0.0, "{}", cand.name);
        }
    }

    #[test]
    fn cpu_nchwc_candidate_is_forward_only_and_blocked() {
        let sub = CpuSubstrate::new();
        let cands = sub.candidates();
        assert_eq!(cands.len(), 4);
        let nchwc = cands.iter().find(|c| c.name == "nchwc").unwrap();
        assert_eq!(nchwc.strategy, Strategy::Direct);
        assert!(
            nchwc.layout.channel_block().is_some(),
            "nchwc must carry a blocked layout"
        );
        assert!(
            cands
                .iter()
                .filter(|c| c.name != "nchwc")
                .all(|c| c.layout == Layout::Nchw),
            "planar candidates must stay NCHW"
        );

        let cfg = ConvConfig::with_channels(2, 2, 8, 4, 3, 1);
        let run = sub.run_once("nchwc", &cfg, Direction::Forward).unwrap();
        assert!(run.cost_ms > 0.0);
        for dir in [Direction::Backward, Direction::Training] {
            let err = sub.run_once("nchwc", &cfg, dir).unwrap_err();
            assert!(err.contains("forward-only"), "{err}");
        }
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let sim = SimSubstrate::k40c();
        assert_eq!(sim.fingerprint(), sim.fingerprint());
        assert_ne!(sim.fingerprint(), CpuSubstrate::new().fingerprint());
        assert!(sim.fingerprint().contains("Tesla K40c"));
    }

    #[test]
    fn cpu_fingerprint_carries_isa() {
        let fp = CpuSubstrate::new().fingerprint();
        let isa = gcnn_tensor::simd::isa_name();
        let block = gcnn_tensor::simd::preferred_block();
        assert!(
            fp.ends_with(&format!("/{isa}/b{block}")),
            "fingerprint {fp} missing the ISA and block-width suffix"
        );
        assert!(
            fp.contains("/v4/"),
            "fingerprint {fp} missing the kernel-generation tag"
        );
        assert_eq!(
            u64::from(crate::SCHEMA_VERSION),
            4,
            "cache schema and fingerprint generation move together"
        );
    }
}
