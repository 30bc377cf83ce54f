//! Fig. 3: head-to-head runtime comparison.

use crate::sweep::Sweep;
use gcnn_conv::ConvConfig;
use gcnn_frameworks::{all_implementations, ConvImplementation};
use gcnn_gpusim::DeviceSpec;
use serde::{Deserialize, Serialize};

/// One implementation's result at one sweep point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ComparisonCell {
    /// Modeled time for one training iteration, milliseconds.
    Time(f64),
    /// The implementation rejects this shape (paper §IV-B: dots/gaps in
    /// the plots).
    Unsupported(String),
    /// The configuration exceeds device memory (the paper observed
    /// "program crush" for FFT implementations at such points).
    OutOfMemory,
}

impl ComparisonCell {
    /// The time, if the run succeeded.
    pub fn time(&self) -> Option<f64> {
        match self {
            ComparisonCell::Time(t) => Some(*t),
            _ => None,
        }
    }
}

/// A full sweep × implementations table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComparisonTable {
    /// Axis label.
    pub axis: String,
    /// Sweep values (x-axis).
    pub values: Vec<usize>,
    /// Implementation names (column order).
    pub implementations: Vec<String>,
    /// `cells[point][impl]`.
    pub cells: Vec<Vec<ComparisonCell>>,
}

impl ComparisonTable {
    /// The fastest supported implementation at a sweep point.
    pub fn winner_at(&self, point: usize) -> Option<(&str, f64)> {
        self.cells[point]
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.time().map(|t| (self.implementations[i].as_str(), t)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Time of a named implementation at a point.
    pub fn time_of(&self, point: usize, name: &str) -> Option<f64> {
        let idx = self.implementations.iter().position(|n| n == name)?;
        self.cells[point][idx].time()
    }
}

/// Evaluate one implementation at one configuration: one training
/// iteration on the device model.
pub fn evaluate(
    imp: &dyn ConvImplementation,
    cfg: &ConvConfig,
    dev: &DeviceSpec,
) -> ComparisonCell {
    if let Err(e) = imp.supports(cfg) {
        return ComparisonCell::Unsupported(e.to_string());
    }
    match imp.plan(cfg).execute(dev, 1) {
        Ok(report) => ComparisonCell::Time(report.total_ms()),
        Err(_) => ComparisonCell::OutOfMemory,
    }
}

/// Run one sweep over all seven implementations.
pub fn runtime_comparison(sweep: &Sweep, dev: &DeviceSpec) -> ComparisonTable {
    let impls = all_implementations();
    let mut cells = Vec::with_capacity(sweep.values.len());
    for (_, cfg) in sweep.configs() {
        cells.push(
            impls
                .iter()
                .map(|imp| evaluate(imp.as_ref(), &cfg, dev))
                .collect(),
        );
    }
    ComparisonTable {
        axis: sweep.axis.label().to_string(),
        values: sweep.values.clone(),
        implementations: impls.iter().map(|i| i.name().to_string()).collect(),
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{paper_sweeps, SweepAxis};

    fn table_for(axis: SweepAxis) -> ComparisonTable {
        let sweep = paper_sweeps().into_iter().find(|s| s.axis == axis).unwrap();
        runtime_comparison(&sweep, &DeviceSpec::k40c())
    }

    #[test]
    fn fbfft_wins_batch_sweep() {
        // Paper Fig. 3a: fbfft fastest at every batch size (k = 11).
        let t = table_for(SweepAxis::Batch);
        for p in 0..t.values.len() {
            let (winner, _) = t.winner_at(p).unwrap();
            assert_eq!(winner, "fbfft", "batch {}", t.values[p]);
        }
    }

    #[test]
    fn fbfft_speedup_band_on_batch_sweep() {
        // Paper: fbfft 1.4×–9.7× over the others across batch/input
        // sweeps.
        let t = table_for(SweepAxis::Batch);
        for p in 0..t.values.len() {
            for other in ["Caffe", "cuDNN", "Torch-cunn", "Theano-fft"] {
                if let (Some(fb), Some(o)) = (t.time_of(p, "fbfft"), t.time_of(p, other)) {
                    let s = o / fb;
                    assert!(
                        (1.2..=20.0).contains(&s),
                        "batch {}: fbfft vs {other} = {s:.2}",
                        t.values[p]
                    );
                }
            }
        }
    }

    #[test]
    fn theano_fft_slowest_on_input_sweep() {
        let t = table_for(SweepAxis::Input);
        for p in 0..t.values.len() {
            let slowest = t.cells[p]
                .iter()
                .enumerate()
                .filter_map(|(i, c)| c.time().map(|tm| (i, tm)))
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            assert_eq!(
                t.implementations[slowest.0], "Theano-fft",
                "input {}",
                t.values[p]
            );
        }
    }

    #[test]
    fn stride_sweep_restrictions_and_winner() {
        // Paper Fig. 3e: FFT implementations are single points at
        // stride 1; cuDNN best at stride > 1.
        let t = table_for(SweepAxis::Stride);
        for (p, &s) in t.values.iter().enumerate() {
            let fbfft_idx = t.implementations.iter().position(|n| n == "fbfft").unwrap();
            if s == 1 {
                assert!(t.cells[p][fbfft_idx].time().is_some());
                assert_eq!(t.winner_at(p).unwrap().0, "fbfft");
            } else {
                assert!(matches!(
                    t.cells[p][fbfft_idx],
                    ComparisonCell::Unsupported(_)
                ));
                assert_eq!(t.winner_at(p).unwrap().0, "cuDNN", "stride {s}");
            }
        }
    }

    #[test]
    fn kernel_sweep_crossover() {
        // Paper Fig. 3d: cuDNN wins below k = 7, fbfft at and above.
        let t = table_for(SweepAxis::Kernel);
        for (p, &k) in t.values.iter().enumerate() {
            let winner = t.winner_at(p).unwrap().0;
            if k < 7 {
                assert_eq!(winner, "cuDNN", "k={k}");
            } else {
                assert_eq!(winner, "fbfft", "k={k}");
            }
        }
    }

    #[test]
    fn cc2_unsupported_off_multiples() {
        let sweep = Sweep {
            axis: SweepAxis::Batch,
            values: vec![48],
        };
        let t = runtime_comparison(&sweep, &DeviceSpec::k40c());
        let idx = t
            .implementations
            .iter()
            .position(|n| n == "cuda-convnet2")
            .unwrap();
        assert!(matches!(t.cells[0][idx], ComparisonCell::Unsupported(_)));
    }
}
