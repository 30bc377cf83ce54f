//! # gcnn-models
//!
//! The CNN model zoo of Li et al. (ICPP 2016) and the machinery behind
//! their Fig. 2: per-layer runtime breakdowns of **AlexNet, GoogLeNet,
//! VGG and OverFeat** ("Convolutional layer consumes the bulk of total
//! runtime — 86 %, 89 %, 90 % and 94 %"), plus **LeNet-5** (the paper's
//! §II-A architecture walkthrough, Fig. 1) wired into a real,
//! CPU-executable training loop on synthetic data.
//!
//! * [`layer`] — declarative layer specs, the one shape rule
//!   ([`LayerSpec::apply`]) and the walker that instantiates a model
//!   with it (including GoogLeNet's Inception branches).
//! * [`zoo`] — the five architectures.
//! * [`breakdown`] — Fig. 2: time every layer on the GPU model and
//!   aggregate by layer type.
//! * [`network`] — the executor: a [`Network`] runs the same
//!   [`LayerSpec`]s the simulator walks (real numerics from `gcnn-conv`,
//!   SGD training), built from a [`ModelSpec`] by
//!   [`Network::from_spec`] or layer by layer.
//! * [`data`] — deterministic synthetic datasets.

#![forbid(unsafe_code)]

pub mod breakdown;
pub mod data;
pub mod layer;
pub mod network;
pub mod persist;
pub mod zoo;

pub use breakdown::{model_breakdown, BreakdownRow, LayerClass, ModelBreakdown};
pub use layer::{LayerInstance, LayerSpec, ModelSpec, NamedLayer};
pub use network::{Network, NotExecutable, TrainReport, TunedLayer};
pub use zoo::{alexnet, all_models, googlenet, lenet5, lenet5_sized, overfeat, vgg16};
