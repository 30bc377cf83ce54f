//! Declarative model descriptions and the shape walker.

use gcnn_conv::layers::PoolKind;
use gcnn_conv::ConvConfig;
use gcnn_tensor::Shape4;
use serde::{Deserialize, Serialize};

/// One layer's hyper-parameters (shape-free; channels and spatial sizes
/// are inferred by the walker).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LayerSpec {
    /// Square convolution.
    Conv {
        /// Output channels (filter count).
        out: usize,
        /// Kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
    },
    /// Max pooling.
    MaxPool {
        /// Window size.
        window: usize,
        /// Stride.
        stride: usize,
        /// Zero padding (Inception's stride-1 pool-proj branches pad to
        /// preserve spatial size).
        pad: usize,
    },
    /// Average pooling.
    AvgPool {
        /// Window size.
        window: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
    },
    /// Rectified linear unit.
    Relu,
    /// Fully-connected layer.
    Fc {
        /// Output features.
        out: usize,
    },
    /// GoogLeNet Inception module: parallel branches concatenated along
    /// channels.
    Inception {
        /// Each branch is a sequence of layers applied to the module
        /// input.
        branches: Vec<Vec<NamedLayer>>,
    },
    /// Softmax classifier head.
    Softmax,
}

/// A named layer within a model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NamedLayer {
    /// Layer name (e.g. "conv2").
    pub name: String,
    /// The hyper-parameters.
    pub spec: LayerSpec,
}

impl NamedLayer {
    /// Construct a named layer.
    pub fn new(name: impl Into<String>, spec: LayerSpec) -> Self {
        NamedLayer {
            name: name.into(),
            spec,
        }
    }
}

/// A full model description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Model name as the paper uses it.
    pub name: String,
    /// Input channels.
    pub input_channels: usize,
    /// Input spatial size (square).
    pub input_size: usize,
    /// The layers in execution order.
    pub layers: Vec<NamedLayer>,
}

/// Classification of an instantiated layer, matching the paper's Fig. 2
/// categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InstanceKind {
    /// Convolutional layer.
    Conv,
    /// Pooling layer (max or average).
    Pool,
    /// ReLU layer.
    Relu,
    /// Fully-connected layer.
    Fc,
    /// Concat (Inception join).
    Concat,
    /// Softmax head.
    Softmax,
}

/// One instantiated layer with resolved shapes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerInstance {
    /// Qualified name ("inception3a/branch1/conv" etc.).
    pub name: String,
    /// Layer category.
    pub kind: InstanceKind,
    /// Resolved convolution configuration (for `kind == Conv`).
    pub conv: Option<ConvConfig>,
    /// Pooling parameters (kind, window, stride) for pooling layers.
    pub pool: Option<(PoolKindSer, usize, usize)>,
    /// FC dimensions `(in_features, out_features)`.
    pub fc: Option<(usize, usize)>,
    /// Elements entering the layer (per mini-batch).
    pub in_elems: u64,
    /// Elements leaving the layer (per mini-batch).
    pub out_elems: u64,
}

/// Serializable mirror of [`PoolKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PoolKindSer {
    /// Max pooling.
    Max,
    /// Average pooling.
    Average,
}

impl From<PoolKindSer> for PoolKind {
    fn from(p: PoolKindSer) -> PoolKind {
        match p {
            PoolKindSer::Max => PoolKind::Max,
            PoolKindSer::Average => PoolKind::Average,
        }
    }
}

impl ModelSpec {
    /// Shape of a mini-batch of `batch` inputs.
    pub fn input_shape(&self, batch: usize) -> Shape4 {
        Shape4::new(batch, self.input_channels, self.input_size, self.input_size)
    }
}

impl LayerSpec {
    /// The shape rule — the only one: what this layer does to an
    /// activation of shape `input`. Returns the resolved convolution
    /// (for `Conv`) and the shape leaving the layer, or why the
    /// geometry is impossible. [`walk`], `Network::tune_for` and the
    /// executor all resolve shapes through this function; it allocates
    /// nothing, so the executor calls it per layer per batch.
    ///
    /// Pooling is ceil-mode, as Caffe/GoogLeNet use (a partial window at
    /// the border still produces an output); an Inception module's
    /// branches all read `input` and join along channels.
    pub fn apply(&self, input: Shape4) -> Result<(Option<ConvConfig>, Shape4), &'static str> {
        let Shape4 { n, c, h, w } = input;
        Ok(match self {
            LayerSpec::Conv {
                out,
                kernel,
                stride,
                pad,
            } => {
                let mut cfg = ConvConfig::with_channels(n, c, h, *out, *kernel, *stride);
                cfg.pad = *pad;
                if h != w || !cfg.is_valid() {
                    return Err("invalid conv geometry");
                }
                (Some(cfg), cfg.output_shape())
            }
            LayerSpec::MaxPool {
                window,
                stride,
                pad,
            }
            | LayerSpec::AvgPool {
                window,
                stride,
                pad,
            } => {
                if *window == 0 || *stride == 0 || h.min(w) + 2 * pad < *window {
                    return Err("pool window exceeds its padded input");
                }
                let o = |i: usize| (i + 2 * pad - window).div_ceil(*stride) + 1;
                (None, Shape4::new(n, c, o(h), o(w)))
            }
            LayerSpec::Relu | LayerSpec::Softmax => (None, input),
            LayerSpec::Fc { out } => (None, Shape4::new(n, *out, 1, 1)),
            LayerSpec::Inception { branches } => {
                let mut joined = Shape4::new(n, 0, h, w);
                for branch in branches {
                    let mut s = input;
                    for layer in branch {
                        s = layer.spec.apply(s)?.1;
                    }
                    joined = Shape4::new(n, joined.c + s.c, s.h, s.w);
                }
                (None, joined)
            }
        })
    }
}

/// Walk a model, resolving every layer's shapes for a given mini-batch.
///
/// Returns the flattened instance list (Inception branches are expanded
/// with qualified names, followed by one `Concat` instance).
///
/// # Panics
/// Panics if a layer is geometrically impossible (kernel larger than its
/// input, FC after nothing, …).
pub fn walk(model: &ModelSpec, batch: usize) -> Vec<LayerInstance> {
    let mut out = Vec::new();
    walk_sequence(&model.layers, model.input_shape(batch), "", &mut out);
    out
}

/// Walk one layer sequence fed `shape`, appending its instances.
fn walk_sequence(
    layers: &[NamedLayer],
    mut shape: Shape4,
    prefix: &str,
    out: &mut Vec<LayerInstance>,
) {
    for layer in layers {
        let mut name = if prefix.is_empty() {
            layer.name.clone()
        } else {
            format!("{prefix}/{}", layer.name)
        };
        let (conv, next) = layer
            .spec
            .apply(shape)
            .unwrap_or_else(|e| panic!("{name}: {e} (input {shape})"));
        let mut in_elems = shape.len() as u64;
        let (kind, pool, fc) = match &layer.spec {
            LayerSpec::Conv { .. } => (InstanceKind::Conv, None, None),
            LayerSpec::MaxPool { window, stride, .. } => (
                InstanceKind::Pool,
                Some((PoolKindSer::Max, *window, *stride)),
                None,
            ),
            LayerSpec::AvgPool { window, stride, .. } => (
                InstanceKind::Pool,
                Some((PoolKindSer::Average, *window, *stride)),
                None,
            ),
            LayerSpec::Relu => (InstanceKind::Relu, None, None),
            LayerSpec::Fc { out: f } => (InstanceKind::Fc, None, Some((shape.image_len(), *f))),
            LayerSpec::Inception { branches } => {
                for (i, branch) in branches.iter().enumerate() {
                    walk_sequence(branch, shape, &format!("{name}/b{i}"), out);
                }
                // The module's own instance is the join: it moves the
                // concatenated tensor, in and out.
                name.push_str("/concat");
                in_elems = next.len() as u64;
                (InstanceKind::Concat, None, None)
            }
            LayerSpec::Softmax => (InstanceKind::Softmax, None, None),
        };
        out.push(LayerInstance {
            name,
            kind,
            conv,
            pool,
            fc,
            in_elems,
            out_elems: next.len() as u64,
        });
        shape = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> ModelSpec {
        ModelSpec {
            name: "tiny".into(),
            input_channels: 1,
            input_size: 28,
            layers: vec![
                NamedLayer::new(
                    "conv1",
                    LayerSpec::Conv {
                        out: 6,
                        kernel: 5,
                        stride: 1,
                        pad: 0,
                    },
                ),
                NamedLayer::new("relu1", LayerSpec::Relu),
                NamedLayer::new(
                    "pool1",
                    LayerSpec::MaxPool {
                        window: 2,
                        stride: 2,
                        pad: 0,
                    },
                ),
                NamedLayer::new("fc1", LayerSpec::Fc { out: 10 }),
                NamedLayer::new("prob", LayerSpec::Softmax),
            ],
        }
    }

    #[test]
    fn walker_resolves_shapes() {
        let inst = walk(&tiny_model(), 4);
        assert_eq!(inst.len(), 5);
        // conv1: 28 → 24, 6 channels.
        let conv = inst[0].conv.unwrap();
        assert_eq!(conv.output(), 24);
        assert_eq!(conv.filters, 6);
        assert_eq!(conv.channels, 1);
        // pool1: 24 → 12.
        assert_eq!(inst[2].out_elems, 4 * 6 * 12 * 12);
        // fc1 consumes 6·12·12 features.
        assert_eq!(inst[3].fc, Some((6 * 12 * 12, 10)));
    }

    #[test]
    fn inception_branches_concat_channels() {
        let model = ModelSpec {
            name: "mini-inception".into(),
            input_channels: 8,
            input_size: 16,
            layers: vec![NamedLayer::new(
                "inc",
                LayerSpec::Inception {
                    branches: vec![
                        vec![NamedLayer::new(
                            "c1",
                            LayerSpec::Conv {
                                out: 4,
                                kernel: 1,
                                stride: 1,
                                pad: 0,
                            },
                        )],
                        vec![NamedLayer::new(
                            "c3",
                            LayerSpec::Conv {
                                out: 6,
                                kernel: 3,
                                stride: 1,
                                pad: 1,
                            },
                        )],
                    ],
                },
            )],
        };
        let inst = walk(&model, 2);
        // two branch convs + one concat
        assert_eq!(inst.len(), 3);
        assert_eq!(inst[2].kind, InstanceKind::Concat);
        // channels 4 + 6 = 10 at spatial 16
        assert_eq!(inst[2].out_elems, 2 * 10 * 16 * 16);
    }

    #[test]
    fn shape_rule_refuses_impossible_geometry() {
        let input = Shape4::new(2, 3, 8, 8);
        let pool = |window, stride, pad| LayerSpec::MaxPool {
            window,
            stride,
            pad,
        };
        // Ceil mode: a partial border window still produces an output.
        assert_eq!(
            pool(3, 2, 0).apply(input),
            Ok((None, Shape4::new(2, 3, 4, 4)))
        );
        assert_eq!(
            pool(3, 2, 1).apply(input),
            Ok((None, Shape4::new(2, 3, 5, 5)))
        );
        for bad in [pool(11, 1, 1), pool(2, 0, 0), pool(0, 1, 0)] {
            assert!(bad.apply(input).is_err(), "{bad:?}");
        }
        let conv = |kernel, stride| LayerSpec::Conv {
            out: 4,
            kernel,
            stride,
            pad: 0,
        };
        assert!(conv(9, 1).apply(input).is_err());
        assert!(conv(3, 0).apply(input).is_err());
        assert!(conv(3, 1).apply(Shape4::new(2, 3, 8, 6)).is_err());
    }

    #[test]
    #[should_panic(expected = "invalid conv")]
    fn rejects_impossible_conv() {
        let model = ModelSpec {
            name: "bad".into(),
            input_channels: 1,
            input_size: 4,
            layers: vec![NamedLayer::new(
                "conv",
                LayerSpec::Conv {
                    out: 1,
                    kernel: 9,
                    stride: 1,
                    pad: 0,
                },
            )],
        };
        walk(&model, 1);
    }
}
