//! An executable sequential CNN with real numerics and SGD training.
//!
//! This is the CPU-side counterpart of the paper's training iterations:
//! every convolution runs one of the three real strategies from
//! `gcnn-conv`, so a LeNet-5 built here trains end-to-end regardless of
//! which strategy (direct / unrolling / FFT) backs its layers — the
//! cross-strategy equivalence the paper's whole comparison rests on.
//!
//! A [`Network`] is a list of [`LayerSpec`]s — the vocabulary the
//! simulator walks — plus the parameters executing them needs. Shapes
//! come from [`LayerSpec::apply`] and nowhere else, and one forward
//! walker serves inference and training alike: [`Network::infer_ws`]
//! runs it without caches (and may take the blocked, fused path),
//! [`Network::train_batch_ws`] runs it planar with a cache per layer.

use crate::data::Dataset;
use crate::layer::{LayerSpec, ModelSpec};
use gcnn_conv::layers::{
    softmax_cross_entropy, FcLayer, PoolForward, PoolKind, PoolLayer, ReluLayer,
};
use gcnn_conv::nchwc as packed;
use gcnn_conv::{algorithm_for, ConvConfig, Strategy};
use gcnn_tensor::workspace::{self, Scratch};
use gcnn_tensor::{nchwc, Layout, Matrix, Shape4, Tensor4, Workspace};
use prepared::{Filters, Prepared};
use std::borrow::Cow;

/// One executable layer: the spec the shape rule reads, and what
/// running it needs beyond that.
struct Layer {
    spec: LayerSpec,
    params: Params,
}

/// A layer's trainable state.
enum Params {
    /// ReLU and pooling have none.
    None,
    Conv(ConvParams),
    Fc(FcParams),
}

struct ConvParams {
    /// Filter bank and forward layout, with the bank packed once for a
    /// blocked layout.
    filters: Prepared,
    /// Momentum velocity, same shape as the filter bank.
    velocity: Tensor4,
    strategy: Strategy,
}

/// A conv layer's filters and the one packed copy of them its blocked
/// forward pass reads.
mod prepared {
    use gcnn_conv::nchwc as packed;
    use gcnn_conv::ConvConfig;
    use gcnn_tensor::{Layout, Tensor4};
    use std::sync::OnceLock;

    /// What a conv layer's forward pass reads.
    pub(super) struct Filters {
        /// Filter bank `(f, c, k, k)`.
        pub(super) weights: Tensor4,
        /// Forward-pass tensor layout. Planar [`Layout::Nchw`] runs the
        /// strategy's `forward_ws`; a channel-blocked `NCHW{8,16}c`
        /// layout routes inference through the fused packed path
        /// (training always runs planar — the blocked path is
        /// forward-only).
        pub(super) layout: Layout,
    }

    /// [`Filters`] and, once a blocked pass has asked for it, the bank
    /// packed at the layout's block. The filters are reachable mutably
    /// only through [`Prepared::edit`], which empties the packed bank:
    /// a `&mut` borrow is a new weight version, so nothing counts
    /// versions and no pass packs a bank it has packed before.
    pub(super) struct Prepared {
        filters: Filters,
        packed: OnceLock<Vec<f32>>,
    }

    impl Prepared {
        pub(super) fn new(filters: Filters) -> Self {
            Prepared {
                filters,
                packed: OnceLock::new(),
            }
        }

        pub(super) fn get(&self) -> &Filters {
            &self.filters
        }

        /// The filters, mutably; drops the packed bank.
        pub(super) fn edit(&mut self) -> &mut Filters {
            self.packed.take();
            &mut self.filters
        }

        /// The bank packed for `cfg` at `block`, the layout's channel
        /// block: packed by the first call after an edit, read after.
        /// The pack depends on the filter shape only, so any batch or
        /// input size of the layer shares it.
        // AUDIT: cold-path — the bank is allocated once per weight
        // version and held by the layer; warm passes only read it.
        pub(super) fn packed(&self, cfg: &ConvConfig, block: usize) -> &[f32] {
            assert_eq!(
                self.filters.layout.channel_block(),
                Some(block),
                "packed filters: the layout's block"
            );
            self.packed.get_or_init(|| {
                let mut bank = vec![0.0; packed::packed_filter_len(cfg, block)];
                packed::pack_filters(cfg, &self.filters.weights, block, &mut bank);
                bank
            })
        }
    }
}

struct FcParams {
    layer: FcLayer,
    /// Momentum velocities for weights and bias.
    w_velocity: Matrix,
    b_velocity: Vec<f32>,
}

impl Layer {
    /// [`LayerSpec::apply`] for layer `i` of a network. The specs were
    /// accepted when the network was built, so a failure here means the
    /// caller's input does not fit them.
    fn apply(&self, i: usize, input: Shape4) -> (Option<ConvConfig>, Shape4) {
        self.spec
            .apply(input)
            .unwrap_or_else(|e| panic!("layer{i}: {e} (input {input})"))
    }
}

/// `(what, values)` of the blobs [`Network::save_weights`] writes for
/// one layer's [`Params`], in file order, viewed through `get` and
/// `as_slice` or through `edit` and `as_mut_slice` — the one
/// enumeration saving and loading share.
macro_rules! blobs {
    ($params:expr, $filters:ident, $view:ident) => {
        match $params {
            Params::None => [None, None],
            Params::Conv(p) => [
                Some(("conv filters", p.filters.$filters().weights.$view())),
                None,
            ],
            Params::Fc(p) => [
                Some(("fc weights", p.layer.weights.$view())),
                Some(("fc bias", p.layer.bias.$view())),
            ],
        }
        .into_iter()
        .flatten()
    };
}

/// What the backward pass needs from one layer's forward pass.
enum Cache<'a> {
    /// Conv (with its resolved config), ReLU and FC keep the input they
    /// consumed — moved in, and still the caller's borrow for the first
    /// layer.
    Input {
        input: Cow<'a, Tensor4>,
        conv: Option<ConvConfig>,
    },
    MaxPool {
        fwd: PoolForward,
    },
}

/// An activation flowing through the forward walker: planar (the
/// caller's input, borrowed until the first layer consumes it, or a
/// layer's owned output), or packed NCHWc (arena-backed) between
/// adjacent blocked conv layers. Keeping the packed form across layer
/// boundaries is what makes the pack/unpack transitions explicit and
/// minimal: a conversion happens only where consecutive layers disagree
/// on layout.
enum Act<'a> {
    Planar(Cow<'a, Tensor4>),
    Packed {
        /// Packed `[n][⌈c/b⌉][h][w][b]` buffer (no spatial padding).
        buf: Scratch<f32>,
        /// The planar shape this buffer packs.
        shape: Shape4,
        /// Inner channel-block width.
        block: usize,
    },
}

impl<'a> Act<'a> {
    fn owned(t: Tensor4) -> Self {
        Act::Planar(Cow::Owned(t))
    }

    fn shape(&self) -> Shape4 {
        match self {
            Act::Planar(t) => t.shape(),
            Act::Packed { shape, .. } => *shape,
        }
    }

    /// Unpack to planar if needed (the explicit layout transition).
    fn into_planar(self) -> Cow<'a, Tensor4> {
        match self {
            Act::Planar(t) => t,
            Act::Packed { buf, shape, block } => {
                let mut t = Tensor4::zeros(shape);
                nchwc::unpack_nchwc_from(buf.as_slice(), shape, block, t.as_mut_slice());
                Cow::Owned(t)
            }
        }
    }
}

/// A sequential CNN.
///
/// ```
/// use gcnn_conv::Strategy;
/// use gcnn_models::data::synthetic_digits;
/// use gcnn_models::Network;
///
/// let train = synthetic_digits(32, 16, 4, 1);
/// let test = synthetic_digits(16, 16, 4, 2);
/// let mut net = Network::lenet5(16, 4, Strategy::Unrolling, 7);
/// net.learning_rate = 0.1;
/// let report = net.train(&train, &test, 8, 2);
/// assert_eq!(report.epoch_losses.len(), 2);
/// assert!(report.test_accuracy >= 0.0);
/// ```
pub struct Network {
    layers: Vec<Layer>,
    /// Learning rate used by [`Network::train`].
    pub learning_rate: f32,
    /// Classical momentum coefficient (0 = plain SGD).
    pub momentum: f32,
    /// L2 weight decay applied to filters and FC weights (not biases).
    pub weight_decay: f32,
}

/// Result of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean loss of each epoch.
    pub epoch_losses: Vec<f32>,
    /// Accuracy on the held-out set after training.
    pub test_accuracy: f32,
}

/// Why [`Network::from_spec`] refused a model: `layer` cannot be
/// executed at exactly the shapes [`crate::layer::walk`] reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotExecutable {
    /// Name of the offending layer in the spec.
    pub layer: String,
    /// What about it the executor cannot honour.
    pub reason: &'static str,
}

impl std::fmt::Display for NotExecutable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.layer, self.reason)
    }
}

impl std::error::Error for NotExecutable {}

/// The layers of `model` the executor runs — all but the tail softmax,
/// since a [`Network`] ends at the logits — each with its input shape at
/// batch 1, or the first layer it could not run as `walk` reports it.
fn executable(model: &ModelSpec) -> Result<Vec<(&LayerSpec, Shape4)>, NotExecutable> {
    let layers = match model.layers.split_last() {
        Some((tail, rest)) if tail.spec == LayerSpec::Softmax => rest,
        _ => &model.layers[..],
    };
    let mut shape = model.input_shape(1);
    let mut resolved = Vec::with_capacity(layers.len());
    for layer in layers {
        let reject = |reason| NotExecutable {
            layer: layer.name.clone(),
            reason,
        };
        let (_, out) = layer.spec.apply(shape).map_err(reject)?;
        match &layer.spec {
            LayerSpec::Conv { .. } | LayerSpec::Relu | LayerSpec::Fc { .. } => {}
            LayerSpec::MaxPool {
                window,
                stride,
                pad,
            } => {
                if *pad != 0 {
                    return Err(reject("padded pooling is not executable"));
                }
                // `PoolLayer` pools in floor mode, the shape rule in ceil
                // mode; a spec's activations are square.
                if PoolLayer::new(PoolKind::Max, *window, *stride).out_size(shape.h) != out.h {
                    return Err(reject("ceil- and floor-mode pooled sizes differ"));
                }
            }
            LayerSpec::AvgPool { .. } => return Err(reject("average pooling is not executable")),
            LayerSpec::Inception { .. } => return Err(reject("inception is not executable")),
            LayerSpec::Softmax => return Err(reject("softmax is executable only as the tail")),
        }
        resolved.push((&layer.spec, shape));
        shape = out;
    }
    Ok(resolved)
}

/// Momentum SGD on one parameter blob: `v ← μ·v − lr·(∇w + wd·w)`,
/// `w ← w + v`. Biases pass `decay: None` and keep their own
/// expression, `v ← μ·v − lr·∇b`.
fn momentum_step(
    (lr, mu): (f32, f32),
    decay: Option<f32>,
    w: &mut [f32],
    v: &mut [f32],
    grad: &[f32],
) {
    for ((v, g), w) in v.iter_mut().zip(grad).zip(w) {
        let g = match decay {
            Some(wd) => g + wd * *w,
            None => *g,
        };
        *v = mu * *v - lr * g;
        *w += *v;
    }
}

impl Network {
    /// An empty network with plain-SGD defaults (no momentum, no decay).
    pub fn new(learning_rate: f32) -> Self {
        Network {
            layers: Vec::new(),
            learning_rate,
            momentum: 0.0,
            weight_decay: 0.0,
        }
    }

    /// `model` as an executable network at learning rate 0.05, every
    /// conv layer backed by `strategy`; the k-th layer with parameters
    /// (conv or FC, counted from 0) is initialised from `seed + k`.
    ///
    /// A spec is either executed at exactly the shapes
    /// [`crate::layer::walk`] reports or refused: pooling with padding
    /// or with a partial border window (ceil- and floor-mode sizes
    /// differ), average pooling, Inception and a softmax anywhere but
    /// the tail (which is dropped — the network ends at the logits) are
    /// [`NotExecutable`], decided before any parameter is allocated.
    pub fn from_spec(
        model: &ModelSpec,
        strategy: Strategy,
        seed: u64,
    ) -> Result<Self, NotExecutable> {
        let mut net = Network::new(0.05);
        let mut seed = seed;
        for (spec, input) in executable(model)? {
            net = match *spec {
                LayerSpec::Conv {
                    out,
                    kernel,
                    stride,
                    pad,
                } => net.conv(input.c, out, kernel, stride, pad, strategy, seed),
                LayerSpec::Relu => net.relu(),
                LayerSpec::MaxPool { window, stride, .. } => net.max_pool(window, stride),
                LayerSpec::Fc { out } => net.fc(input.image_len(), out, seed),
                _ => unreachable!("executable() admits no other layer"),
            };
            if matches!(spec, LayerSpec::Conv { .. } | LayerSpec::Fc { .. }) {
                seed += 1;
            }
        }
        Ok(net)
    }

    fn push(mut self, spec: LayerSpec, params: Params) -> Self {
        self.layers.push(Layer { spec, params });
        self
    }

    /// Append a convolution layer with Xavier-initialized filters.
    #[allow(clippy::too_many_arguments)] // layer hyper-parameters
    pub fn conv(
        self,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        strategy: Strategy,
        seed: u64,
    ) -> Self {
        let shape = Shape4::new(out_channels, in_channels, kernel, kernel);
        self.push(
            LayerSpec::Conv {
                out: out_channels,
                kernel,
                stride,
                pad,
            },
            Params::Conv(ConvParams {
                filters: Prepared::new(Filters {
                    weights: gcnn_tensor::init::xavier_filters(shape, seed),
                    layout: Layout::Nchw,
                }),
                velocity: Tensor4::zeros(shape),
                strategy,
            }),
        )
    }

    /// Set the forward-pass layout of the conv layer at `layer_index`
    /// (its index within the network, as reported by
    /// [`Network::conv_layouts`]).
    ///
    /// # Panics
    /// If `layer_index` is out of range or not a convolution.
    pub fn set_conv_layout(&mut self, layer_index: usize, layout: Layout) {
        match self.layers.get_mut(layer_index).map(|l| &mut l.params) {
            Some(Params::Conv(p)) => p.filters.edit().layout = layout,
            _ => panic!("set_conv_layout: layer {layer_index} is not a conv layer"),
        }
    }

    /// `(layer_index, layout)` of every conv layer, in network order.
    pub fn conv_layouts(&self) -> Vec<(usize, Layout)> {
        self.layers
            .iter()
            .enumerate()
            .filter_map(|(i, layer)| match &layer.params {
                Params::Conv(p) => Some((i, p.filters.get().layout)),
                _ => None,
            })
            .collect()
    }

    /// Append a ReLU.
    pub fn relu(self) -> Self {
        self.push(LayerSpec::Relu, Params::None)
    }

    /// Append a max-pooling layer.
    pub fn max_pool(self, window: usize, stride: usize) -> Self {
        self.push(
            LayerSpec::MaxPool {
                window,
                stride,
                pad: 0,
            },
            Params::None,
        )
    }

    /// Append a fully-connected layer.
    pub fn fc(self, in_features: usize, out_features: usize, seed: u64) -> Self {
        self.push(
            LayerSpec::Fc { out: out_features },
            Params::Fc(FcParams {
                layer: FcLayer::xavier(out_features, in_features, seed),
                w_velocity: Matrix::zeros(out_features, in_features),
                b_velocity: vec![0.0; out_features],
            }),
        )
    }

    /// LeNet-5 over `size`² single-channel inputs, with every conv layer
    /// backed by the given strategy: [`crate::zoo::lenet5_sized`] through
    /// [`Network::from_spec`].
    ///
    /// # Panics
    /// If the spec is refused: both 2×2 pools must tile their input
    /// exactly, so `size` is a multiple of 4 and at least 16.
    pub fn lenet5(size: usize, classes: usize, strategy: Strategy, seed: u64) -> Self {
        Network::from_spec(&crate::zoo::lenet5_sized(size, classes), strategy, seed)
            .unwrap_or_else(|e| panic!("Network::lenet5 at size {size}: {e}"))
    }

    /// The forward walker — the only loop that executes the layer list.
    /// With `caches`, every layer runs planar and moves what its
    /// backward pass needs (its input, mostly) into the vector; without,
    /// each input is dropped as soon as the next activation exists and
    /// blocked conv layers take the fused packed path.
    fn forward_walk<'a>(
        &self,
        input: &'a Tensor4,
        ws: &mut Workspace,
        mut caches: Option<&mut Vec<Cache<'a>>>,
    ) -> Tensor4 {
        let keeping = caches.is_some();
        let mut keep = |cache| {
            if let Some(caches) = &mut caches {
                caches.push(cache);
            }
        };
        let mut x = Act::Planar(Cow::Borrowed(input));
        let mut i = 0;
        while i < self.layers.len() {
            let layer = &self.layers[i];
            let (conv, out_shape) = layer.apply(i, x.shape());
            match (&layer.spec, &layer.params) {
                (LayerSpec::Conv { .. }, Params::Conv(p)) => {
                    let cfg = conv.expect("the shape rule resolves every conv");
                    let filters = p.filters.get();
                    let blocked = filters.layout.channel_block().filter(|_| !keeping);
                    if let Some(block) = blocked {
                        let _layer = gcnn_trace::span_owned(|| format!("layer{i}.conv_nchwc"));
                        let packed_w = p.filters.packed(&cfg, block);
                        let (act, consumed) = self.fused_packed_chain(i, &cfg, packed_w, block, x);
                        x = act;
                        i += consumed;
                        continue;
                    }
                    let _layer = gcnn_trace::span_owned(|| format!("layer{i}.conv"));
                    let input = x.into_planar();
                    let algo = algorithm_for(p.strategy);
                    x = Act::owned(algo.forward_ws(&cfg, &input, &filters.weights, ws));
                    keep(Cache::Input { input, conv });
                }
                (LayerSpec::Relu, _) => {
                    let _layer = gcnn_trace::span_owned(|| format!("layer{i}.relu"));
                    let input = x.into_planar();
                    x = Act::owned(ReluLayer.forward(&input));
                    keep(Cache::Input { input, conv: None });
                }
                (LayerSpec::MaxPool { window, stride, .. }, _) => {
                    let _layer = gcnn_trace::span_owned(|| format!("layer{i}.max_pool"));
                    let input = x.into_planar();
                    let fwd = PoolLayer::new(PoolKind::Max, *window, *stride).forward(&input);
                    assert_eq!(
                        fwd.output.shape(),
                        out_shape,
                        "layer{i}: pooling leaves a partial border window"
                    );
                    x = Act::owned(if keeping {
                        let output = fwd.output.clone();
                        keep(Cache::MaxPool { fwd });
                        output
                    } else {
                        fwd.output
                    });
                }
                (LayerSpec::Fc { .. }, Params::Fc(p)) => {
                    let _layer = gcnn_trace::span_owned(|| format!("layer{i}.fc"));
                    let input = x.into_planar();
                    x = Act::owned(p.layer.forward(&input));
                    keep(Cache::Input { input, conv: None });
                }
                _ => unreachable!("the builder appends no other layer"),
            }
            i += 1;
        }
        x.into_planar().into_owned()
    }

    /// Inference: logits only.
    pub fn forward(&self, input: &Tensor4) -> Tensor4 {
        let mut ws = Workspace::new();
        self.infer_ws(input, &mut ws)
    }

    /// Batched inference with an explicit [`Workspace`], retaining no
    /// per-layer caches: the input of each layer is dropped as soon as
    /// the next activation exists.
    ///
    /// This is the serving entry point: a long-lived worker (e.g. in
    /// `gcnn-serve`) owns one workspace, so after the first batch every
    /// conv layer's scratch (im2col columns, GEMM pack buffers, FFT
    /// spectra) is recycled from the arena rather than reallocated.
    /// `input.shape().n` is the mini-batch size — the paper's first
    /// sweep axis — and any size may be used from call to call; the
    /// arena's size-classed pools absorb the variation.
    /// Layers whose layout is a channel-blocked `NCHW{8,16}c` execute
    /// the fused packed path instead: a blocked conv consumes a
    /// directly following ReLU (and, after it, a max-pool) in a single
    /// tile-at-a-time pass, so the intermediate feature maps between
    /// the fused stages are never materialized. Activations stay packed
    /// between adjacent blocked convs; pack/unpack transitions happen
    /// only where consecutive layers disagree on layout.
    pub fn infer_ws(&self, input: &Tensor4, ws: &mut Workspace) -> Tensor4 {
        let _span = gcnn_trace::span("network.infer");
        self.forward_walk(input, ws, None)
    }

    /// Execute one blocked conv starting at layer `i` on its packed
    /// filter bank `packed_w`, fusing a directly following ReLU (and
    /// max-pool after it) when present. Returns the packed output
    /// activation and how many layers were consumed. The packed input
    /// and output come from the thread-local arena, so a warm caller
    /// allocates nothing on this path.
    fn fused_packed_chain(
        &self,
        i: usize,
        cfg: &ConvConfig,
        packed_w: &[f32],
        block: usize,
        x: Act<'_>,
    ) -> (Act<'static>, usize) {
        let follower = |d: usize| self.layers.get(i + d).map(|l| &l.spec);
        let fuse_relu = follower(1) == Some(&LayerSpec::Relu);
        // `(window, stride, pooled shape)` of a pool the conv output can feed.
        let fuse_pool = match follower(2) {
            Some(pool @ LayerSpec::MaxPool { window, stride, .. }) if fuse_relu => pool
                .apply(cfg.output_shape())
                .ok()
                .map(|(_, pooled)| (*window, *stride, pooled)),
            _ => None,
        };

        // Bring the activation into packed form with this layer's
        // spatial padding baked in (the zero borders make the conv
        // loops branch-free). A packed activation is `block` floats a
        // pixel, so a layer with fewer channels than that repacks it
        // at its pitch through the planar form.
        let pin = match x {
            Act::Packed {
                buf,
                shape,
                block: prev,
            } if prev == block && nchwc::pitch(cfg.channels, block) == block => {
                if cfg.pad == 0 {
                    buf // already in exactly the form the kernel wants
                } else {
                    let mut padded = workspace::take_f32(packed::packed_input_len(cfg, block));
                    nchwc::repad_packed(
                        buf.as_slice(),
                        shape,
                        block,
                        cfg.pad,
                        padded.as_mut_slice(),
                    );
                    padded
                }
            }
            other => {
                let planar = other.into_planar();
                let mut fresh = workspace::take_f32(packed::packed_input_len(cfg, block));
                packed::pack_input(cfg, &planar, block, fresh.as_mut_slice());
                fresh
            }
        };
        let (shape, consumed) = match fuse_pool {
            Some((_, _, pooled)) => (pooled, 3),
            None => (cfg.output_shape(), 1 + usize::from(fuse_relu)),
        };
        let mut buf = workspace::take_f32(nchwc::packed_len(shape, block, 0));
        match fuse_pool {
            Some((window, pstride, _)) => packed::fused_conv_relu_pool(
                cfg,
                block,
                window,
                pstride,
                pin.as_slice(),
                packed_w,
                buf.as_mut_slice(),
            ),
            None => packed::fused_conv_relu(
                cfg,
                block,
                pin.as_slice(),
                packed_w,
                buf.as_mut_slice(),
                fuse_relu,
            ),
        }
        (Act::Packed { buf, shape, block }, consumed)
    }

    /// Predicted class per image.
    pub fn predict(&self, input: &Tensor4) -> Vec<usize> {
        let logits = self.forward(input);
        let s = logits.shape();
        (0..s.n)
            .map(|n| {
                let row = &logits.as_slice()[n * s.image_len()..(n + 1) * s.image_len()];
                gcnn_tensor::ops::argmax(row)
            })
            .collect()
    }

    /// One SGD step over a mini-batch; returns the batch loss.
    pub fn train_batch(&mut self, images: &Tensor4, labels: &[usize]) -> f32 {
        let mut ws = Workspace::new();
        self.train_batch_ws(images, labels, &mut ws)
    }

    /// [`Network::train_batch`] with an explicit [`Workspace`].
    ///
    /// [`Network::train`] owns one workspace for the whole run, so after
    /// the first batch every conv layer's scratch (im2col columns, GEMM
    /// pack buffers, FFT spectra) is recycled rather than reallocated.
    ///
    /// The backward walk stops at the lowest layer with parameters, and a
    /// conv layer there (LeNet's conv1) computes no input gradient.
    pub fn train_batch_ws(
        &mut self,
        images: &Tensor4,
        labels: &[usize],
        ws: &mut Workspace,
    ) -> f32 {
        let _span = gcnn_trace::span("network.train_batch");
        let mut caches = Vec::with_capacity(self.layers.len());
        let logits = {
            let _fwd = gcnn_trace::span("network.forward");
            self.forward_walk(images, ws, Some(&mut caches))
        };
        let out = softmax_cross_entropy(&logits, labels);
        let mut grad = out.grad_logits;

        let rate = (self.learning_rate, self.momentum);
        let decay = Some(self.weight_decay);
        let _bwd = gcnn_trace::span("network.backward");
        let learns = |l: &Layer| !matches!(l.params, Params::None);
        let lowest = self.layers.iter().position(learns).unwrap_or(0);
        let layers = self.layers.iter_mut().zip(caches).enumerate().skip(lowest);
        for (i, (layer, cache)) in layers.rev() {
            match (&layer.spec, &mut layer.params, cache) {
                (_, Params::Conv(p), Cache::Input { input, conv }) => {
                    let _layer = gcnn_trace::span_owned(|| format!("layer{i}.conv"));
                    let cfg = conv.expect("a conv layer caches its config");
                    let algo = algorithm_for(p.strategy);
                    let grad_w = algo.backward_filters_ws(&cfg, &input, &grad, ws);
                    if i > lowest {
                        grad = algo.backward_data_ws(&cfg, &grad, &p.filters.get().weights, ws);
                    }
                    momentum_step(
                        rate,
                        decay,
                        p.filters.edit().weights.as_mut_slice(),
                        p.velocity.as_mut_slice(),
                        grad_w.as_slice(),
                    );
                }
                (LayerSpec::Relu, _, Cache::Input { input, .. }) => {
                    let _layer = gcnn_trace::span_owned(|| format!("layer{i}.relu"));
                    grad = ReluLayer.backward(&input, &grad);
                }
                (LayerSpec::MaxPool { window, stride, .. }, _, Cache::MaxPool { fwd }) => {
                    let _layer = gcnn_trace::span_owned(|| format!("layer{i}.max_pool"));
                    let pool = PoolLayer::new(PoolKind::Max, *window, *stride);
                    grad = pool.backward(fwd.input_shape, &fwd, &grad);
                }
                (_, Params::Fc(p), Cache::Input { input, .. }) => {
                    let _layer = gcnn_trace::span_owned(|| format!("layer{i}.fc"));
                    // FC expects (b, features, 1, 1) gradients.
                    let grads = p.layer.backward(&input, &grad);
                    momentum_step(
                        rate,
                        decay,
                        p.layer.weights.as_mut_slice(),
                        p.w_velocity.as_mut_slice(),
                        grads.grad_weights.as_slice(),
                    );
                    momentum_step(
                        rate,
                        None,
                        &mut p.layer.bias,
                        &mut p.b_velocity,
                        &grads.grad_bias,
                    );
                    grad = grads.grad_input;
                }
                _ => unreachable!("layer/cache mismatch"),
            }
        }
        out.loss
    }

    /// Train for `epochs` over `train`, then evaluate on `test`.
    pub fn train(
        &mut self,
        train: &Dataset,
        test: &Dataset,
        batch: usize,
        epochs: usize,
    ) -> TrainReport {
        assert!(
            batch > 0 && batch <= train.len(),
            "Network::train: bad batch"
        );
        let mut epoch_losses = Vec::with_capacity(epochs);
        let mut ws = Workspace::new();
        for _ in 0..epochs {
            let mut loss_sum = 0.0;
            let mut batches = 0;
            let mut start = 0;
            while start + batch <= train.len() {
                let (imgs, labels) = train.batch(start, batch);
                loss_sum += self.train_batch_ws(&imgs, &labels, &mut ws);
                batches += 1;
                start += batch;
            }
            epoch_losses.push(loss_sum / batches.max(1) as f32);
        }
        TrainReport {
            epoch_losses,
            test_accuracy: self.accuracy(test),
        }
    }

    /// Serialize all parameters (conv filters, FC weights, FC biases —
    /// not optimizer state) to the `gcnn` weight format.
    pub fn save_weights(&self) -> Vec<u8> {
        let blobs: Vec<&[f32]> = self
            .layers
            .iter()
            .flat_map(|l| blobs!(&l.params, get, as_slice))
            .map(|(_, values)| values)
            .collect();
        crate::persist::encode_blobs(&blobs)
    }

    /// Load parameters previously produced by [`Network::save_weights`]
    /// into a network of the same architecture.
    pub fn load_weights(&mut self, bytes: &[u8]) -> Result<(), crate::persist::PersistError> {
        let mismatch = |detail| crate::persist::PersistError::ShapeMismatch { detail };
        let blobs = crate::persist::decode_blobs(bytes)?;
        let mut it = blobs.iter();
        let layers = self.layers.iter_mut();
        for (what, values) in layers.flat_map(|l| blobs!(&mut l.params, edit, as_mut_slice)) {
            let blob = it
                .next()
                .ok_or_else(|| mismatch(format!("missing blob for {what}")))?;
            if blob.len() != values.len() {
                return Err(mismatch(format!(
                    "{what}: expected {} values, got {}",
                    values.len(),
                    blob.len()
                )));
            }
            values.copy_from_slice(blob);
        }
        match it.next() {
            None => Ok(()),
            Some(_) => Err(mismatch("extra parameter blobs".into())),
        }
    }

    /// Classification accuracy over a dataset.
    pub fn accuracy(&self, data: &Dataset) -> f32 {
        if data.is_empty() {
            return 0.0;
        }
        let preds = self.predict(&data.images);
        let correct = preds
            .iter()
            .zip(&data.labels)
            .filter(|(p, l)| p == l)
            .count();
        correct as f32 / data.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::synthetic_digits;

    #[test]
    fn forward_shapes() {
        let net = Network::lenet5(28, 10, Strategy::Unrolling, 1);
        let x = Tensor4::zeros(Shape4::new(3, 1, 28, 28));
        let logits = net.forward(&x);
        assert_eq!(logits.shape(), Shape4::new(3, 10, 1, 1));
    }

    #[test]
    fn single_batch_loss_decreases() {
        let data = synthetic_digits(8, 16, 4, 11);
        let mut net = Network::lenet5(16, 4, Strategy::Unrolling, 2);
        net.learning_rate = 0.15;
        let (imgs, labels) = data.batch(0, 8);
        let first = net.train_batch(&imgs, &labels);
        let mut last = first;
        for _ in 0..30 {
            last = net.train_batch(&imgs, &labels);
        }
        assert!(last < 0.5 * first, "loss {first} → {last}");
    }

    #[test]
    fn strategies_train_identically_at_start() {
        // The first forward pass must agree across strategies (same
        // seed ⇒ same weights ⇒ same logits up to rounding).
        let x = synthetic_digits(4, 16, 4, 3).images;
        let a = Network::lenet5(16, 4, Strategy::Direct, 9).forward(&x);
        let b = Network::lenet5(16, 4, Strategy::Unrolling, 9).forward(&x);
        let c = Network::lenet5(16, 4, Strategy::Fft, 9).forward(&x);
        assert!(a.rel_l2_dist(&b).unwrap() < 1e-3);
        assert!(a.rel_l2_dist(&c).unwrap() < 1e-3);
    }

    #[test]
    fn save_load_roundtrip_preserves_predictions() {
        let data = synthetic_digits(8, 16, 4, 31);
        let (imgs, labels) = data.batch(0, 8);

        let mut trained = Network::lenet5(16, 4, Strategy::Unrolling, 13);
        for _ in 0..5 {
            trained.train_batch(&imgs, &labels);
        }
        let bytes = trained.save_weights();

        // Fresh net with different seed: predictions differ, until loaded.
        let mut fresh = Network::lenet5(16, 4, Strategy::Unrolling, 99);
        assert!(
            trained
                .forward(&imgs)
                .rel_l2_dist(&fresh.forward(&imgs))
                .unwrap()
                > 1e-3
        );
        fresh.load_weights(&bytes).unwrap();
        let dist = trained
            .forward(&imgs)
            .rel_l2_dist(&fresh.forward(&imgs))
            .unwrap();
        assert!(dist < 1e-6, "loaded net diverges: {dist}");
    }

    #[test]
    fn load_rejects_wrong_architecture() {
        let small = Network::lenet5(16, 4, Strategy::Unrolling, 1).save_weights();
        let mut other = Network::lenet5(16, 8, Strategy::Unrolling, 1); // 8 classes
        assert!(other.load_weights(&small).is_err());
    }

    #[test]
    fn momentum_accelerates_convergence() {
        let data = synthetic_digits(8, 16, 4, 21);
        let (imgs, labels) = data.batch(0, 8);

        let run = |momentum: f32| {
            let mut net = Network::lenet5(16, 4, Strategy::Unrolling, 3);
            net.learning_rate = 0.05;
            net.momentum = momentum;
            let mut last = 0.0;
            for _ in 0..15 {
                last = net.train_batch(&imgs, &labels);
            }
            last
        };
        let plain = run(0.0);
        let with_momentum = run(0.9);
        assert!(
            with_momentum < plain,
            "momentum {with_momentum} should beat plain {plain}"
        );
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let data = synthetic_digits(8, 16, 4, 22);
        let (imgs, labels) = data.batch(0, 8);

        let norm_after = |wd: f32| {
            let mut net = Network::lenet5(16, 4, Strategy::Unrolling, 5);
            net.learning_rate = 0.05;
            net.weight_decay = wd;
            for _ in 0..10 {
                net.train_batch(&imgs, &labels);
            }
            // Probe: forward magnitude as a proxy for weight scale.
            let logits = net.forward(&imgs);
            logits.as_slice().iter().map(|x| x * x).sum::<f32>()
        };
        let free = norm_after(0.0);
        let decayed = norm_after(0.05);
        assert!(decayed < free, "decay {decayed} should shrink vs {free}");
    }

    #[test]
    fn infer_ws_matches_cached_forward() {
        // The one walker serves both entry points, with and without
        // caches: a training step that cannot move the weights computes
        // exactly the loss of the inference path's logits, and leaves
        // the parameters as saved.
        let mut net = Network::lenet5(16, 4, Strategy::Fft, 17);
        net.learning_rate = 0.0;
        let data = synthetic_digits(5, 16, 4, 8);
        let (x, labels) = data.batch(0, 5);
        let mut ws = Workspace::new();
        let before = net.save_weights();
        let logits = net.infer_ws(&x, &mut ws);
        let want = softmax_cross_entropy(&logits, &labels).loss;
        let got = net.train_batch_ws(&x, &labels, &mut ws);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "training forward must match the inference path"
        );
        assert_eq!(net.save_weights(), before);
        // Second call must be arena-served: the serving workers rely on
        // a warm workspace after the first batch.
        assert_eq!(net.infer_ws(&x, &mut ws), logits);
    }

    #[test]
    fn lenet5_is_the_zoo_spec_through_the_builder() {
        let chain = |s| {
            Network::new(0.05)
                .conv(1, 6, 5, 1, 0, s, 7)
                .relu()
                .max_pool(2, 2)
                .conv(6, 16, 5, 1, 0, s, 8)
                .relu()
                .max_pool(2, 2)
                .fc(16, 120, 9)
                .relu()
                .fc(120, 84, 10)
                .relu()
                .fc(84, 4, 11)
        };
        for s in [Strategy::Direct, Strategy::Unrolling, Strategy::Fft] {
            let net = Network::lenet5(16, 4, s, 7);
            assert_eq!(net.save_weights(), chain(s).save_weights());
            assert_eq!(net.learning_rate, 0.05);
        }
    }

    #[test]
    fn specs_are_executed_as_walked_or_refused_by_layer() {
        use crate::layer::NamedLayer;
        use crate::zoo;

        // The check runs before any parameter exists, so the big models
        // cost nothing here.
        for model in [zoo::lenet5(), zoo::alexnet(), zoo::vgg16(), zoo::overfeat()] {
            let layers = executable(&model).unwrap_or_else(|e| panic!("{}: {e}", model.name));
            assert_eq!(layers.len(), model.layers.len() - 1, "tail softmax dropped");
        }
        // GoogLeNet's first pool has a partial border window (112 → 56
        // in ceil mode, 55 in floor mode).
        let err = executable(&zoo::googlenet()).unwrap_err();
        assert_eq!(err.layer, "pool1");
        assert!(err.to_string().contains("ceil"), "{err}");

        let tiny = |name: &str, spec: LayerSpec| ModelSpec {
            name: "tiny".into(),
            input_channels: 2,
            input_size: 8,
            layers: vec![
                NamedLayer::new("relu", LayerSpec::Relu),
                NamedLayer::new(name, spec),
                NamedLayer::new("fc", LayerSpec::Fc { out: 3 }),
            ],
        };
        let pool = |window, stride, pad| LayerSpec::MaxPool {
            window,
            stride,
            pad,
        };
        let avg = LayerSpec::AvgPool {
            window: 2,
            stride: 2,
            pad: 0,
        };
        let inception = LayerSpec::Inception {
            branches: vec![vec![NamedLayer::new("r", LayerSpec::Relu)]],
        };
        for (name, spec) in [
            ("padded", pool(2, 2, 1)),
            ("partial", pool(3, 2, 0)),
            ("oversized", pool(9, 1, 0)),
            ("avg", avg),
            ("inc", inception),
            ("inner_softmax", LayerSpec::Softmax),
        ] {
            let err = Network::from_spec(&tiny(name, spec), Strategy::Direct, 1)
                .err()
                .unwrap_or_else(|| panic!("{name} must be refused"));
            assert_eq!(err.layer, name);
        }
        let net = Network::from_spec(&tiny("pool", pool(2, 2, 0)), Strategy::Direct, 1).unwrap();
        let logits = net.forward(&Tensor4::zeros(Shape4::new(3, 2, 8, 8)));
        assert_eq!(logits.shape(), Shape4::new(3, 3, 1, 1));
    }

    #[test]
    fn blocked_layout_inference_matches_planar() {
        // LeNet-5 with every conv forced to the blocked layout: both
        // conv+relu+pool chains run fused, and the result must agree
        // with the planar unrolling path. Accumulation orders differ
        // between the two kernels, so the comparison budgets ulps.
        let x = synthetic_digits(5, 16, 4, 8).images;
        let planar = Network::lenet5(16, 4, Strategy::Unrolling, 17);
        let mut blocked = Network::lenet5(16, 4, Strategy::Direct, 17);
        for (idx, _) in planar.conv_layouts() {
            blocked.set_conv_layout(idx, gcnn_tensor::nchwc::preferred_layout());
        }
        let want = planar.forward(&x);
        let got = blocked.forward(&x);
        assert_eq!(want.shape(), got.shape());
        assert!(
            want.max_abs_diff(&got).unwrap() < 1e-4,
            "fused blocked inference diverged from planar"
        );
    }

    #[test]
    fn adjacent_blocked_convs_stay_packed_and_match_planar() {
        // conv(pad=1)+relu → conv(pad=1)+relu → conv (no relu): the
        // activation stays packed across all three conv boundaries
        // (exercising the repad transition, since pad > 0), and the
        // trailing unfused blocked conv unpacks only at the end. The
        // planar side runs unrolling, so two kernels are compared.
        let build = |s| {
            Network::new(0.05)
                .conv(3, 10, 3, 1, 1, s, 5)
                .relu()
                .conv(10, 8, 3, 1, 1, s, 6)
                .relu()
                .conv(8, 4, 3, 1, 0, s, 7)
        };
        let x = gcnn_tensor::init::uniform_tensor(Shape4::new(2, 3, 10, 10), -1.0, 1.0, 12);
        let planar = build(Strategy::Unrolling);
        let mut blocked = build(Strategy::Direct);
        for (idx, _) in planar.conv_layouts() {
            blocked.set_conv_layout(idx, gcnn_tensor::nchwc::preferred_layout());
        }
        let want = planar.forward(&x);
        let got = blocked.forward(&x);
        assert!(
            want.max_abs_diff(&got).unwrap() < 1e-4,
            "packed conv chain diverged from planar"
        );
    }

    #[test]
    fn blocked_inference_is_arena_served_when_warm() {
        // The fused path checks every intermediate out of the arena;
        // after a warm-up round, a whole forward pass must add no fresh
        // pool allocations (Tensor4 outputs are plain allocations and
        // are not counted — the arena discipline covers scratch).
        let mut net = Network::lenet5(16, 4, Strategy::Direct, 23);
        for (idx, _) in net.conv_layouts() {
            net.set_conv_layout(idx, gcnn_tensor::nchwc::preferred_layout());
        }
        let x = synthetic_digits(4, 16, 4, 3).images;
        let mut ws = Workspace::new();
        // Width 1: the counted thread is the one warmed, and runs it all.
        let (_, fresh) = gcnn_tensor::workspace::on_calling_thread(|| {
            for _ in 0..2 {
                let _ = net.infer_ws(&x, &mut ws);
            }
            gcnn_tensor::workspace::alloc_scope(|| {
                let _ = net.infer_ws(&x, &mut ws);
            })
        });
        assert_eq!(fresh, 0, "warm blocked inference must not miss the arena");
    }

    /// Every conv layer of `net` in `layout`.
    fn set_layouts(net: &mut Network, layout: Layout) {
        for (idx, _) in net.conv_layouts() {
            net.set_conv_layout(idx, layout);
        }
    }

    /// Logits of a LeNet-5 built afresh, holding the weights `bytes`,
    /// every conv in `layout`: its banks are packed by this pass.
    fn fresh_logits(bytes: &[u8], layout: Layout, x: &Tensor4) -> Tensor4 {
        let mut net = Network::lenet5(16, 4, Strategy::Direct, 0);
        net.load_weights(bytes).unwrap();
        set_layouts(&mut net, layout);
        net.forward(x)
    }

    fn same_bits(a: &Tensor4, b: &Tensor4) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn packed_filters_follow_every_weight_version() {
        // A blocked pass packs each bank once and keeps it; a training
        // step, a weight load and a layout change must each drop it, so
        // that the next pass computes what a network built with the
        // same weights computes, bit for bit.
        let (x, labels) = synthetic_digits(8, 16, 4, 41).batch(0, 8);
        let layout = gcnn_tensor::nchwc::preferred_layout();
        let mut net = Network::lenet5(16, 4, Strategy::Direct, 43);
        set_layouts(&mut net, layout);
        let before = net.forward(&x);

        net.train_batch(&x, &labels);
        let trained = net.forward(&x);
        assert!(!same_bits(&before, &trained), "the step moved no logit");
        let want = fresh_logits(&net.save_weights(), layout, &x);
        assert!(same_bits(&trained, &want), "after a training step");

        let other = Network::lenet5(16, 4, Strategy::Direct, 44).save_weights();
        net.load_weights(&other).unwrap();
        let loaded = net.forward(&x);
        assert!(
            same_bits(&loaded, &fresh_logits(&other, layout, &x)),
            "after load_weights"
        );

        // The other block: the scalar tile runs any block, so every host
        // has both.
        let swapped = match layout {
            Layout::Nchw16c => Layout::Nchw8c,
            _ => Layout::Nchw16c,
        };
        set_layouts(&mut net, swapped);
        let relaid = net.forward(&x);
        assert!(
            same_bits(&relaid, &fresh_logits(&other, swapped, &x)),
            "after set_conv_layout"
        );
    }

    #[test]
    fn blocked_inference_between_training_steps_changes_no_weight() {
        // Filling the packed banks between two steps must leave the
        // planar weights, velocities and the second step alone.
        let (x, labels) = synthetic_digits(8, 16, 4, 47).batch(0, 8);
        let two_steps = |infer_between: bool| {
            let mut net = Network::lenet5(16, 4, Strategy::Direct, 49);
            net.momentum = 0.9;
            set_layouts(&mut net, gcnn_tensor::nchwc::preferred_layout());
            net.train_batch(&x, &labels);
            if infer_between {
                net.forward(&x);
            }
            net.train_batch(&x, &labels);
            net.save_weights()
        };
        assert_eq!(two_steps(false), two_steps(true));
    }

    #[test]
    fn mixed_layout_networks_match_planar() {
        // Every planar/blocked choice per conv layer, at both blocks (the
        // scalar tile runs any block, so every host has both): a blocked
        // conv next to a planar one, or next to one of the other block,
        // must agree with the all-planar network, and a second pass must
        // repeat the first bit for bit. Both LeNet-5 convs have fewer
        // input channels than either block, so a blocked → blocked
        // boundary unpacks and repacks at the next conv's channel pitch.
        let x = synthetic_digits(4, 16, 4, 3).images;
        let reference = Network::lenet5(16, 4, Strategy::Direct, 1).forward(&x);
        let choices = [
            Layout::Nchw,
            gcnn_tensor::nchwc::preferred_layout(),
            match gcnn_tensor::nchwc::preferred_layout() {
                Layout::Nchw16c => Layout::Nchw8c,
                _ => Layout::Nchw16c,
            },
        ];
        for first in choices {
            for second in choices {
                let mut net = Network::lenet5(16, 4, Strategy::Direct, 1);
                let convs = net.conv_layouts();
                assert_eq!(convs.len(), 2, "LeNet-5 has two conv layers");
                net.set_conv_layout(convs[0].0, first);
                net.set_conv_layout(convs[1].0, second);
                let got = net.forward(&x);
                assert!(
                    reference.max_abs_diff(&got).unwrap() < 1e-4,
                    "{first:?} then {second:?} diverged from planar"
                );
                assert!(
                    same_bits(&got, &net.forward(&x)),
                    "{first:?} then {second:?}: the second pass differs"
                );
            }
        }
    }

    #[test]
    fn network_is_send() {
        // gcnn-serve moves one Network per worker across a thread
        // boundary; this must stay true as layers evolve.
        fn assert_send<T: Send>() {}
        assert_send::<Network>();
        assert_send::<Workspace>();
    }

    #[test]
    fn predict_returns_class_indices() {
        let net = Network::lenet5(16, 4, Strategy::Unrolling, 5);
        let x = synthetic_digits(6, 16, 4, 4).images;
        let preds = net.predict(&x);
        assert_eq!(preds.len(), 6);
        assert!(preds.iter().all(|&p| p < 4));
    }
}
