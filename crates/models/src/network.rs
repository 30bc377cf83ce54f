//! An executable sequential CNN with real numerics and SGD training.
//!
//! This is the CPU-side counterpart of the paper's training iterations:
//! every convolution runs one of the three real strategies from
//! `gcnn-conv`, so a LeNet-5 built here trains end-to-end regardless of
//! which strategy (direct / unrolling / FFT) backs its layers — the
//! cross-strategy equivalence the paper's whole comparison rests on.

use crate::data::Dataset;
use gcnn_autotune::{SelectionSource, Substrate, Tuner, TuningCache};
use gcnn_conv::layers::{
    softmax_cross_entropy, FcLayer, PoolForward, PoolKind, PoolLayer, ReluLayer,
};
use gcnn_conv::nchwc as packed;
use gcnn_conv::{algorithm_for, ConvConfig, Strategy};
use gcnn_tensor::workspace::{self, Scratch};
use gcnn_tensor::{nchwc, Layout, Shape4, Tensor4, Workspace};
use serde::Serialize;
use std::borrow::Cow;

/// A trainable layer.
enum NetLayer {
    Conv {
        /// Filter bank `(f, c, k, k)`.
        weights: Tensor4,
        /// Momentum velocity, same shape as `weights`.
        velocity: Tensor4,
        stride: usize,
        pad: usize,
        strategy: Strategy,
        /// Forward-pass tensor layout. Planar [`Layout::Nchw`] runs the
        /// strategy's `forward_ws`; a channel-blocked `NCHW{8,16}c`
        /// layout routes inference through the fused packed path
        /// (training always runs planar — the blocked path is
        /// forward-only).
        layout: Layout,
    },
    Relu,
    MaxPool {
        window: usize,
        stride: usize,
    },
    Fc {
        layer: FcLayer,
        /// Momentum velocities for weights and bias.
        w_velocity: gcnn_tensor::Matrix,
        b_velocity: Vec<f32>,
    },
}

/// Per-layer forward cache for the backward pass.
enum Cache {
    Conv {
        input: Tensor4,
        cfg: ConvConfig,
    },
    Relu {
        input: Tensor4,
    },
    MaxPool {
        input_shape: Shape4,
        fwd: PoolForward,
    },
    Fc {
        input: Tensor4,
    },
}

/// An activation flowing through [`Network::infer_ws`]: planar (the
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
    layers: Vec<NetLayer>,
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

/// One conv layer's outcome from a [`Network::tune`] pass.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TunedLayer {
    /// Index of the layer within the network.
    pub layer_index: usize,
    /// The layer's shape at the tuning batch size.
    pub cfg: ConvConfig,
    /// Winning candidate's name on the substrate.
    pub implementation: String,
    /// The strategy the layer will execute from now on.
    pub strategy: Strategy,
    /// The tensor layout the layer will execute in from now on (planar
    /// `Nchw`, or a channel-blocked `NCHW{8,16}c` for the fused packed
    /// forward path).
    pub layout: Layout,
    /// The winner's (measured or modeled) time, milliseconds.
    pub time_ms: f64,
    /// Where the decision came from (cache / measurement / heuristic).
    pub source: SelectionSource,
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

    /// Append a convolution layer with Xavier-initialized filters.
    #[allow(clippy::too_many_arguments)] // layer hyper-parameters
    pub fn conv(
        mut self,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        strategy: Strategy,
        seed: u64,
    ) -> Self {
        let shape = Shape4::new(out_channels, in_channels, kernel, kernel);
        self.layers.push(NetLayer::Conv {
            weights: gcnn_tensor::init::xavier_filters(shape, seed),
            velocity: Tensor4::zeros(shape),
            stride,
            pad,
            strategy,
            layout: Layout::Nchw,
        });
        self
    }

    /// Set the forward-pass layout of the conv layer at `layer_index`
    /// (its index within the network, as reported by
    /// [`TunedLayer::layer_index`] / [`Network::conv_layouts`]).
    ///
    /// # Panics
    /// If `layer_index` is out of range or not a convolution.
    pub fn set_conv_layout(&mut self, layer_index: usize, layout: Layout) {
        match self.layers.get_mut(layer_index) {
            Some(NetLayer::Conv { layout: l, .. }) => *l = layout,
            _ => panic!("set_conv_layout: layer {layer_index} is not a conv layer"),
        }
    }

    /// `(layer_index, layout)` of every conv layer, in network order.
    pub fn conv_layouts(&self) -> Vec<(usize, Layout)> {
        self.layers
            .iter()
            .enumerate()
            .filter_map(|(i, layer)| match layer {
                NetLayer::Conv { layout, .. } => Some((i, *layout)),
                _ => None,
            })
            .collect()
    }

    /// Append a ReLU.
    pub fn relu(mut self) -> Self {
        self.layers.push(NetLayer::Relu);
        self
    }

    /// Append a max-pooling layer.
    pub fn max_pool(mut self, window: usize, stride: usize) -> Self {
        self.layers.push(NetLayer::MaxPool { window, stride });
        self
    }

    /// Append a fully-connected layer.
    pub fn fc(mut self, in_features: usize, out_features: usize, seed: u64) -> Self {
        let layer = FcLayer::xavier(out_features, in_features, seed);
        let w_velocity = gcnn_tensor::Matrix::zeros(out_features, in_features);
        let b_velocity = vec![0.0; out_features];
        self.layers.push(NetLayer::Fc {
            layer,
            w_velocity,
            b_velocity,
        });
        self
    }

    /// LeNet-5 over `size`² single-channel inputs, with every conv layer
    /// backed by the given strategy.
    pub fn lenet5(size: usize, classes: usize, strategy: Strategy, seed: u64) -> Self {
        let after_conv1 = size - 4; // k=5
        let after_pool1 = after_conv1 / 2;
        let after_conv2 = after_pool1 - 4;
        let after_pool2 = after_conv2 / 2;
        Network::new(0.05)
            .conv(1, 6, 5, 1, 0, strategy, seed)
            .relu()
            .max_pool(2, 2)
            .conv(6, 16, 5, 1, 0, strategy, seed + 1)
            .relu()
            .max_pool(2, 2)
            .fc(16 * after_pool2 * after_pool2, 120, seed + 2)
            .relu()
            .fc(120, 84, seed + 3)
            .relu()
            .fc(84, classes, seed + 4)
    }

    /// Tune every conv layer's algorithm for inputs of shape `input`:
    /// walk the network's shapes, ask the [`Tuner`] for each conv
    /// layer's winner on `substrate` (consulting/filling `cache` as the
    /// policy dictates), and rebind the layer's strategy to it.
    ///
    /// Returns one [`TunedLayer`] record per conv layer the tuner could
    /// decide. A layer the tuner cannot decide (e.g. no candidate fits
    /// the memory budget) keeps its current strategy and yields no
    /// record. Runs under the `autotune.tune_network` span.
    ///
    /// Tunes for [`Direction::Training`]; a forward-only deployment
    /// (e.g. a `gcnn-serve` worker) should use [`Network::tune_for`]
    /// with [`Direction::Forward`], which can legitimately pick a
    /// different winner and keys the persistent cache separately.
    ///
    /// [`Direction::Training`]: gcnn_autotune::Direction::Training
    /// [`Direction::Forward`]: gcnn_autotune::Direction::Forward
    pub fn tune(
        &mut self,
        input: Shape4,
        tuner: &Tuner,
        substrate: &dyn Substrate,
        cache: &mut TuningCache,
    ) -> Vec<TunedLayer> {
        self.tune_for(
            input,
            tuner,
            substrate,
            cache,
            gcnn_autotune::Direction::Training,
        )
    }

    /// [`Network::tune`] for an explicit pass [`Direction`]: serving
    /// workers tune their forward pass only, training loops the full
    /// iteration. The direction is part of the cache key, so a warm
    /// tuning cache answers each deployment mode with its own winners.
    ///
    /// [`Direction`]: gcnn_autotune::Direction
    pub fn tune_for(
        &mut self,
        input: Shape4,
        tuner: &Tuner,
        substrate: &dyn Substrate,
        cache: &mut TuningCache,
        direction: gcnn_autotune::Direction,
    ) -> Vec<TunedLayer> {
        let _span = gcnn_trace::span("autotune.tune_network");
        let mut shape = input;
        let mut schedule = Vec::new();
        for (i, layer) in self.layers.iter_mut().enumerate() {
            match layer {
                NetLayer::Conv {
                    weights,
                    stride,
                    pad,
                    strategy,
                    layout,
                    ..
                } => {
                    let w = weights.shape();
                    let mut cfg =
                        ConvConfig::with_channels(shape.n, shape.c, shape.h, w.n, w.h, *stride);
                    cfg.pad = *pad;
                    if let Some(sel) = tuner.select(substrate, cache, &cfg, direction) {
                        *strategy = sel.strategy;
                        *layout = sel.layout;
                        schedule.push(TunedLayer {
                            layer_index: i,
                            cfg,
                            implementation: sel.implementation,
                            strategy: sel.strategy,
                            layout: sel.layout,
                            time_ms: sel.time_ms,
                            source: sel.source,
                        });
                    }
                    shape = Shape4::new(shape.n, w.n, cfg.output(), cfg.output());
                }
                NetLayer::Relu => {}
                NetLayer::MaxPool { window, stride } => {
                    shape = Shape4::new(
                        shape.n,
                        shape.c,
                        (shape.h - *window) / *stride + 1,
                        (shape.w - *window) / *stride + 1,
                    );
                }
                NetLayer::Fc { layer, .. } => {
                    shape = Shape4::new(shape.n, layer.weights.rows(), 1, 1);
                }
            }
        }
        schedule
    }

    /// Forward pass, returning the logits and the per-layer caches.
    fn forward_cached(&self, input: &Tensor4, ws: &mut Workspace) -> (Tensor4, Vec<Cache>) {
        let _span = gcnn_trace::span("network.forward");
        let mut x = input.clone();
        let mut caches = Vec::with_capacity(self.layers.len());
        for (i, layer) in self.layers.iter().enumerate() {
            match layer {
                NetLayer::Conv {
                    weights,
                    stride,
                    pad,
                    strategy,
                    ..
                } => {
                    let _layer = gcnn_trace::span_owned(|| format!("layer{i}.conv"));
                    let s = x.shape();
                    let w = weights.shape();
                    let mut cfg = ConvConfig::with_channels(s.n, s.c, s.h, w.n, w.h, *stride);
                    cfg.pad = *pad;
                    let algo = algorithm_for(*strategy);
                    let y = algo.forward_ws(&cfg, &x, weights, ws);
                    caches.push(Cache::Conv { input: x, cfg });
                    x = y;
                }
                NetLayer::Relu => {
                    let _layer = gcnn_trace::span_owned(|| format!("layer{i}.relu"));
                    let y = ReluLayer.forward(&x);
                    caches.push(Cache::Relu { input: x });
                    x = y;
                }
                NetLayer::MaxPool { window, stride } => {
                    let _layer = gcnn_trace::span_owned(|| format!("layer{i}.max_pool"));
                    let pool = PoolLayer::new(PoolKind::Max, *window, *stride);
                    let fwd = pool.forward(&x);
                    let y = fwd.output.clone();
                    caches.push(Cache::MaxPool {
                        input_shape: x.shape(),
                        fwd,
                    });
                    x = y;
                }
                NetLayer::Fc { layer, .. } => {
                    let _layer = gcnn_trace::span_owned(|| format!("layer{i}.fc"));
                    let y = layer.forward(&x);
                    caches.push(Cache::Fc { input: x });
                    x = y;
                }
            }
        }
        (x, caches)
    }

    /// Inference: logits only.
    pub fn forward(&self, input: &Tensor4) -> Tensor4 {
        let mut ws = Workspace::new();
        self.infer_ws(input, &mut ws)
    }

    /// Batched inference with an explicit [`Workspace`], retaining no
    /// per-layer caches: unlike [`Network::forward_cached`], the input
    /// of each layer is dropped as soon as the next activation exists.
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
        let mut x = Act::Planar(Cow::Borrowed(input));
        let mut i = 0;
        while i < self.layers.len() {
            match &self.layers[i] {
                NetLayer::Conv {
                    weights,
                    stride,
                    pad,
                    strategy,
                    layout,
                    ..
                } => {
                    let s = x.shape();
                    let w = weights.shape();
                    let mut cfg = ConvConfig::with_channels(s.n, s.c, s.h, w.n, w.h, *stride);
                    cfg.pad = *pad;
                    let blocked = layout
                        .channel_block()
                        .filter(|_| packed::supports(&cfg).is_ok());
                    if let Some(block) = blocked {
                        let _layer = gcnn_trace::span_owned(|| format!("layer{i}.conv_nchwc"));
                        let (act, consumed) = self.fused_packed_chain(i, &cfg, weights, block, x);
                        x = act;
                        i += consumed;
                        continue;
                    }
                    let _layer = gcnn_trace::span_owned(|| format!("layer{i}.conv"));
                    let xp = x.into_planar();
                    let algo = algorithm_for(*strategy);
                    x = Act::owned(algo.forward_ws(&cfg, &xp, weights, ws));
                }
                NetLayer::Relu => {
                    let _layer = gcnn_trace::span_owned(|| format!("layer{i}.relu"));
                    x = Act::owned(ReluLayer.forward(&x.into_planar()));
                }
                NetLayer::MaxPool { window, stride } => {
                    let _layer = gcnn_trace::span_owned(|| format!("layer{i}.max_pool"));
                    let pool = PoolLayer::new(PoolKind::Max, *window, *stride);
                    x = Act::owned(pool.forward(&x.into_planar()).output);
                }
                NetLayer::Fc { layer, .. } => {
                    let _layer = gcnn_trace::span_owned(|| format!("layer{i}.fc"));
                    x = Act::owned(layer.forward(&x.into_planar()));
                }
            }
            i += 1;
        }
        x.into_planar().into_owned()
    }

    /// Execute one blocked conv starting at layer `i`, fusing a
    /// directly following ReLU (and max-pool after it) when present.
    /// Returns the packed output activation and how many layers were
    /// consumed. All buffers (packed input, packed weights, packed
    /// output) come from the thread-local arena, so a warm caller
    /// allocates nothing on this path.
    fn fused_packed_chain(
        &self,
        i: usize,
        cfg: &ConvConfig,
        weights: &Tensor4,
        block: usize,
        x: Act<'_>,
    ) -> (Act<'static>, usize) {
        let fuse_relu = matches!(self.layers.get(i + 1), Some(NetLayer::Relu));
        let fuse_pool = if fuse_relu {
            match self.layers.get(i + 2) {
                Some(NetLayer::MaxPool { window, stride }) if cfg.output() >= *window => {
                    Some((*window, *stride))
                }
                _ => None,
            }
        } else {
            None
        };

        // Bring the activation into packed form with this layer's
        // spatial padding baked in (the zero borders make the conv
        // loops branch-free).
        let pin = match x {
            Act::Packed {
                buf,
                shape,
                block: prev,
            } if prev == block => {
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
        // Weights are packed per call: the bank is tiny next to the
        // conv itself, and repacking keeps training updates (which
        // mutate the planar weights) from invalidating anything.
        let mut pw = workspace::take_f32(packed::packed_filter_len(cfg, block));
        packed::pack_filters(cfg, weights, block, pw.as_mut_slice());

        if let Some((window, pstride)) = fuse_pool {
            let po = packed::pooled_output(cfg, window, pstride);
            let oshape = Shape4::new(cfg.batch, cfg.filters, po, po);
            let mut pout = workspace::take_f32(nchwc::packed_len(oshape, block, 0));
            packed::fused_conv_relu_pool(
                cfg,
                block,
                window,
                pstride,
                pin.as_slice(),
                pw.as_slice(),
                pout.as_mut_slice(),
            );
            (
                Act::Packed {
                    buf: pout,
                    shape: oshape,
                    block,
                },
                3,
            )
        } else {
            let oshape = cfg.output_shape();
            let mut pout = workspace::take_f32(packed::packed_output_len(cfg, block));
            packed::fused_conv_relu(
                cfg,
                block,
                pin.as_slice(),
                pw.as_slice(),
                pout.as_mut_slice(),
                fuse_relu,
            );
            (
                Act::Packed {
                    buf: pout,
                    shape: oshape,
                    block,
                },
                1 + usize::from(fuse_relu),
            )
        }
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
    pub fn train_batch_ws(
        &mut self,
        images: &Tensor4,
        labels: &[usize],
        ws: &mut Workspace,
    ) -> f32 {
        let _span = gcnn_trace::span("network.train_batch");
        let (logits, caches) = self.forward_cached(images, ws);
        let out = softmax_cross_entropy(&logits, labels);
        let mut grad = out.grad_logits;

        let lr = self.learning_rate;
        let mu = self.momentum;
        let wd = self.weight_decay;
        let _bwd = gcnn_trace::span("network.backward");
        for (i, (layer, cache)) in self.layers.iter_mut().zip(caches).enumerate().rev() {
            match (layer, cache) {
                (
                    NetLayer::Conv {
                        weights,
                        velocity,
                        strategy,
                        ..
                    },
                    Cache::Conv { input, cfg },
                ) => {
                    let _layer = gcnn_trace::span_owned(|| format!("layer{i}.conv"));
                    let algo = algorithm_for(*strategy);
                    let grad_w = algo.backward_filters_ws(&cfg, &input, &grad, ws);
                    grad = algo.backward_data_ws(&cfg, &grad, weights, ws);
                    // v ← μ·v − lr·(∇w + wd·w);  w ← w + v
                    for ((v, g), w) in velocity
                        .as_mut_slice()
                        .iter_mut()
                        .zip(grad_w.as_slice())
                        .zip(weights.as_mut_slice())
                    {
                        *v = mu * *v - lr * (g + wd * *w);
                        *w += *v;
                    }
                }
                (NetLayer::Relu, Cache::Relu { input }) => {
                    let _layer = gcnn_trace::span_owned(|| format!("layer{i}.relu"));
                    grad = ReluLayer.backward(&input, &grad);
                }
                (NetLayer::MaxPool { window, stride }, Cache::MaxPool { input_shape, fwd }) => {
                    let _layer = gcnn_trace::span_owned(|| format!("layer{i}.max_pool"));
                    let pool = PoolLayer::new(PoolKind::Max, *window, *stride);
                    grad = pool.backward(input_shape, &fwd, &grad);
                }
                (
                    NetLayer::Fc {
                        layer,
                        w_velocity,
                        b_velocity,
                    },
                    Cache::Fc { input },
                ) => {
                    let _layer = gcnn_trace::span_owned(|| format!("layer{i}.fc"));
                    // FC expects (b, features, 1, 1) gradients.
                    let grads = layer.backward(&input, &grad);
                    for ((v, g), w) in w_velocity
                        .as_mut_slice()
                        .iter_mut()
                        .zip(grads.grad_weights.as_slice())
                        .zip(layer.weights.as_mut_slice())
                    {
                        *v = mu * *v - lr * (g + wd * *w);
                        *w += *v;
                    }
                    for ((v, g), b) in b_velocity
                        .iter_mut()
                        .zip(&grads.grad_bias)
                        .zip(layer.bias.iter_mut())
                    {
                        *v = mu * *v - lr * g; // no decay on biases
                        *b += *v;
                    }
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
        let mut blobs: Vec<&[f32]> = Vec::new();
        for layer in &self.layers {
            match layer {
                NetLayer::Conv { weights, .. } => blobs.push(weights.as_slice()),
                NetLayer::Fc { layer, .. } => {
                    blobs.push(layer.weights.as_slice());
                    blobs.push(&layer.bias);
                }
                NetLayer::Relu | NetLayer::MaxPool { .. } => {}
            }
        }
        crate::persist::encode_blobs(&blobs)
    }

    /// Load parameters previously produced by [`Network::save_weights`]
    /// into a network of the same architecture.
    pub fn load_weights(&mut self, bytes: &[u8]) -> Result<(), crate::persist::PersistError> {
        let blobs = crate::persist::decode_blobs(bytes)?;
        let mut it = blobs.into_iter();
        let mut next = |expected: usize, what: &str| {
            let blob = it
                .next()
                .ok_or(crate::persist::PersistError::ShapeMismatch {
                    detail: format!("missing blob for {what}"),
                })?;
            if blob.len() != expected {
                return Err(crate::persist::PersistError::ShapeMismatch {
                    detail: format!("{what}: expected {expected} values, got {}", blob.len()),
                });
            }
            Ok(blob)
        };
        for layer in &mut self.layers {
            match layer {
                NetLayer::Conv { weights, .. } => {
                    let blob = next(weights.shape().len(), "conv filters")?;
                    weights.as_mut_slice().copy_from_slice(&blob);
                }
                NetLayer::Fc { layer, .. } => {
                    let w = next(layer.weights.rows() * layer.weights.cols(), "fc weights")?;
                    layer.weights.as_mut_slice().copy_from_slice(&w);
                    let b = next(layer.bias.len(), "fc bias")?;
                    layer.bias.copy_from_slice(&b);
                }
                NetLayer::Relu | NetLayer::MaxPool { .. } => {}
            }
        }
        if it.next().is_some() {
            return Err(crate::persist::PersistError::ShapeMismatch {
                detail: "extra parameter blobs".into(),
            });
        }
        Ok(())
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
    fn tune_rebinds_strategies_and_is_cache_stable() {
        use gcnn_autotune::{Policy, SimSubstrate};

        // Batch 32 so cuda-convnet2 (batch % 32, filters % 16) stays in
        // play; LeNet-5's filter counts (6, 16) exclude it on layer 0
        // regardless, which the tuner must tolerate.
        let sub = SimSubstrate::k40c();
        let mut cache = gcnn_autotune::TuningCache::new();
        let tuner = Tuner::new(Policy::Measure).with_params(gcnn_autotune::MeasureParams {
            repeats: gcnn_autotune::Repeats::new(1, 3),
            timeout_ms: None,
        });
        let input = Shape4::new(32, 1, 28, 28);

        let mut net = Network::lenet5(28, 10, Strategy::Direct, 1);
        let cold = net.tune(input, &tuner, &sub, &mut cache);
        assert_eq!(cold.len(), 2, "LeNet-5 has two conv layers");
        assert_eq!(cold[0].cfg.input, 28);
        assert_eq!(cold[1].cfg.input, 12, "pool halves 24 → 12");
        assert!(cold
            .iter()
            .all(|l| l.source == gcnn_autotune::SelectionSource::Measured));

        // The tuned strategies must actually run: forward still works.
        let x = Tensor4::zeros(input);
        assert_eq!(net.forward(&x).shape(), Shape4::new(32, 10, 1, 1));

        // Warm pass on a fresh network: identical schedule, all hits.
        let mut net2 = Network::lenet5(28, 10, Strategy::Direct, 1);
        let warm = net2.tune(input, &tuner, &sub, &mut cache);
        assert_eq!(warm.len(), cold.len());
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(w.source, gcnn_autotune::SelectionSource::Cache);
            assert_eq!(c.implementation, w.implementation);
            assert_eq!(c.strategy, w.strategy);
            assert_eq!(c.cfg, w.cfg);
        }
    }

    #[test]
    fn tune_heuristic_matches_measured_winner_on_sim() {
        use gcnn_autotune::{Policy, SimSubstrate};

        let sub = SimSubstrate::k40c();
        let input = Shape4::new(32, 1, 16, 16);
        let mut a = Network::lenet5(16, 4, Strategy::Direct, 2);
        let mut b = Network::lenet5(16, 4, Strategy::Direct, 2);
        let measured = a.tune(
            input,
            &Tuner::new(Policy::Measure).with_params(gcnn_autotune::MeasureParams {
                repeats: gcnn_autotune::Repeats::new(1, 3),
                timeout_ms: None,
            }),
            &sub,
            &mut gcnn_autotune::TuningCache::new(),
        );
        let heuristic = b.tune(
            input,
            &Tuner::new(Policy::Heuristic),
            &sub,
            &mut gcnn_autotune::TuningCache::new(),
        );
        assert_eq!(measured.len(), heuristic.len());
        for (m, h) in measured.iter().zip(&heuristic) {
            assert_eq!(m.implementation, h.implementation);
        }
    }

    #[test]
    fn infer_ws_matches_cached_forward() {
        let net = Network::lenet5(16, 4, Strategy::Fft, 17);
        let x = synthetic_digits(5, 16, 4, 8).images;
        let mut ws = Workspace::new();
        let lean = net.infer_ws(&x, &mut ws);
        let cached = net.forward_cached(&x, &mut ws).0;
        assert_eq!(
            lean, cached,
            "inference path must match the training forward"
        );
        // Second call must be arena-served: the serving workers rely on
        // a warm workspace after the first batch.
        let again = net.infer_ws(&x, &mut ws);
        assert_eq!(again, cached);
    }

    #[test]
    fn blocked_layout_inference_matches_planar() {
        // LeNet-5 with every conv forced to the blocked layout: both
        // conv+relu+pool chains run fused, and the result must agree
        // with the planar path. Accumulation orders differ between the
        // packed and planar kernels, so the comparison budgets ulps.
        let x = synthetic_digits(5, 16, 4, 8).images;
        let planar = Network::lenet5(16, 4, Strategy::Direct, 17);
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
        // trailing unfused blocked conv unpacks only at the end.
        let build = || {
            Network::new(0.05)
                .conv(3, 10, 3, 1, 1, Strategy::Direct, 5)
                .relu()
                .conv(10, 8, 3, 1, 1, Strategy::Direct, 6)
                .relu()
                .conv(8, 4, 3, 1, 0, Strategy::Direct, 7)
        };
        let x = gcnn_tensor::init::uniform_tensor(Shape4::new(2, 3, 10, 10), -1.0, 1.0, 12);
        let planar = build();
        let mut blocked = build();
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
        for _ in 0..2 {
            let _ = net.infer_ws(&x, &mut ws);
        }
        let (_, fresh) = gcnn_tensor::workspace::alloc_scope(|| {
            let _ = net.infer_ws(&x, &mut ws);
        });
        assert_eq!(fresh, 0, "warm blocked inference must not miss the arena");
    }

    #[test]
    fn tune_rebinds_layouts_consistently() {
        // Whatever the tuner picks, the network's per-layer layouts
        // must mirror the schedule — and an "nchwc" winner must carry a
        // blocked layout.
        use gcnn_autotune::{CpuSubstrate, Direction, Policy};

        let sub = CpuSubstrate::new();
        let mut cache = gcnn_autotune::TuningCache::new();
        let tuner = Tuner::new(Policy::Measure).with_params(gcnn_autotune::MeasureParams {
            repeats: gcnn_autotune::Repeats::new(1, 2),
            timeout_ms: None,
        });
        let mut net = Network::lenet5(16, 4, Strategy::Direct, 1);
        let schedule = net.tune_for(
            Shape4::new(4, 1, 16, 16),
            &tuner,
            &sub,
            &mut cache,
            Direction::Forward,
        );
        assert_eq!(schedule.len(), 2);
        let layouts = net.conv_layouts();
        for (t, (idx, layout)) in schedule.iter().zip(&layouts) {
            assert_eq!(t.layer_index, *idx);
            assert_eq!(t.layout, *layout);
            assert_eq!(
                t.implementation == "nchwc",
                t.layout.is_blocked(),
                "only the nchwc candidate runs blocked"
            );
        }
        // The rebound network must still infer correctly.
        let x = synthetic_digits(4, 16, 4, 3).images;
        let reference = Network::lenet5(16, 4, Strategy::Direct, 1).forward(&x);
        let tuned = net.forward(&x);
        assert!(reference.max_abs_diff(&tuned).unwrap() < 1e-4);
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
    fn tune_for_forward_keys_cache_separately() {
        // The simulator substrate only models full training iterations,
        // so forward-only tuning — what a serving worker wants — runs on
        // the wall-clock CPU substrate.
        use gcnn_autotune::{CpuSubstrate, Direction, Policy};

        let sub = CpuSubstrate::new();
        let mut cache = gcnn_autotune::TuningCache::new();
        let tuner = Tuner::new(Policy::Measure).with_params(gcnn_autotune::MeasureParams {
            repeats: gcnn_autotune::Repeats::new(1, 2),
            timeout_ms: None,
        });
        let input = Shape4::new(8, 1, 16, 16);

        let mut net = Network::lenet5(16, 4, Strategy::Direct, 1);
        let fwd = net.tune_for(input, &tuner, &sub, &mut cache, Direction::Forward);
        assert_eq!(fwd.len(), 2, "LeNet-5 has two conv layers");
        assert!(fwd
            .iter()
            .all(|l| l.source == gcnn_autotune::SelectionSource::Measured));
        // A training-direction pass afterwards must measure again (its
        // cache key differs), not answer from the forward entries.
        let mut net2 = Network::lenet5(16, 4, Strategy::Direct, 1);
        let train = net2.tune(input, &tuner, &sub, &mut cache);
        assert!(train
            .iter()
            .all(|l| l.source == gcnn_autotune::SelectionSource::Measured));
        // And a second forward pass is a pure warm-cache hit.
        let mut net3 = Network::lenet5(16, 4, Strategy::Direct, 1);
        let warm = net3.tune_for(input, &tuner, &sub, &mut cache, Direction::Forward);
        assert_eq!(warm.len(), fwd.len());
        assert!(warm
            .iter()
            .all(|l| l.source == gcnn_autotune::SelectionSource::Cache));
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
