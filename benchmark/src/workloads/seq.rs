//! The benchmark's own layer-by-layer walker over a sequential model.
//!
//! `gcnn_models::Network` keeps its layers private and walks them
//! itself, so nothing outside it can time one layer. The traced runs
//! therefore rebuild the same model here — same `ModelSpec`, same
//! initialisers, same seeds, hence bit-identical weights — and walk it
//! through the same public functions `Network` calls, with a span
//! around each. Every traced run first checks this walker's output
//! against `Network`'s.
//!
//! What happens below a public conv entry point (`im2col_into`,
//! `sgemm`) is measured by *replay*: after an iteration closes, the
//! calls `unroll.rs` makes for that layer are issued again, at the same
//! shapes and the same one-call-per-image fan-out, as children of the
//! layer's span.

use crate::accounting::{fc_bytes, im2col_bytes, unroll_gemm_shape, unroll_replay_flops};
use crate::spans::{Recorder, SpanId};
use crate::workloads::Work;
use gcnn_conv::layers::{
    softmax_cross_entropy, FcLayer, PoolForward, PoolKind, PoolLayer, ReluLayer,
};
use gcnn_conv::{algorithm_for, nchwc as packed, ConvConfig, Strategy};
use gcnn_gemm::{gemm_flops, sgemm, Transpose};
use gcnn_models::layer::{walk, InstanceKind, LayerInstance};
use gcnn_models::{ModelSpec, Network};
use gcnn_tensor::im2col::{col2im_from, im2col_into};
use gcnn_tensor::workspace::{self, Scratch};
use gcnn_tensor::{nchwc, Shape4, Tensor4, Workspace};

/// The executable layers of `model` at `batch`, shapes resolved. The
/// softmax head is dropped: `Network` ends at the logits too.
fn instances(model: &ModelSpec, batch: usize) -> Vec<LayerInstance> {
    let mut all = walk(model, batch);
    all.retain(|i| i.kind != InstanceKind::Softmax);
    all
}

/// `model` as a `Network` through its public builder. The k-th layer
/// with parameters is initialised from `seed + k`, the schedule
/// `Network::lenet5` uses.
pub fn build_network(model: &ModelSpec, batch: usize, strategy: Strategy, seed: u64) -> Network {
    let mut net = Network::new(0.05);
    let mut k = 0;
    for inst in instances(model, batch) {
        net = match inst.kind {
            InstanceKind::Conv => {
                let c = inst.conv.expect("conv instance has a config");
                k += 1;
                net.conv(
                    c.channels,
                    c.filters,
                    c.kernel,
                    c.stride,
                    c.pad,
                    strategy,
                    seed + k - 1,
                )
            }
            InstanceKind::Relu => net.relu(),
            InstanceKind::Pool => {
                let (kind, window, stride) = inst.pool.expect("pool instance has parameters");
                assert_eq!(
                    PoolKind::from(kind),
                    PoolKind::Max,
                    "Network has max pooling only"
                );
                net.max_pool(window, stride)
            }
            InstanceKind::Fc => {
                let (inf, outf) = inst.fc.expect("fc instance has dimensions");
                k += 1;
                net.fc(inf, outf, seed + k - 1)
            }
            InstanceKind::Concat | InstanceKind::Softmax => {
                panic!("{}: not a sequential layer", inst.name)
            }
        };
    }
    net
}

pub enum Layer {
    Conv { cfg: ConvConfig, weights: Tensor4 },
    Relu,
    Pool { window: usize, stride: usize },
    Fc(FcLayer),
}

/// What a conv or FC layer saw during one iteration, kept until the
/// iteration closes so the replay can re-issue its kernel calls.
pub struct Kept {
    layer: usize,
    fwd: SpanId,
    input: Tensor4,
    bwd: Option<KeptBwd>,
}

struct KeptBwd {
    /// Filter-gradient span; `SpanId::NONE` for FC, whose one backward
    /// span (`data`) covers both of its GEMMs.
    filters: SpanId,
    data: SpanId,
    grad_out: Tensor4,
}

/// Forward-pass state the backward pass needs.
enum Cache {
    Conv {
        input: Tensor4,
    },
    Relu {
        input: Tensor4,
    },
    Pool {
        input_shape: Shape4,
        fwd: PoolForward,
    },
    Fc {
        input: Tensor4,
    },
}

/// Planar, or packed NCHWc between adjacent blocked conv layers — the
/// same two states `Network::infer_ws` moves an activation through.
enum Act {
    Planar(Tensor4),
    Packed {
        buf: Scratch<f32>,
        shape: Shape4,
        block: usize,
    },
}

/// Reusable buffers of the replay.
#[derive(Default)]
pub struct ReplayScratch {
    cols: Vec<f32>,
    out: Vec<f32>,
}

fn grown(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

pub struct SeqModel {
    pub layers: Vec<Layer>,
}

impl SeqModel {
    /// The walker's copy of the model [`build_network`] builds from the
    /// same arguments.
    pub fn build(model: &ModelSpec, batch: usize, seed: u64) -> Self {
        let mut k = 0;
        let layers = instances(model, batch)
            .into_iter()
            .map(|inst| match inst.kind {
                InstanceKind::Conv => {
                    let cfg = inst.conv.expect("conv instance has a config");
                    k += 1;
                    let weights =
                        gcnn_tensor::init::xavier_filters(cfg.filter_shape(), seed + k - 1);
                    Layer::Conv { cfg, weights }
                }
                InstanceKind::Relu => Layer::Relu,
                InstanceKind::Pool => {
                    let (_, window, stride) = inst.pool.expect("pool instance has parameters");
                    Layer::Pool { window, stride }
                }
                InstanceKind::Fc => {
                    let (inf, outf) = inst.fc.expect("fc instance has dimensions");
                    k += 1;
                    Layer::Fc(FcLayer::xavier(outf, inf, seed + k - 1))
                }
                InstanceKind::Concat | InstanceKind::Softmax => {
                    panic!("{}: not a sequential layer", inst.name)
                }
            })
            .collect();
        SeqModel { layers }
    }

    /// Inference with every conv on `UnrollConv`, planar throughout —
    /// the walk of `Network::infer_ws` for `Layout::Nchw` layers.
    pub fn infer_unroll(
        &self,
        rec: &mut Recorder,
        input: &Tensor4,
        ws: &mut Workspace,
    ) -> (Tensor4, Vec<Kept>) {
        let mut kept = Vec::with_capacity(self.layers.len());
        let mut x = input.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            x = match layer {
                Layer::Conv { cfg, weights } => {
                    let id = rec.begin("conv.unroll_fwd");
                    let y = algorithm_for(Strategy::Unrolling).forward_ws(cfg, &x, weights, ws);
                    rec.end(id);
                    kept.push(Kept {
                        layer: i,
                        fwd: id,
                        input: x,
                        bwd: None,
                    });
                    y
                }
                Layer::Relu => rec.scope("conv.relu", |_| ReluLayer.forward(&x)),
                Layer::Pool { window, stride } => rec.scope("conv.pool", |_| {
                    PoolLayer::new(PoolKind::Max, *window, *stride)
                        .forward(&x)
                        .output
                }),
                Layer::Fc(fc) => {
                    let id = rec.begin("conv.fc");
                    let y = fc.forward(&x);
                    rec.end(id);
                    kept.push(Kept {
                        layer: i,
                        fwd: id,
                        input: x,
                        bwd: None,
                    });
                    y
                }
            };
        }
        (x, kept)
    }

    /// Inference with every conv on the blocked path at channel block
    /// `block` — the walk of `Network::infer_ws` and its
    /// `fused_packed_chain` for `NCHW{8,16}c` layers: a conv consumes a
    /// directly following ReLU and max-pool, activations stay packed
    /// between adjacent convs, and they unpack before the first FC.
    pub fn infer_nchwc(
        &self,
        rec: &mut Recorder,
        input: &Tensor4,
        block: usize,
    ) -> (Tensor4, Vec<Kept>) {
        let mut kept = Vec::new();
        let mut x = Act::Planar(input.clone());
        let mut i = 0;
        while i < self.layers.len() {
            match &self.layers[i] {
                Layer::Conv { cfg, weights } => {
                    let (act, consumed) = rec.scope("conv.nchwc", |rec| {
                        self.packed_chain(rec, i, cfg, weights, block, x)
                    });
                    x = act;
                    i += consumed;
                    continue;
                }
                Layer::Relu => {
                    let xp = unpack(rec, x);
                    x = Act::Planar(rec.scope("conv.relu", |_| ReluLayer.forward(&xp)));
                }
                Layer::Pool { window, stride } => {
                    let xp = unpack(rec, x);
                    x = Act::Planar(rec.scope("conv.pool", |_| {
                        PoolLayer::new(PoolKind::Max, *window, *stride)
                            .forward(&xp)
                            .output
                    }));
                }
                Layer::Fc(fc) => {
                    let xp = unpack(rec, x);
                    let id = rec.begin("conv.fc");
                    let y = fc.forward(&xp);
                    rec.end(id);
                    kept.push(Kept {
                        layer: i,
                        fwd: id,
                        input: xp,
                        bwd: None,
                    });
                    x = Act::Planar(y);
                }
            }
            i += 1;
        }
        (unpack(rec, x), kept)
    }

    /// One blocked conv starting at layer `i` with its fused followers;
    /// returns the packed output and the number of layers consumed.
    fn packed_chain(
        &self,
        rec: &mut Recorder,
        i: usize,
        cfg: &ConvConfig,
        weights: &Tensor4,
        block: usize,
        x: Act,
    ) -> (Act, usize) {
        let fuse_relu = matches!(self.layers.get(i + 1), Some(Layer::Relu));
        let fuse_pool = match self.layers.get(i + 2) {
            Some(Layer::Pool { window, stride }) if fuse_relu && cfg.output() >= *window => {
                Some((*window, *stride))
            }
            _ => None,
        };
        let pin = rec.scope("tensor.pack_nchwc", |_| match x {
            Act::Packed { buf, .. } if cfg.pad == 0 => buf,
            Act::Packed { buf, shape, .. } => {
                let mut padded = workspace::take_f32(packed::packed_input_len(cfg, block));
                nchwc::repad_packed(buf.as_slice(), shape, block, cfg.pad, padded.as_mut_slice());
                padded
            }
            Act::Planar(planar) => {
                let mut fresh = workspace::take_f32(packed::packed_input_len(cfg, block));
                packed::pack_input(cfg, &planar, block, fresh.as_mut_slice());
                fresh
            }
        });
        let pw = rec.scope("tensor.pack_nchwc", |_| {
            let mut pw = workspace::take_f32(packed::packed_filter_len(cfg, block));
            packed::pack_filters(cfg, weights, block, pw.as_mut_slice());
            pw
        });
        if let Some((window, pstride)) = fuse_pool {
            let po = packed::pooled_output(cfg, window, pstride);
            let shape = Shape4::new(cfg.batch, cfg.filters, po, po);
            let mut buf = workspace::take_f32(nchwc::packed_len(shape, block, 0));
            rec.scope("conv.nchwc_fwd", |_| {
                packed::fused_conv_relu_pool(
                    cfg,
                    block,
                    window,
                    pstride,
                    pin.as_slice(),
                    pw.as_slice(),
                    buf.as_mut_slice(),
                );
            });
            (Act::Packed { buf, shape, block }, 3)
        } else {
            let mut buf = workspace::take_f32(packed::packed_output_len(cfg, block));
            rec.scope("conv.nchwc_fwd", |_| {
                packed::fused_conv_relu(
                    cfg,
                    block,
                    pin.as_slice(),
                    pw.as_slice(),
                    buf.as_mut_slice(),
                    fuse_relu,
                );
            });
            let shape = cfg.output_shape();
            (
                Act::Packed { buf, shape, block },
                1 + usize::from(fuse_relu),
            )
        }
    }

    /// One plain-SGD training step on `UnrollConv` — the walk of
    /// `Network::train_batch_ws` at its default momentum and decay of
    /// zero. Returns the batch loss.
    pub fn train_step(
        &mut self,
        rec: &mut Recorder,
        images: &Tensor4,
        labels: &[usize],
        ws: &mut Workspace,
        lr: f32,
    ) -> (f32, Vec<Kept>) {
        let mut fwd_spans = vec![SpanId::NONE; self.layers.len()];
        let mut caches = Vec::with_capacity(self.layers.len());
        let mut x = images.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            x = match layer {
                Layer::Conv { cfg, weights } => {
                    fwd_spans[i] = rec.begin("conv.unroll_fwd");
                    let y = algorithm_for(Strategy::Unrolling).forward_ws(cfg, &x, weights, ws);
                    rec.end(fwd_spans[i]);
                    caches.push(Cache::Conv { input: x });
                    y
                }
                Layer::Relu => {
                    let y = rec.scope("conv.relu", |_| ReluLayer.forward(&x));
                    caches.push(Cache::Relu { input: x });
                    y
                }
                Layer::Pool { window, stride } => {
                    let fwd = rec.scope("conv.pool", |_| {
                        PoolLayer::new(PoolKind::Max, *window, *stride).forward(&x)
                    });
                    let y = fwd.output.clone();
                    caches.push(Cache::Pool {
                        input_shape: x.shape(),
                        fwd,
                    });
                    y
                }
                Layer::Fc(fc) => {
                    fwd_spans[i] = rec.begin("conv.fc");
                    let y = fc.forward(&x);
                    rec.end(fwd_spans[i]);
                    caches.push(Cache::Fc { input: x });
                    y
                }
            };
        }
        let out = rec.scope("conv.softmax", |_| softmax_cross_entropy(&x, labels));
        let mut grad = out.grad_logits;

        let mut bwd: Vec<Option<KeptBwd>> = self.layers.iter().map(|_| None).collect();
        for (i, (layer, cache)) in self.layers.iter_mut().zip(&caches).enumerate().rev() {
            match (layer, cache) {
                (Layer::Conv { cfg, weights }, Cache::Conv { input }) => {
                    let algo = algorithm_for(Strategy::Unrolling);
                    let filters = rec.begin("conv.unroll_bwd_filters");
                    let grad_w = algo.backward_filters_ws(cfg, input, &grad, ws);
                    rec.end(filters);
                    let data = rec.begin("conv.unroll_bwd_data");
                    let grad_in = algo.backward_data_ws(cfg, &grad, weights, ws);
                    rec.end(data);
                    let grad_out = std::mem::replace(&mut grad, grad_in);
                    bwd[i] = Some(KeptBwd {
                        filters,
                        data,
                        grad_out,
                    });
                    rec.scope("models.sgd", |_| {
                        for (w, g) in weights.as_mut_slice().iter_mut().zip(grad_w.as_slice()) {
                            *w -= lr * g;
                        }
                    });
                }
                (Layer::Relu, Cache::Relu { input }) => {
                    grad = rec.scope("conv.relu_bwd", |_| ReluLayer.backward(input, &grad));
                }
                (Layer::Pool { window, stride }, Cache::Pool { input_shape, fwd }) => {
                    grad = rec.scope("conv.pool_bwd", |_| {
                        PoolLayer::new(PoolKind::Max, *window, *stride).backward(
                            *input_shape,
                            fwd,
                            &grad,
                        )
                    });
                }
                (Layer::Fc(fc), Cache::Fc { input }) => {
                    let data = rec.begin("conv.fc_bwd");
                    let grads = fc.backward(input, &grad);
                    rec.end(data);
                    rec.scope("models.sgd", |_| fc.sgd_step(&grads, lr));
                    let grad_out = std::mem::replace(&mut grad, grads.grad_input);
                    bwd[i] = Some(KeptBwd {
                        filters: SpanId::NONE,
                        data,
                        grad_out,
                    });
                }
                _ => unreachable!("layer/cache mismatch"),
            }
        }

        let kept = caches
            .into_iter()
            .zip(bwd)
            .enumerate()
            .filter_map(|(i, (cache, bwd))| match cache {
                Cache::Conv { input } | Cache::Fc { input } => Some(Kept {
                    layer: i,
                    fwd: fwd_spans[i],
                    input,
                    bwd,
                }),
                Cache::Relu { .. } | Cache::Pool { .. } => None,
            })
            .collect();
        (out.loss, kept)
    }

    /// Re-issue, as children of each kept layer span, the kernel calls
    /// the product made inside it.
    pub fn replay(&self, rec: &mut Recorder, kept: &[Kept], scratch: &mut ReplayScratch) {
        for k in kept {
            match &self.layers[k.layer] {
                Layer::Conv { cfg, weights } => replay_conv(rec, cfg, weights, k, scratch),
                Layer::Fc(fc) => replay_fc(rec, fc, k, scratch),
                Layer::Relu | Layer::Pool { .. } => unreachable!("only conv and fc are kept"),
            }
        }
    }

    /// Per-iteration work of an inference pass. `blocked` says which
    /// conv path runs; the FC layers are the same on both.
    pub fn infer_work(&self, blocked: bool) -> Work {
        let mut w = Work::default();
        for layer in &self.layers {
            match layer {
                Layer::Conv { cfg, .. } if blocked => w.nchwc_flops += cfg.forward_flops(),
                Layer::Conv { cfg, .. } => {
                    assert_eq!(unroll_replay_flops(cfg), cfg.forward_flops());
                    w.unroll_flops += cfg.forward_flops();
                    w.sgemm_flops += unroll_replay_flops(cfg);
                    w.im2col_bytes += im2col_bytes(cfg);
                }
                Layer::Fc(fc) => {
                    let batch = self.batch();
                    w.sgemm_flops += gemm_flops(batch, fc.out_features(), fc.in_features());
                    w.fc_bytes += fc_bytes(batch, fc.in_features(), fc.out_features());
                }
                Layer::Relu | Layer::Pool { .. } => {}
            }
        }
        w
    }

    /// Per-iteration work of a training step: every GEMM of the forward
    /// pass again in each of the two backward passes, and im2col in the
    /// forward and filter-gradient passes.
    pub fn train_work(&self) -> Work {
        let fwd = self.infer_work(false);
        Work {
            sgemm_flops: 3 * fwd.sgemm_flops,
            im2col_bytes: 2 * fwd.im2col_bytes,
            ..fwd
        }
    }

    fn batch(&self) -> usize {
        self.layers
            .iter()
            .find_map(|l| match l {
                Layer::Conv { cfg, .. } => Some(cfg.batch),
                _ => None,
            })
            .expect("a model has a conv layer")
    }
}

fn unpack(rec: &mut Recorder, x: Act) -> Tensor4 {
    match x {
        Act::Planar(t) => t,
        Act::Packed { buf, shape, block } => rec.scope("tensor.pack_nchwc", |_| {
            let mut t = Tensor4::zeros(shape);
            nchwc::unpack_nchwc_from(buf.as_slice(), shape, block, t.as_mut_slice());
            t
        }),
    }
}

/// The calls of `UnrollConv::forward` — one `im2col_into` and one
/// `sgemm` per image — and, for a training step, of
/// `backward_filters` (im2col + GEMM accumulating into ΔW) and
/// `backward_data` (GEMM + `col2im_from`).
fn replay_conv(
    rec: &mut Recorder,
    cfg: &ConvConfig,
    weights: &Tensor4,
    k: &Kept,
    scratch: &mut ReplayScratch,
) {
    let (f, o2, ckk) = unroll_gemm_shape(cfg);
    let geom = cfg.geometry();
    let (no, yes) = (Transpose::No, Transpose::Yes);
    let w = weights.as_slice();
    let image_len = cfg.channels * cfg.input * cfg.input;
    let cols = grown(&mut scratch.cols, ckk * o2);
    let out = grown(&mut scratch.out, (f * o2).max(f * ckk).max(image_len));
    for n in 0..cfg.batch {
        let image = k.input.image(n);
        rec.replay(k.fwd, "tensor.im2col", || im2col_into(image, &geom, cols));
        rec.replay(k.fwd, "gemm.sgemm", || {
            sgemm(
                no,
                no,
                f,
                o2,
                ckk,
                1.0,
                w,
                ckk,
                cols,
                o2,
                0.0,
                &mut out[..f * o2],
                o2,
            );
        });
    }
    let Some(bwd) = &k.bwd else { return };
    for n in 0..cfg.batch {
        let (image, g) = (k.input.image(n), bwd.grad_out.image(n));
        rec.replay(bwd.filters, "tensor.im2col", || {
            im2col_into(image, &geom, cols)
        });
        rec.replay(bwd.filters, "gemm.sgemm", || {
            sgemm(
                no,
                yes,
                f,
                ckk,
                o2,
                1.0,
                g,
                o2,
                cols,
                o2,
                1.0,
                &mut out[..f * ckk],
                ckk,
            );
        });
    }
    for n in 0..cfg.batch {
        let g = bwd.grad_out.image(n);
        rec.replay(bwd.data, "gemm.sgemm", || {
            sgemm(yes, no, ckk, o2, f, 1.0, w, ckk, g, o2, 0.0, cols, o2)
        });
        rec.replay(bwd.data, "tensor.col2im", || {
            col2im_from(cols, &geom, &mut out[..image_len])
        });
    }
}

/// The GEMM of `FcLayer::forward` and the two of `FcLayer::backward`.
fn replay_fc(rec: &mut Recorder, fc: &FcLayer, k: &Kept, scratch: &mut ReplayScratch) {
    let (inf, outf) = (fc.in_features(), fc.out_features());
    let b = k.input.shape().n;
    let (w, x) = (fc.weights.as_slice(), k.input.as_slice());
    let (no, yes) = (Transpose::No, Transpose::Yes);
    let out = grown(&mut scratch.out, (b * outf).max(b * inf));
    rec.replay(k.fwd, "gemm.sgemm", || {
        sgemm(
            no,
            yes,
            b,
            outf,
            inf,
            1.0,
            x,
            inf,
            w,
            inf,
            0.0,
            &mut out[..b * outf],
            outf,
        );
    });
    let Some(bwd) = &k.bwd else { return };
    let g = bwd.grad_out.as_slice();
    rec.replay(bwd.data, "gemm.sgemm", || {
        sgemm(
            no,
            no,
            b,
            inf,
            outf,
            1.0,
            g,
            outf,
            w,
            inf,
            0.0,
            &mut out[..b * inf],
            inf,
        );
    });
    let dw = grown(&mut scratch.cols, outf * inf);
    rec.replay(bwd.data, "gemm.sgemm", || {
        sgemm(yes, no, outf, inf, b, 1.0, g, outf, x, inf, 0.0, dw, inf)
    });
}
