//! The model zoo: the four Fig. 2 architectures plus LeNet-5.

use crate::layer::{LayerSpec, ModelSpec, NamedLayer};

fn conv(name: &str, out: usize, kernel: usize, stride: usize, pad: usize) -> NamedLayer {
    NamedLayer::new(
        name,
        LayerSpec::Conv {
            out,
            kernel,
            stride,
            pad,
        },
    )
}

fn relu(name: &str) -> NamedLayer {
    NamedLayer::new(name, LayerSpec::Relu)
}

fn maxpool(name: &str, window: usize, stride: usize, pad: usize) -> NamedLayer {
    NamedLayer::new(
        name,
        LayerSpec::MaxPool {
            window,
            stride,
            pad,
        },
    )
}

fn avgpool(name: &str, window: usize, stride: usize) -> NamedLayer {
    NamedLayer::new(
        name,
        LayerSpec::AvgPool {
            window,
            stride,
            pad: 0,
        },
    )
}

fn fc(name: &str, out: usize) -> NamedLayer {
    NamedLayer::new(name, LayerSpec::Fc { out })
}

/// LeNet-5 (paper Fig. 1): two conv+pool stages and two FC stages over
/// 32×32 grayscale digits. ReLU replaces the original tanh, as modern
/// reimplementations do.
pub fn lenet5() -> ModelSpec {
    lenet5_sized(32, 10)
}

/// [`lenet5`] over `size`² inputs with `classes` outputs — the spec
/// `Network::lenet5` executes.
pub fn lenet5_sized(size: usize, classes: usize) -> ModelSpec {
    ModelSpec {
        name: "LeNet-5".into(),
        input_channels: 1,
        input_size: size,
        layers: vec![
            conv("conv1", 6, 5, 1, 0),
            relu("relu1"),
            maxpool("pool1", 2, 2, 0),
            conv("conv2", 16, 5, 1, 0),
            relu("relu2"),
            maxpool("pool2", 2, 2, 0),
            fc("fc1", 120),
            relu("relu3"),
            fc("fc2", 84),
            relu("relu4"),
            fc("fc3", classes),
            NamedLayer::new("prob", LayerSpec::Softmax),
        ],
    }
}

/// AlexNet (Krizhevsky et al. 2012), single-tower variant: 5 conv + 3 FC
/// layers — the paper's "8 layers […] more than 60 million parameters".
pub fn alexnet() -> ModelSpec {
    ModelSpec {
        name: "AlexNet".into(),
        input_channels: 3,
        input_size: 227,
        layers: vec![
            conv("conv1", 96, 11, 4, 0),
            relu("relu1"),
            maxpool("pool1", 3, 2, 0),
            conv("conv2", 256, 5, 1, 2),
            relu("relu2"),
            maxpool("pool2", 3, 2, 0),
            conv("conv3", 384, 3, 1, 1),
            relu("relu3"),
            conv("conv4", 384, 3, 1, 1),
            relu("relu4"),
            conv("conv5", 256, 3, 1, 1),
            relu("relu5"),
            maxpool("pool5", 3, 2, 0),
            fc("fc6", 4096),
            relu("relu6"),
            fc("fc7", 4096),
            relu("relu7"),
            fc("fc8", 1000),
            NamedLayer::new("prob", LayerSpec::Softmax),
        ],
    }
}

/// VGG-19 (Simonyan & Zisserman): the paper's "19 layers (16
/// convolutional layers and 3 fully-connected layers), over 144 million
/// parameters".
pub fn vgg16() -> ModelSpec {
    let mut layers = Vec::new();
    let blocks: [(usize, usize, &str); 5] = [
        (64, 2, "1"),
        (128, 2, "2"),
        (256, 4, "3"),
        (512, 4, "4"),
        (512, 4, "5"),
    ];
    for (width, repeat, tag) in blocks {
        for r in 1..=repeat {
            layers.push(conv(&format!("conv{tag}_{r}"), width, 3, 1, 1));
            layers.push(relu(&format!("relu{tag}_{r}")));
        }
        layers.push(maxpool(&format!("pool{tag}"), 2, 2, 0));
    }
    layers.push(fc("fc6", 4096));
    layers.push(relu("relu6"));
    layers.push(fc("fc7", 4096));
    layers.push(relu("relu7"));
    layers.push(fc("fc8", 1000));
    layers.push(NamedLayer::new("prob", LayerSpec::Softmax));
    ModelSpec {
        name: "VGG".into(),
        input_channels: 3,
        input_size: 224,
        layers,
    }
}

/// OverFeat (fast model, Sermanet et al.): 5 conv + 3 FC over 231×231
/// inputs.
pub fn overfeat() -> ModelSpec {
    ModelSpec {
        name: "OverFeat".into(),
        input_channels: 3,
        input_size: 231,
        layers: vec![
            conv("conv1", 96, 11, 4, 0),
            relu("relu1"),
            maxpool("pool1", 2, 2, 0),
            conv("conv2", 256, 5, 1, 0),
            relu("relu2"),
            maxpool("pool2", 2, 2, 0),
            conv("conv3", 512, 3, 1, 1),
            relu("relu3"),
            conv("conv4", 1024, 3, 1, 1),
            relu("relu4"),
            conv("conv5", 1024, 3, 1, 1),
            relu("relu5"),
            maxpool("pool5", 2, 2, 0),
            fc("fc6", 3072),
            relu("relu6"),
            fc("fc7", 4096),
            relu("relu7"),
            fc("fc8", 1000),
            NamedLayer::new("prob", LayerSpec::Softmax),
        ],
    }
}

/// One Inception module with the GoogLeNet channel table
/// `(1×1, 3×3 reduce, 3×3, 5×5 reduce, 5×5, pool-proj)`.
fn inception(
    name: &str,
    c1: usize,
    c3r: usize,
    c3: usize,
    c5r: usize,
    c5: usize,
    cp: usize,
) -> NamedLayer {
    NamedLayer::new(
        name,
        LayerSpec::Inception {
            branches: vec![
                vec![conv("1x1", c1, 1, 1, 0), relu("relu_1x1")],
                vec![
                    conv("3x3_reduce", c3r, 1, 1, 0),
                    relu("relu_3x3_reduce"),
                    conv("3x3", c3, 3, 1, 1),
                    relu("relu_3x3"),
                ],
                vec![
                    conv("5x5_reduce", c5r, 1, 1, 0),
                    relu("relu_5x5_reduce"),
                    conv("5x5", c5, 5, 1, 2),
                    relu("relu_5x5"),
                ],
                vec![
                    maxpool("pool", 3, 1, 1),
                    conv("pool_proj", cp, 1, 1, 0),
                    relu("relu_pp"),
                ],
            ],
        },
    )
}

/// GoogLeNet (Szegedy et al.): the paper's "22 layers with about 6.8
/// million parameters" — stem, nine Inception modules, average-pool
/// head. Auxiliary classifiers are omitted (inference-time topology).
pub fn googlenet() -> ModelSpec {
    ModelSpec {
        name: "GoogLeNet".into(),
        input_channels: 3,
        input_size: 224,
        layers: vec![
            conv("conv1", 64, 7, 2, 3),
            relu("relu1"),
            maxpool("pool1", 3, 2, 0),
            conv("conv2_reduce", 64, 1, 1, 0),
            relu("relu2r"),
            conv("conv2", 192, 3, 1, 1),
            relu("relu2"),
            maxpool("pool2", 3, 2, 0),
            inception("inception_3a", 64, 96, 128, 16, 32, 32),
            inception("inception_3b", 128, 128, 192, 32, 96, 64),
            maxpool("pool3", 3, 2, 0),
            inception("inception_4a", 192, 96, 208, 16, 48, 64),
            inception("inception_4b", 160, 112, 224, 24, 64, 64),
            inception("inception_4c", 128, 128, 256, 24, 64, 64),
            inception("inception_4d", 112, 144, 288, 32, 64, 64),
            inception("inception_4e", 256, 160, 320, 32, 128, 128),
            maxpool("pool4", 3, 2, 0),
            inception("inception_5a", 256, 160, 320, 32, 128, 128),
            inception("inception_5b", 384, 192, 384, 48, 128, 128),
            avgpool("pool5", 7, 1),
            fc("fc", 1000),
            NamedLayer::new("prob", LayerSpec::Softmax),
        ],
    }
}

/// The four Fig. 2 models, in the paper's plotting order.
pub fn all_models() -> Vec<ModelSpec> {
    vec![googlenet(), vgg16(), overfeat(), alexnet()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{walk, InstanceKind};

    fn count(model: &ModelSpec, kind: InstanceKind) -> usize {
        walk(model, 2).iter().filter(|i| i.kind == kind).count()
    }

    #[test]
    fn alexnet_has_5_conv_3_fc() {
        // The paper: "AlexNet […] has 8 layers (5 convolutional layers
        // and 3 fully-connected layers)".
        let m = alexnet();
        assert_eq!(count(&m, InstanceKind::Conv), 5);
        assert_eq!(count(&m, InstanceKind::Fc), 3);
    }

    #[test]
    fn alexnet_shapes() {
        let inst = walk(&alexnet(), 1);
        let conv1 = inst[0].conv.unwrap();
        assert_eq!(conv1.output(), 55); // (227−11)/4+1
                                        // fc6 consumes 256·6·6 = 9216 features.
        let fc6 = inst.iter().find(|i| i.name == "fc6").unwrap();
        assert_eq!(fc6.fc, Some((9216, 4096)));
    }

    #[test]
    fn vgg_has_16_conv_3_fc() {
        // The paper: "VGGNet has 19 layers (16 convolutional layers and
        // 3 fully-connected layers)".
        let m = vgg16();
        assert_eq!(count(&m, InstanceKind::Conv), 16);
        assert_eq!(count(&m, InstanceKind::Fc), 3);
        // fc6 sees 512·7·7.
        let inst = walk(&m, 1);
        let fc6 = inst.iter().find(|i| i.name == "fc6").unwrap();
        assert_eq!(fc6.fc, Some((512 * 7 * 7, 4096)));
    }

    #[test]
    fn googlenet_has_9_inceptions_57_convs() {
        let m = googlenet();
        // 3 stem convs + 9 modules × 6 convs = 57.
        assert_eq!(count(&m, InstanceKind::Conv), 57);
        assert_eq!(count(&m, InstanceKind::Concat), 9);
        // Final features before FC: 1024 channels at 1×1.
        let inst = walk(&m, 1);
        let fc_layer = inst.iter().find(|i| i.name == "fc").unwrap();
        assert_eq!(fc_layer.fc, Some((1024, 1000)));
    }

    #[test]
    fn googlenet_channel_flow() {
        let inst = walk(&googlenet(), 1);
        // inception_3a output: 64+128+32+32 = 256 channels at 28².
        let concat = inst
            .iter()
            .find(|i| i.name == "inception_3a/concat")
            .unwrap();
        assert_eq!(concat.out_elems, 256 * 28 * 28);
    }

    #[test]
    fn overfeat_shapes() {
        let inst = walk(&overfeat(), 1);
        let conv1 = inst[0].conv.unwrap();
        assert_eq!(conv1.output(), 56); // (231−11)/4+1
        let fc6 = inst.iter().find(|i| i.name == "fc6").unwrap();
        assert_eq!(fc6.fc, Some((1024 * 6 * 6, 3072)));
    }

    #[test]
    fn lenet_shapes() {
        let inst = walk(&lenet5(), 1);
        let fc1 = inst.iter().find(|i| i.name == "fc1").unwrap();
        assert_eq!(fc1.fc, Some((16 * 5 * 5, 120)));
    }

    #[test]
    fn all_models_walk_cleanly_at_batch_128() {
        for m in all_models() {
            let inst = walk(&m, 128);
            assert!(!inst.is_empty(), "{}", m.name);
        }
    }
}
