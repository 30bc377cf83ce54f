//! The non-convolutional CNN layers.
//!
//! The paper's Fig. 2 breaks real CNN models into convolutional,
//! pooling, ReLU, fully-connected and concat layers; this module
//! provides the ones `gcnn-models` executes (forward + backward) —
//! every layer of the sequential AlexNet/VGG/OverFeat/LeNet-5. Concat
//! arrives with the executor arm that runs GoogLeNet's Inception
//! branches.

pub mod fc;
pub mod pooling;
pub mod relu;
pub mod softmax;

pub use fc::FcLayer;
pub use pooling::{PoolForward, PoolKind, PoolLayer};
pub use relu::ReluLayer;
pub use softmax::{softmax_cross_entropy, SoftmaxOutput};
