//! From-scratch trainable classifiers for the Slice Tuner reproduction.
//!
//! The paper trains small Keras CNNs (2–3 hidden layers) on images and a
//! single fully-connected layer on tabular data, always reading back one
//! signal: the *log loss of a shared model evaluated per slice*. This crate
//! provides that substrate natively:
//!
//! - [`Mlp`] — a multi-layer perceptron with ReLU hidden layers and a
//!   softmax output, covering everything from plain softmax regression
//!   (no hidden layers, the AdultCensus model) to the deliberately
//!   overparameterized "deep" variant used for the ResNet-18 experiment of
//!   Appendix B.
//! - [`ConvNet`] — a real convolutional classifier (3×3 kernels, max pool)
//!   used to validate that the MLP substitution preserves the method
//!   ranking on the synthetic image families.
//! - [`train`] / [`train_on_rows`] — minibatch training with one fixed
//!   update rule (heavy-ball momentum under an exponentially decaying
//!   learning rate) and seeded shuffling/initialization, so every training
//!   run is replayable.
//! - [`loss`] — log-loss and accuracy evaluation, including the per-slice
//!   validation losses `ψ(s_i, M)` that all of Slice Tuner consumes; the
//!   [`Classifier`] trait generalizes them over architectures.

pub mod batch;
pub mod classifier;
pub mod conv;
pub mod loss;
pub mod network;
mod optimizer;
pub mod spec;
pub mod trainer;

pub use batch::{examples_to_matrix, labels_of};
pub use classifier::{accuracy_of, log_loss_of, Classifier};
pub use conv::{ConvEvalScratch, ConvNet, ConvTrainConfig, ImageShape, PackedConvNet};
pub use loss::{
    accuracy, log_loss, log_loss_packed, log_loss_packed_on, log_loss_packed_scratch,
    overall_validation_loss, per_slice_validation_losses, EvalScratch, MultiEval, MultiEvalScratch,
};
pub use network::{Layer, Mlp, PackedMlp};
pub use spec::ModelSpec;
pub use trainer::{
    train, train_on_examples, train_on_rows, try_train_on_rows, TrainConfig, TrainError,
};
