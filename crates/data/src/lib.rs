//! Synthetic sliced-dataset substrate for the Slice Tuner reproduction.
//!
//! The paper (Tae & Whang, SIGMOD 2021) evaluates on Fashion-MNIST,
//! Mixed-MNIST, UTKFace, and AdultCensus, acquiring new examples by
//! subsetting or by Amazon Mechanical Turk crowdsourcing. None of those
//! datasets (or MTurk) is available offline, so this crate provides seeded
//! *generator families* that preserve the properties the experiments
//! actually exercise:
//!
//! 1. the data partitions into named **slices** with per-slice acquisition
//!    costs (Section 2.1),
//! 2. slices differ in **difficulty**, so their learning curves have
//!    different power-law coefficients (Figure 8),
//! 3. slices can be content-similar or content-opposed, so acquiring data
//!    for one slice **influences** the shared model's loss on the others
//!    (Figure 7 / Section 5.2), and
//! 4. each slice is backed by an **unbounded pool**, so any acquisition
//!    budget can be satisfied.
//!
//! Each family is a [`DatasetFamily`]: a feature dimensionality, a class
//! count, and a list of [`SliceSpec`]s whose underlying Gaussian-mixture
//! models generate i.i.d. examples on demand. [`SlicedDataset`] materializes
//! train/validation splits with chosen per-slice sizes.

pub mod augment;
pub mod dataset;
pub mod drift;
pub mod example;
pub mod families;
pub mod generator;
pub mod image;
pub mod io;
pub mod rng;
pub mod sizes;
pub mod slicing;
pub mod splits;

pub use augment::AugmentConfig;
pub use dataset::{AbsorbError, DatasetMatrices, SliceData, SlicedDataset, SubsetRows};
pub use drift::{DriftEvent, DriftKind, DriftPlan};
pub use example::{Example, SliceId};
pub use generator::{DatasetFamily, GaussianSliceModel, LabelCluster, SliceSpec};
pub use image::{image_fashion, ImageFamily, ImageSliceSpec, Pattern};
pub use io::{
    load_examples, load_examples_bounded, read_examples, read_examples_bounded,
    read_examples_covering, save_examples, write_examples, CsvError,
};
pub use rng::{normal, seeded_rng, split_seed};
pub use sizes::{decaying_sizes, equal_sizes};
pub use slicing::{auto_slice, SlicingConfig, SlicingResult, SplitNode};
pub use splits::{k_fold, stratified_split, Fold};
