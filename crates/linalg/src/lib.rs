//! Dense linear algebra and numeric kernels used throughout the Slice Tuner
//! reproduction.
//!
//! The crate is deliberately small and dependency-free: the models, curve
//! fitter, and optimizer only need dense matrix products, triangular /
//! Gaussian solves for tiny systems (Levenberg–Marquardt normal equations are
//! 2×2 or 3×3), numerically-stable softmax / log-sum-exp, and a handful of
//! descriptive statistics.
//!
//! Everything operates on `f64`. Matrices are row-major [`Matrix`] values;
//! vectors are plain `&[f64]` slices so callers can use `Vec<f64>` or matrix
//! rows interchangeably.
//!
//! Dense products dispatch through the compute-kernel layer in
//! [`kernel`](mod@kernel): one production kernel ([`kernel()`]) picks the
//! 4- or 8-wide packed core for each product from its output width, and
//! both cores are bit-identical to [`NaiveKernel`] by construction — see
//! `docs/kernels.md`.

pub mod fault;
pub mod kernel;
pub mod matrix;
pub mod qr;
pub mod resample;
pub mod running;
pub mod solve;
pub mod special;
pub mod stats;
pub mod vector;

pub use fault::{fault_grammar, FaultPlan};
pub use kernel::{
    kernel, kernel_kind, BlockedKernel, GemmBackend, KernelKind, NaiveKernel, PackedA, PackedB,
    SimdKernel,
};
pub use matrix::Matrix;
pub use qr::{least_squares, QrFactorization};
pub use resample::{bootstrap_ci, pearson, spearman, ConfidenceInterval, SplitMix64};
pub use running::RunningStats;
pub use solve::{cholesky_solve, gaussian_solve, SolveError};
pub use special::{log_sum_exp, sigmoid, softmax_in_place, softmax_prob, EPS_PROB};
pub use stats::{mean, quantile, std_dev, variance, weighted_mean};
pub use vector::{argmax, axpy, dot, l2_norm, linf_norm, scale_in_place, sub};
