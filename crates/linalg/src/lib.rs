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
//! Dense products dispatch through the pluggable compute-kernel layer in
//! [`kernel`]: `ST_KERNEL=naive|blocked` (or [`set_kernel`]) selects the
//! backend, and all backends are bit-identical by construction — see
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
    kernel, kernel_kind, kernel_names, kernel_threads, set_kernel, set_kernel_threads,
    simd_force_names, BlockedKernel, FastKernel, GemmBackend, KernelKind, NaiveKernel, PackedA,
    PackedB, ShardedKernel, SimdKernel, MAX_PANEL_WIDTH,
};
pub use matrix::{
    matmul_batched_nt_into, matmul_batched_prepacked_bias_into,
    matmul_batched_prepacked_bias_relu_into, matmul_batched_tn_into, Matrix,
};
pub use qr::{least_squares, QrFactorization};
pub use resample::{bootstrap_ci, pearson, spearman, ConfidenceInterval, SplitMix64};
pub use running::RunningStats;
pub use solve::{cholesky_solve, gaussian_solve, SolveError};
pub use special::{log_sum_exp, sigmoid, softmax_in_place, softmax_prob, EPS_PROB};
pub use stats::{mean, quantile, std_dev, variance, weighted_mean};
pub use vector::{argmax, axpy, dot, l2_norm, linf_norm, scale_in_place, sub};
