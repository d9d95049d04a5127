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
//! narrow core (under four output columns), the 4-wide packed core or the
//! 8-wide one for each product from its output width, and every core is
//! bit-identical to [`NaiveKernel`] by construction — see
//! `docs/kernels.md`.
//!
//! The elementwise passes of a training step (the softmax cross-entropy
//! gradient, column sums) and the cores' portable walks are compiled once
//! per vector width and run at the widest the CPU offers
//! ([`SimdWidth::run`]), with the same bits at every width.

pub mod fault;
pub mod kernel;
pub mod matrix;
pub mod qr;
pub mod resample;
pub mod running;
pub mod simd;
pub mod solve;
pub mod special;
pub mod stats;
pub mod vector;

pub use fault::{fault_grammar, FaultPlan};
pub use kernel::{
    kernel, kernel_kind, BlockedKernel, GemmBackend, KernelKind, NaiveKernel, PackedB, SimdKernel,
};
pub use matrix::Matrix;
pub use qr::{least_squares, QrFactorization};
pub use resample::{bootstrap_ci, pearson, spearman, ConfidenceInterval, SplitMix64};
pub use running::RunningStats;
pub use simd::SimdWidth;
pub use solve::{cholesky_solve, gaussian_solve, SolveError};
pub use special::{
    log_sum_exp, sigmoid, softmax_in_place, softmax_prob, softmax_xent_grad, EPS_PROB,
};
pub use stats::{mean, quantile, std_dev, variance, weighted_mean};
pub use vector::{argmax, axpy, dot, l2_norm, linf_norm, scale_in_place, sub};
