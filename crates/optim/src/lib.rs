//! The selective data acquisition optimizer (paper Section 5.1).
//!
//! Solves the convex program
//!
//! ```text
//! min  Σ b_i (|s_i| + d_i)^(-a_i)
//!    + λ Σ max(0, b_i (|s_i| + d_i)^(-a_i) / A − 1)
//! s.t. Σ C(s_i) · d_i = B,   d_i ≥ 0
//! ```
//!
//! where the `(b_i, a_i)` come from fitted learning curves, `A` is the
//! current average loss, `C` the per-slice acquisition costs and `B` the
//! budget. [`solve`] finds the exact optimum and the budget multiplier
//! `θ`: with `A` fixed the program is separable, each slice's optimum for a
//! given `θ` has a closed form, and bisection on `θ` meets the budget.
//!
//! [`change_ratio()`] implements Algorithm 1's `GetChangeRatio`: the largest
//! fraction of a proposed acquisition that keeps the imbalance-ratio change
//! within the iteration limit `T`. [`budget_sensitivity`] reads the
//! optimum's derivative with respect to the budget off `θ` (marginal value
//! of crowdsourcing money). [`solve_overlap`] generalizes the program to
//! overlapping slices (the paper's stated future work) via per-atom
//! acquisition.

pub mod change_ratio;
pub mod overlap;
pub mod problem;
pub mod projection;
pub mod rounding;
pub mod sensitivity;
pub mod solver;

pub use change_ratio::change_ratio;
pub use overlap::{solve_overlap, OverlapProblem};
pub use problem::AcquisitionProblem;
pub use projection::project_weighted_simplex;
pub use rounding::round_to_budget;
pub use sensitivity::{budget_curve, budget_sensitivity, SensitivityReport};
pub use solver::solve;
