//! Power-law learning-curve estimation (paper Section 4).
//!
//! A learning curve projects how a model trained on the entire dataset will
//! perform on a particular slice as a function of that slice's size. The
//! paper models curves as `loss = b · n^(-a)` (the power-law region of
//! Hestness et al.) and fits them by weighted non-linear least squares over
//! losses measured on random subsets, averaging several fits for
//! reliability.
//!
//! This crate provides:
//! - [`PowerLaw`] / [`PowerLawWithFloor`] — the parametric curve models;
//! - [`fit_power_law`] — weighted NLLS via a log-space linear initialization
//!   refined by Levenberg–Marquardt; [`IncrementalFit`] is its updatable
//!   counterpart, absorbing new measurements one at a time into a running
//!   log-log accumulator that seeds the same refinement;
//! - [`CurveEstimator`] — the subset-sampling measurement loop with both the
//!   exhaustive (Section 4.1) and the amortized (Section 4.2) schedules;
//! - [`zoo`] — the Domhan et al. parametric model menu with AIC/BIC
//!   selection, re-verifying the paper's "power law fits as well as any
//!   other curve" claim;
//! - [`bands`] — bootstrap confidence bands quantifying curve unreliability
//!   (the Section 6.3.4 regime).

pub mod bands;
pub mod estimator;
pub mod fit;
pub mod model;
pub mod points;
pub mod zoo;

pub use bands::{bootstrap_curve, CurveBands};
pub use estimator::{
    BatchedTrainPlan, CurveEstimator, EstimateError, EstimationMode, MeasureRequest, SliceEstimate,
    SliceLossMeasurement, TrainEvalBatchFn,
};
pub use fit::{
    fit_power_law, fit_power_law_seeded, fit_power_law_with_floor, log_space_seed, FitError,
    IncrementalFit, LogLogAccumulator, ResidualCusum,
};
pub use model::{PowerLaw, PowerLawWithFloor};
pub use points::CurvePoint;
pub use zoo::{fit_best, fit_family, fit_zoo, CurveFamily, FittedCurve};
