//! # Slice Tuner
//!
//! A Rust reproduction of *Slice Tuner: A Selective Data Acquisition
//! Framework for Accurate and Fair Machine Learning Models* (Ki Hyun Tae
//! and Steven Euijong Whang, SIGMOD 2021).
//!
//! Slice Tuner decides **how much new data to acquire for each slice** of a
//! dataset so that, after retraining, the model's loss *and* unfairness
//! (equalized error rates, Definition 1) are both minimized under an
//! acquisition budget. It estimates per-slice power-law learning curves,
//! solves a convex allocation problem, and iterates as acquired data shifts
//! the curves (Algorithm 1).
//!
//! ```
//! use slice_tuner::{PoolSource, SliceTuner, Strategy, TSchedule, TunerConfig};
//! use st_data::{families, SlicedDataset};
//! use st_models::ModelSpec;
//!
//! // Four demographic slices, 60 starting examples each.
//! let family = families::census();
//! let dataset = SlicedDataset::generate(&family, &[60; 4], 100, 7);
//! let mut pool = PoolSource::new(family, 7);
//!
//! let mut config = TunerConfig::new(ModelSpec::softmax());
//! config.train.epochs = 8; // keep the doctest quick
//! config.repeats = 1;
//! let mut tuner = SliceTuner::new(dataset, &mut pool, config);
//!
//! // Spend a budget of 200 with the Moderate iterative strategy.
//! let result = tuner.run(Strategy::Iterative(TSchedule::moderate()), 200.0);
//! assert_eq!(result.acquired.len(), 4);
//! assert!(result.spent <= 200.0);
//! ```
//!
//! ## Crate map
//!
//! - [`tuner`] — the engine: curve estimation + optimization + acquisition.
//! - [`strategy`] — Uniform / Water filling baselines, One-shot, and the
//!   iterative `T` schedules.
//! - [`metrics`] — loss and equalized-error-rates unfairness measures.
//! - [`acquire`] — acquisition sources: generative pools and the
//!   crowdsourcing (Amazon Mechanical Turk) simulator.
//! - [`influence`] — the slice-influence sweep behind Figure 7.
//! - [`runner`] — multi-trial experiment harness with the Table 6 settings.
//! - [`trials`] — the parallel trial executor (`--jobs N`), bit-identical
//!   to the sequential runner at any worker count.
//! - [`cache`] — shared memoization of repeated curve estimations, keyed
//!   on dataset content + seed so hits equal recomputation exactly.

pub mod acquire;
pub mod cache;
pub mod checkpoint;
pub mod config;
pub mod drift;
pub mod error;
pub mod incremental;
pub mod influence;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod similarity;
pub mod strategy;
pub mod trials;
pub mod tuner;

pub use acquire::{
    AcquisitionSource, CrowdConfig, CrowdSimulator, CrowdStats, EscalatingSource, EscalationConfig,
    FaultConfig, FaultySource, PoolSource,
};
pub use cache::{CurveCache, CurveKey};
pub use checkpoint::{clean_orphan_temp, clean_orphan_temps, CheckpointError, RoundCheckpoint};
pub use config::{strategy_from_name, strategy_to_name, ExperimentSpec, SpecError};
pub use drift::{DriftDetector, DriftFlag};
pub use error::Error;
pub use incremental::IncrementalState;
pub use influence::{influence_sweep, InfluencePoint, InfluenceSweep};
pub use metrics::{avg_eer, max_eer, EvalReport};
pub use report::{acquisition_markdown, methods_csv, methods_markdown, series_markdown};
pub use runner::{run_trials, AggregateResult, Setting, Summary};
pub use similarity::{similarity_matrix, SimilarityMatrix};
pub use strategy::{
    proportional_allocation, uniform_allocation, water_filling_allocation, BanditParams, Strategy,
    TSchedule,
};
pub use trials::{
    ensure_deterministic_kernel, plan_thread_budget, run_trials_parallel, try_run_trials_parallel,
    ThreadBudget, TrialError,
};
pub use tuner::{IterativeRun, RoundPlan, RunResult, SliceTuner, TunerConfig, TuningWarning};

// Re-exported so downstream callers (the CLI's `--mode` flag, integration
// tests) can pick an estimation schedule without a direct st_curve edge.
pub use st_curve::EstimationMode;
