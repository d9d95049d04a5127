//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the Slice Tuner paper (one binary each under `src/bin/`,
//! such as `table6` and `fig7`).
//!
//! Each binary prints the same rows/series the paper reports. Runtime knobs
//! come from the environment so the full suite can be scaled:
//!
//! - `ST_TRIALS` — trials per cell (paper: 10; default here: 3)
//! - `ST_QUICK=1` — shrink budgets and trainings for smoke runs
//! - `ST_JOBS` — worker threads for the parallel trial executor
//!   (default 0 = all cores)
//!
//! Every binary routes its repeated-trial cells through [`run_cell`], which
//! fans trials out over `ST_JOBS` workers and shares one process-wide
//! curve-estimation cache — sweeps that re-estimate identical `(dataset,
//! seed)` curves (λ sweeps, schedule comparisons) reuse the fits instead of
//! retraining, without changing a single output bit.

use slice_tuner::{AggregateResult, CurveCache, Strategy, TunerConfig};
use st_data::{families, DatasetFamily};
use st_models::ModelSpec;
use std::sync::{Arc, OnceLock};

/// One benchmark dataset wired up like the paper's Section 6.1 settings.
pub struct FamilySetup {
    /// The dataset family (synthetic analog).
    pub family: DatasetFamily,
    /// Shared-model architecture.
    pub spec: ModelSpec,
    /// Display name used in table rows.
    pub label: &'static str,
    /// Per-slice validation size (paper: 500).
    pub validation: usize,
    /// Initial per-slice training size (Table 3's "Original" row).
    pub initial: usize,
    /// Acquisition budget `B`.
    pub budget: f64,
}

impl FamilySetup {
    /// Fashion-MNIST analog: 10 slices, init 200, B = 6K.
    pub fn fashion() -> Self {
        FamilySetup {
            family: families::fashion(),
            spec: ModelSpec::basic(),
            label: "Fashion-MNIST",
            validation: 300,
            initial: 200,
            budget: 6000.0,
        }
    }

    /// Mixed-MNIST analog (10 of 20 slices), init 150, B = 6K.
    pub fn mixed() -> Self {
        FamilySetup {
            family: families::mixed_selected(),
            spec: ModelSpec::basic(),
            label: "Mixed-MNIST",
            validation: 300,
            initial: 150,
            budget: 6000.0,
        }
    }

    /// UTKFace analog: 8 slices, Table 1 costs, init 400, B = 3K.
    pub fn faces() -> Self {
        FamilySetup {
            family: families::faces(),
            spec: ModelSpec::basic(),
            label: "UTKFace",
            validation: 300,
            initial: 400,
            budget: 3000.0,
        }
    }

    /// AdultCensus analog: 4 slices, init 150, B = 500.
    pub fn census() -> Self {
        FamilySetup {
            family: families::census(),
            spec: ModelSpec::softmax(),
            label: "AdultCensus",
            validation: 500,
            initial: 150,
            budget: 500.0,
        }
    }

    /// All four, in the paper's table order.
    pub fn all() -> Vec<FamilySetup> {
        vec![
            Self::fashion(),
            Self::mixed(),
            Self::faces(),
            Self::census(),
        ]
    }

    /// The tuner configuration used for this dataset's experiments.
    pub fn config(&self, seed: u64) -> TunerConfig {
        let mut cfg = TunerConfig::new(self.spec.clone()).with_seed(seed);
        if quick() {
            cfg.train.epochs = 8;
            cfg.fractions = vec![0.4, 0.7, 1.0];
            cfg.repeats = 1;
        } else {
            cfg.train.epochs = 20;
            cfg.fractions = vec![0.2, 0.4, 0.6, 0.8, 1.0];
            cfg.repeats = 2;
        }
        cfg.max_iterations = 12;
        cfg
    }

    /// Budget, scaled down in quick mode.
    pub fn scaled_budget(&self) -> f64 {
        if quick() {
            (self.budget / 4.0).max(100.0)
        } else {
            self.budget
        }
    }

    /// Equal initial sizes for every slice.
    pub fn equal_sizes(&self) -> Vec<usize> {
        vec![self.initial; self.family.num_slices()]
    }
}

/// Trials per experiment cell (`ST_TRIALS`, default 3; paper uses 10).
pub fn trials() -> usize {
    std::env::var("ST_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

/// Worker threads for the parallel trial executor (`ST_JOBS`, default 0 =
/// all available cores).
pub fn jobs() -> usize {
    std::env::var("ST_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The process-wide curve-estimation cache shared by every [`run_cell`].
///
/// Keys include the dataset content fingerprint and the derived estimator
/// seed, so sharing across unrelated cells is always sound: a hit is
/// bit-identical to recomputation. Reported training counts reflect
/// trainings actually performed — a cached estimation costs zero.
pub fn shared_cache() -> Arc<CurveCache> {
    static CACHE: OnceLock<Arc<CurveCache>> = OnceLock::new();
    Arc::clone(CACHE.get_or_init(CurveCache::shared))
}

/// Runs one repeated-trial experiment cell through the parallel executor
/// ([`slice_tuner::run_trials_parallel`]) with the bench-wide [`jobs`]
/// setting and the [`shared_cache`]. Drop-in replacement for the
/// sequential `slice_tuner::run_trials` with identical aggregates.
pub fn run_cell(
    family: &DatasetFamily,
    initial_sizes: &[usize],
    validation_size: usize,
    budget: f64,
    strategy: Strategy,
    config: &TunerConfig,
    trials: usize,
) -> AggregateResult {
    let config = match &config.cache {
        Some(_) => config.clone(),
        None => config.clone().with_cache(shared_cache()),
    };
    slice_tuner::run_trials_parallel(
        family,
        initial_sizes,
        validation_size,
        budget,
        strategy,
        &config,
        trials,
        jobs(),
    )
}

/// Quick smoke mode (`ST_QUICK=1`).
pub fn quick() -> bool {
    std::env::var("ST_QUICK").map(|v| v == "1").unwrap_or(false)
}

/// Deterministic dense test data for the kernel-layer microbenches
/// (SplitMix64 stream in `[-1, 1)`).
pub fn bench_fill(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = st_linalg::SplitMix64::new(seed);
    (0..len).map(|_| rng.next_f64() * 2.0 - 1.0).collect()
}

/// Asserts two buffers are `to_bits`-identical (the kernel layer's
/// bit-determinism contract), panicking with the offending index.
pub fn assert_bits_identical(op: &str, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "{op}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{op}: outputs differ at {i}: {x} vs {y}"
        );
    }
}

/// Times `body` over `reps` runs and returns the best wall-clock seconds
/// (best-of is robust to scheduler noise on shared runners).
pub fn best_secs(reps: usize, mut body: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = std::time::Instant::now();
        body();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Prints a horizontal rule sized to the table width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats an integer slice as the paper's per-slice acquisition rows.
pub fn fmt_counts(counts: &[f64]) -> String {
    counts
        .iter()
        .map(|c| format!("{:>5}", c.round() as i64))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setups_cover_all_four_datasets() {
        let all = FamilySetup::all();
        assert_eq!(all.len(), 4);
        assert_eq!(all[0].family.num_slices(), 10);
        assert_eq!(all[1].family.num_slices(), 10);
        assert_eq!(all[2].family.num_slices(), 8);
        assert_eq!(all[3].family.num_slices(), 4);
    }

    #[test]
    fn budgets_match_paper() {
        assert_eq!(FamilySetup::fashion().budget, 6000.0);
        assert_eq!(FamilySetup::mixed().budget, 6000.0);
        assert_eq!(FamilySetup::faces().budget, 3000.0);
        assert_eq!(FamilySetup::census().budget, 500.0);
    }

    #[test]
    fn faces_setup_carries_table1_costs() {
        let f = FamilySetup::faces();
        assert_eq!(
            f.family.costs(),
            st_data::families::faces::FACE_COSTS.to_vec()
        );
    }

    #[test]
    fn fmt_counts_aligns() {
        assert_eq!(fmt_counts(&[1.0, 20.0]), "    1    20");
    }
}
