//! Integration: checkpoint/resume across acquisition rounds.
//!
//! The fault-tolerance contract for long tuning runs: killing an iterative
//! run after round `k` and resuming from its checkpoint must produce
//! **bit-identical** results to the uninterrupted run — under the
//! sequential runner and under the parallel executor alike. The kill is
//! simulated with `TunerConfig::halt_after_rounds` (the loop stops after
//! the round's checkpoint hits disk, exactly what a crash right after the
//! write leaves behind); resume replays the recorded acquisitions against
//! a fresh source, which re-consumes the identical RNG stream.

use slice_tuner::{
    run_trials, run_trials_parallel, AggregateResult, PoolSource, SliceTuner, Strategy, TSchedule,
    TunerConfig,
};
use st_curve::EstimationMode;
use st_data::{families, SlicedDataset};
use st_models::ModelSpec;

fn quick_config() -> TunerConfig {
    let mut cfg = TunerConfig::new(ModelSpec::softmax());
    cfg.train.epochs = 8;
    cfg.fractions = vec![0.4, 0.7, 1.0];
    cfg.repeats = 1;
    cfg.threads = 1;
    cfg.max_iterations = 3;
    cfg
}

/// A fresh path under the system temp dir; removes stale files from
/// previous runs of this test (per-trial suffixed files included).
fn checkpoint_path(tag: &str) -> String {
    let dir = std::env::temp_dir().join("st_checkpoint_tests");
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    let base = dir.join(format!("{tag}.json"));
    for t in 0..8 {
        std::fs::remove_file(format!("{}.trial{t}", base.display())).ok();
    }
    std::fs::remove_file(&base).ok();
    base.display().to_string()
}

fn assert_bit_identical(a: &AggregateResult, b: &AggregateResult) {
    assert!(
        a.bits_identical_to(b),
        "aggregates diverged:\n{a:?}\nvs\n{b:?}"
    );
}

// Deliberately imbalanced initial sizes: the cell must run ≥2 acquisition
// rounds, or killing it after round 1 proves nothing.
const SIZES: [usize; 4] = [80, 20, 60, 25];
const BUDGET: f64 = 400.0;

fn run_cell(cfg: &TunerConfig, trials: usize, jobs: Option<usize>) -> AggregateResult {
    let fam = families::census();
    let strategy = Strategy::Iterative(TSchedule::moderate());
    match jobs {
        None => run_trials(&fam, &SIZES, 60, BUDGET, strategy, cfg, trials),
        Some(j) => run_trials_parallel(&fam, &SIZES, 60, BUDGET, strategy, cfg, trials, j),
    }
}

#[test]
fn kill_at_round_one_then_resume_is_bit_identical_sequential() {
    let path = checkpoint_path("seq");
    let clean = run_cell(&quick_config(), 2, None);
    // The cell must actually run multiple rounds, or the kill is vacuous.
    assert!(
        clean.trials.iter().all(|t| t.iterations >= 2),
        "test cell too small: {:?}",
        clean
            .trials
            .iter()
            .map(|t| t.iterations)
            .collect::<Vec<_>>()
    );

    let halted_cfg = quick_config()
        .with_checkpoint(&path)
        .with_halt_after_rounds(1);
    let halted = run_cell(&halted_cfg, 2, None);
    assert!(
        halted.trials.iter().all(|t| t.iterations == 1),
        "the crash simulation must stop after round 1"
    );

    let resumed_cfg = quick_config().with_checkpoint(&path).with_resume();
    let resumed = run_cell(&resumed_cfg, 2, None);
    assert_bit_identical(&clean, &resumed);
}

/// Under the amortized schedule, with and without incremental mode (whose
/// append-only snapshots and memo state the checkpoint must carry).
#[test]
fn kill_at_round_one_then_resume_is_bit_identical_jobs_four() {
    for incremental in [false, true] {
        let config = || {
            let mut cfg = quick_config();
            cfg.incremental = incremental;
            cfg
        };
        let path = checkpoint_path(&format!("par-incremental-{incremental}"));
        let clean = run_cell(&config(), 2, Some(4));

        let halted_cfg = config().with_checkpoint(&path).with_halt_after_rounds(1);
        let _ = run_cell(&halted_cfg, 2, Some(4));

        let resumed_cfg = config().with_checkpoint(&path).with_resume();
        let resumed = run_cell(&resumed_cfg, 2, Some(4));
        assert_bit_identical(&clean, &resumed);

        // Cross-runner: the resumed parallel aggregate equals the sequential
        // clean run too (resume composes with the executor's determinism).
        let seq_clean = run_cell(&config(), 2, None);
        assert_bit_identical(&seq_clean, &resumed);
    }
}

/// Incremental mode carries cross-round estimator state (previous
/// estimates + dirty flags); the checkpoint snapshots it, so resume must
/// stay bit-identical there as well — under the exhaustive schedule,
/// where dirty-slice skipping actually happens.
#[test]
fn incremental_exhaustive_resume_is_bit_identical() {
    let inc_config = || {
        quick_config()
            .with_incremental()
            .with_mode(EstimationMode::Exhaustive)
    };
    let path = checkpoint_path("inc");
    let clean = run_cell(&inc_config(), 1, None);

    let halted_cfg = inc_config()
        .with_checkpoint(&path)
        .with_halt_after_rounds(1);
    let _ = run_cell(&halted_cfg, 1, None);

    let resumed_cfg = inc_config().with_checkpoint(&path).with_resume();
    let resumed = run_cell(&resumed_cfg, 1, None);
    assert_bit_identical(&clean, &resumed);
}

/// Resume with no checkpoint on disk is simply a fresh run — the flag is
/// safe to leave on in wrapper scripts.
#[test]
fn resume_without_a_file_is_a_fresh_run() {
    let path = checkpoint_path("fresh");
    let clean = run_cell(&quick_config(), 1, None);
    let resumed_cfg = quick_config().with_checkpoint(&path).with_resume();
    let resumed = run_cell(&resumed_cfg, 1, None);
    assert_bit_identical(&clean, &resumed);
}

/// A checkpoint written by a different run (another seed) must be refused
/// with a typed error, not silently absorbed into the wrong run.
#[test]
fn foreign_checkpoints_are_refused_with_a_typed_error() {
    let path = checkpoint_path("foreign");
    let fam = families::census();

    // Write a checkpoint under seed 42 (halt immediately after pre-pass).
    let ds = SlicedDataset::generate(&fam, &SIZES, 60, 42);
    let mut pool = PoolSource::new(fam.clone(), 42);
    let cfg = quick_config()
        .with_seed(42)
        .with_checkpoint(&path)
        .with_halt_after_rounds(0);
    let mut tuner = SliceTuner::new(ds, &mut pool, cfg);
    tuner
        .try_run(Strategy::Iterative(TSchedule::moderate()), BUDGET)
        .expect("writing the checkpoint must succeed");

    // Resume it under seed 7: refused.
    let ds = SlicedDataset::generate(&fam, &SIZES, 60, 7);
    let mut pool = PoolSource::new(fam.clone(), 7);
    let cfg = quick_config()
        .with_seed(7)
        .with_checkpoint(&path)
        .with_resume();
    let mut tuner = SliceTuner::new(ds, &mut pool, cfg);
    let err = tuner
        .try_run(Strategy::Iterative(TSchedule::moderate()), BUDGET)
        .expect_err("foreign checkpoint must be refused");
    let msg = err.to_string();
    assert!(
        matches!(err, slice_tuner::Error::Checkpoint(_)),
        "want a Checkpoint error, got: {msg}"
    );
    assert!(msg.contains("seed"), "diagnostic names the field: {msg}");
}
