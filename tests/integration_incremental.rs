//! Integration: incremental re-estimation across acquisition rounds.
//!
//! Incremental mode's identity contract is regime-specific. Under the
//! amortized schedule (the quickstart default) every round's estimation
//! runs the normal full schedule, so an incremental trial is
//! bit-identical to a from-scratch one. Under the
//! exhaustive schedule a measurement trains on the *whole* dataset minus
//! the target slice's held-out part, so skipping a clean slice reuses a
//! result that is stale with respect to other slices' growth — the same
//! staleness Algorithm 1 already accepts between rounds. There the
//! guarantees are: strictly fewer trainings than the staleness-0 baseline
//! (every slice re-measured every round), and bit-reproducibility run to
//! run.

use slice_tuner::{PoolSource, RunResult, SliceTuner, Strategy, TSchedule, TunerConfig};
use st_curve::EstimationMode;
use st_data::{families, SlicedDataset};
use st_models::ModelSpec;

/// The quickstart cell (census family, four slices) in its default
/// amortized estimation mode, with incremental mode on.
fn quickstart_config() -> TunerConfig {
    let mut cfg = TunerConfig::new(ModelSpec::softmax())
        .with_seed(7)
        .with_incremental();
    cfg.train.epochs = 8;
    cfg.fractions = vec![0.4, 0.7, 1.0];
    cfg.repeats = 1;
    cfg.threads = 1;
    cfg.max_iterations = 3;
    cfg
}

/// Same cell under the exhaustive schedule, where dirty-slice skipping
/// actually happens.
fn exhaustive_config() -> TunerConfig {
    quickstart_config().with_mode(EstimationMode::Exhaustive)
}

fn run_cell(cfg: TunerConfig) -> (RunResult, usize) {
    let fam = families::census();
    let ds = SlicedDataset::generate(&fam, &[60, 25, 45, 30], 60, 5);
    let mut src = PoolSource::new(fam, 55);
    let mut tuner = SliceTuner::new(ds, &mut src, cfg);
    let result = tuner.run(Strategy::Iterative(TSchedule::moderate()), 300.0);
    let trainings = tuner.trainings();
    (result, trainings)
}

fn assert_bit_identical(a: &RunResult, b: &RunResult) {
    assert_eq!(a.acquired, b.acquired, "allocations diverged");
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.spent.to_bits(), b.spent.to_bits());
    for (x, y) in a
        .report
        .per_slice_losses
        .iter()
        .zip(&b.report.per_slice_losses)
    {
        assert_eq!(x.to_bits(), y.to_bits(), "per-slice loss bits diverged");
    }
    assert_eq!(
        a.report.overall_loss.to_bits(),
        b.report.overall_loss.to_bits()
    );
}

#[test]
fn incremental_trial_matches_from_scratch_bit_for_bit() {
    // Satellite acceptance: on the quickstart cell, an incremental-mode
    // trial must land the exact same allocations as a from-scratch trial.
    // The amortized schedule re-measures everything each round (it is the
    // data plane, not the schedule, that incremental mode changes here),
    // so the match is bit-exact.
    let (inc, _) = run_cell(quickstart_config());
    let mut scratch_cfg = quickstart_config();
    scratch_cfg.incremental = false;
    let (scratch, _) = run_cell(scratch_cfg);
    assert_bit_identical(&inc, &scratch);
}

#[test]
fn exhaustive_incremental_saves_trainings_and_is_reproducible() {
    // Dirty-slice tracking must train strictly less than the staleness-0
    // baseline, which forces every slice dirty each round, once any round
    // leaves a slice clean...
    let (inc, inc_trainings) = run_cell(exhaustive_config());
    let (_full, full_trainings) = run_cell(exhaustive_config().with_max_staleness(0));
    assert!(
        inc_trainings < full_trainings,
        "expected fewer trainings: {inc_trainings} vs {full_trainings}"
    );
    // ...and the skipping itself is deterministic: the same cell run
    // twice reproduces every bit.
    let (again, again_trainings) = run_cell(exhaustive_config());
    assert_eq!(inc_trainings, again_trainings);
    assert_bit_identical(&inc, &again);
}

#[test]
fn incremental_append_snapshot_matches_rebuilt_matrices() {
    // After a multi-round incremental run the cached snapshot must still
    // hold exactly the dataset's examples: it equals a from-scratch build.
    let fam = families::census();
    let ds = SlicedDataset::generate(&fam, &[40; 4], 50, 9);
    let mut src = PoolSource::new(fam, 21);
    let mut tuner = SliceTuner::new(ds, &mut src, exhaustive_config());
    let result = tuner.run(Strategy::Iterative(TSchedule::moderate()), 200.0);
    assert!(result.acquired.iter().sum::<usize>() > 0);

    let snap = tuner.dataset().matrices();
    let fresh = tuner.dataset().build_matrices();
    assert_eq!(snap.train_x.as_slice(), fresh.train_x.as_slice());
    assert_eq!(snap.train_y, fresh.train_y);
    assert_eq!(snap.slice_rows, fresh.slice_rows);
}
