//! Integration: the dense estimation plane (cached dense snapshots, row-id
//! subsets, lockstep group training, stacked evaluation) must be
//! bit-identical to the per-call gather reference across the whole stack —
//! single estimations, full and incremental strategy runs, and the parallel
//! trial executor — and the snapshot cache must track acquisitions.

use slice_tuner::{
    run_trials_parallel, AggregateResult, PoolSource, RunResult, SliceTuner, Strategy, TSchedule,
    TunerConfig,
};
use st_data::{families, SlicedDataset};
use st_models::ModelSpec;

fn quick_config(per_call: bool) -> TunerConfig {
    let mut cfg = TunerConfig::new(ModelSpec::softmax());
    cfg.train.epochs = 8;
    cfg.fractions = vec![0.4, 0.7, 1.0];
    cfg.repeats = 2;
    cfg.threads = 1;
    cfg.per_call_gather = per_call;
    cfg
}

fn assert_bit_identical(a: &AggregateResult, b: &AggregateResult) {
    assert!(
        a.bits_identical_to(b),
        "aggregates diverged:\n{a:?}\nvs\n{b:?}"
    );
}

/// A full iterative strategy run — estimations, acquisitions (which
/// invalidate the snapshot's train half), retrainings, evaluations — must
/// produce the same bits on both data planes.
#[test]
fn full_strategy_run_matches_per_call_gather() {
    let fam = families::census();
    let run = |per_call: bool| {
        let ds = SlicedDataset::generate(&fam, &[40, 60, 25, 50], 60, 5);
        let mut src = PoolSource::new(fam.clone(), 55);
        let mut tuner = SliceTuner::new(ds, &mut src, quick_config(per_call).with_seed(7));
        tuner.run(Strategy::Iterative(TSchedule::moderate()), 150.0)
    };
    let dense = run(false);
    let legacy = run(true);
    assert_eq!(dense.acquired, legacy.acquired);
    assert_eq!(dense.iterations, legacy.iterations);
    assert_eq!(dense.trainings, legacy.trainings);
    assert_eq!(dense.spent.to_bits(), legacy.spent.to_bits());
    for (d, l) in dense
        .report
        .per_slice_losses
        .iter()
        .zip(&legacy.report.per_slice_losses)
    {
        assert_eq!(d.to_bits(), l.to_bits(), "per-slice loss bits diverged");
    }
    assert_eq!(
        dense.report.overall_loss.to_bits(),
        legacy.report.overall_loss.to_bits()
    );
    assert_eq!(
        dense.original.overall_loss.to_bits(),
        legacy.original.overall_loss.to_bits()
    );
}

/// The parallel executor on the dense plane must aggregate bit-identically
/// to the per-call plane at multiple worker counts (the executor itself is
/// already jobs-invariant; this pins the data plane into that contract).
#[test]
fn parallel_trials_match_per_call_gather_at_any_jobs() {
    let fam = families::census();
    let cell = |per_call: bool, jobs: usize| {
        run_trials_parallel(
            &fam,
            &[30; 4],
            40,
            100.0,
            Strategy::OneShot,
            &quick_config(per_call).with_seed(11),
            3,
            jobs,
        )
    };
    let legacy = cell(true, 1);
    for jobs in [1, 4] {
        let dense = cell(false, jobs);
        assert_bit_identical(&dense, &legacy);
    }
}

/// Exhaustive-mode estimation (per-slice subsets) must also match across
/// data planes — it exercises `exhaustive_train_subset_rows` and the
/// single-slice evaluation path.
#[test]
fn exhaustive_estimation_matches_per_call_gather() {
    let fam = families::fashion();
    let run = |per_call: bool| {
        let ds = SlicedDataset::generate(&fam, &[25; 10], 30, 13);
        let mut src = PoolSource::new(fam.clone(), 77);
        let mut cfg = quick_config(per_call)
            .with_seed(3)
            .with_mode(st_curve::EstimationMode::Exhaustive);
        cfg.repeats = 1;
        let tuner = SliceTuner::new(ds, &mut src, cfg);
        tuner.estimate_curves(0)
    };
    let dense = run(false);
    let legacy = run(true);
    for (d, l) in dense.iter().zip(&legacy) {
        assert_eq!(d.a.to_bits(), l.a.to_bits());
        assert_eq!(d.b.to_bits(), l.b.to_bits());
    }
}

/// Asserts two runs bought, spent, and scored the same bits.
fn assert_runs_identical(a: &RunResult, b: &RunResult, case: &str) {
    assert_eq!(a.acquired, b.acquired, "{case}: acquisitions");
    assert_eq!(a.iterations, b.iterations, "{case}: iterations");
    assert_eq!(a.spent.to_bits(), b.spent.to_bits(), "{case}: spent");
    assert_eq!(a.trainings, b.trainings, "{case}: trainings");
    for (x, y) in a
        .report
        .per_slice_losses
        .iter()
        .zip(&b.report.per_slice_losses)
    {
        assert_eq!(x.to_bits(), y.to_bits(), "{case}: per-slice loss bits");
    }
    assert_eq!(
        a.report.overall_loss.to_bits(),
        b.report.overall_loss.to_bits(),
        "{case}: overall loss bits"
    );
}

/// Incremental re-estimation under the exhaustive schedule runs partial
/// rounds — only the dirty slices' requests, grouped by shape. With the
/// 24-wide `small` model and two repeats those groups train in lockstep;
/// the run must still match the per-call reference bit for bit at any
/// estimator thread count.
#[test]
fn exhaustive_incremental_run_matches_per_call_gather() {
    let fam = families::census();
    let run = |per_call: bool, threads: usize| {
        let ds = SlicedDataset::generate(&fam, &[60, 25, 45, 30], 40, 21);
        let mut src = PoolSource::new(fam.clone(), 56);
        let mut cfg = quick_config(per_call)
            .with_seed(5)
            .with_mode(st_curve::EstimationMode::Exhaustive)
            .with_incremental();
        cfg.spec = ModelSpec::small();
        cfg.threads = threads;
        cfg.max_iterations = 4;
        let mut tuner = SliceTuner::new(ds, &mut src, cfg);
        tuner.run(Strategy::Iterative(TSchedule::moderate()), 300.0)
    };
    let reference = run(true, 1);
    // Full rounds would cost 4 slices × 3 fractions × 2 repeats each, plus
    // the run's two evaluation trainings: fewer means some round skipped
    // clean slices.
    assert!(
        reference.trainings < 2 + reference.iterations * 24,
        "no partial round ran ({} trainings over {} rounds)",
        reference.trainings,
        reference.iterations
    );
    for threads in [1, 2, 4] {
        assert_runs_identical(
            &run(false, threads),
            &reference,
            &format!("threads={threads}"),
        );
    }
}

/// The snapshot cache must follow the working dataset through an
/// acquisition inside a strategy run: after `run` absorbs new data, a
/// fresh evaluation must reflect the grown training set (i.e. no stale
/// matrices leak into later phases).
#[test]
fn snapshot_tracks_acquisitions_within_a_run() {
    let fam = families::census();
    let ds = SlicedDataset::generate(&fam, &[30; 4], 40, 9);
    let before_rows = ds.matrices().train_x.rows();
    let mut src = PoolSource::new(fam.clone(), 21);
    let mut tuner = SliceTuner::new(ds, &mut src, quick_config(false).with_seed(1));
    let result = tuner.run(Strategy::Uniform, 80.0);
    let after = tuner.dataset().matrices();
    let grown: usize = result.acquired.iter().sum();
    assert_eq!(after.train_x.rows(), before_rows + grown);
    assert_eq!(after.train_y.len(), before_rows + grown);
    // And the snapshot still mirrors the example lists exactly — gathered
    // through the canonical row order, so the check also holds for the
    // append layout incremental mode uses (`TunerConfig::incremental`).
    let fresh = tuner.dataset().build_matrices();
    let order = after.canonical_row_order();
    assert_eq!(order.len(), fresh.train_x.rows());
    for (logical, &phys) in order.iter().enumerate() {
        assert_eq!(after.train_x.row(phys), fresh.train_x.row(logical));
        assert_eq!(after.train_y[phys], fresh.train_y[logical]);
    }
}
