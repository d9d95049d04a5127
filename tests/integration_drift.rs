//! Integration: drift-robust tuning over non-stationary pools.
//!
//! The drift suite's contract mirrors the chaos suite's: an `ST_DRIFT`
//! plan must never abort a run. A drifting slice is detected from the
//! residual run-up on its re-measured curve, walked through the recovery
//! ladder (re-measure, reset, quarantine), and the run completes with
//! structured warnings. A clean pool with the detector on behaves
//! bit-identically to one with the detector off, drift composes with
//! `ST_FAULT` injection, warnings come out in one canonical order under
//! every executor, and checkpoint/resume through a drift event stays
//! bit-identical.
//!
//! Local drift plans ([`PoolSource::with_drift`]) need no global state,
//! but every test still holds one lock for its whole body — process-global
//! fault installs (and any `ST_DRIFT` override) must not leak between
//! tests, exactly like the chaos suite.

use slice_tuner::{
    run_trials, run_trials_parallel, AggregateResult, PoolSource, RunResult, SliceTuner, Strategy,
    TSchedule, TunerConfig, TuningWarning,
};
use st_curve::EstimationMode;
use st_data::{drift, families, SlicedDataset};
use st_linalg::fault;
use st_models::ModelSpec;
use std::sync::{Mutex, MutexGuard};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Installs a process-global drift plan for a scope; clears it on drop so
/// a failing test cannot poison its neighbours.
struct DriftGuard {
    _serial: MutexGuard<'static, ()>,
}

impl DriftGuard {
    /// Holds the serial lock and clears any process-global plan, so tests
    /// using source-local plans cannot race or observe one another.
    fn clean() -> Self {
        let guard = DriftGuard { _serial: serial() };
        drift::install(None);
        guard
    }
}

impl Drop for DriftGuard {
    fn drop(&mut self) {
        drift::install(None);
    }
}

const SEED: u64 = 23;
const BUDGET: f64 = 300.0;
const SPEC: &str = "label@slice0:round1:mag0.95";

fn quick_config() -> TunerConfig {
    let mut cfg = TunerConfig::new(ModelSpec::softmax()).with_seed(SEED);
    cfg.train.epochs = 8;
    cfg.fractions = vec![0.4, 0.7, 1.0];
    cfg.repeats = 1;
    cfg.threads = 1;
    cfg.max_iterations = 12;
    cfg.with_mode(EstimationMode::Exhaustive).with_incremental()
}

/// The bench's detector settings: low threshold + low slack so the pinned
/// scenario's residual creep crosses within the run.
fn aware_config() -> TunerConfig {
    let mut cfg = quick_config().with_drift_detection(0.15);
    cfg.drift_slack = 0.05;
    cfg
}

/// One run of the two-slice drift scenario ([`families::driftbench`] — a
/// small easy "drifter" and a large hard "steady" slice in orthogonal
/// feature subspaces) with a source-local drift plan. Label drift on the
/// drifter is reliably detectable under the pinned seed.
fn run_drifting(cfg: TunerConfig) -> RunResult {
    let fam = families::driftbench();
    let ds = SlicedDataset::generate(&fam, &[100, 500], 400, SEED);
    let plan = drift::parse_plan(SPEC).expect("valid test plan");
    let mut pool = PoolSource::new(fam, SEED).with_drift(plan);
    let mut tuner = SliceTuner::new(ds, &mut pool, cfg);
    tuner.run(Strategy::Iterative(TSchedule::conservative()), BUDGET)
}

fn assert_bit_identical(a: &AggregateResult, b: &AggregateResult) {
    assert!(
        a.bits_identical_to(b),
        "aggregates diverged:\n{a:?}\nvs\n{b:?}"
    );
}

fn warning_key(w: &TuningWarning) -> (u64, usize, u8) {
    match w {
        TuningWarning::DriftDetected { round, slice, .. } => (*round, *slice, 0),
        TuningWarning::EstimationQuarantined { round, slice, .. } => {
            (*round, slice.unwrap_or(usize::MAX), 1)
        }
    }
}

/// The no-drift path must be bit-identical with the detector on: on a
/// stationary pool no flag ever fires, so detection adds bookkeeping but
/// zero behavioral delta.
#[test]
fn clean_pool_with_detector_on_is_bit_identical_to_detector_off() {
    let _guard = DriftGuard::clean();
    let fam = families::census();
    let strategy = Strategy::Iterative(TSchedule::moderate());
    let off = run_trials(&fam, &[40; 4], 50, 150.0, strategy, &quick_config(), 2);
    let on_cfg = quick_config()
        .with_drift_detection(0.6)
        .with_max_staleness(10_000);
    let on = run_trials(&fam, &[40; 4], 50, 150.0, strategy, &on_cfg, 2);
    assert_bit_identical(&off, &on);
    assert!(
        on.trials.iter().all(|t| t.warnings.is_empty()),
        "a stationary pool must not trip the detector: {:?}",
        on.trials[0].warnings
    );
}

/// A drifting pool trips the detector: the run completes with a
/// `DriftDetected` warning naming the drifted slice.
#[test]
fn drifting_pool_surfaces_a_detection_warning_and_completes() {
    let _guard = DriftGuard::clean();
    let res = run_drifting(aware_config());
    assert!(res.report.overall_loss.is_finite());
    assert!(
        res.warnings
            .iter()
            .any(|w| matches!(w, TuningWarning::DriftDetected { slice: 0, .. })),
        "slice 0 drifts from round 1; the detector must flag it, got {:?}",
        res.warnings
    );
}

/// With a zero recovery budget a persistently drifting slice is
/// quarantined on first detection and stops receiving budget; the freed
/// budget flows to the clean slice instead of being stranded.
#[test]
fn persistent_drift_exhausts_recovery_budget_and_quarantines() {
    let _guard = DriftGuard::clean();
    let aware = run_drifting(aware_config().with_max_drift_resets(0));
    assert!(
        aware.warnings.iter().any(|w| matches!(
            w,
            TuningWarning::EstimationQuarantined { slice: Some(0), .. }
        )),
        "recovery budget 0 must escalate straight to quarantine, got {:?}",
        aware.warnings
    );
    let naive = run_drifting(quick_config());
    assert!(
        aware.acquired[0] < naive.acquired[0],
        "quarantine must cut the poisoned slice's acquisitions ({} vs naive {})",
        aware.acquired[0],
        naive.acquired[0]
    );
    assert!(
        aware.acquired[1] > naive.acquired[1],
        "the freed budget must be re-routed to the clean slice ({} vs naive {})",
        aware.acquired[1],
        naive.acquired[1]
    );
    assert!(
        (aware.spent - naive.spent).abs() < 1.0,
        "no stranded budget"
    );
}

/// Asserts two runs bought, spent, scored, and warned the same bits.
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
    assert_eq!(a.warnings, b.warnings, "{case}: warnings");
}

/// Drift recovery bumps the drifting slice's measurement seed, and the
/// next round re-measures it through the dense plane's groups (two
/// repeats of the hidden-layer `small` model per group). The run must
/// match the per-call gather reference bit for bit — acquisitions, losses,
/// warnings, and the checkpointed round state, whose incremental snapshot
/// holds the bumped round's estimates — at any estimator thread count.
#[test]
fn drift_recovery_matches_per_call_gather() {
    let _guard = DriftGuard::clean();
    let dir = std::env::temp_dir().join("st_drift_tests");
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    let run = |per_call: bool, threads: usize| {
        let path = dir.join(format!("plane-{per_call}-{threads}.json"));
        std::fs::remove_file(&path).ok();
        let mut cfg = aware_config().with_checkpoint(path.display().to_string());
        cfg.spec = ModelSpec::small();
        cfg.repeats = 2;
        cfg.per_call_gather = per_call;
        cfg.threads = threads;
        let result = run_drifting(cfg);
        let state = std::fs::read_to_string(&path).expect("round checkpoint written");
        (result, state)
    };
    let (reference, reference_state) = run(true, 1);
    // A detection before the last round means a later round re-measured
    // the slice from its bumped seed.
    assert!(
        reference.warnings.iter().any(|w| matches!(
            w,
            TuningWarning::DriftDetected { slice: 0, round, .. }
                if *round < reference.iterations as u64
        )),
        "slice 0 must be flagged before the last round, got {:?} over {} rounds",
        reference.warnings,
        reference.iterations
    );
    for threads in [1, 2, 4] {
        let (dense, state) = run(false, threads);
        let case = format!("threads={threads}");
        assert_runs_identical(&dense, &reference, &case);
        assert!(state == reference_state, "{case}: round checkpoints differ");
    }
}

/// ST_DRIFT composes with ST_FAULT: a run facing both a drifting slice and
/// an injected persistent NaN fault on another slice completes with both
/// warning kinds.
#[test]
fn drift_and_fault_plans_compose() {
    let _guard = DriftGuard::clean();
    fault::install(Some(
        fault::parse_plan("nan_loss@slice1:round1").expect("valid fault plan"),
    ));
    let res = run_drifting(aware_config());
    fault::install(None);
    assert!(res.report.overall_loss.is_finite());
    assert!(
        res.warnings
            .iter()
            .any(|w| matches!(w, TuningWarning::DriftDetected { slice: 0, .. })),
        "the drift leg must still fire under faults, got {:?}",
        res.warnings
    );
    assert!(
        res.warnings.iter().any(|w| matches!(
            w,
            TuningWarning::EstimationQuarantined { slice: Some(1), .. }
        )),
        "the fault leg must still quarantine slice 1, got {:?}",
        res.warnings
    );
}

/// `RunResult::warnings` comes out sorted by (round, slice) with a slice's
/// drift warning ahead of its same-round quarantine escalation — under the
/// sequential runner and the parallel executor alike, byte for byte. The
/// warnings are fault-injected (two NaN quarantines on different slices,
/// where parallel estimation records them in nondeterministic completion
/// order) so the scenario is robust across per-trial derived seeds.
#[test]
fn warnings_are_canonically_ordered_under_both_executors() {
    let _guard = DriftGuard::clean();
    fault::install(Some(
        fault::parse_plan("nan_loss@slice2:round1,nan_loss@slice1:round1")
            .expect("valid fault plan"),
    ));
    let fam = families::census();
    let strategy = Strategy::Iterative(TSchedule::moderate());
    let cfg = {
        let mut c = quick_config().with_drift_detection(0.6);
        c.max_iterations = 3;
        c
    };
    let seq = run_trials(&fam, &[40; 4], 50, 150.0, strategy, &cfg, 2);
    let par = run_trials_parallel(&fam, &[40; 4], 50, 150.0, strategy, &cfg, 2, 4);
    fault::install(None);
    assert_bit_identical(&seq, &par);
    for (s, p) in seq.trials.iter().zip(&par.trials) {
        assert!(
            s.warnings.len() >= 2,
            "both faulted slices must surface warnings, got {:?}",
            s.warnings
        );
        assert_eq!(s.warnings, p.warnings, "executor changed warning order");
        assert!(
            s.warnings
                .windows(2)
                .all(|w| warning_key(&w[0]) <= warning_key(&w[1])),
            "warnings must sort by (round, slice, kind): {:?}",
            s.warnings
        );
    }
}

/// Killing the run mid-accumulation (after round 2: drift evidence exists
/// but has not crossed the threshold yet) and resuming must replay to the
/// same detection round, the same warnings, and bit-identical losses — the
/// checkpoint carries the CUSUM state, the residual baselines, and the
/// quarantine flags.
#[test]
fn resume_through_a_drift_event_is_bit_identical() {
    let _guard = DriftGuard::clean();
    let dir = std::env::temp_dir().join("st_drift_tests");
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    let path = dir.join("resume.json");
    std::fs::remove_file(&path).ok();
    let path = path.display().to_string();

    let aware = || aware_config().with_max_drift_resets(0);
    let clean = run_drifting(aware());
    assert!(
        clean.iterations >= 3,
        "the kill must land before detection or the test is vacuous"
    );

    let halted = run_drifting(aware().with_checkpoint(&path).with_halt_after_rounds(2));
    assert_eq!(halted.iterations, 2, "crash simulation stops after round 2");

    let resumed = run_drifting(aware().with_checkpoint(&path).with_resume());
    assert_eq!(resumed.acquired, clean.acquired);
    assert_eq!(resumed.iterations, clean.iterations);
    assert_eq!(resumed.spent.to_bits(), clean.spent.to_bits());
    assert_eq!(
        resumed.report.overall_loss.to_bits(),
        clean.report.overall_loss.to_bits()
    );
    for (a, b) in resumed
        .report
        .per_slice_losses
        .iter()
        .zip(&clean.report.per_slice_losses)
    {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(
        resumed.warnings, clean.warnings,
        "the resumed run must re-detect at the same round with the same score"
    );
}
