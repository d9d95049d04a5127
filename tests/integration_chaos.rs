//! Integration: the fault-injection chaos suite.
//!
//! Every fault the harness can inject must leave the tuning run *standing*:
//! transient worker panics are retried bit-identically, persistent NaN
//! losses exhaust their retries and quarantine the slice (surfacing a
//! structured warning), and diverging fits fall back to the existing
//! cross-slice fallback curves. A fault plan must never abort a run unless
//! retries are explicitly disabled.
//!
//! Plans are installed in-process via [`st_linalg::fault::install`], which
//! is process-global — every test here holds one lock for its whole body so
//! plans cannot leak between tests.

use slice_tuner::{
    run_trials, run_trials_parallel, try_run_trials_parallel, AggregateResult, Strategy, TSchedule,
    TunerConfig, TuningWarning,
};
use st_curve::EstimationMode;
use st_data::families;
use st_linalg::fault;
use st_models::ModelSpec;
use std::sync::{Mutex, MutexGuard};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Installs `plan` for the duration of a scope; clears it on drop even if
/// the scope panics, so a failing test cannot poison its neighbours.
struct PlanGuard {
    _serial: MutexGuard<'static, ()>,
}

impl PlanGuard {
    fn install(spec: &str) -> Self {
        let guard = PlanGuard { _serial: serial() };
        fault::install(Some(fault::parse_plan(spec).expect("valid test plan")));
        guard
    }
}

impl Drop for PlanGuard {
    fn drop(&mut self) {
        fault::install(None);
    }
}

fn quick_config() -> TunerConfig {
    let mut cfg = TunerConfig::new(ModelSpec::softmax());
    cfg.train.epochs = 8;
    cfg.fractions = vec![0.4, 0.7, 1.0];
    cfg.repeats = 1;
    cfg.threads = 1;
    cfg.max_iterations = 3;
    cfg
}

fn run_cell(cfg: &TunerConfig, trials: usize, jobs: Option<usize>) -> AggregateResult {
    let fam = families::census();
    let strategy = Strategy::Iterative(TSchedule::moderate());
    match jobs {
        None => run_trials(&fam, &[40; 4], 50, 150.0, strategy, cfg, trials),
        Some(j) => run_trials_parallel(&fam, &[40; 4], 50, 150.0, strategy, cfg, trials, j),
    }
}

fn assert_bit_identical(a: &AggregateResult, b: &AggregateResult) {
    assert!(
        a.bits_identical_to(b),
        "aggregates diverged:\n{a:?}\nvs\n{b:?}"
    );
}

/// A worker panic on the first attempt is retried from the pinned trial
/// seed, so the recovered run is bit-identical to a run that never saw the
/// fault — sequentially and under the parallel executor.
#[test]
fn transient_trial_panic_is_retried_bit_identically() {
    let clean = {
        let _g = serial();
        run_cell(&quick_config(), 2, None)
    };

    let _plan = PlanGuard::install("trial_panic@0");
    let recovered_seq = run_cell(&quick_config(), 2, None);
    assert_bit_identical(&clean, &recovered_seq);

    let recovered_par = run_cell(&quick_config(), 2, Some(4));
    assert_bit_identical(&clean, &recovered_par);
}

/// With retries explicitly disabled, the same panic becomes a *typed*
/// error naming the trial — never an `.expect` abort in the executor.
#[test]
fn trial_panic_with_retries_disabled_is_a_typed_error() {
    let _plan = PlanGuard::install("trial_panic@1");
    let fam = families::census();
    let cfg = quick_config().with_max_retries(0);
    let err = try_run_trials_parallel(
        &fam,
        &[40; 4],
        50,
        150.0,
        Strategy::Iterative(TSchedule::moderate()),
        &cfg,
        2,
        2,
    )
    .expect_err("attempt 0 panics and no retries remain");
    assert_eq!(err.trial, 1);
    assert_eq!(err.attempts, 1);
    assert!(
        err.to_string().contains("trial 1"),
        "diagnostic names the trial: {err}"
    );
}

/// A persistent NaN loss exhausts its retries, quarantines the slice, and
/// the run still completes — with a structured warning in the result.
/// Incremental mode meets the fault in its first, all-slice estimation
/// (round 1) and in a later partial one (round 2), where the quarantined
/// slice keeps its previous round's estimate.
#[test]
fn persistent_nan_loss_quarantines_the_slice_and_completes() {
    for (incremental, round) in [(false, 1), (true, 1), (true, 2)] {
        let case = format!("incremental {incremental}, round {round}");
        let _plan = PlanGuard::install(&format!("nan_loss@slice1:round{round}"));
        let mut cfg = quick_config().with_mode(EstimationMode::Exhaustive);
        cfg.incremental = incremental;
        let agg = run_cell(&cfg, 1, None);

        let trial = &agg.trials[0];
        assert!(
            trial.report.overall_loss.is_finite(),
            "{case}: the run must complete with a usable report"
        );
        let quarantines: Vec<_> = trial
            .warnings
            .iter()
            .filter(|w| {
                matches!(
                    w,
                    TuningWarning::EstimationQuarantined {
                        slice: Some(1),
                        round: r,
                        ..
                    } if *r == round
                )
            })
            .collect();
        assert!(
            !quarantines.is_empty(),
            "{case}: slice 1 must surface a quarantine warning, got: {:?}",
            trial.warnings
        );
        let TuningWarning::EstimationQuarantined { attempts, .. } = quarantines[0] else {
            unreachable!("the filter above keeps only quarantine warnings");
        };
        assert!(
            *attempts >= 2,
            "{case}: retries must be exhausted before quarantine, got {attempts} attempt(s)"
        );
    }
}

/// The same persistent NaN loss on the dense plane: slice 1's groups (two
/// repeats of the hidden-layer `small` model, one fault scope each) must fail
/// exactly as the per-call reference's one-model measurements do — the
/// same warnings (slice, round, attempts, cause) and the same result bits
/// at any estimator thread count.
#[test]
fn nan_loss_quarantine_matches_per_call_gather() {
    let _plan = PlanGuard::install("nan_loss@slice1:round1");
    let run = |per_call: bool, threads: usize| {
        let mut cfg = quick_config().with_mode(EstimationMode::Exhaustive);
        cfg.spec = ModelSpec::small();
        cfg.repeats = 2;
        cfg.per_call_gather = per_call;
        cfg.threads = threads;
        run_cell(&cfg, 1, None)
    };
    let reference = run(true, 1);
    let warnings = &reference.trials[0].warnings;
    assert!(
        warnings.iter().any(|w| matches!(
            w,
            TuningWarning::EstimationQuarantined {
                slice: Some(1),
                round: 1,
                ..
            }
        )),
        "slice 1 / round 1 must be quarantined, got: {warnings:?}"
    );
    for threads in [1, 2, 4] {
        let dense = run(false, threads);
        assert_bit_identical(&reference, &dense);
        assert_eq!(&dense.trials[0].warnings, warnings, "threads={threads}");
    }
}

/// Universal fit divergence routes every slice through the fallback-curve
/// path; the run completes and allocation stays usable.
#[test]
fn universal_fit_divergence_falls_back_and_completes() {
    let _plan = PlanGuard::install("fit_diverge@1.0");
    let agg = run_cell(&quick_config(), 1, None);
    let trial = &agg.trials[0];
    assert!(trial.report.overall_loss.is_finite());
    assert!(
        trial.report.is_healthy(),
        "fallback curves keep evaluation sane"
    );
    assert!(
        trial.spent > 0.0,
        "allocation still proceeds on fallback curves"
    );
}

/// The kitchen sink: every fault class at once, on the paper's iterative
/// strategy under the parallel executor. The run must complete — retry for
/// the panic, quarantine for the NaN, fallbacks for the fits.
#[test]
fn combined_fault_plan_never_aborts() {
    let _plan = PlanGuard::install("trial_panic@0,nan_loss@slice2:round1,fit_diverge@0.3");
    let cfg = quick_config().with_mode(EstimationMode::Exhaustive);
    let agg = run_cell(&cfg, 2, Some(4));
    assert_eq!(agg.trials.len(), 2);
    for trial in &agg.trials {
        assert!(trial.report.overall_loss.is_finite());
        assert!(trial.iterations >= 1);
    }
}
