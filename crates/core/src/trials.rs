//! The parallel multi-trial executor.
//!
//! The paper reports means over 10 trials; trials are embarrassingly
//! parallel (each builds its own dataset, source, and tuner from a seed
//! derived with `split_seed`). This module fans the *same* unit of work the
//! sequential runner uses (`runner::run_single_trial`) out over scoped
//! worker threads, collecting results into per-trial slots so aggregation
//! order — and therefore every aggregated bit — is independent of thread
//! count and scheduling.
//!
//! When a [`CurveCache`](crate::cache::CurveCache) rides along in the
//! config it is shared by all workers; distinct trials derive distinct
//! seeds, so their cache keys are disjoint and the cache cannot couple
//! trials to each other.
//!
//! **Intra-trial parallelism.** When `--jobs` grants more workers than
//! there are trials, the surplus is handed *inside* each trial: every
//! tuner's curve-estimation batch fans its independent (slice, budget)
//! model fits across [`intra_trial_threads`] scoped workers (the same
//! executor `st_curve::CurveEstimator` already uses). Estimator results
//! land in request-indexed slots and every seed derives from `split_seed`
//! alone, so aggregates stay bit-identical at any `--jobs` count — the
//! regression tests below pin that.

use crate::runner::{aggregate, run_single_trial, AggregateResult};
use crate::strategy::Strategy;
use crate::tuner::{RunResult, TunerConfig};
use parking_lot::Mutex;
use st_data::DatasetFamily;

/// How a fixed worker budget is split between the two parallel layers:
/// trial fan-out and per-trial estimator batches. Produced by
/// [`plan_thread_budget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadBudget {
    /// Workers running whole trials concurrently.
    pub trial_workers: usize,
    /// Estimator threads inside each trial (curve-fit batches).
    pub estimator_threads: usize,
}

/// Splits `total_workers` across the parallel layers so they never
/// oversubscribe: at most `trials` workers run whole trials, and the
/// surplus share goes to each trial's estimator batches.
///
/// The third argument is ignored: the kernel runs every product on the
/// calling thread. It stays because the repository benchmark passes it
/// (`perfbench/src/serve.rs:121`).
///
/// Every layer is bit-deterministic at any thread count, so the split
/// affects wall-clock only, never results.
pub fn plan_thread_budget(total_workers: usize, trials: usize, _sharded: bool) -> ThreadBudget {
    ThreadBudget {
        trial_workers: total_workers.min(trials).max(1),
        estimator_threads: intra_trial_threads(total_workers, trials),
    }
}

/// A trial worker that panicked on every allowed attempt (see
/// [`TunerConfig::max_retries`](crate::tuner::TunerConfig::max_retries)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialError {
    /// The failing trial index.
    pub trial: usize,
    /// Attempts spent (the retry budget plus the first attempt).
    pub attempts: usize,
    /// The captured panic message.
    pub cause: String,
}

impl std::fmt::Display for TrialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trial {} failed after {} attempt(s): {}",
            self.trial, self.attempts, self.cause
        )
    }
}

impl std::error::Error for TrialError {}

/// Best-effort text of a caught panic payload (`panic!` carries `&str` or
/// `String`; anything else is opaque).
fn payload_str(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs one trial under panic isolation with deterministic retries: every
/// attempt re-executes [`run_single_trial`], whose result is a pure
/// function of `(inputs, t)` — so an attempt that survives is bit-identical
/// no matter how many panics preceded it.
pub(crate) fn run_trial_caught(
    family: &DatasetFamily,
    initial_sizes: &[usize],
    validation_size: usize,
    budget: f64,
    strategy: Strategy,
    config: &TunerConfig,
    t: usize,
) -> Result<RunResult, TrialError> {
    let mut attempt = 0usize;
    loop {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // ST_FAULT trial_panic injection point (first attempts only:
            // the plan models a transient fault the retry must absorb).
            if st_linalg::fault::trial_panics(t, attempt) {
                panic!("ST_FAULT: injected panic in trial {t}");
            }
            run_single_trial(
                family,
                initial_sizes,
                validation_size,
                budget,
                strategy,
                config,
                t,
            )
        }));
        match outcome {
            Ok(result) => return Ok(result),
            Err(p) => {
                if attempt >= config.max_retries {
                    return Err(TrialError {
                        trial: t,
                        attempts: attempt + 1,
                        cause: payload_str(p.as_ref()),
                    });
                }
                attempt += 1;
            }
        }
    }
}

/// Parallel version of [`run_trials`](crate::runner::run_trials): runs
/// `trials` independent seeds across `jobs` workers (0 = all cores) and
/// aggregates bit-identically to the sequential runner.
///
/// # Panics
/// Panics when `trials == 0`, or — with the [`TrialError`]'s one-line
/// message — when a trial exhausts its retries; see
/// [`try_run_trials_parallel`] for the non-panicking form.
#[allow(clippy::too_many_arguments)]
pub fn run_trials_parallel(
    family: &DatasetFamily,
    initial_sizes: &[usize],
    validation_size: usize,
    budget: f64,
    strategy: Strategy,
    config: &TunerConfig,
    trials: usize,
    jobs: usize,
) -> AggregateResult {
    match try_run_trials_parallel(
        family,
        initial_sizes,
        validation_size,
        budget,
        strategy,
        config,
        trials,
        jobs,
    ) {
        Ok(agg) => agg,
        Err(e) => panic!("{e}"),
    }
}

/// [`run_trials_parallel`] with typed failure: a trial worker that panics
/// through every retry surfaces as a [`TrialError`] (the lowest failing
/// trial index when several fail) instead of unwinding through the
/// executor.
///
/// # Errors
/// Returns the first failing trial's [`TrialError`].
///
/// # Panics
/// Panics when `trials == 0`.
#[allow(clippy::too_many_arguments)]
pub fn try_run_trials_parallel(
    family: &DatasetFamily,
    initial_sizes: &[usize],
    validation_size: usize,
    budget: f64,
    strategy: Strategy,
    config: &TunerConfig,
    trials: usize,
    jobs: usize,
) -> Result<AggregateResult, TrialError> {
    assert!(trials > 0, "need at least one trial");
    let total_workers = if jobs == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        jobs
    };

    // Workers beyond the trial count are not wasted: each trial's surplus
    // share fans out *inside* the trial through the estimator batches
    // (bit-identical at any thread count, so this is free
    // determinism-wise). With exactly one worker the config passes
    // through untouched, so `jobs = 1` behaves exactly like the
    // sequential runner down to its thread usage.
    let thread_plan = plan_thread_budget(total_workers, trials, false);
    let workers = thread_plan.trial_workers;
    let limited;
    let config = if workers > 1 || total_workers > trials {
        limited = TunerConfig {
            threads: thread_plan.estimator_threads,
            ..config.clone()
        };
        &limited
    } else {
        config
    };

    let slots: Mutex<Vec<Option<Result<RunResult, TrialError>>>> = Mutex::new(vec![None; trials]);
    let next: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

    // Workers never unwind: run_trial_caught isolates trial panics (typed,
    // retried), so the scope's own panic propagation is unreachable.
    crossbeam::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|_| loop {
                let t = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if t >= trials {
                    break;
                }
                let result = run_trial_caught(
                    family,
                    initial_sizes,
                    validation_size,
                    budget,
                    strategy,
                    config,
                    t,
                );
                slots.lock()[t] = Some(result);
            });
        }
    })
    .expect("trial worker panicked");

    let mut results: Vec<RunResult> = Vec::with_capacity(trials);
    for slot in slots.into_inner() {
        match slot.expect("all trials ran") {
            Ok(result) => results.push(result),
            Err(e) => return Err(e),
        }
    }
    Ok(aggregate(strategy, results))
}

/// Estimator threads each trial receives when `workers` total workers
/// serve `trials` trials: the even share of the surplus, never below one.
///
/// With `workers <= trials` every trial runs a single-threaded estimator
/// (the trial fan-out already saturates the executor); with more workers
/// than trials the spare capacity moves inside the trials, e.g. 8 workers
/// over 2 trials give each trial a 4-way estimator batch.
pub fn intra_trial_threads(workers: usize, trials: usize) -> usize {
    (workers / trials.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CurveCache;
    use crate::runner::run_trials;
    use crate::tuner::TunerConfig;
    use st_curve::EstimationMode;
    use st_data::families::census;
    use st_models::ModelSpec;

    fn quick_config() -> TunerConfig {
        let mut cfg = TunerConfig::new(ModelSpec::softmax());
        cfg.train.epochs = 8;
        cfg.fractions = vec![0.4, 0.7, 1.0];
        cfg.repeats = 1;
        cfg.threads = 1;
        cfg
    }

    fn assert_bit_identical(a: &AggregateResult, b: &AggregateResult) {
        assert!(
            a.bits_identical_to(b),
            "aggregates diverged:\n{a:?}\nvs\n{b:?}"
        );
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let fam = census();
        let seq = run_trials(
            &fam,
            &[50; 4],
            60,
            100.0,
            Strategy::Uniform,
            &quick_config(),
            3,
        );
        let par = run_trials_parallel(
            &fam,
            &[50; 4],
            60,
            100.0,
            Strategy::Uniform,
            &quick_config(),
            3,
            2,
        );
        assert_bit_identical(&seq, &par);
    }

    /// The determinism regression the workspace's CI gate relies on: one
    /// worker and eight workers must aggregate to bit-identical results,
    /// with an iterative strategy (the heaviest path through the tuner).
    #[test]
    fn jobs_one_and_jobs_eight_are_bit_identical() {
        let fam = census();
        let run = |jobs: usize| {
            run_trials_parallel(
                &fam,
                &[40; 4],
                50,
                120.0,
                Strategy::Iterative(crate::strategy::TSchedule::moderate()),
                &quick_config(),
                4,
                jobs,
            )
        };
        assert_bit_identical(&run(1), &run(8));
    }

    /// The dense estimation plane must leave trial aggregates untouched:
    /// its groups aggregate bit-identically to the per-call gather
    /// reference in both estimation modes and at any `--jobs` and
    /// estimator thread count.
    #[test]
    fn dense_plane_aggregates_match_per_call_gather_at_any_jobs() {
        let fam = census();
        let run = |per_call: bool, mode: EstimationMode, jobs: usize, threads: usize| {
            let mut cfg = quick_config().with_mode(mode);
            cfg.spec = ModelSpec::small(); // hidden layers: per-model evaluation
            cfg.repeats = 2;
            cfg.per_call_gather = per_call;
            cfg.threads = threads;
            run_trials_parallel(
                &fam,
                &[40; 4],
                50,
                120.0,
                Strategy::Iterative(crate::strategy::TSchedule::moderate()),
                &cfg,
                3,
                jobs,
            )
        };
        for mode in [EstimationMode::Amortized, EstimationMode::Exhaustive] {
            let reference = run(true, mode, 1, 1);
            for (jobs, threads) in [(1usize, 1usize), (1, 2), (2, 1), (2, 4)] {
                assert_bit_identical(&reference, &run(false, mode, jobs, threads));
            }
        }
    }

    /// A shared curve cache must not perturb results: cached and uncached
    /// runs, at any worker count, aggregate bit-identically.
    #[test]
    fn shared_cache_preserves_bitwise_determinism() {
        let fam = census();
        let plain = run_trials_parallel(
            &fam,
            &[40; 4],
            50,
            100.0,
            Strategy::OneShot,
            &quick_config(),
            3,
            2,
        );
        let cache = CurveCache::shared();
        let cached_cfg = quick_config().with_cache(cache.clone());
        let first = run_trials_parallel(
            &fam,
            &[40; 4],
            50,
            100.0,
            Strategy::OneShot,
            &cached_cfg,
            3,
            2,
        );
        // Second run over the same settings is answered from the cache...
        let second = run_trials_parallel(
            &fam,
            &[40; 4],
            50,
            100.0,
            Strategy::OneShot,
            &cached_cfg,
            3,
            1,
        );
        assert_bit_identical(&plain, &first);
        assert_bit_identical(&first, &second);
        // ...which is observable in the hit counter (one estimation per
        // trial; the second sweep hits all three).
        assert_eq!(cache.misses(), 3);
        assert!(cache.hits() >= 3, "hits {}", cache.hits());
    }

    /// The intra-trial regression the ISSUE asks for: with more workers
    /// than trials the surplus fans the estimator batches out *inside*
    /// each trial, and the aggregates must still match the sequential
    /// runner bit-for-bit.
    #[test]
    fn intra_trial_parallel_estimation_matches_sequential_bits() {
        let fam = census();
        // `threads: 0` would normally mean "all cores"; the executor
        // overrides it to the per-trial share, so this exercises the
        // surplus-distribution path explicitly.
        let mut cfg = quick_config();
        cfg.threads = 0;
        let seq = run_trials(
            &fam,
            &[40; 4],
            50,
            120.0,
            Strategy::Iterative(crate::strategy::TSchedule::moderate()),
            &quick_config(),
            2,
        );
        // 8 workers over 2 trials -> 4 estimator threads inside each.
        let par = run_trials_parallel(
            &fam,
            &[40; 4],
            50,
            120.0,
            Strategy::Iterative(crate::strategy::TSchedule::moderate()),
            &cfg,
            2,
            8,
        );
        assert_bit_identical(&seq, &par);
        // Single trial with many workers: everything goes intra-trial.
        let one_seq = run_trials(
            &fam,
            &[40; 4],
            50,
            80.0,
            Strategy::OneShot,
            &quick_config(),
            1,
        );
        let one_par = run_trials_parallel(&fam, &[40; 4], 50, 80.0, Strategy::OneShot, &cfg, 1, 8);
        assert_bit_identical(&one_seq, &one_par);
    }

    #[test]
    fn thread_budget_never_multiplies_layers() {
        for (workers, trials) in [(1, 1), (4, 8), (8, 4), (8, 1), (16, 3), (3, 7)] {
            let b = plan_thread_budget(workers, trials, false);
            assert!(b.trial_workers <= trials.max(1));
            // Peak runnable threads stay within the requested budget.
            let peak = b.trial_workers * b.estimator_threads;
            assert!(
                peak <= workers.max(1),
                "{workers} workers / {trials} trials: peak {peak}"
            );
        }
        let plain = plan_thread_budget(8, 2, false);
        assert_eq!(plain.estimator_threads, 4, "surplus goes to the estimator");
        assert_eq!(plan_thread_budget(8, 2, true), plain, "the flag is ignored");
    }

    #[test]
    fn intra_trial_thread_shares() {
        assert_eq!(intra_trial_threads(1, 4), 1);
        assert_eq!(intra_trial_threads(4, 4), 1);
        assert_eq!(intra_trial_threads(8, 4), 2);
        assert_eq!(intra_trial_threads(8, 2), 4);
        assert_eq!(intra_trial_threads(8, 1), 8);
        assert_eq!(intra_trial_threads(7, 3), 2);
        assert_eq!(intra_trial_threads(3, 0), 3, "degenerate trial count");
    }

    #[test]
    fn single_worker_still_completes_all_trials() {
        let fam = census();
        let agg = run_trials_parallel(
            &fam,
            &[40; 4],
            50,
            80.0,
            Strategy::WaterFilling,
            &quick_config(),
            4,
            1,
        );
        assert_eq!(agg.trials.len(), 4);
        assert!(agg.loss.mean.is_finite());
    }

    #[test]
    fn more_workers_than_trials_is_fine() {
        let fam = census();
        let agg = run_trials_parallel(
            &fam,
            &[40; 4],
            50,
            80.0,
            Strategy::Uniform,
            &quick_config(),
            2,
            16,
        );
        assert_eq!(agg.trials.len(), 2);
    }

    #[test]
    #[should_panic(expected = "need at least one trial")]
    fn zero_trials_is_rejected() {
        let fam = census();
        let _ = run_trials_parallel(
            &fam,
            &[40; 4],
            50,
            80.0,
            Strategy::Uniform,
            &quick_config(),
            0,
            1,
        );
    }
}
