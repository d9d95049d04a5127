//! Integration: the parallel multi-trial executor must aggregate
//! bit-identically at any worker count, with and without the shared
//! curve-estimation cache, and the cache must actually pay for itself in
//! saved model trainings.

use slice_tuner::{
    run_trials, run_trials_parallel, AggregateResult, CurveCache, Strategy, TSchedule, TunerConfig,
};
use st_data::families;
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

/// The headline determinism regression: a Table-6-style repeated-trial run
/// (iterative Moderate schedule, census family) aggregates bit-identically
/// with `--jobs 1` and `--jobs 8`, with and without incremental mode.
#[test]
fn table6_style_run_is_bit_identical_across_jobs() {
    let fam = families::census();
    for incremental in [false, true] {
        let mut cfg = quick_config().with_seed(42);
        cfg.incremental = incremental;
        let run = |jobs: usize| {
            run_trials_parallel(
                &fam,
                &[50; 4],
                60,
                150.0,
                Strategy::Iterative(TSchedule::moderate()),
                &cfg,
                4,
                jobs,
            )
        };
        assert_bit_identical(&run(1), &run(8));
    }
}

/// The parallel executor is a drop-in for the sequential runner.
#[test]
fn parallel_executor_matches_sequential_runner() {
    let fam = families::census();
    let seq = run_trials(
        &fam,
        &[40; 4],
        50,
        100.0,
        Strategy::OneShot,
        &quick_config().with_seed(7),
        3,
    );
    let par = run_trials_parallel(
        &fam,
        &[40; 4],
        50,
        100.0,
        Strategy::OneShot,
        &quick_config().with_seed(7),
        3,
        4,
    );
    assert_bit_identical(&seq, &par);
}

/// Sharing one cache across strategies preserves results bit-for-bit and
/// saves the trainings that identical estimations would repeat: the three
/// iterative schedules estimate the same first-iteration curves on the
/// same trial datasets.
#[test]
fn shared_cache_across_schedules_saves_trainings_without_changing_results() {
    let fam = families::census();
    let schedules = [
        TSchedule::conservative(),
        TSchedule::moderate(),
        TSchedule::aggressive(),
    ];
    let run_all = |config: &TunerConfig| -> Vec<AggregateResult> {
        schedules
            .iter()
            .map(|&s| {
                run_trials_parallel(
                    &fam,
                    &[45; 4],
                    50,
                    120.0,
                    Strategy::Iterative(s),
                    config,
                    2,
                    2,
                )
            })
            .collect()
    };

    let plain = run_all(&quick_config().with_seed(5));
    let cache = CurveCache::shared();
    let cached = run_all(&quick_config().with_seed(5).with_cache(cache.clone()));

    for (p, c) in plain.iter().zip(&cached) {
        assert_bit_identical(p, c);
    }
    assert!(
        cache.hits() >= 2 * 2,
        "each later schedule should reuse the first's per-trial initial estimate; hits = {}",
        cache.hits()
    );
    // Saved estimations are visible as fewer trainings on the later runs.
    let plain_trainings: f64 = plain.iter().map(|a| a.trainings).sum();
    let cached_trainings: f64 = cached.iter().map(|a| a.trainings).sum();
    assert!(
        cached_trainings < plain_trainings,
        "cache must save trainings: {cached_trainings} vs {plain_trainings}"
    );
}
