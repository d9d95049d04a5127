//! Cross-strategy integration tests: the headline claims of the paper,
//! exercised end to end on small budgets.
//!
//! These are the "shape" assertions of the evaluation section: Slice Tuner
//! beats the baselines on unfairness, the pathological settings hurt the
//! intended baseline, and the iterative schedules behave as Table 3 shows.

use slice_tuner::{run_trials, Setting, Strategy, TSchedule, TunerConfig};
use st_data::families;
use st_models::ModelSpec;

fn cfg(spec: ModelSpec, seed: u64) -> TunerConfig {
    let mut cfg = TunerConfig::new(spec).with_seed(seed);
    cfg.train.epochs = 12;
    cfg.fractions = vec![0.3, 0.6, 1.0];
    cfg.repeats = 1;
    cfg.threads = 1;
    cfg.lambda = 0.5;
    cfg
}

#[test]
fn slice_tuner_beats_baselines_on_unfairness_census() {
    // Census: flat curves, cheap trainings — the quickest full comparison.
    // Unequal initial sizes give the optimizer something to exploit.
    let fam = families::census();
    let sizes = [30, 120, 60, 150];
    let budget = 400.0;
    let trials = 3;

    let uni = run_trials(
        &fam,
        &sizes,
        150,
        budget,
        Strategy::Uniform,
        &cfg(ModelSpec::softmax(), 1),
        trials,
    );
    let moderate = run_trials(
        &fam,
        &sizes,
        150,
        budget,
        Strategy::Iterative(TSchedule::moderate()),
        &cfg(ModelSpec::softmax(), 1),
        trials,
    );

    assert!(
        moderate.avg_eer.mean < uni.avg_eer.mean + 0.01,
        "Moderate avg EER {} must not lose to Uniform {}",
        moderate.avg_eer.mean,
        uni.avg_eer.mean
    );
    assert!(moderate.loss.mean < uni.loss.mean + 0.02);

    // The `paper` bench bin's "Original" rows read the first strategy
    // cell's `original`, with no zero-budget cell of their own: no
    // strategy may touch a trial's data before `original` is measured.
    let zero = run_trials(
        &fam,
        &sizes,
        150,
        0.0,
        Strategy::Uniform,
        &cfg(ModelSpec::softmax(), 1),
        trials,
    );
    let bits = |r: &slice_tuner::EvalReport| {
        let all = [r.overall_loss, r.avg_eer, r.max_eer];
        let all = all.iter().chain(&r.per_slice_losses);
        all.map(|x| x.to_bits()).collect::<Vec<_>>()
    };
    assert_eq!(zero.trials.len(), trials);
    for agg in [&uni, &moderate] {
        let name = agg.strategy.name();
        for (t, z) in agg.trials.iter().zip(&zero.trials) {
            assert_eq!(bits(&t.original), bits(&z.original), "{name}");
        }
    }
}

#[test]
fn iterative_moderate_runs_multiple_iterations_with_unequal_sizes() {
    let fam = families::census();
    let agg = run_trials(
        &fam,
        &[20, 40, 160, 160],
        100,
        500.0,
        Strategy::Iterative(TSchedule::moderate()),
        &cfg(ModelSpec::softmax(), 3),
        2,
    );
    assert!(agg.iterations > 1.0, "iterations {}", agg.iterations);
}

#[test]
fn settings_construct_distinct_worlds() {
    let fam = families::census();
    let basic = Setting::Basic.initial_sizes(&fam, 100, 5);
    let bad_uni = Setting::BadForUniform.initial_sizes(&fam, 100, 5);
    let bad_wf = Setting::BadForWaterFilling.initial_sizes(&fam, 100, 5);
    assert_ne!(basic, bad_uni);
    assert_ne!(basic, bad_wf);
    assert_ne!(bad_uni, bad_wf);
    // All still produce runnable experiments.
    let agg = run_trials(
        &fam,
        &bad_wf,
        80,
        150.0,
        Strategy::WaterFilling,
        &cfg(ModelSpec::softmax(), 5),
        1,
    );
    assert!(agg.loss.mean.is_finite());
}

#[test]
fn water_filling_ignores_large_high_loss_slice() {
    // The Bad-for-Water-filling construction: the hardest slice is large, so
    // WF sends it (almost) nothing even though its loss is the worst.
    let fam = families::census();
    let sizes = Setting::BadForWaterFilling.initial_sizes(&fam, 100, 7);
    let largest = sizes.iter().enumerate().max_by_key(|(_, &s)| s).unwrap().0;
    let agg = run_trials(
        &fam,
        &sizes,
        80,
        200.0,
        Strategy::WaterFilling,
        &cfg(ModelSpec::softmax(), 7),
        1,
    );
    assert_eq!(
        agg.trials[0].acquired[largest], 0,
        "water filling must not feed the already-largest slice"
    );
}

#[test]
fn lambda_zero_vs_high_trades_fairness_for_loss() {
    let fam = families::census();
    let sizes = [40, 80, 120, 160];
    let run = |lambda: f64| {
        let mut c = cfg(ModelSpec::softmax(), 11);
        c.lambda = lambda;
        run_trials(
            &fam,
            &sizes,
            150,
            400.0,
            Strategy::Iterative(TSchedule::moderate()),
            &c,
            3,
        )
    };
    let fair = run(10.0);
    let lossy = run(0.0);
    // Higher λ must not produce *worse* fairness than λ = 0 (Table 4's
    // monotone trend, allowing SGD noise).
    assert!(
        fair.avg_eer.mean <= lossy.avg_eer.mean + 0.015,
        "λ=10 avg EER {} vs λ=0 {}",
        fair.avg_eer.mean,
        lossy.avg_eer.mean
    );
}
