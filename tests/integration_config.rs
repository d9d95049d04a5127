//! Integration: a declarative [`ExperimentSpec`] drives a full multi-trial
//! comparison end to end, and its report renders through the markdown/CSV
//! writers — the workflow the CLI's `experiment --config` exposes.

use slice_tuner::{
    methods_csv, methods_markdown, run_trials, ExperimentSpec, Strategy, TunerConfig,
};
use st_data::families;
use st_models::ModelSpec;

const SPEC_TEXT: &str = "\
# quick comparison on the census analog
family          = census
strategies      = uniform, proportional, moderate
budget          = 200
trials          = 2
initial_size    = 60
validation_size = 80
lambda          = 0.5
seed            = 9
epochs          = 8
";

fn run_spec(spec: &ExperimentSpec) -> Vec<slice_tuner::AggregateResult> {
    assert_eq!(spec.family, "census");
    let family = families::census();
    let mut config = TunerConfig::new(ModelSpec::softmax())
        .with_seed(spec.seed)
        .with_lambda(spec.lambda);
    config.train.epochs = spec.epochs;
    config.fractions = vec![0.4, 0.7, 1.0];
    config.repeats = 1;
    config.threads = 1;
    let sizes = vec![spec.initial_size; family.num_slices()];
    spec.strategies
        .iter()
        .map(|&s| {
            run_trials(
                &family,
                &sizes,
                spec.validation_size,
                spec.budget,
                s,
                &config,
                spec.trials,
            )
        })
        .collect()
}

#[test]
fn parsed_spec_runs_and_reports() {
    let spec = ExperimentSpec::parse(SPEC_TEXT).unwrap();
    assert_eq!(spec.strategies.len(), 3);
    assert!(matches!(spec.strategies[1], Strategy::Proportional));

    let rows = run_spec(&spec);
    assert_eq!(rows.len(), 3);
    for r in &rows {
        assert_eq!(r.trials.len(), 2);
        assert!(r.loss.mean.is_finite());
        // Every strategy spends within the budget.
        for t in &r.trials {
            assert!(t.spent <= spec.budget + 1e-9);
        }
    }

    // The reports render with one row per strategy plus the Original row.
    let rows: Vec<_> = rows.iter().map(|r| (r.strategy.name(), r)).collect();
    let md = methods_markdown("census spec", &rows);
    for s in &spec.strategies {
        assert!(md.contains(s.name()), "missing {} in\n{md}", s.name());
    }
    assert!(md.contains("| Original |"));

    let csv = methods_csv(&rows);
    assert_eq!(csv.lines().count(), 1 + rows.len());
}

#[test]
fn spec_round_trip_preserves_the_run_plan() {
    let spec = ExperimentSpec::parse(SPEC_TEXT).unwrap();
    let back = ExperimentSpec::parse(&spec.to_text()).unwrap();
    assert_eq!(spec, back);
}

#[test]
fn proportional_keeps_bias_while_moderate_reduces_unfairness() {
    // The paper's rationale for rejecting the proportional baseline: it
    // "does not fix data bias at all". With a biased start, Moderate must
    // deliver better fairness.
    let family = families::census();
    let mut config = TunerConfig::new(ModelSpec::softmax()).with_seed(3);
    config.train.epochs = 10;
    config.fractions = vec![0.4, 0.7, 1.0];
    config.repeats = 1;
    config.threads = 1;
    let sizes = [30usize, 120, 120, 120];

    let prop = run_trials(
        &family,
        &sizes,
        100,
        300.0,
        Strategy::Proportional,
        &config,
        3,
    );
    let moderate = run_trials(
        &family,
        &sizes,
        100,
        300.0,
        Strategy::Iterative(slice_tuner::TSchedule::moderate()),
        &config,
        3,
    );

    // Proportional by construction mirrors the 30:120 bias exactly: the
    // final imbalance ratio stays at 4 (the paper's reason for calling it
    // "strictly worse" — it cannot fix data bias).
    let final_ir = |t: &slice_tuner::RunResult| {
        let finals: Vec<f64> = sizes
            .iter()
            .zip(&t.acquired)
            .map(|(&s, &a)| (s + a) as f64)
            .collect();
        finals.iter().cloned().fold(f64::MIN, f64::max)
            / finals.iter().cloned().fold(f64::MAX, f64::min)
    };
    let acq = &prop.trials[0].acquired;
    assert!(
        acq[1] > 3 * acq[0],
        "{acq:?} should mirror the original bias"
    );
    assert!(
        (final_ir(&prop.trials[0]) - 4.0).abs() < 0.2,
        "proportional preserves IR = 4: {}",
        final_ir(&prop.trials[0])
    );
    // Moderate's allocation is driven by the learning curves, not by the
    // existing distribution: its per-slice shares must not track size.
    let m_acq = &moderate.trials[0].acquired;
    let tracks_size = m_acq[1] > 3 * m_acq[0] && m_acq[2] > 3 * m_acq[0] && m_acq[3] > 3 * m_acq[0];
    assert!(
        !tracks_size,
        "moderate should not mirror the bias: {m_acq:?}"
    );
}
