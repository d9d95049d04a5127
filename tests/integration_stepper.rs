//! Integration: Algorithm 1 as a stepper.
//!
//! `SliceTuner::plan_round` on a run resumed from the checkpoint of round
//! `k` must plan exactly the round `k + 1` that the uninterrupted run
//! executes: the same capped allocation bits and the same counts. That is
//! what lets the server answer `/allocation` with the plan its next
//! advance buys.

use slice_tuner::{PoolSource, RoundPlan, SliceTuner, Strategy, TSchedule, TunerConfig};
use st_curve::EstimationMode;
use st_data::{drift, families, DatasetFamily, SlicedDataset};
use st_models::ModelSpec;

fn quick_config(seed: u64) -> TunerConfig {
    let mut cfg = TunerConfig::new(ModelSpec::softmax()).with_seed(seed);
    cfg.train.epochs = 8;
    cfg.fractions = vec![0.4, 0.7, 1.0];
    cfg.repeats = 1;
    cfg.threads = 1;
    cfg
}

/// A fresh checkpoint path under the system temp dir.
fn checkpoint_path(tag: &str) -> String {
    let dir = std::env::temp_dir().join("st_stepper_tests");
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    let path = dir.join(format!("{tag}.json"));
    std::fs::remove_file(&path).ok();
    path.display().to_string()
}

struct Cell {
    tag: &'static str,
    family: DatasetFamily,
    sizes: Vec<usize>,
    validation: usize,
    seed: u64,
    budget: f64,
    schedule: TSchedule,
    drift: Option<&'static str>,
    config: TunerConfig,
}

impl Cell {
    fn tuner_parts(&self) -> (SlicedDataset, PoolSource) {
        let ds = SlicedDataset::generate(&self.family, &self.sizes, self.validation, self.seed);
        let pool = PoolSource::new(self.family.clone(), self.seed);
        let pool = match self.drift {
            Some(spec) => pool.with_drift(drift::parse_plan(spec).expect("valid drift plan")),
            None => pool,
        };
        (ds, pool)
    }

    /// Every round's plan of the uninterrupted run, stepped by hand.
    fn plans(&self) -> Vec<RoundPlan> {
        let (ds, mut pool) = self.tuner_parts();
        let mut tuner = SliceTuner::new(ds, &mut pool, self.config.clone());
        let mut run = tuner
            .begin_iterative(self.schedule, self.budget)
            .expect("begin");
        let mut plans = Vec::new();
        while let Some(plan) = tuner.plan_round(&mut run) {
            if !tuner.apply_round(&mut run, &plan) {
                break;
            }
            plans.push(plan);
        }
        plans
    }

    /// `try_run` with a checkpoint, halted after `halt` rounds when set.
    fn try_run(&self, path: &str, halt: Option<usize>) -> usize {
        let (ds, mut pool) = self.tuner_parts();
        let mut cfg = self.config.clone().with_checkpoint(path);
        cfg.halt_after_rounds = halt;
        let mut tuner = SliceTuner::new(ds, &mut pool, cfg);
        tuner
            .try_run(Strategy::Iterative(self.schedule), self.budget)
            .expect("run")
            .iterations
    }

    /// The plan of a run resumed from `path`.
    fn resumed_plan(&self, path: &str) -> Option<RoundPlan> {
        let (ds, mut pool) = self.tuner_parts();
        let cfg = self.config.clone().with_checkpoint(path).with_resume();
        let mut tuner = SliceTuner::new(ds, &mut pool, cfg);
        let mut run = tuner
            .begin_iterative(self.schedule, self.budget)
            .expect("resume");
        tuner.plan_round(&mut run)
    }

    /// Asserts the contract for every halt point, and returns the plans.
    fn check(&self) -> Vec<RoundPlan> {
        let plans = self.plans();
        assert!(
            plans.len() >= 2,
            "{}: the cell must run 2+ rounds",
            self.tag
        );
        let path = checkpoint_path(self.tag);

        // The hand-stepped run is the run `try_run` executes.
        assert_eq!(self.try_run(&path, None), plans.len(), "{}", self.tag);
        let cp = slice_tuner::checkpoint::load(&path)
            .expect("load")
            .expect("checkpoint written");
        let counts: Vec<Vec<usize>> = plans.iter().map(|p| p.counts.clone()).collect();
        assert_eq!(
            cp.rounds, counts,
            "{}: try_run bought other rounds",
            self.tag
        );
        assert!(
            self.resumed_plan(&path).is_none(),
            "{}: resumed from the final checkpoint, the run is over",
            self.tag
        );

        for k in 1..plans.len() {
            let path = checkpoint_path(self.tag);
            assert_eq!(self.try_run(&path, Some(k)), k, "{}: halt at {k}", self.tag);
            let got = self.resumed_plan(&path).expect("the run continues");
            let want = &plans[k];
            let case = format!("{} resumed after round {k}", self.tag);
            assert_eq!(got.counts, want.counts, "{case}: counts");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.capped), bits(&want.capped), "{case}: capped");
            assert_eq!(bits(&got.raw), bits(&want.raw), "{case}: raw");
        }
        plans
    }
}

fn census_cell(tag: &'static str, config: TunerConfig) -> Cell {
    Cell {
        tag,
        family: families::census(),
        sizes: vec![80, 20, 60, 25],
        validation: 60,
        seed: 11,
        budget: 400.0,
        schedule: TSchedule::moderate(),
        drift: None,
        config,
    }
}

#[test]
fn resumed_plan_is_the_next_round_amortized() {
    let cfg = quick_config(11).with_mode(EstimationMode::Amortized);
    census_cell("amortized", cfg).check();
}

#[test]
fn resumed_plan_is_the_next_round_exhaustive_incremental() {
    let cfg = quick_config(11)
        .with_mode(EstimationMode::Exhaustive)
        .with_incremental();
    census_cell("exhaustive_incremental", cfg).check();
}

/// The drift bench's scenario with a zero recovery budget: slice 0 is
/// quarantined mid-run, and the rounds after that must plan from the
/// quarantine the checkpoint restored.
#[test]
fn resumed_plan_is_the_next_round_through_a_quarantine() {
    let mut cfg = quick_config(23)
        .with_mode(EstimationMode::Exhaustive)
        .with_incremental()
        .with_drift_detection(0.15)
        .with_max_drift_resets(0);
    cfg.drift_slack = 0.05;
    cfg.max_iterations = 12;
    let cell = Cell {
        tag: "drift_quarantine",
        family: families::driftbench(),
        sizes: vec![100, 500],
        validation: 400,
        seed: 23,
        budget: 300.0,
        schedule: TSchedule::conservative(),
        drift: Some("label@slice0:round1:mag0.95"),
        config: cfg,
    };
    let plans = cell.check();
    // The flat stand-in marks a quarantined slice; it must appear in a
    // round after the first, so some resumed plan crossed it.
    let quarantined = |p: &RoundPlan| p.curves[0].b == f64::MIN_POSITIVE;
    assert!(
        plans.iter().skip(1).any(quarantined),
        "slice 0 must be quarantined before the last round"
    );
    assert!(
        plans
            .iter()
            .filter(|p| quarantined(p))
            .all(|p| p.counts[0] == 0),
        "a quarantined slice buys nothing"
    );
}
