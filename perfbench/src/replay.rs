//! The traced re-drive of one Algorithm 1 run, round by round, through the
//! public primitives `SliceTuner::try_run` is built from, timing each call.
//!
//! The replay mirrors `try_run` with an iterative schedule: train and
//! evaluate (stream 0), the minimum-size pre-pass, then per round the curve
//! estimate (`estimate_curves_detailed(round)`, or the incremental form when
//! the configuration asks for it), the `PowerLaw::log_mean` fallback for
//! failed fits, `one_shot_allocation`, the imbalance-ratio cap
//! (`imbalance_ratio_of` + `st_optim::change_ratio`), `round_to_budget`,
//! `acquire` + `absorb`, `TSchedule::increase`, and a final train and
//! evaluate (stream 1). The caller checks the outcome bit for bit against
//! an untraced `try_run`; a replay that differs is refused.

use crate::stats::timed;
use slice_tuner::{AcquisitionSource, EvalReport, IncrementalState, PoolSource, SliceTuner};
use slice_tuner::{TSchedule, TunerConfig};
use st_curve::PowerLaw;
use st_data::dataset::imbalance_ratio_of;
use st_data::{DatasetFamily, Example, SliceId, SlicedDataset};

/// Time and call count of one layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Acc {
    pub ms: f64,
    pub calls: u64,
}

impl Acc {
    pub fn add(&mut self, ms: f64) {
        self.ms += ms;
        self.calls += 1;
    }

    /// Mean milliseconds per call (NaN when never called).
    pub fn per_call(&self) -> f64 {
        self.ms / self.calls as f64
    }

    fn merge(&mut self, other: &Acc) {
        self.ms += other.ms;
        self.calls += other.calls;
    }
}

/// Layer times of one or more replayed runs.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// `SlicedDataset::generate`.
    pub generate: Acc,
    /// `SliceTuner::train_and_eval`.
    pub train_eval: Acc,
    /// One round's curve estimate.
    pub estimate: Acc,
    /// Model trainings the estimates ran.
    pub estimate_trainings: u64,
    /// `fit_power_law` re-run on each round's measured points. A child of
    /// `estimate` (the estimator fits internally), so it is not added to
    /// the layer sum.
    pub fit: Acc,
    /// `one_shot_allocation` (the §5.1 convex solve).
    pub solve: Acc,
    /// Fallback curves, the T-cap, integer rounding and the schedule step.
    pub plan: Acc,
    /// `AcquisitionSource::acquire` + `SlicedDataset::absorb`, per round.
    pub acquire: Acc,
    /// Wall time of the whole replay, instrumentation included.
    pub wall_ms: f64,
    /// Replayed runs merged into this record.
    pub runs: u64,
}

impl Layers {
    pub fn merge(&mut self, other: &Layers) {
        self.generate.merge(&other.generate);
        self.train_eval.merge(&other.train_eval);
        self.estimate.merge(&other.estimate);
        self.estimate_trainings += other.estimate_trainings;
        self.fit.merge(&other.fit);
        self.solve.merge(&other.solve);
        self.plan.merge(&other.plan);
        self.acquire.merge(&other.acquire);
        self.wall_ms += other.wall_ms;
        self.runs += other.runs;
    }

    /// Milliseconds per run spent in the named layers (fit excluded: it
    /// is inside estimate).
    pub fn sum_per_run(&self) -> f64 {
        let total = self.generate.ms
            + self.train_eval.ms
            + self.estimate.ms
            + self.solve.ms
            + self.plan.ms
            + self.acquire.ms;
        total / self.runs as f64
    }

    /// Calls of `layer` per replayed run.
    pub fn calls_per_run(&self, calls: u64) -> f64 {
        calls as f64 / self.runs as f64
    }
}

/// The observable outcome of a run, compared bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub pre_pass: Vec<usize>,
    pub rounds: Vec<Vec<usize>>,
    pub iterations: usize,
    pub spent_bits: u64,
    pub loss_bits: Vec<u64>,
}

impl Outcome {
    pub fn new(
        pre_pass: Vec<usize>,
        rounds: Vec<Vec<usize>>,
        iterations: usize,
        spent: f64,
        report: &EvalReport,
    ) -> Outcome {
        let mut loss_bits: Vec<u64> = report
            .per_slice_losses
            .iter()
            .map(|x| x.to_bits())
            .collect();
        loss_bits.push(report.overall_loss.to_bits());
        Outcome {
            pre_pass,
            rounds,
            iterations,
            spent_bits: spent.to_bits(),
            loss_bits,
        }
    }
}

/// The tuner's source while it only trains, estimates and solves: the
/// replay owns the real pool and acquires through it directly.
struct Detached;

impl AcquisitionSource for Detached {
    fn cost(&self, _slice: SliceId) -> f64 {
        unreachable!("the replay refreshes costs from the pool itself")
    }

    fn acquire(&mut self, _slice: SliceId, _n: usize) -> Vec<Example> {
        unreachable!("the replay acquires from the pool itself")
    }
}

/// Everything a run is built from.
pub struct RunSpec<'a> {
    pub family: &'a DatasetFamily,
    pub sizes: &'a [usize],
    pub validation: usize,
    pub seed: u64,
    pub config: &'a TunerConfig,
    pub schedule: TSchedule,
    pub budget: f64,
}

/// The untraced reference: `generate` + `SliceTuner::new` + `try_run` with
/// a checkpoint at `path`, whose recorded per-round counts the outcome
/// carries (checkpointing only records; it changes no bits). Returns the
/// outcome and the run's milliseconds.
///
/// # Errors
/// A failed run or an unreadable checkpoint.
pub fn reference(run: &RunSpec<'_>, path: &str) -> Result<(Outcome, f64), String> {
    let _ = std::fs::remove_file(path);
    let (result, ms) = timed(|| {
        let ds = SlicedDataset::generate(run.family, run.sizes, run.validation, run.seed);
        let mut pool = PoolSource::new(run.family.clone(), run.seed);
        let config = run.config.clone().with_checkpoint(path);
        let mut tuner = SliceTuner::new(ds, &mut pool, config);
        tuner.try_run(slice_tuner::Strategy::Iterative(run.schedule), run.budget)
    });
    let r = result.map_err(|e| e.to_string())?;
    let cp = slice_tuner::checkpoint::load(path)
        .map_err(|e| e.to_string())?
        .ok_or("the run wrote no checkpoint")?;
    let outcome = Outcome::new(cp.pre_pass, cp.rounds, r.iterations, r.spent, &r.report);
    Ok((outcome, ms))
}

/// Re-drives one iterative run and returns its outcome and layer times.
///
/// # Errors
/// Refuses configurations whose control flow the replay does not mirror.
pub fn replay(run: &RunSpec<'_>) -> Result<(Outcome, Layers), String> {
    let cfg = run.config;
    if cfg.drift_detection || cfg.halt_after_rounds.is_some() || cfg.resume {
        return Err("the replay mirrors runs without drift detection, halting or resume".into());
    }
    let started = std::time::Instant::now();
    let mut layers = Layers {
        runs: 1,
        ..Layers::default()
    };
    let (mut ds, ms) =
        timed(|| SlicedDataset::generate(run.family, run.sizes, run.validation, run.seed));
    layers.generate.add(ms);
    if cfg.incremental {
        ds.enable_incremental_snapshot();
    }
    let mut pool = PoolSource::new(run.family.clone(), run.seed);
    let n = ds.num_slices();
    let refresh_costs = |ds: &mut SlicedDataset, pool: &PoolSource| {
        for i in 0..n {
            ds.slices[i].cost = pool.cost(SliceId(i));
        }
    };
    let train_eval = |ds: &SlicedDataset, stream: u64, layers: &mut Layers| {
        let mut detached = Detached;
        let tuner = SliceTuner::new(ds.clone(), &mut detached, cfg.clone());
        let ((_, report), ms) = timed(|| tuner.train_and_eval(stream));
        layers.train_eval.add(ms);
        report
    };
    let acquire = |ds: &mut SlicedDataset, pool: &mut PoolSource, counts: &[usize]| {
        let costs = ds.costs();
        let mut spent = 0.0;
        for (i, &want) in counts.iter().enumerate() {
            if want == 0 {
                continue;
            }
            let got = pool.acquire(SliceId(i), want);
            spent += got.len() as f64 * costs[i];
            ds.absorb(got);
        }
        spent
    };

    refresh_costs(&mut ds, &pool);
    train_eval(&ds, 0, &mut layers);

    let mut remaining = run.budget;
    let mut total_spent = 0.0;
    let mut t = 1.0;
    let mut iterations = 0usize;
    let mut pre_pass = Vec::new();
    let mut rounds = Vec::new();
    let mut inc = cfg.incremental.then(|| IncrementalState::new(n));

    let deficit: Vec<f64> = ds
        .train_sizes()
        .iter()
        .map(|&s| cfg.min_slice_size.saturating_sub(s) as f64)
        .collect();
    if deficit.iter().any(|&d| d > 0.0) {
        pool.note_round(0);
        let t0 = std::time::Instant::now();
        let counts = st_optim::round_to_budget(&deficit, &ds.costs(), remaining);
        let spent = acquire(&mut ds, &mut pool, &counts);
        layers.acquire.add(crate::stats::ms_since(t0));
        remaining -= spent;
        total_spent += spent;
        pre_pass = counts;
    }
    let mut ir = ds.imbalance_ratio();

    loop {
        refresh_costs(&mut ds, &pool);
        let min_cost = ds.costs().iter().cloned().fold(f64::INFINITY, f64::min);
        if remaining < min_cost || iterations >= cfg.max_iterations {
            break;
        }
        let round = iterations as u64 + 1;
        let mut detached = Detached;
        let tuner = SliceTuner::new(ds.clone(), &mut detached, cfg.clone());
        let trainings_before = tuner.trainings();
        let (detailed, ms) = timed(|| match inc.as_mut() {
            None => tuner.estimate_curves_detailed(round),
            Some(state) => tuner.estimate_curves_incremental(round, state),
        });
        layers.estimate.add(ms);
        layers.estimate_trainings += (tuner.trainings() - trainings_before) as u64;
        for est in &detailed {
            let (_, ms) = timed(|| st_curve::fit_power_law(&est.points));
            layers.fit.add(ms);
        }

        let (curves, plan_ms) = timed(|| {
            let fits: Vec<_> = detailed.iter().map(|e| e.fit.clone()).collect();
            let ok: Vec<PowerLaw> = fits
                .iter()
                .filter_map(|f| f.as_ref().ok())
                .cloned()
                .collect();
            let fallback = if ok.is_empty() {
                PowerLaw::new(1.0, 0.2)
            } else {
                PowerLaw::log_mean(&ok)
            };
            fits.into_iter()
                .map(|f| f.unwrap_or(fallback))
                .collect::<Vec<PowerLaw>>()
        });
        let (mut d, ms) = timed(|| tuner.one_shot_allocation(&curves, remaining));
        layers.solve.add(ms);
        drop(tuner);

        let ((counts, before), cap_ms) = timed(|| {
            let sizes: Vec<f64> = ds.train_sizes().iter().map(|&s| s as f64).collect();
            let proposed: Vec<usize> = sizes
                .iter()
                .zip(&d)
                .map(|(s, x)| (s + x).round().max(0.0) as usize)
                .collect();
            let after_ir = imbalance_ratio_of(&proposed);
            if (after_ir - ir).abs() > t {
                let target = ir + t * (after_ir - ir).signum();
                let ratio = st_optim::change_ratio(&sizes, &d, target);
                for x in &mut d {
                    *x *= ratio;
                }
            }
            let counts = st_optim::round_to_budget(&d, &ds.costs(), remaining);
            (counts, ds.train_sizes())
        });

        pool.note_round(round);
        let (spent, ms) = timed(|| acquire(&mut ds, &mut pool, &counts));
        layers.acquire.add(ms);
        if spent <= 0.0 {
            layers.plan.add(plan_ms + cap_ms);
            break;
        }
        let (_, step_ms) = timed(|| {
            if let Some(state) = inc.as_mut() {
                state.mark_dirty(&before, &ds.train_sizes());
            }
            t = run.schedule.increase(t);
            ir = ds.imbalance_ratio();
        });
        layers.plan.add(plan_ms + cap_ms + step_ms);
        remaining -= spent;
        total_spent += spent;
        iterations += 1;
        rounds.push(counts);
    }

    let report = train_eval(&ds, 1, &mut layers);
    layers.wall_ms = crate::stats::ms_since(started);
    let outcome = Outcome::new(pre_pass, rounds, iterations.max(1), total_spent, &report);
    Ok((outcome, layers))
}
