//! The Slice Tuner engine (Figure 4): learning-curve estimation plus the
//! selective data acquisition optimizer, wired to an acquisition source.

use crate::acquire::AcquisitionSource;
use crate::cache::{CurveCache, CurveKey};
use crate::checkpoint::{self, CheckpointError, RoundCheckpoint};
use crate::drift::DriftDetector;
use crate::incremental::IncrementalState;
use crate::metrics::EvalReport;
use crate::strategy::{uniform_allocation, water_filling_allocation, Strategy, TSchedule};
use st_curve::{CurveEstimator, EstimationMode, MeasureRequest, PowerLaw, SliceLossMeasurement};
use st_data::dataset::imbalance_ratio_of;
use st_data::{seeded_rng, split_seed, SliceId, SlicedDataset};
use st_models::{train_on_examples, Mlp, ModelSpec, TrainConfig};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Everything configurable about a Slice Tuner run.
#[derive(Debug, Clone)]
pub struct TunerConfig {
    /// Shared-model architecture.
    pub spec: ModelSpec,
    /// Training hyperparameters (fixed once per dataset, like the paper).
    pub train: TrainConfig,
    /// Subset fractions for curve estimation (the paper's `K` sizes).
    pub fractions: Vec<f64>,
    /// Curves averaged per slice (the paper uses 5).
    pub repeats: usize,
    /// Amortized (Section 4.2) or exhaustive (Section 4.1) estimation.
    pub mode: EstimationMode,
    /// Fairness weight λ (paper default 1).
    pub lambda: f64,
    /// Minimum slice size `L` enforced by Algorithm 1.
    pub min_slice_size: usize,
    /// Safety cap on Algorithm 1 iterations.
    pub max_iterations: usize,
    /// Master seed; all internal randomness derives from it.
    pub seed: u64,
    /// Estimator worker threads, the calling thread included (0 = all
    /// cores). Measurement groups are spread over them, each group on one
    /// thread, with bit-identical results at any count. The kernel runs
    /// every product on the thread that calls it, so these are the only
    /// threads a run uses.
    pub threads: usize,
    /// Optional shared memo table for curve estimations. Keys include the
    /// dataset's content fingerprint and the derived estimator seed, so a
    /// hit is bit-identical to recomputation; share one cache across every
    /// strategy/trial of an experiment (see [`crate::cache`]).
    pub cache: Option<std::sync::Arc<CurveCache>>,
    /// Nothing reads this: every kernel is bit-deterministic. It stays
    /// because the repository benchmark sets it
    /// (`perfbench/src/tune.rs:78`).
    pub allow_nondeterministic_kernel: bool,
    /// Forces the estimator back onto the per-call gather path: clone each
    /// request's subset examples, rebuild every slice's validation matrix,
    /// and score each model on its own, instead of riding the dataset's
    /// cached dense snapshot, row-id subsets, and stacked group
    /// evaluation. Bit-identical either way (the data plane contract);
    /// exists as the reference the data-plane, chaos and drift tests
    /// compare the dense plane against. Off by default.
    pub per_call_gather: bool,
    /// Incremental re-estimation across acquisition rounds: the working
    /// dataset switches to append-only snapshots, the iterative loop tracks
    /// a per-slice dirty set, and (under the exhaustive schedule) each
    /// round re-measures only slices whose training data changed since the
    /// last estimation, reusing the previous round's estimates for the
    /// rest. The estimator seed is pinned across rounds in this mode, so
    /// skipping a clean slice is a pure memo — re-measuring it would
    /// reproduce the cached bits exactly. Off by default (CLI
    /// `--incremental true`). [`TunerConfig::max_staleness`] `= 0` keeps
    /// every incremental semantic but re-measures every slice every round:
    /// the refit-everything baseline. Incremental estimations bypass
    /// [`TunerConfig::cache`] (their results are history-dependent; see
    /// [`crate::cache`]).
    pub incremental: bool,
    /// Panic-isolation retries for estimation measurements and trial
    /// workers (CLI `--retries`, default 2). Retries are **bit-identical**
    /// re-executions — every measurement is a pure function of its
    /// seed-pinned request — so a transient fault recovers exactly; a
    /// persistent one exhausts the retries and the affected slice is
    /// quarantined (see [`TuningWarning`]) instead of aborting the run.
    pub max_retries: usize,
    /// Checkpoint path: iterative runs serialize their round state here
    /// after every acquisition round (see [`crate::checkpoint`]). `None`
    /// disables checkpointing. Multi-trial runs suffix the path with
    /// `.trial<t>` so trials never clobber each other's files.
    pub checkpoint: Option<String>,
    /// Resume from [`TunerConfig::checkpoint`] when that file exists (a
    /// missing file is simply a fresh run). The resumed run replays the
    /// recorded acquisition rounds — consuming the identical source RNG
    /// stream — and continues bit-identically to an uninterrupted run.
    pub resume: bool,
    /// Stops the iterative loop once this many rounds have completed: the
    /// test harness's "kill at round k" crash simulation. The checkpoint
    /// for the completed rounds is on disk; a resumed run continues from
    /// it exactly where the "crash" happened.
    pub halt_after_rounds: Option<usize>,
    /// Automated drift detection (see [`crate::drift`]): every iterative
    /// round, each re-measured slice's observed full-size loss is scored
    /// against the slice's previous fitted curve through a one-sided
    /// log-residual CUSUM; crossing [`TunerConfig::drift_threshold`] flags
    /// the slice ([`TuningWarning::DriftDetected`]) and starts targeted
    /// recovery. Off by default — the stationary path is untouched, bit
    /// for bit.
    pub drift_detection: bool,
    /// CUSUM score at which a slice is flagged as drifting. The score
    /// accumulates log-loss residuals, so a threshold of `t` roughly means
    /// "the slice's measured loss has run `e^t`× above its curve, net of
    /// slack".
    pub drift_threshold: f64,
    /// Per-observation residual allowance subtracted inside the CUSUM —
    /// ordinary measurement noise drains instead of accumulating.
    pub drift_slack: f64,
    /// Bounded staleness for incremental re-estimation: once the examples
    /// acquired for *other* slices since a slice's last measurement exceed
    /// this bound, the slice is force-re-measured even though its own data
    /// never changed (its curve's allocation context has). `usize::MAX`
    /// (the default) keeps the documented unbounded-staleness memo
    /// semantics.
    pub max_staleness: usize,
    /// Drift recoveries (invalidate + fresh-seed re-measure) a slice may
    /// consume before it is treated as persistently drifting and
    /// quarantined: excluded from further acquisition and flagged via
    /// [`TuningWarning::EstimationQuarantined`].
    pub max_drift_resets: usize,
}

impl TunerConfig {
    /// Baseline configuration around a model spec.
    pub fn new(spec: ModelSpec) -> Self {
        TunerConfig {
            spec,
            train: TrainConfig::default(),
            fractions: vec![0.2, 0.4, 0.6, 0.8, 1.0],
            repeats: 2,
            mode: EstimationMode::Amortized,
            lambda: 1.0,
            min_slice_size: 20,
            max_iterations: 20,
            seed: 0,
            threads: 0,
            cache: None,
            allow_nondeterministic_kernel: false,
            per_call_gather: false,
            incremental: false,
            max_retries: 2,
            checkpoint: None,
            resume: false,
            halt_after_rounds: None,
            drift_detection: false,
            drift_threshold: 0.6,
            drift_slack: 0.1,
            max_staleness: usize::MAX,
            max_drift_resets: 3,
        }
    }

    /// The paper's estimation setting: `K = 10` fractions, 5 curves.
    pub fn paper_estimation(mut self) -> Self {
        self.fractions = (1..=10).map(|i| i as f64 / 10.0).collect();
        self.repeats = 5;
        self
    }

    /// Sets the fairness weight λ.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the estimation mode.
    pub fn with_mode(mut self, mode: EstimationMode) -> Self {
        self.mode = mode;
        self
    }

    /// Attaches a shared curve-estimation cache.
    pub fn with_cache(mut self, cache: std::sync::Arc<CurveCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Forces the estimator onto the legacy per-call gather path (see
    /// [`TunerConfig::per_call_gather`]).
    pub fn with_per_call_gather(mut self) -> Self {
        self.per_call_gather = true;
        self
    }

    /// Opts into incremental re-estimation across acquisition rounds (see
    /// [`TunerConfig::incremental`]).
    pub fn with_incremental(mut self) -> Self {
        self.incremental = true;
        self
    }

    /// Sets the panic-isolation retry budget (see
    /// [`TunerConfig::max_retries`]).
    pub fn with_max_retries(mut self, retries: usize) -> Self {
        self.max_retries = retries;
        self
    }

    /// Enables round checkpointing to `path` (see
    /// [`TunerConfig::checkpoint`]).
    pub fn with_checkpoint(mut self, path: impl Into<String>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Resumes from the checkpoint when it exists (see
    /// [`TunerConfig::resume`]).
    pub fn with_resume(mut self) -> Self {
        self.resume = true;
        self
    }

    /// Halts the iterative loop after `rounds` completed rounds — the
    /// crash simulation (see [`TunerConfig::halt_after_rounds`]).
    pub fn with_halt_after_rounds(mut self, rounds: usize) -> Self {
        self.halt_after_rounds = Some(rounds);
        self
    }

    /// Enables drift detection at the given CUSUM threshold (see
    /// [`TunerConfig::drift_detection`]).
    pub fn with_drift_detection(mut self, threshold: f64) -> Self {
        self.drift_detection = true;
        self.drift_threshold = threshold;
        self
    }

    /// Bounds incremental staleness to `bound` foreign examples (see
    /// [`TunerConfig::max_staleness`]).
    pub fn with_max_staleness(mut self, bound: usize) -> Self {
        self.max_staleness = bound;
        self
    }

    /// Sets the drift-recovery budget before quarantine (see
    /// [`TunerConfig::max_drift_resets`]).
    pub fn with_max_drift_resets(mut self, resets: usize) -> Self {
        self.max_drift_resets = resets;
        self
    }
}

/// A structured, non-fatal problem a run survived; surfaced in
/// [`RunResult::warnings`] so reports can show *what degraded* instead of
/// the run aborting.
#[derive(Debug, Clone, PartialEq)]
pub enum TuningWarning {
    /// An estimation measurement exhausted its retries. The affected
    /// slice's curve fell back to its last good fit (incremental mode) or
    /// to the log-mean of the other slices' fits — allocation
    /// continued without this round's evidence for that slice.
    EstimationQuarantined {
        /// The targeted slice (`None` = a joint amortized measurement).
        slice: Option<usize>,
        /// The estimation round (the tuner's stream number; round `r`
        /// matches `ST_FAULT=nan_loss@slice<S>:round<r>`).
        round: u64,
        /// Attempts spent before quarantining.
        attempts: usize,
        /// The captured panic message.
        cause: String,
    },
    /// The drift detector's residual CUSUM for a slice crossed
    /// [`TunerConfig::drift_threshold`]: the slice's measured losses have
    /// run persistently above its previously fitted curve. The tuner
    /// responded with a targeted recovery (invalidate + fresh-seed
    /// re-measure); see [`crate::drift`].
    DriftDetected {
        /// The drifting slice.
        slice: usize,
        /// The iterative round whose measurement crossed the threshold
        /// (same numbering as estimation rounds: `r` matches
        /// `ST_DRIFT=...@slice<S>:round<r'>` events with `r' <= r`).
        round: u64,
        /// The CUSUM score at detection.
        score: f64,
    },
}

impl std::fmt::Display for TuningWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuningWarning::EstimationQuarantined {
                slice,
                round,
                attempts,
                cause,
            } => match slice {
                Some(s) => write!(
                    f,
                    "slice {s} quarantined in estimation round {round} after {attempts} \
                     attempt(s): {cause}"
                ),
                None => write!(
                    f,
                    "joint measurement dropped in estimation round {round} after {attempts} \
                     attempt(s): {cause}"
                ),
            },
            TuningWarning::DriftDetected {
                slice,
                round,
                score,
            } => write!(
                f,
                "drift detected on slice {slice} in round {round} (score {score:.3})"
            ),
        }
    }
}

/// Outcome of one strategy run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Evaluation before any acquisition ("Original" in the tables).
    pub original: EvalReport,
    /// Evaluation after acquisition and retraining.
    pub report: EvalReport,
    /// Examples acquired per slice.
    pub acquired: Vec<usize>,
    /// Iterations performed (1 for One-shot and the baselines).
    pub iterations: usize,
    /// Budget actually spent.
    pub spent: f64,
    /// Model trainings performed (estimation + evaluation), for Table 8.
    pub trainings: usize,
    /// Non-fatal problems the run survived (quarantined slices, dropped
    /// measurements). Empty on a healthy run. Excluded — like `trainings`
    /// — from [`AggregateResult::bits_identical_to`]'s result-bit
    /// comparison: warnings describe the execution, not the outcome.
    ///
    /// [`AggregateResult::bits_identical_to`]: crate::runner::AggregateResult::bits_identical_to
    pub warnings: Vec<TuningWarning>,
}

/// Algorithm 1 between rounds: exactly the state a [`RoundCheckpoint`]
/// records. [`SliceTuner::begin_iterative`] builds it;
/// [`SliceTuner::plan_round`] and [`SliceTuner::apply_round`] step it.
pub struct IterativeRun {
    schedule: TSchedule,
    budget: f64,
    remaining: f64,
    total_spent: f64,
    /// The imbalance-ratio change limit `T`.
    t: f64,
    iterations: usize,
    /// Incremental mode's dirty set and memoized estimates.
    inc: Option<IncrementalState>,
    /// Drift detection and bounded staleness; `None` skips every hook.
    det: Option<DriftDetector>,
    pre_pass: Vec<usize>,
    rounds: Vec<Vec<usize>>,
}

impl IterativeRun {
    /// Completed acquisition rounds.
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

/// One planned round of Algorithm 1, before anything is bought.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundPlan {
    /// The curves the allocation was solved on: failed fits replaced by
    /// the fallback, drift-quarantined slices flattened.
    pub curves: Vec<PowerLaw>,
    /// The §5.1 optimum for the remaining budget.
    pub raw: Vec<f64>,
    /// `raw` scaled so the imbalance ratio moves by at most `T`.
    pub capped: Vec<f64>,
    /// `capped` rounded to whole examples within the remaining budget:
    /// what [`SliceTuner::apply_round`] acquires.
    pub counts: Vec<usize>,
}

/// The Slice Tuner engine bound to a working dataset and a source.
pub struct SliceTuner<'a, S: AcquisitionSource> {
    ds: SlicedDataset,
    source: &'a mut S,
    config: TunerConfig,
    trainings: AtomicUsize,
    warnings: parking_lot::Mutex<Vec<TuningWarning>>,
}

impl<'a, S: AcquisitionSource> SliceTuner<'a, S> {
    /// Binds the engine to a dataset snapshot and an acquisition source.
    ///
    /// Every tuner path — the CLI's direct commands, the sequential trial
    /// runner, each worker of the parallel executor, and server sessions —
    /// funnels through here and runs `config` as given.
    pub fn new(mut ds: SlicedDataset, source: &'a mut S, config: TunerConfig) -> Self {
        if config.incremental {
            // Acquired rows append below the existing train matrix instead
            // of forcing a full snapshot re-stack each round.
            ds.enable_incremental_snapshot();
        }
        SliceTuner {
            ds,
            source,
            config,
            trainings: AtomicUsize::new(0),
            warnings: parking_lot::Mutex::new(Vec::new()),
        }
    }

    /// The current working dataset.
    pub fn dataset(&self) -> &SlicedDataset {
        &self.ds
    }

    /// The configuration in effect.
    pub fn config(&self) -> &TunerConfig {
        &self.config
    }

    /// Model trainings performed so far.
    pub fn trainings(&self) -> usize {
        self.trainings.load(Ordering::Relaxed)
    }

    /// Trains the shared model on all current training data and evaluates it.
    ///
    /// Rides the dataset's dense snapshot: the stacked training matrix is
    /// reused instead of cloning every example into a fresh buffer, and
    /// the evaluation reuses the cached per-slice validation matrices.
    /// Bit-identical to the per-call gather baseline
    /// ([`TunerConfig::per_call_gather`]), which clones and re-gathers
    /// like PR 4 did.
    pub fn train_and_eval(&self, stream: u64) -> (Mlp, EvalReport) {
        let cfg = self
            .config
            .train
            .with_seed(split_seed(self.config.seed, 0xE0A1 ^ stream));
        if self.config.per_call_gather {
            let model = train_on_examples(
                &self.ds.all_train(),
                self.ds.feature_dim,
                self.ds.num_classes,
                &self.config.spec,
                &cfg,
            );
            self.trainings.fetch_add(1, Ordering::Relaxed);
            let report = EvalReport::evaluate_per_call(&model, &self.ds);
            return (model, report);
        }
        let dense = self.ds.matrices();
        // The stacked matrix holds all_train()'s rows in the same order,
        // so training on it is bit-identical to the cloning path (an
        // empty dataset falls through `train`'s n == 0 early return with
        // the same freshly-initialized network). An appended-layout
        // snapshot (incremental mode) is no longer slice-major, so the
        // minibatch gathers go through the canonical row order instead —
        // the gathered bytes, and therefore the training bits, still match
        // the re-stacked matrix exactly (the data-plane gather contract).
        let model = if dense.is_slice_major() {
            st_models::train(
                &dense.train_x,
                &dense.train_y,
                self.ds.feature_dim,
                self.ds.num_classes,
                &self.config.spec,
                &cfg,
            )
        } else {
            st_models::train_on_rows(
                &dense.train_x,
                &dense.train_y,
                &dense.canonical_row_order(),
                self.ds.feature_dim,
                self.ds.num_classes,
                &self.config.spec,
                &cfg,
            )
        };
        self.trainings.fetch_add(1, Ordering::Relaxed);
        let report = EvalReport::evaluate(&model, &self.ds);
        (model, report)
    }

    /// Estimates one power-law learning curve per slice (Section 4).
    ///
    /// `stream` decorrelates successive updates (Algorithm 1 re-estimates
    /// every iteration). Slices whose fit fails — e.g. a saturated slice
    /// with degenerate losses — fall back to the log-mean of the successful
    /// fits (relative comparisons still work, which is all Slice Tuner
    /// needs), or to a mild default curve when every fit fails.
    pub fn estimate_curves(&self, stream: u64) -> Vec<PowerLaw> {
        let fits = self
            .estimate_curves_detailed(stream)
            .into_iter()
            .map(|e| e.fit)
            .collect();
        resolve_fallbacks(fits)
    }

    /// [`estimate_curves`](Self::estimate_curves) keeping the evidence: raw
    /// measured points and per-repeat fits per slice, for reliability
    /// diagnostics (Section 6.3.4's "are my curves trustworthy?" question)
    /// — see [`st_curve::SliceEstimate::bands`].
    pub fn estimate_curves_detailed(&self, stream: u64) -> Vec<st_curve::SliceEstimate> {
        let estimator = CurveEstimator {
            fractions: self.config.fractions.clone(),
            repeats: self.config.repeats,
            mode: self.config.mode,
            seed: split_seed(self.config.seed, 0xC04E ^ stream),
            threads: self.config.threads,
            retries: self.config.max_retries,
        };
        match &self.config.cache {
            // An active fault plan makes results round-dependent (the plan
            // targets specific rounds), so memoizing them under standard
            // keys would leak injected faults across rounds and runs.
            Some(cache) if !st_linalg::fault::active() => {
                let key = CurveKey::new(
                    self.ds.fingerprint(),
                    crate::cache::model_fingerprint(&self.config.spec, &self.config.train),
                    estimator.seed,
                    &estimator.fractions,
                    estimator.repeats,
                    estimator.mode,
                );
                let cached = cache.get_or_compute(key, || self.run_estimator(&estimator, stream));
                cached.as_ref().clone()
            }
            _ => self.run_estimator(&estimator, stream),
        }
    }

    /// Incremental re-estimation (the [`TunerConfig::incremental`] mode):
    /// under the exhaustive schedule, re-measures only the slices `state`
    /// flags dirty, reusing the previous round's estimates for the rest,
    /// then resets the dirty set.
    ///
    /// The exhaustive estimator seed is **pinned across rounds** (to the
    /// first iterative round's derivation), so a clean slice's cached
    /// estimate is bit-identical to what re-measuring it *on its own
    /// data* would produce. The reuse is still an approximation in one
    /// documented sense: an exhaustive measurement trains on the target
    /// slice's subset plus every *other* slice whole, so when other
    /// slices grow, a clean slice's true curve drifts (cross-slice
    /// influence, Section 5.2). That staleness has the same character as
    /// Algorithm 1's between-round staleness — curves are always acted on
    /// one acquisition behind the data — which is why incremental mode is
    /// opt-in. Every fit is the plain [`st_curve::fit_power_law`] of the
    /// slice's points, so a re-measured slice's estimate is bit-identical
    /// to a from-scratch exhaustive estimation's on the same data.
    ///
    /// Under [`EstimationMode::Amortized`] one joint training measures
    /// every slice — nothing can be skipped — so this delegates to the
    /// plain full schedule at the caller's `stream`, making amortized
    /// incremental runs bit-identical to from-scratch ones (only the
    /// append-only data plane differs, and that is gather-contract
    /// bit-identical).
    ///
    /// Exhaustive results are history-dependent (they splice in estimates
    /// from earlier rounds), so this path never consults
    /// [`TunerConfig::cache`] — see [`crate::cache`] for why such results
    /// must not be memoized under standard keys.
    pub fn estimate_curves_incremental(
        &self,
        stream: u64,
        state: &mut IncrementalState,
    ) -> Vec<st_curve::SliceEstimate> {
        let n = self.ds.num_slices();
        assert_eq!(state.dirty.len(), n, "state sized for a different dataset");
        if self.config.mode == EstimationMode::Amortized {
            for d in &mut state.dirty {
                *d = false;
            }
            return self.estimate_curves_detailed(stream);
        }
        let estimator = CurveEstimator {
            fractions: self.config.fractions.clone(),
            repeats: self.config.repeats,
            mode: self.config.mode,
            // Pinned: request seeds depend only on schedule position, so an
            // unchanged slice's re-measurement reproduces its cached bits.
            // Round-to-round decorrelation comes from the data changing.
            seed: split_seed(self.config.seed, 0xC04E ^ 1),
            threads: self.config.threads,
            retries: self.config.max_retries,
        };
        let estimates: Vec<st_curve::SliceEstimate> = match &state.prev {
            Some(prev) => {
                let (partial, errors) = self.run_estimator_with(
                    &estimator,
                    Some(&state.dirty),
                    Some(&state.seed_bumps),
                    stream,
                );
                // A quarantined slice (retries exhausted) keeps its last
                // good fit: the previous round's estimate is stale but
                // finite evidence, strictly better than no curve. Slices
                // whose fit merely failed numerically (no panic) keep the
                // normal resolve_fallbacks treatment downstream.
                let quarantined: std::collections::HashSet<usize> =
                    errors.iter().filter_map(|e| e.target_slice).collect();
                self.record_quarantines(errors, stream);
                partial
                    .into_iter()
                    .zip(prev.iter())
                    .enumerate()
                    .map(|(s, (new, old))| match new {
                        Some(est) if quarantined.contains(&s) && est.fit.is_err() => old.clone(),
                        Some(est) => est,
                        None => old.clone(),
                    })
                    .collect()
            }
            None => {
                let (full, errors) = self.run_estimator_with(
                    &estimator,
                    Some(&vec![true; n]),
                    Some(&state.seed_bumps),
                    stream,
                );
                self.record_quarantines(errors, stream);
                full.into_iter()
                    .map(|e| e.expect("all slices targeted"))
                    .collect()
            }
        };
        state.prev = Some(estimates.clone());
        for d in &mut state.dirty {
            *d = false;
        }
        estimates
    }

    /// Executes one full (uncached) estimation with the given schedule
    /// (see [`run_estimator_with`](Self::run_estimator_with)).
    fn run_estimator(
        &self,
        estimator: &CurveEstimator,
        round: u64,
    ) -> Vec<st_curve::SliceEstimate> {
        let (estimates, errors) = self.run_estimator_with(estimator, None, None, round);
        self.record_quarantines(errors, round);
        estimates
            .into_iter()
            .map(|e| e.expect("full estimation yields every slice"))
            .collect()
    }

    /// Converts estimation-layer quarantine errors into the run's
    /// structured warnings ([`RunResult::warnings`]).
    fn record_quarantines(&self, errors: Vec<st_curve::EstimateError>, round: u64) {
        if errors.is_empty() {
            return;
        }
        let mut warnings = self.warnings.lock();
        for e in errors {
            warnings.push(TuningWarning::EstimationQuarantined {
                slice: e.target_slice,
                round,
                attempts: e.attempts,
                cause: e.cause,
            });
        }
    }

    /// One uncached estimation: the full schedule when `targets` is `None`,
    /// else the partial exhaustive schedule over the flagged slices (whose
    /// request seeds — and bits — match a full run's; see
    /// [`CurveEstimator::estimate`]). `bumps = Some(per_slice)` applies
    /// drift-recovery seed bumps: a slice with a non-zero bump derives its
    /// measurement seeds from a bumped request seed, so its post-drift
    /// re-measurement draws fresh subsets instead of replaying the pinned
    /// pre-drift ones. A zero bump leaves the request seed untouched — the
    /// no-drift path is bit-identical.
    ///
    /// The estimator hands over one group per `(target slice, fraction)`
    /// cell — that subset size's repeats. The hot path is matrix-native:
    /// the dataset's dense snapshot ([`SlicedDataset::matrices`]) is
    /// fetched **once** per estimation — per-slice validation matrices,
    /// label vectors, and the stacked training matrix are built at most
    /// once per acquisition step — subsets are sampled as row ids with
    /// their per-slice counts, each model trains alone through
    /// [`st_models::train_on_rows`], and the group is evaluated with one
    /// stacked-weight product per validation matrix
    /// ([`st_models::MultiEval`]). Per request, every step is bit-identical
    /// to the per-call gather reference ([`TunerConfig::per_call_gather`]),
    /// which the data-plane tests pin.
    fn run_estimator_with(
        &self,
        estimator: &CurveEstimator,
        targets: Option<&[bool]>,
        bumps: Option<&[u64]>,
        round: u64,
    ) -> (
        Vec<Option<st_curve::SliceEstimate>>,
        Vec<st_curve::EstimateError>,
    ) {
        if self.config.per_call_gather {
            return self.run_estimator_per_call(estimator, targets, bumps, round);
        }
        let n = self.ds.num_slices();
        let ds = &self.ds;
        let dense = self.ds.matrices();
        let spec = &self.config.spec;
        let train_cfg = &self.config.train;
        let counter = &self.trainings;

        let measure = move |group: &[MeasureRequest]| -> Vec<Vec<SliceLossMeasurement>> {
            // ST_FAULT nan_loss injection point: a group has one target
            // slice, so one scope arms the whole group's training for this
            // (slice, round). A no-op unless a matching plan entry exists.
            let _nan_guard = st_linalg::fault::arm_nan_loss(group[0].target_slice, round);
            // Per-request subset sampling and training with each request's
            // own seed streams — grouping must not perturb a single RNG draw.
            let mut subsets: Vec<st_data::SubsetRows> = Vec::with_capacity(group.len());
            let mut models: Vec<Mlp> = Vec::with_capacity(group.len());
            for req in group {
                let seed = bumped_seed(req, bumps);
                let subset = match req.target_slice {
                    None => dense.joint_subset_rows(req.frac, &mut seeded_rng(split_seed(seed, 0))),
                    Some(s) => {
                        let len = dense.slice_len(s);
                        let k = ((len as f64 * req.frac).round() as usize).clamp(1, len.max(1));
                        let mut rng = seeded_rng(split_seed(seed, 1));
                        dense.exhaustive_subset_rows(SliceId(s), k, &mut rng)
                    }
                };
                models.push(st_models::train_on_rows(
                    &dense.train_x,
                    &dense.train_y,
                    &subset.rows,
                    ds.feature_dim,
                    ds.num_classes,
                    spec,
                    &train_cfg.with_seed(split_seed(seed, 2)),
                ));
                subsets.push(subset);
            }
            counter.fetch_add(group.len(), Ordering::Relaxed);

            // Stacked evaluation: every model in the group scores a slice's
            // validation matrix through one wide product instead of one
            // narrow product each.
            let multi = st_models::MultiEval::new(&models);
            let mut scratch = st_models::MultiEvalScratch::default();
            let mut out: Vec<Vec<SliceLossMeasurement>> = vec![Vec::new(); group.len()];
            let mut eval_slice = |s: usize, out: &mut Vec<Vec<SliceLossMeasurement>>| {
                let losses = multi.losses(&dense.val_x[s], &dense.val_y[s], &mut scratch);
                for (r, &loss) in losses.iter().enumerate() {
                    out[r].push(SliceLossMeasurement {
                        slice: s,
                        n: subsets[r].per_slice[s],
                        loss,
                    });
                }
            };
            match group[0].target_slice {
                // Amortized: each training informs every slice's curve,
                // slices ascending.
                None => (0..n).for_each(|s| eval_slice(s, &mut out)),
                // Exhaustive: a group has one target slice.
                Some(s) => eval_slice(s, &mut out),
            }
            out
        };

        estimator.estimate(n, targets, &measure)
    }

    /// The PR-4 estimation data plane, kept as the bit-identity reference:
    /// each request of a group is measured on its own, cloning its subset
    /// examples, re-building each slice's validation matrix, and
    /// re-scanning the subset per slice for `n_in_subset` (see
    /// [`TunerConfig::per_call_gather`]).
    fn run_estimator_per_call(
        &self,
        estimator: &CurveEstimator,
        targets: Option<&[bool]>,
        bumps: Option<&[u64]>,
        round: u64,
    ) -> (
        Vec<Option<st_curve::SliceEstimate>>,
        Vec<st_curve::EstimateError>,
    ) {
        let n = self.ds.num_slices();
        let ds = &self.ds;
        let spec = &self.config.spec;
        let train_cfg = &self.config.train;
        let counter = &self.trainings;

        let measure = move |req: &MeasureRequest| -> Vec<SliceLossMeasurement> {
            let _nan_guard = st_linalg::fault::arm_nan_loss(req.target_slice, round);
            let seed = bumped_seed(req, bumps);
            let subset = match req.target_slice {
                None => ds.joint_train_subset_seeded(req.frac, seed, 0),
                Some(s) => {
                    let len = ds.slices[s].train.len();
                    let k = ((len as f64 * req.frac).round() as usize).clamp(1, len.max(1));
                    let mut rng = seeded_rng(split_seed(seed, 1));
                    ds.exhaustive_train_subset(SliceId(s), k, &mut rng)
                }
            };
            let model = train_on_examples(
                &subset,
                ds.feature_dim,
                ds.num_classes,
                spec,
                &train_cfg.with_seed(split_seed(seed, 2)),
            );
            counter.fetch_add(1, Ordering::Relaxed);

            let packed = model.packed();
            let eval_slice = |s: usize| -> SliceLossMeasurement {
                let n_in_subset = subset.iter().filter(|e| e.slice.index() == s).count();
                let val = &ds.slices[s].validation;
                let x = st_models::examples_to_matrix(val);
                let y: Vec<usize> = val.iter().map(|e| e.label).collect();
                SliceLossMeasurement {
                    slice: s,
                    n: n_in_subset,
                    loss: st_models::log_loss_packed(&packed, &x, &y),
                }
            };
            match req.target_slice {
                None => (0..n).map(eval_slice).collect(),
                Some(s) => vec![eval_slice(s)],
            }
        };

        estimator.estimate(n, targets, &|group| group.iter().map(&measure).collect())
    }

    /// One-shot's continuous allocation: the exact optimum of the convex
    /// program for the given curves and budget (Section 5.1).
    pub fn one_shot_allocation(&self, curves: &[PowerLaw], budget: f64) -> Vec<f64> {
        let sizes: Vec<f64> = self.ds.train_sizes().iter().map(|&s| s as f64).collect();
        let costs = self.ds.costs();
        let problem = st_optim::AcquisitionProblem::new(
            curves.to_vec(),
            sizes,
            costs,
            budget,
            self.config.lambda,
        );
        st_optim::solve(&problem).0
    }

    /// Copies the source's current per-slice costs into the working
    /// dataset. Section 2.1 allows `C(s)` to grow as data becomes scarcer
    /// but holds it constant within a batch; Algorithm 1 therefore re-reads
    /// costs at the start of every iteration.
    fn refresh_costs(&mut self) {
        for i in 0..self.ds.num_slices() {
            self.ds.slices[i].cost = self.source.cost(SliceId(i));
        }
    }

    /// Runs a full strategy with the given budget and returns the outcome.
    /// The working dataset retains everything acquired.
    ///
    /// # Panics
    /// Panics with a one-line diagnostic when checkpointing fails (see
    /// [`try_run`](Self::try_run) for the non-panicking form).
    pub fn run(&mut self, strategy: Strategy, budget: f64) -> RunResult {
        match self.try_run(strategy, budget) {
            Ok(result) => result,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`run`](Self::run) returning checkpoint failures (unwritable paths,
    /// foreign or newer checkpoint files) as typed errors instead of
    /// panicking.
    ///
    /// # Errors
    /// Returns [`crate::Error::Checkpoint`] when the configured checkpoint
    /// cannot be written, read, or applied.
    pub fn try_run(&mut self, strategy: Strategy, budget: f64) -> Result<RunResult, crate::Error> {
        self.refresh_costs();
        let (_, original) = self.train_and_eval(0);
        let before_sizes = self.ds.train_sizes();

        let (iterations, spent) = match strategy {
            Strategy::Uniform => {
                let d = uniform_allocation(&self.ds.costs(), budget);
                (1, self.acquire_rounded(&d, budget))
            }
            Strategy::WaterFilling => {
                let sizes: Vec<f64> = self.ds.train_sizes().iter().map(|&s| s as f64).collect();
                let d = water_filling_allocation(&sizes, &self.ds.costs(), budget);
                (1, self.acquire_rounded(&d, budget))
            }
            Strategy::Proportional => {
                let sizes: Vec<f64> = self.ds.train_sizes().iter().map(|&s| s as f64).collect();
                let d = crate::strategy::proportional_allocation(&sizes, &self.ds.costs(), budget);
                (1, self.acquire_rounded(&d, budget))
            }
            Strategy::OneShot => {
                let curves = self.estimate_curves(0);
                let d = self.one_shot_allocation(&curves, budget);
                (1, self.acquire_rounded(&d, budget))
            }
            Strategy::Iterative(schedule) => {
                let mut run = self.begin_iterative(schedule, budget)?;
                self.run_rounds(&mut run, self.config.halt_after_rounds)?;
                (run.iterations.max(1), run.total_spent)
            }
            Strategy::RottingBandit(params) => self.run_bandit(params, budget),
        };

        let (_, report) = self.train_and_eval(1);
        let acquired: Vec<usize> = self
            .ds
            .train_sizes()
            .iter()
            .zip(&before_sizes)
            .map(|(now, before)| now - before)
            .collect();
        let mut warnings = std::mem::take(&mut *self.warnings.lock());
        // Parallel estimation records warnings in executor completion
        // order; reports (and CI greps) need one canonical order, so sort
        // by (round, slice) — the stable sort keeps a slice's drift
        // warning ahead of its same-round quarantine escalation.
        warnings.sort_by_key(|w| match w {
            TuningWarning::DriftDetected { round, slice, .. } => (*round, *slice, 0),
            TuningWarning::EstimationQuarantined { round, slice, .. } => {
                (*round, slice.unwrap_or(usize::MAX), 1)
            }
        });
        Ok(RunResult {
            original,
            report,
            acquired,
            iterations,
            spent,
            trainings: self.trainings(),
            warnings,
        })
    }

    /// Starts Algorithm 1 (steps 1–6): resumes from the checkpoint when
    /// [`TunerConfig::resume`] finds one, else runs the minimum-size
    /// pre-pass. Writes nothing. A resume **replays** the recorded counts
    /// through the live source, which consumes the identical RNG stream
    /// and rebuilds the identical dataset bits; estimation is not replayed
    /// (measurements are pure functions of their seed-pinned requests).
    ///
    /// # Errors
    /// Unreadable, foreign or newer checkpoint files.
    pub fn begin_iterative(
        &mut self,
        schedule: TSchedule,
        budget: f64,
    ) -> Result<IterativeRun, CheckpointError> {
        self.refresh_costs();
        let n = self.ds.num_slices();
        let mut run = IterativeRun {
            schedule,
            budget,
            remaining: budget,
            total_spent: 0.0,
            t: 1.0,
            iterations: 0,
            inc: self.config.incremental.then(|| IncrementalState::new(n)),
            det: DriftDetector::from_config(&self.config, n),
            pre_pass: Vec::new(),
            rounds: Vec::new(),
        };
        let saved = match (&self.config.checkpoint, self.config.resume) {
            (Some(p), true) => checkpoint::load(p)?,
            _ => None,
        };
        let Some(saved) = saved else {
            // Steps 3–6: ensure the minimum slice size L.
            let l = self.config.min_slice_size;
            let deficit: Vec<f64> = self
                .ds
                .train_sizes()
                .iter()
                .map(|&s| (l.saturating_sub(s)) as f64)
                .collect();
            if deficit.iter().any(|&d| d > 0.0) {
                self.source.note_round(0);
                let counts = st_optim::round_to_budget(&deficit, &self.ds.costs(), budget);
                let spent = self.acquire_counts(&counts);
                run.remaining -= spent;
                run.total_spent += spent;
                run.pre_pass = counts;
            }
            return Ok(run);
        };
        saved.check_compatible(self.config.seed, budget, n)?;
        if !saved.pre_pass.is_empty() {
            self.source.note_round(0);
            self.acquire_counts(&saved.pre_pass);
        }
        for (i, counts) in saved.rounds.iter().enumerate() {
            self.refresh_costs();
            // Replayed draws must land on the same round numbers the
            // original run acquired them at, or a drift plan would poison
            // a different prefix of the rebuilt dataset.
            self.source.note_round(i as u64 + 1);
            self.acquire_counts(counts);
        }
        run.remaining = f64::from_bits(saved.remaining_bits);
        run.total_spent = f64::from_bits(saved.total_spent_bits);
        run.t = f64::from_bits(saved.t_bits);
        run.iterations = saved.iterations as usize;
        if let (Some(state), Some(snap)) = (run.inc.as_mut(), saved.inc.as_ref()) {
            state.restore(snap);
        }
        if let (Some(det), Some(snap)) = (run.det.as_mut(), saved.drift.as_ref()) {
            det.restore(snap);
        }
        run.pre_pass = saved.pre_pass;
        run.rounds = saved.rounds;
        Ok(run)
    }

    /// Algorithm 1's stop rule (step 8): the remaining budget cannot buy
    /// one example of the cheapest slice, or the round cap is reached.
    /// Costs are re-read first, because `C(s)` may have escalated since
    /// the last batch (Section 2.1: costs grow as data becomes scarcer,
    /// but are constant within a batch).
    fn is_finished(&mut self, run: &IterativeRun) -> bool {
        self.refresh_costs();
        let min_cost = self.ds.costs().into_iter().fold(f64::INFINITY, f64::min);
        run.remaining < min_cost || run.iterations >= self.config.max_iterations
    }

    /// Plans the next round (steps 8–15), or `None` once the stop rule
    /// holds: estimates the curves, feeds the drift detector, solves §5.1,
    /// caps the imbalance-ratio change at `T`, and rounds. Buys nothing,
    /// but steps the estimation state (memos, dirty set, drift evidence,
    /// warnings) as the round does.
    pub fn plan_round(&mut self, run: &mut IterativeRun) -> Option<RoundPlan> {
        if self.is_finished(run) {
            return None;
        }
        let n = self.ds.num_slices();
        let round = run.iterations as u64 + 1;
        // Step 9's curves. `measured` records which slices this round
        // actually re-measured (the rest splice in memoized estimates), so
        // the drift detector only scores fresh evidence.
        let (detailed, measured) = match run.inc.as_mut() {
            None => (self.estimate_curves_detailed(round), vec![true; n]),
            Some(state) => {
                let measured =
                    if self.config.mode == EstimationMode::Amortized || !state.has_estimates() {
                        vec![true; n]
                    } else {
                        state.dirty().to_vec()
                    };
                (self.estimate_curves_incremental(round, state), measured)
            }
        };
        let mut curves = resolve_fallbacks(detailed.iter().map(|e| e.fit.clone()).collect());

        if let Some(det) = run.det.as_mut() {
            for flag in det.observe_round(&measured, &detailed) {
                let resets = det.begin_recovery(flag.slice);
                self.warnings.lock().push(TuningWarning::DriftDetected {
                    slice: flag.slice,
                    round,
                    score: flag.score,
                });
                if resets > self.config.max_drift_resets {
                    // Recovery ladder rung 3: the slice keeps drifting
                    // through its recovery budget — stop buying its
                    // poisoned data and say so through the quarantine
                    // warning channel.
                    det.quarantine(flag.slice);
                    self.warnings
                        .lock()
                        .push(TuningWarning::EstimationQuarantined {
                            slice: Some(flag.slice),
                            round,
                            attempts: resets,
                            cause: "persistent drift: recovery budget exhausted".to_string(),
                        });
                } else if let Some(state) = run.inc.as_mut() {
                    // Rungs 1–2: invalidate the memoized estimate and bump
                    // the slice's measurement seed so next round refits
                    // from fresh post-drift draws.
                    state.force_dirty(flag.slice);
                    state.seed_bumps[flag.slice] = resets as u64;
                }
            }
        }

        // A drift-quarantined slice's curve is replaced by a flat
        // zero-benefit stand-in before allocation, so the solver routes its
        // share to the clean slices instead of stranding it (zeroing the
        // allocation after the fact would leave budget unspent).
        let quarantined = |s: usize| run.det.as_ref().is_some_and(|d| d.is_quarantined(s));
        for (s, c) in curves.iter_mut().enumerate() {
            if quarantined(s) {
                *c = PowerLaw::new(f64::MIN_POSITIVE, c.a);
            }
        }
        let mut raw = self.one_shot_allocation(&curves, run.remaining);
        for (s, x) in raw.iter_mut().enumerate() {
            if quarantined(s) {
                *x = 0.0;
            }
        }

        // Steps 10–15: cap the imbalance-ratio change at T, measured from
        // the live dataset's ratio (a resumed run recomputes it from the
        // replayed dataset bit-exactly).
        let ir = self.ds.imbalance_ratio();
        let sizes: Vec<f64> = self.ds.train_sizes().iter().map(|&s| s as f64).collect();
        let proposed: Vec<f64> = sizes.iter().zip(&raw).map(|(s, x)| s + x).collect();
        let after_ir = imbalance_of(&proposed);
        let mut capped = raw.clone();
        if (after_ir - ir).abs() > run.t {
            let target = ir + run.t * (after_ir - ir).signum();
            let ratio = st_optim::change_ratio(&sizes, &raw, target);
            for x in &mut capped {
                *x *= ratio;
            }
        }
        let counts = st_optim::round_to_budget(&capped, &self.ds.costs(), run.remaining);
        Some(RoundPlan {
            curves,
            raw,
            capped,
            counts,
        })
    }

    /// Executes a [`plan_round`](Self::plan_round) plan (steps 16–20):
    /// acquires its counts, marks the slices it grew dirty, steps the
    /// staleness counters, the budget, the round count and `T`. Returns
    /// false when nothing was bought, which ends Algorithm 1.
    pub fn apply_round(&mut self, run: &mut IterativeRun, plan: &RoundPlan) -> bool {
        let before = self.ds.train_sizes();
        self.source.note_round(run.iterations as u64 + 1);
        let spent = self.acquire_counts(&plan.counts);
        if spent <= 0.0 {
            return false;
        }
        let after = self.ds.train_sizes();
        if let Some(state) = run.inc.as_mut() {
            state.mark_dirty(&before, &after);
        }
        if let Some(det) = run.det.as_mut() {
            // Bounded staleness: clean slices whose neighbors' growth
            // crossed the bound are re-measured next round even though
            // their own data never changed (pinned seed, no bump — a plain
            // memo invalidation).
            for s in det.note_growth(&before, &after) {
                if let Some(state) = run.inc.as_mut() {
                    state.force_dirty(s);
                }
            }
        }
        run.remaining -= spent;
        run.total_spent += spent;
        run.iterations += 1;
        run.rounds.push(plan.counts.clone());
        run.t = run.schedule.increase(run.t);
        true
    }

    /// Writes `run` to [`TunerConfig::checkpoint`] (a no-op without one):
    /// the state [`begin_iterative`](Self::begin_iterative) resumes from.
    fn save_checkpoint(&self, run: &IterativeRun) -> Result<(), CheckpointError> {
        let Some(path) = &self.config.checkpoint else {
            return Ok(());
        };
        checkpoint::save(
            path,
            &RoundCheckpoint {
                seed: self.config.seed,
                budget_bits: run.budget.to_bits(),
                num_slices: self.ds.num_slices() as u64,
                pre_pass: run.pre_pass.clone(),
                rounds: run.rounds.clone(),
                remaining_bits: run.remaining.to_bits(),
                total_spent_bits: run.total_spent.to_bits(),
                t_bits: run.t.to_bits(),
                iterations: run.iterations as u64,
                inc: run.inc.as_ref().map(|s| s.snapshot()),
                drift: run.det.as_ref().map(|d| d.snapshot()),
            },
        )
    }

    /// Saves `run` (so a crash inside the next round can resume), then
    /// steps it round by round, saving after each, until Algorithm 1 stops
    /// or `until` rounds have completed. Returns whether the run is over:
    /// the stop rule holds, or a round bought nothing.
    ///
    /// # Errors
    /// The checkpoint file cannot be written.
    pub fn run_rounds(
        &mut self,
        run: &mut IterativeRun,
        until: Option<usize>,
    ) -> Result<bool, CheckpointError> {
        self.save_checkpoint(run)?;
        while until.is_none_or(|k| run.iterations < k) {
            let Some(plan) = self.plan_round(run) else {
                return Ok(true);
            };
            if !self.apply_round(run, &plan) {
                return Ok(true);
            }
            self.save_checkpoint(run)?;
        }
        Ok(self.is_finished(run))
    }

    /// The ε-greedy rotting-bandit baseline: each round spends one batch on
    /// a single slice and observes the reward (loss reduction per unit cost)
    /// by retraining. Model-free — no learning curves — so every pull costs
    /// a full training, and exploration wastes budget on saturated arms.
    fn run_bandit(&mut self, params: crate::strategy::BanditParams, budget: f64) -> (usize, f64) {
        use rand::Rng;
        let n = self.ds.num_slices();
        let costs = self.ds.costs();
        let min_cost = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        let mut rng = seeded_rng(split_seed(self.config.seed, 0xBA4D17));

        let (_, mut last) = self.train_and_eval(0x0B0);
        // Optimistic initialization so every arm is tried early.
        let mut reward = vec![f64::INFINITY; n];
        let mut remaining = budget;
        let mut total_spent = 0.0;
        let mut pulls = 0usize;

        while remaining >= min_cost && pulls < self.config.max_iterations * n {
            let arm = if rng.gen::<f64>() < params.epsilon {
                rng.gen_range(0..n)
            } else {
                // Best observed reward; ties to the lower index.
                let mut best = 0;
                for i in 1..n {
                    if reward[i] > reward[best] {
                        best = i;
                    }
                }
                best
            };
            let want = ((params.batch / costs[arm]).floor() as usize)
                .min((remaining / costs[arm]).floor() as usize);
            if want == 0 {
                break;
            }
            let got = self.source.acquire(SliceId(arm), want);
            let spent = got.len() as f64 * costs[arm];
            if got.is_empty() {
                break;
            }
            self.ds.absorb(got);
            remaining -= spent;
            total_spent += spent;
            pulls += 1;

            let (_, now) = self.train_and_eval(0x0B1 + pulls as u64);
            reward[arm] =
                (last.per_slice_losses[arm] - now.per_slice_losses[arm]) / spent.max(1e-9);
            last = now;
        }
        (pulls.max(1), total_spent)
    }

    /// Rounds a continuous allocation to integers within `budget`, acquires
    /// from the source, absorbs the data, and returns the cost actually
    /// charged (sources may under-deliver).
    fn acquire_rounded(&mut self, d: &[f64], budget: f64) -> f64 {
        let counts = st_optim::round_to_budget(d, &self.ds.costs(), budget);
        self.acquire_counts(&counts)
    }

    /// Acquires exact per-slice counts: the checkpoint replay primitive,
    /// issuing the same `acquire`/`absorb` sequence a live round does so a
    /// replayed round consumes the identical source RNG stream.
    fn acquire_counts(&mut self, counts: &[usize]) -> f64 {
        let costs = self.ds.costs();
        let mut spent = 0.0;
        for (i, &n) in counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let got = self.source.acquire(SliceId(i), n);
            spent += got.len() as f64 * costs[i];
            self.ds.absorb(got);
        }
        spent
    }
}

/// Imbalance ratio of fractional sizes (Algorithm 1's `GetImbalanceRatio`).
fn imbalance_of(sizes: &[f64]) -> f64 {
    let rounded: Vec<usize> = sizes.iter().map(|&s| s.round().max(0.0) as usize).collect();
    imbalance_ratio_of(&rounded)
}

/// The effective measurement seed for a request under drift-recovery seed
/// bumps: a targeted request whose slice carries a non-zero bump derives a
/// fresh seed from `(request seed, bump)`, decorrelating the post-drift
/// re-measurement from the pinned pre-drift draws. Everything else —
/// no bumps, joint requests, zero bumps — keeps the request seed bit for
/// bit.
fn bumped_seed(req: &MeasureRequest, bumps: Option<&[u64]>) -> u64 {
    match (bumps, req.target_slice) {
        (Some(b), Some(s)) if b[s] != 0 => split_seed(req.seed, 0xD21F7 ^ b[s]),
        _ => req.seed,
    }
}

/// Replaces failed fits with the log-mean of the successful ones (or a mild
/// default when nothing fits): the curves the engine allocates on.
fn resolve_fallbacks<E>(fits: Vec<Result<PowerLaw, E>>) -> Vec<PowerLaw> {
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
    fits.into_iter().map(|f| f.unwrap_or(fallback)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acquire::PoolSource;
    use st_curve::FitError;
    use st_data::families::census;

    fn quick_config() -> TunerConfig {
        let mut cfg = TunerConfig::new(ModelSpec::softmax());
        cfg.train.epochs = 10;
        cfg.fractions = vec![0.3, 0.6, 1.0];
        cfg.repeats = 1;
        cfg.threads = 1;
        cfg
    }

    #[test]
    fn estimate_curves_returns_decreasing_models() {
        let fam = census();
        let ds = SlicedDataset::generate(&fam, &[120; 4], 120, 5);
        let mut src = PoolSource::new(fam, 99);
        let tuner = SliceTuner::new(ds, &mut src, quick_config());
        let curves = tuner.estimate_curves(0);
        assert_eq!(curves.len(), 4);
        for c in &curves {
            assert!(c.b > 0.0 && c.a > 0.0);
            assert!(c.eval(100.0) >= c.eval(1000.0));
        }
        // Amortized: K·R trainings.
        assert_eq!(tuner.trainings(), 3);
    }

    #[test]
    fn dense_plane_matches_per_call_gather_at_any_thread_count() {
        // The dense plane (cached matrices, row-id subsets, stacked group
        // evaluation) must reproduce the per-call gather reference bit for
        // bit, in both schedules, for the stacked-head softmax and the
        // hidden-layer `small` model (evaluated per model), at any
        // estimator thread count.
        let fam = census();
        let run = |per_call: bool, spec: ModelSpec, mode: EstimationMode, threads: usize| {
            let ds = SlicedDataset::generate(&fam, &[60, 30, 45, 25], 40, 18);
            let mut src = PoolSource::new(fam.clone(), 172);
            let mut cfg = quick_config().with_seed(11).with_mode(mode);
            cfg.spec = spec;
            cfg.repeats = 2;
            cfg.per_call_gather = per_call;
            cfg.threads = threads;
            let tuner = SliceTuner::new(ds, &mut src, cfg);
            let est = tuner.estimate_curves_detailed(4);
            (est, tuner.trainings())
        };
        for spec in [ModelSpec::softmax(), ModelSpec::small()] {
            for mode in [EstimationMode::Amortized, EstimationMode::Exhaustive] {
                let (reference, ref_trainings) = run(true, spec.clone(), mode, 1);
                for threads in [1usize, 2, 4] {
                    let (dense, trainings) = run(false, spec.clone(), mode, threads);
                    let case = format!("{} {mode:?} threads={threads}", spec.name);
                    assert_eq!(trainings, ref_trainings, "{case} training counts");
                    assert_eq!(dense.len(), reference.len());
                    for (s, (d, r)) in dense.iter().zip(&reference).enumerate() {
                        assert_eq!(d.points.len(), r.points.len(), "{case} slice {s}");
                        for (dp, rp) in d.points.iter().zip(&r.points) {
                            assert_eq!(dp.n.to_bits(), rp.n.to_bits(), "{case} subset count");
                            assert_eq!(dp.loss.to_bits(), rp.loss.to_bits(), "{case} loss");
                        }
                        let (df, rf) = (d.fit.as_ref().unwrap(), r.fit.as_ref().unwrap());
                        assert_eq!(df.a.to_bits(), rf.a.to_bits(), "{case} fit a");
                        assert_eq!(df.b.to_bits(), rf.b.to_bits(), "{case} fit b");
                    }
                }
            }
        }
    }

    #[test]
    fn uniform_run_acquires_equal_counts() {
        let fam = census();
        let ds = SlicedDataset::generate(&fam, &[50; 4], 80, 6);
        let mut src = PoolSource::new(fam, 100);
        let mut tuner = SliceTuner::new(ds, &mut src, quick_config());
        let result = tuner.run(Strategy::Uniform, 200.0);
        assert_eq!(result.acquired, vec![50; 4]);
        assert_eq!(result.iterations, 1);
        assert!((result.spent - 200.0).abs() < 1e-9);
    }

    #[test]
    fn proportional_preserves_relative_bias() {
        let fam = census();
        let ds = SlicedDataset::generate(&fam, &[20, 40, 60, 80], 60, 30);
        let mut src = PoolSource::new(fam, 130);
        let mut tuner = SliceTuner::new(ds, &mut src, quick_config());
        let result = tuner.run(Strategy::Proportional, 100.0);
        // d_i = 100 · s_i / 200 = s_i / 2.
        assert_eq!(result.acquired, vec![10, 20, 30, 40]);
        let finals = tuner.dataset().train_sizes();
        // Imbalance ratio unchanged: 120/30 == 80/20.
        assert_eq!(finals[3] as f64 / finals[0] as f64, 4.0);
    }

    #[test]
    fn water_filling_levels_unequal_slices() {
        let fam = census();
        let ds = SlicedDataset::generate(&fam, &[20, 60, 100, 140], 80, 7);
        let mut src = PoolSource::new(fam, 101);
        let mut tuner = SliceTuner::new(ds, &mut src, quick_config());
        let result = tuner.run(Strategy::WaterFilling, 200.0);
        // Level = (20+60+100+200)/3 = 126.67 → fills to ~126/127 for the
        // first three, nothing for the largest.
        assert_eq!(result.acquired[3], 0);
        let finals: Vec<usize> = tuner.dataset().train_sizes();
        assert!(finals[0].abs_diff(finals[1]) <= 1, "{finals:?}");
        assert!(finals[1].abs_diff(finals[2]) <= 1, "{finals:?}");
    }

    #[test]
    fn one_shot_spends_entire_budget() {
        let fam = census();
        let ds = SlicedDataset::generate(&fam, &[60; 4], 80, 8);
        let mut src = PoolSource::new(fam, 102);
        let mut tuner = SliceTuner::new(ds, &mut src, quick_config());
        let result = tuner.run(Strategy::OneShot, 120.0);
        assert!(
            (result.spent - 120.0).abs() <= 1.0,
            "spent {}",
            result.spent
        );
        assert_eq!(result.acquired.iter().sum::<usize>(), 120);
    }

    #[test]
    fn iterative_respects_min_slice_size() {
        let fam = census();
        let ds = SlicedDataset::generate(&fam, &[5, 40, 40, 40], 80, 9);
        let mut src = PoolSource::new(fam, 103);
        let mut cfg = quick_config();
        cfg.min_slice_size = 15;
        let mut tuner = SliceTuner::new(ds, &mut src, cfg);
        let _ = tuner.run(Strategy::Iterative(TSchedule::moderate()), 100.0);
        assert!(tuner.dataset().train_sizes().iter().all(|&s| s >= 15));
    }

    #[test]
    fn iterative_uses_more_iterations_when_conservative() {
        let fam = census();
        let run = |schedule: TSchedule| -> usize {
            let ds = SlicedDataset::generate(&fam, &[30, 30, 90, 90], 80, 10);
            let mut src = PoolSource::new(fam.clone(), 104);
            let mut tuner = SliceTuner::new(ds, &mut src, quick_config());
            tuner.run(Strategy::Iterative(schedule), 400.0).iterations
        };
        let cons = run(TSchedule::conservative());
        let aggr = run(TSchedule::aggressive());
        assert!(cons >= aggr, "conservative {cons} vs aggressive {aggr}");
    }

    #[test]
    fn iterative_never_overspends() {
        let fam = census();
        let ds = SlicedDataset::generate(&fam, &[40; 4], 80, 11);
        let mut src = PoolSource::new(fam, 105);
        let mut tuner = SliceTuner::new(ds, &mut src, quick_config());
        let result = tuner.run(Strategy::Iterative(TSchedule::moderate()), 150.0);
        assert!(result.spent <= 150.0 + 1e-9);
        let acquired_cost: f64 = result.acquired.iter().map(|&n| n as f64).sum();
        assert!((acquired_cost - result.spent).abs() < 1e-9, "unit costs");
    }

    #[test]
    fn run_is_deterministic() {
        let fam = census();
        let run = || {
            let ds = SlicedDataset::generate(&fam, &[50; 4], 80, 12);
            let mut src = PoolSource::new(fam.clone(), 106);
            let mut tuner = SliceTuner::new(ds, &mut src, quick_config().with_seed(42));
            tuner.run(Strategy::Iterative(TSchedule::moderate()), 120.0)
        };
        let a = run();
        let b = run();
        assert_eq!(a.acquired, b.acquired);
        assert_eq!(a.report.overall_loss, b.report.overall_loss);
    }

    #[test]
    fn bandit_spends_budget_in_batches() {
        let fam = census();
        let ds = SlicedDataset::generate(&fam, &[40; 4], 60, 21);
        let mut src = PoolSource::new(fam, 121);
        let mut tuner = SliceTuner::new(ds, &mut src, quick_config());
        let params = crate::strategy::BanditParams {
            batch: 40.0,
            epsilon: 0.2,
        };
        let result = tuner.run(Strategy::RottingBandit(params), 200.0);
        assert!(result.spent <= 200.0 + 1e-9);
        assert!(
            result.spent >= 160.0,
            "bandit should spend most of the budget: {}",
            result.spent
        );
        // One pull = one batch of 40 on a single arm.
        assert_eq!(result.iterations, 5);
        // Model-free: one retraining per pull (plus the two evaluations).
        assert!(result.trainings >= 5 + 2);
    }

    #[test]
    fn fallback_curves_fill_failures() {
        let fits = vec![
            Ok(PowerLaw::new(2.0, 0.3)),
            Err(FitError::NotEnoughPoints),
            Ok(PowerLaw::new(2.0, 0.5)),
        ];
        let resolved = resolve_fallbacks(fits);
        assert_eq!(resolved.len(), 3);
        assert!((resolved[1].a - 0.4).abs() < 1e-12, "log-mean of successes");
        let all_fail = resolve_fallbacks(vec![Err(FitError::NotEnoughPoints)]);
        assert_eq!(all_fail[0], PowerLaw::new(1.0, 0.2));
    }

    /// Runs an exhaustive-mode incremental iterative trial under the given
    /// staleness bound and returns (result, trainings).
    fn iterative_run(max_staleness: usize) -> (RunResult, usize) {
        let fam = census();
        let ds = SlicedDataset::generate(&fam, &[60, 25, 45, 30], 60, 21);
        let mut src = PoolSource::new(fam, 77);
        let mut cfg = quick_config()
            .with_seed(5)
            .with_mode(EstimationMode::Exhaustive)
            .with_incremental()
            .with_max_staleness(max_staleness);
        cfg.max_iterations = 3;
        let mut tuner = SliceTuner::new(ds, &mut src, cfg);
        let result = tuner.run(Strategy::Iterative(TSchedule::moderate()), 300.0);
        let trainings = tuner.trainings();
        (result, trainings)
    }

    #[test]
    fn incremental_matches_staleness_zero_bit_for_bit_before_any_reuse() {
        // On a run whose budget is spent in one round there is nothing to
        // reuse yet, so dirty-tracking must reproduce the staleness-0 run
        // (every slice re-measured every round) exactly — same
        // acquisitions, same loss bits, same trainings.
        let (skip, skip_trainings) = iterative_run(usize::MAX);
        let (full, full_trainings) = iterative_run(0);
        assert_eq!(skip.acquired, full.acquired);
        assert_eq!(skip.iterations, full.iterations);
        for (a, b) in skip
            .report
            .per_slice_losses
            .iter()
            .zip(&full.report.per_slice_losses)
        {
            assert_eq!(a.to_bits(), b.to_bits(), "final losses must match");
        }
        assert!(
            skip_trainings <= full_trainings,
            "skipping must not add trainings ({skip_trainings} vs {full_trainings})"
        );
    }

    #[test]
    fn incremental_run_is_bit_reproducible() {
        // History-dependent does not mean nondeterministic: the same
        // incremental trial twice must produce identical bits.
        let (a, ta) = iterative_run(usize::MAX);
        let (b, tb) = iterative_run(usize::MAX);
        assert_eq!(a.acquired, b.acquired);
        assert_eq!(ta, tb);
        for (x, y) in a
            .report
            .per_slice_losses
            .iter()
            .zip(&b.report.per_slice_losses)
        {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn incremental_first_estimation_is_all_dirty_then_clean() {
        let fam = census();
        let ds = SlicedDataset::generate(&fam, &[60; 4], 60, 22);
        let mut src = PoolSource::new(fam, 78);
        let cfg = quick_config()
            .with_seed(6)
            .with_mode(EstimationMode::Exhaustive)
            .with_incremental();
        let tuner = SliceTuner::new(ds, &mut src, cfg);
        let mut state = crate::incremental::IncrementalState::new(4);
        let first = tuner.estimate_curves_incremental(1, &mut state);
        assert_eq!(first.len(), 4);
        assert!(state.has_estimates());
        assert_eq!(state.dirty(), &[false; 4]);
        let t_after_first = tuner.trainings();
        // Nothing dirty: the second round must reuse every estimate and
        // train nothing.
        let second = tuner.estimate_curves_incremental(2, &mut state);
        assert_eq!(tuner.trainings(), t_after_first);
        for (f, s) in first.iter().zip(&second) {
            let (ff, sf) = (f.fit.as_ref().unwrap(), s.fit.as_ref().unwrap());
            assert_eq!(ff.a.to_bits(), sf.a.to_bits());
            assert_eq!(ff.b.to_bits(), sf.b.to_bits());
        }
    }

    #[test]
    fn incremental_reestimates_only_dirty_slices() {
        let fam = census();
        let ds = SlicedDataset::generate(&fam, &[60; 4], 60, 23);
        let mut src = PoolSource::new(fam.clone(), 79);
        let cfg = quick_config()
            .with_seed(7)
            .with_mode(EstimationMode::Exhaustive)
            .with_incremental();
        let tuner = SliceTuner::new(ds, &mut src, cfg);
        let mut state = crate::incremental::IncrementalState::new(4);
        let _ = tuner.estimate_curves_incremental(1, &mut state);
        let t0 = tuner.trainings();
        state.mark_dirty(&[60, 60, 60, 60], &[60, 70, 60, 60]);
        let _ = tuner.estimate_curves_incremental(2, &mut state);
        // Exhaustive schedule: fractions × repeats trainings per slice, and
        // only slice 1 was dirty.
        let per_slice = tuner.config().fractions.len() * tuner.config().repeats;
        assert_eq!(tuner.trainings() - t0, per_slice);
        assert_eq!(state.dirty(), &[false; 4]);
    }

    #[test]
    fn incremental_amortized_runs_full_schedule() {
        // Amortized estimation measures every slice with one joint
        // training — nothing to skip — so incremental mode still works but
        // re-runs the full schedule each round.
        let fam = census();
        let ds = SlicedDataset::generate(&fam, &[60; 4], 60, 24);
        let mut src = PoolSource::new(fam, 80);
        let cfg = quick_config().with_seed(8).with_incremental();
        let tuner = SliceTuner::new(ds, &mut src, cfg);
        let mut state = crate::incremental::IncrementalState::new(4);
        let first = tuner.estimate_curves_incremental(1, &mut state);
        let t0 = tuner.trainings();
        let _ = tuner.estimate_curves_incremental(2, &mut state);
        assert_eq!(first.len(), 4);
        // K fractions × 1 repeat joint trainings per round, clean or not.
        assert_eq!(tuner.trainings() - t0, t0);
    }
}
