//! The subset-sampling learning-curve estimation loop (Sections 4.1–4.2).
//!
//! The estimator is decoupled from any concrete model or dataset: callers
//! provide a *measurement function* that, given a group of subset requests,
//! trains their models and reports the per-slice validation losses. This
//! crate schedules the requests (exhaustively or amortized), groups the
//! repeats of each subset size, runs the groups in parallel, and fits
//! averaged power-law curves.

use crate::fit::{fit_power_law, FitError};
use crate::model::PowerLaw;
use crate::points::CurvePoint;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One measured loss: after training on the requested subset, the model
/// scored `loss` on slice `slice`'s validation set, and the subset contained
/// `n` examples of that slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceLossMeasurement {
    /// Slice index.
    pub slice: usize,
    /// Number of this slice's examples in the training subset.
    pub n: usize,
    /// Measured validation loss on the slice.
    pub loss: f64,
}

/// A subset-training request issued to the measurement function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasureRequest {
    /// `Some(s)`: subsample only slice `s` and keep every other slice whole
    /// (exhaustive, Section 4.1). `None`: subsample all slices jointly
    /// (amortized, Section 4.2).
    pub target_slice: Option<usize>,
    /// Fraction of the affected slice(s) to keep, in `(0, 1]`.
    pub frac: f64,
    /// Seed for subset selection and model training.
    pub seed: u64,
    /// Which repeat (averaged curve) this request contributes to. A partial
    /// schedule's request keeps the repeat index (and seed) it has in the
    /// full schedule.
    pub rep: usize,
}

/// A measurement that kept failing after every allowed retry.
///
/// Measurements are seed-pinned pure functions of their request, so a retry
/// is a bit-identical re-execution: an error here means the failure is
/// deterministic (or the worker is genuinely broken), and the tuner
/// quarantines the affected slice instead of aborting the run.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateError {
    /// The failed request's target slice (`None` = amortized/joint).
    pub target_slice: Option<usize>,
    /// The failed request's subset fraction.
    pub frac: f64,
    /// The failed request's repeat index.
    pub rep: usize,
    /// Attempts made (1 = no retries allowed or first attempt fatal).
    pub attempts: usize,
    /// The panic payload (or typed trainer error message) of the last
    /// attempt.
    pub cause: String,
}

impl std::fmt::Display for EstimateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.target_slice {
            Some(s) => write!(
                f,
                "estimation measurement for slice {s} (frac {:.3}, rep {}) failed after {} attempt(s): {}",
                self.frac, self.rep, self.attempts, self.cause
            ),
            None => write!(
                f,
                "joint estimation measurement (frac {:.3}, rep {}) failed after {} attempt(s): {}",
                self.frac, self.rep, self.attempts, self.cause
            ),
        }
    }
}

impl std::error::Error for EstimateError {}

/// The measurement callback: measure one group of requests — the repeats
/// of one `(target slice, fraction)` cell — and return one measurement
/// vector per request, **in the group's request order**.
///
/// Amortized requests should return a measurement for **every** slice (one
/// training informs all curves); exhaustive requests need only return the
/// target slice's measurement — any extras are ignored. Each request's
/// measurements must not depend on the rest of its group: grouping is an
/// execution strategy (one fault scope, one stacked evaluation), not a
/// different schedule.
pub type TrainEvalBatchFn<'a> =
    dyn Fn(&[MeasureRequest]) -> Vec<Vec<SliceLossMeasurement>> + Sync + 'a;

/// One request's outcome: its measurements, or why it kept failing.
type Measured = Result<Vec<SliceLossMeasurement>, EstimateError>;

/// Scheduling mode for curve estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimationMode {
    /// Section 4.2: take X% of *all* slices per training; `K·R` trainings
    /// total, independent of the slice count.
    Amortized,
    /// Section 4.1: subsample one slice at a time, keeping the rest whole;
    /// `|S|·K·R` trainings.
    Exhaustive,
}

/// Learning-curve estimator configuration.
#[derive(Debug, Clone)]
pub struct CurveEstimator {
    /// Subset fractions (the paper's `K` sample sizes).
    pub fractions: Vec<f64>,
    /// Number of independent curves averaged per slice (the paper uses 5).
    pub repeats: usize,
    /// Scheduling mode.
    pub mode: EstimationMode,
    /// Base seed; every request derives a unique child seed.
    pub seed: u64,
    /// Worker threads for measurement, the calling thread included (0 =
    /// all available cores). Measurement groups are spread over them, each
    /// group on one thread. Results do not depend on the count.
    pub threads: usize,
    /// Retries per failed measurement before the request is given up and
    /// reported as an [`EstimateError`] (a retry is a bit-identical
    /// re-execution; see [`EstimateError`]).
    pub retries: usize,
}

impl CurveEstimator {
    /// The paper's setting: `K = 10` subset sizes, 5 averaged curves,
    /// amortized scheduling.
    pub fn paper_default(seed: u64) -> Self {
        CurveEstimator {
            fractions: (1..=10).map(|i| i as f64 / 10.0).collect(),
            repeats: 5,
            mode: EstimationMode::Amortized,
            seed,
            threads: 0,
            retries: 2,
        }
    }

    /// A cheaper profile for iteration-heavy experiments: `K = 5`, 2 curves.
    pub fn fast(seed: u64) -> Self {
        CurveEstimator {
            fractions: vec![0.2, 0.4, 0.6, 0.8, 1.0],
            repeats: 2,
            mode: EstimationMode::Amortized,
            seed,
            threads: 0,
            retries: 2,
        }
    }

    /// Switches the scheduling mode.
    pub fn with_mode(mut self, mode: EstimationMode) -> Self {
        self.mode = mode;
        self
    }

    /// Number of model trainings one full-schedule
    /// [`estimate`](Self::estimate) call costs.
    ///
    /// This is the quantity Table 8 compares: amortized is `K·R`; exhaustive
    /// is `|S|·K·R`.
    pub fn num_trainings(&self, num_slices: usize) -> usize {
        let base = self.fractions.len() * self.repeats;
        match self.mode {
            EstimationMode::Amortized => base,
            EstimationMode::Exhaustive => base * num_slices,
        }
    }

    /// Estimates one power-law curve per slice — or, with `targets`, per
    /// flagged slice.
    ///
    /// The request schedule is built with stream-counter seeds, the repeats
    /// of each `(target slice, fraction)` cell are grouped, and each group
    /// is handed to `measure` whole. Groups run concurrently on the
    /// estimator's [`threads`](Self::threads), longest first, with panic
    /// isolation and retry per group; results are scattered back by
    /// request index before they are grouped per `(slice, repeat)`, fitted
    /// independently with [`fit_power_law`], and averaged in log space
    /// across repeats (`PowerLaw::log_mean`), so the bits do not depend on
    /// the thread count. A slice whose every repeat fails to fit reports
    /// the error in its estimate.
    ///
    /// `targets = None` runs the full schedule: every slice comes back
    /// `Some`. `targets = Some(flags)` is the dirty-slice path of
    /// incremental mode: only requests targeting a flagged slice run, and
    /// unflagged slices come back `None` (the tuner reuses their previous
    /// round's estimates). The full schedule is built before it is
    /// filtered, so every surviving request keeps its full-schedule seed
    /// and a flagged slice's estimate reproduces the from-scratch bits.
    ///
    /// Requests whose group kept failing after every retry come back as
    /// errors, one per request in request order, and contribute no points —
    /// a slice losing all of its measurements reports a [`FitError`], and
    /// the caller decides whether to quarantine (the tuner does).
    ///
    /// # Panics
    /// Panics if `fractions` is empty, `repeats == 0`, or `measure` returns
    /// a result count different from its group size; if `targets` has a
    /// length other than `num_slices` or is given under
    /// [`EstimationMode::Amortized`] (one joint training measures every
    /// slice, so there is nothing to skip).
    pub fn estimate(
        &self,
        num_slices: usize,
        targets: Option<&[bool]>,
        measure: &TrainEvalBatchFn<'_>,
    ) -> (Vec<Option<SliceEstimate>>, Vec<EstimateError>) {
        assert!(
            !self.fractions.is_empty(),
            "need at least one subset fraction"
        );
        assert!(self.repeats > 0, "need at least one repeat");
        let mut requests = self.build_requests(num_slices);
        if let Some(targets) = targets {
            assert_eq!(targets.len(), num_slices, "one target flag per slice");
            assert_eq!(
                self.mode,
                EstimationMode::Exhaustive,
                "partial re-estimation requires the exhaustive schedule"
            );
            requests.retain(|r| r.target_slice.is_some_and(|s| targets[s]));
        }
        let results = self.dispatch(&requests, group_requests(&requests), measure);
        let (points, errors) = self.group_points(num_slices, &requests, results);

        let estimates = points
            .into_iter()
            .enumerate()
            .map(|(s, per_rep)| {
                targets
                    .is_none_or(|flags| flags[s])
                    .then(|| fold_estimate(per_rep))
            })
            .collect();
        (estimates, errors)
    }

    /// Groups per-request measurement results as `points[slice][repeat]`.
    /// Requests whose measurement exhausted its retries contribute nothing
    /// and come back as the errors, in request order.
    fn group_points(
        &self,
        num_slices: usize,
        requests: &[MeasureRequest],
        results: Vec<Measured>,
    ) -> (Vec<Vec<Vec<CurvePoint>>>, Vec<EstimateError>) {
        let mut points: Vec<Vec<Vec<CurvePoint>>> =
            vec![vec![Vec::new(); self.repeats]; num_slices];
        let mut errors = Vec::new();
        for (req, measured) in requests.iter().zip(results) {
            let measurements = match measured {
                Ok(m) => m,
                Err(e) => {
                    errors.push(e);
                    continue;
                }
            };
            for m in measurements {
                if m.slice >= num_slices {
                    continue;
                }
                if let Some(target) = req.target_slice {
                    if m.slice != target {
                        continue; // exhaustive: only the subsampled slice moved
                    }
                }
                points[m.slice][req.rep].push(CurvePoint::size_weighted(m.n as f64, m.loss));
            }
        }
        (points, errors)
    }

    /// The executor: runs every group of request indices through `measure`
    /// on [`effective_threads`](Self::effective_threads) workers, the
    /// calling thread among them (one worker runs inline and spawns
    /// nothing). Groups go out longest first — descending Σ`frac`,
    /// ties in plan order — so the largest trainings do not start last and
    /// leave the other workers idle. Results land in request-index slots,
    /// so they are the same at any thread count and timing.
    fn dispatch(
        &self,
        requests: &[MeasureRequest],
        mut groups: Vec<Vec<usize>>,
        measure: &TrainEvalBatchFn<'_>,
    ) -> Vec<Measured> {
        let weight = |g: &[usize]| -> f64 { g.iter().map(|&i| requests[i].frac).sum() };
        groups.sort_by(|a, b| weight(b).total_cmp(&weight(a)));
        let slots: Mutex<Vec<Option<Measured>>> = Mutex::new(vec![None; requests.len()]);
        // Relaxed: the counter only hands out group indices; results travel
        // through the mutex and the scope's join.
        let next = AtomicUsize::new(0);
        let work = || {
            while let Some(group) = groups.get(next.fetch_add(1, Ordering::Relaxed)) {
                let batch: Vec<MeasureRequest> = group.iter().map(|&i| requests[i]).collect();
                let results = self.measure_group(&batch, measure);
                let mut slots = slots.lock().expect("poisoned result slots");
                for (&i, r) in group.iter().zip(results) {
                    slots[i] = Some(r);
                }
            }
        };
        let workers = self.effective_threads().min(groups.len());
        if workers <= 1 {
            work();
        } else {
            crossbeam::scope(|scope| {
                let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(|_| work())).collect();
                work();
                for h in helpers {
                    h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
                }
            })
            .expect("measurement worker panicked");
        }
        slots
            .into_inner()
            .expect("poisoned result slots")
            .into_iter()
            .map(|slot| slot.expect("every request belongs to one group"))
            .collect()
    }

    /// One group's measurement with panic isolation and deterministic
    /// retry. Measurements are pure functions of their seed-pinned
    /// requests, so a retry re-executes the identical computation: a
    /// transient fault (an injected first-attempt panic) recovers
    /// bit-identically, and a persistent one fails every attempt and
    /// becomes one [`EstimateError`] per member (a group fails together).
    fn measure_group(
        &self,
        batch: &[MeasureRequest],
        measure: &TrainEvalBatchFn<'_>,
    ) -> Vec<Measured> {
        let mut attempt = 0usize;
        let out = loop {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| measure(batch))) {
                Ok(out) => break out,
                Err(p) if attempt >= self.retries => {
                    let cause = payload_str(p.as_ref());
                    return batch
                        .iter()
                        .map(|r| {
                            Err(EstimateError {
                                target_slice: r.target_slice,
                                frac: r.frac,
                                rep: r.rep,
                                attempts: attempt + 1,
                                cause: cause.clone(),
                            })
                        })
                        .collect();
                }
                Err(_) => attempt += 1,
            }
        };
        assert_eq!(
            out.len(),
            batch.len(),
            "measure must return one result per request"
        );
        out.into_iter().map(Ok).collect()
    }

    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    fn build_requests(&self, num_slices: usize) -> Vec<MeasureRequest> {
        let mut out = Vec::new();
        let mut stream = 0u64;
        for rep in 0..self.repeats {
            for &frac in &self.fractions {
                match self.mode {
                    EstimationMode::Amortized => {
                        out.push(MeasureRequest {
                            target_slice: None,
                            frac,
                            seed: child_seed(self.seed, stream),
                            rep,
                        });
                        stream += 1;
                    }
                    EstimationMode::Exhaustive => {
                        for s in 0..num_slices {
                            out.push(MeasureRequest {
                                target_slice: Some(s),
                                frac,
                                seed: child_seed(self.seed, stream),
                                rep,
                            });
                            stream += 1;
                        }
                    }
                }
            }
        }
        out
    }
}

/// The round's requests grouped by `(target slice, fraction)` — the
/// repeats of one subset size: groups in first-occurrence order, indices
/// ascending within each group. Every request lands in exactly one group.
fn group_requests(requests: &[MeasureRequest]) -> Vec<Vec<usize>> {
    let mut keys: Vec<(Option<usize>, u64)> = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, req) in requests.iter().enumerate() {
        let key = (req.target_slice, req.frac.to_bits());
        match keys.iter().position(|&k| k == key) {
            Some(g) => groups[g].push(i),
            None => {
                keys.push(key);
                groups.push(vec![i]);
            }
        }
    }
    groups
}

/// Fits each repeat's points and folds them into a [`SliceEstimate`].
fn fold_estimate(per_rep: Vec<Vec<CurvePoint>>) -> SliceEstimate {
    let repeat_fits: Vec<PowerLaw> = per_rep
        .iter()
        .filter_map(|pts| fit_power_law(pts).ok())
        .collect();
    let fit = if repeat_fits.is_empty() {
        // Surface the most informative error from the first repeat.
        Err(per_rep
            .first()
            .map(|pts| fit_power_law(pts).unwrap_err())
            .unwrap_or(FitError::NotEnoughPoints))
    } else {
        Ok(PowerLaw::log_mean(&repeat_fits))
    };
    let pooled: Vec<CurvePoint> = per_rep.into_iter().flatten().collect();
    SliceEstimate {
        fit,
        repeat_fits,
        points: pooled,
    }
}

/// The full evidence behind one slice's fitted curve.
#[derive(Debug, Clone)]
pub struct SliceEstimate {
    /// The log-mean of the per-repeat fits (the curve Slice Tuner uses),
    /// or why no repeat could be fitted.
    pub fit: Result<PowerLaw, FitError>,
    /// The individual per-repeat fits that were averaged.
    pub repeat_fits: Vec<PowerLaw>,
    /// Every measured `(n, loss)` point, pooled across repeats.
    pub points: Vec<CurvePoint>,
}

impl SliceEstimate {
    /// Bootstrap confidence bands over the pooled points (see
    /// [`crate::bands`]); `Err` when the points cannot be fitted at all.
    pub fn bands(
        &self,
        reps: usize,
        level: f64,
        seed: u64,
    ) -> Result<crate::bands::CurveBands, FitError> {
        crate::bands::bootstrap_curve(&self.points, reps, level, seed)
    }
}

/// SplitMix64 finalizer (kept local so the crate stays decoupled from
/// `st-data`).
fn child_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Extracts a human-readable message from a panic payload.
fn payload_str(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A per-request measurement function, the form the synthetic worlds
    /// below are written in.
    type PerRequest<'a> = dyn Fn(&MeasureRequest) -> Vec<SliceLossMeasurement> + Sync + 'a;

    /// Runs `est` through a per-request measure function looped over each
    /// group.
    fn run(
        est: &CurveEstimator,
        num_slices: usize,
        targets: Option<&[bool]>,
        measure: &PerRequest<'_>,
    ) -> (Vec<Option<SliceEstimate>>, Vec<EstimateError>) {
        est.estimate(num_slices, targets, &|group| {
            group.iter().map(measure).collect()
        })
    }

    /// The full schedule's estimates, every slice present.
    fn full(
        est: &CurveEstimator,
        num_slices: usize,
        measure: &PerRequest<'_>,
    ) -> Vec<SliceEstimate> {
        run(est, num_slices, None, measure)
            .0
            .into_iter()
            .map(|e| e.expect("the full schedule estimates every slice"))
            .collect()
    }

    /// The full schedule's fitted curves.
    fn fits(
        est: &CurveEstimator,
        num_slices: usize,
        measure: &PerRequest<'_>,
    ) -> Vec<Result<PowerLaw, FitError>> {
        full(est, num_slices, measure)
            .into_iter()
            .map(|e| e.fit)
            .collect()
    }

    /// A synthetic world of slices with known power laws; the measurement
    /// function reports exact curve values (optionally noised).
    fn synthetic_measure(
        sizes: Vec<usize>,
        curves: Vec<PowerLaw>,
        noise: f64,
    ) -> impl Fn(&MeasureRequest) -> Vec<SliceLossMeasurement> + Sync {
        move |req: &MeasureRequest| {
            let jitter = |seed: u64, s: usize| {
                if noise == 0.0 {
                    1.0
                } else {
                    // Deterministic pseudo-noise from the seed.
                    let h = child_seed(seed, s as u64) as f64 / u64::MAX as f64;
                    1.0 + noise * (2.0 * h - 1.0)
                }
            };
            match req.target_slice {
                None => (0..sizes.len())
                    .map(|s| {
                        let n = ((sizes[s] as f64) * req.frac).round().max(1.0) as usize;
                        SliceLossMeasurement {
                            slice: s,
                            n,
                            loss: curves[s].eval(n as f64) * jitter(req.seed, s),
                        }
                    })
                    .collect(),
                Some(s) => {
                    let n = ((sizes[s] as f64) * req.frac).round().max(1.0) as usize;
                    vec![SliceLossMeasurement {
                        slice: s,
                        n,
                        loss: curves[s].eval(n as f64) * jitter(req.seed, s),
                    }]
                }
            }
        }
    }

    /// Asserts two estimate lists carry the same points and fit bits.
    fn assert_same_bits(a: &[SliceEstimate], b: &[SliceEstimate], case: &str) {
        assert_eq!(a.len(), b.len(), "{case}");
        for (s, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.points, y.points, "{case} slice {s} points");
            let (xf, yf) = (x.fit.as_ref().unwrap(), y.fit.as_ref().unwrap());
            assert_eq!(xf.b.to_bits(), yf.b.to_bits(), "{case} slice {s} b");
            assert_eq!(xf.a.to_bits(), yf.a.to_bits(), "{case} slice {s} a");
        }
    }

    #[test]
    fn amortized_recovers_exact_curves() {
        let curves = vec![PowerLaw::new(2.9, 0.2), PowerLaw::new(1.8, 0.45)];
        let measure = synthetic_measure(vec![300, 300], curves.clone(), 0.0);
        let est = CurveEstimator::paper_default(7);
        for (fit, truth) in fits(&est, 2, &measure).iter().zip(&curves) {
            let fit = fit.as_ref().unwrap();
            assert!((fit.b - truth.b).abs() < 0.05, "b {} vs {}", fit.b, truth.b);
            assert!((fit.a - truth.a).abs() < 0.01, "a {} vs {}", fit.a, truth.a);
        }
    }

    #[test]
    fn exhaustive_recovers_exact_curves() {
        let curves = vec![PowerLaw::new(2.0, 0.3), PowerLaw::new(3.5, 0.31)];
        let measure = synthetic_measure(vec![200, 400], curves.clone(), 0.0);
        let est = CurveEstimator::fast(9).with_mode(EstimationMode::Exhaustive);
        for (fit, truth) in fits(&est, 2, &measure).iter().zip(&curves) {
            let fit = fit.as_ref().unwrap();
            assert!((fit.a - truth.a).abs() < 0.02);
        }
    }

    #[test]
    fn noisy_measurements_still_fit_reasonably() {
        let curves = vec![PowerLaw::new(2.5, 0.25)];
        let measure = synthetic_measure(vec![300], curves.clone(), 0.25);
        let est = CurveEstimator::paper_default(11);
        let fit = fits(&est, 1, &measure)[0].clone().unwrap();
        // Relative comparison is what Slice Tuner needs; 25% noise should
        // not move the exponent by more than ~0.1.
        assert!((fit.a - 0.25).abs() < 0.1, "a {}", fit.a);
    }

    #[test]
    fn training_counts_match_modes() {
        let est = CurveEstimator::paper_default(0);
        assert_eq!(est.num_trainings(10), 50);
        let ex = est.with_mode(EstimationMode::Exhaustive);
        assert_eq!(ex.num_trainings(10), 500);
    }

    #[test]
    fn estimation_is_deterministic() {
        let curves = vec![PowerLaw::new(2.0, 0.3), PowerLaw::new(1.1, 0.6)];
        let measure = synthetic_measure(vec![250, 250], curves, 0.3);
        let est = CurveEstimator::fast(5);
        let a = full(&est, 2, &measure);
        let b = full(&est, 2, &measure);
        assert_same_bits(&a, &b, "rerun");
    }

    #[test]
    fn estimate_keeps_points_and_repeat_fits() {
        let curves = vec![PowerLaw::new(2.0, 0.3)];
        let measure = synthetic_measure(vec![300], curves, 0.1);
        let est = CurveEstimator::fast(5);
        let detail = full(&est, 1, &measure);
        assert_eq!(detail.len(), 1);
        let e = &detail[0];
        assert!(e.fit.is_ok());
        assert_eq!(e.repeat_fits.len(), est.repeats);
        // fast(): 5 fractions × 2 repeats = 10 pooled points.
        assert_eq!(e.points.len(), 10);
    }

    #[test]
    fn estimate_yields_bands() {
        let curves = vec![PowerLaw::new(2.0, 0.3)];
        let measure = synthetic_measure(vec![300], curves, 0.2);
        let est = CurveEstimator::fast(6);
        let e = &full(&est, 1, &measure)[0];
        let bands = e.bands(100, 0.9, 3).unwrap();
        assert!(bands.a_interval().lo <= bands.a_interval().hi);
        assert!(bands.relative_width(300.0) >= 0.0);
    }

    #[test]
    fn partial_estimate_matches_full_on_flagged_slices() {
        let curves = vec![
            PowerLaw::new(2.0, 0.3),
            PowerLaw::new(3.5, 0.31),
            PowerLaw::new(1.2, 0.5),
        ];
        let measure = synthetic_measure(vec![200, 400, 300], curves, 0.2);
        let est = CurveEstimator::fast(9).with_mode(EstimationMode::Exhaustive);
        let whole = full(&est, 3, &measure);
        let (partial, errors) = run(&est, 3, Some(&[true, false, true]), &measure);
        assert!(errors.is_empty());
        assert!(partial[1].is_none(), "unflagged slice is skipped");
        for s in [0, 2] {
            let p = partial[s].as_ref().unwrap();
            // Seeds are assigned before filtering and every fit is the
            // batch fit, so the flagged slices' points and curves are
            // bit-identical to the full schedule's.
            assert_same_bits(
                std::slice::from_ref(p),
                std::slice::from_ref(&whole[s]),
                &format!("flagged slice {s}"),
            );
        }
    }

    #[test]
    fn every_slice_targeted_equals_the_full_schedule_bit_for_bit() {
        // Incremental mode's first round flags every slice: it must fit
        // exactly what a from-scratch exhaustive estimation fits.
        let curves = vec![
            PowerLaw::new(2.0, 0.3),
            PowerLaw::new(3.5, 0.31),
            PowerLaw::new(1.2, 0.5),
            PowerLaw::new(0.8, 0.12),
        ];
        let measure = synthetic_measure(vec![200, 400, 300, 90], curves, 0.3);
        for seed in 0..8 {
            let est = CurveEstimator::paper_default(seed).with_mode(EstimationMode::Exhaustive);
            let whole = full(&est, 4, &measure);
            let (targeted, errors) = run(&est, 4, Some(&[true; 4]), &measure);
            assert!(errors.is_empty());
            let targeted: Vec<SliceEstimate> = targeted.into_iter().flatten().collect();
            assert_same_bits(&whole, &targeted, &format!("seed {seed}"));
            for (w, t) in whole.iter().zip(&targeted) {
                assert_eq!(w.repeat_fits, t.repeat_fits, "seed {seed} repeat fits");
            }
        }
    }

    #[test]
    fn partial_estimate_with_nothing_flagged_measures_nothing() {
        let calls = AtomicUsize::new(0);
        let measure = |_req: &MeasureRequest| {
            calls.fetch_add(1, Ordering::Relaxed);
            Vec::new()
        };
        let est = CurveEstimator::fast(1).with_mode(EstimationMode::Exhaustive);
        let (out, _) = run(&est, 2, Some(&[false, false]), &measure);
        assert!(out.iter().all(|o| o.is_none()));
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    #[should_panic(expected = "exhaustive schedule")]
    fn partial_estimate_rejects_amortized_mode() {
        let measure = |_req: &MeasureRequest| Vec::new();
        let est = CurveEstimator::fast(1);
        let _ = run(&est, 2, Some(&[true, false]), &measure);
    }

    #[test]
    fn requests_group_by_target_and_fraction_in_first_occurrence_order() {
        for mode in [EstimationMode::Amortized, EstimationMode::Exhaustive] {
            let est = CurveEstimator::fast(3).with_mode(mode);
            let requests = est.build_requests(2);
            let groups = group_requests(&requests);
            // Every index appears exactly once.
            let mut seen = vec![false; requests.len()];
            for g in &groups {
                assert!(!g.is_empty());
                for w in g.windows(2) {
                    assert!(w[0] < w[1], "indices ascend within a group");
                }
                let first = requests[g[0]];
                for &i in g {
                    assert!(!seen[i], "request {i} grouped twice");
                    seen[i] = true;
                    let r = requests[i];
                    assert_eq!((r.target_slice, r.frac), (first.target_slice, first.frac));
                }
                // A group is one cell's repeats.
                assert_eq!(g.len(), est.repeats);
            }
            assert!(seen.iter().all(|&s| s));
            // fast() = 5 fractions, times 2 slices when exhaustive.
            let cells = match mode {
                EstimationMode::Amortized => 5,
                EstimationMode::Exhaustive => 10,
            };
            assert_eq!(groups.len(), cells, "{mode:?}");
            // Groups appear in the order their cell first occurs.
            let firsts: Vec<usize> = groups.iter().map(|g| g[0]).collect();
            assert!(firsts.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn groups_run_concurrently_on_the_estimator_threads() {
        use std::sync::Condvar;
        use std::time::Duration;
        // Returns the peak number of groups in flight and the threads that
        // ran a group.
        let run = |threads: usize| {
            let state = Mutex::new((0usize, 0usize, Vec::new()));
            let arrived = Condvar::new();
            let measure = |group: &[MeasureRequest]| -> Vec<Vec<SliceLossMeasurement>> {
                let mut s = state.lock().unwrap();
                s.0 += 1;
                s.1 = s.1.max(s.0);
                s.2.push(std::thread::current().id());
                arrived.notify_all();
                // With several workers, hold each group until two have been
                // in flight at once: a dispatcher that can overlap groups
                // must, and the timeout fails a serial one instead of
                // hanging it.
                let mut s = arrived
                    .wait_timeout_while(s, Duration::from_secs(3), |s| threads > 1 && s.1 < 2)
                    .unwrap()
                    .0;
                s.0 -= 1;
                vec![Vec::new(); group.len()]
            };
            let mut est = CurveEstimator::fast(4);
            est.threads = threads;
            est.estimate(1, None, &measure);
            let (_, peak, ran_on) = state.into_inner().unwrap();
            (peak, ran_on)
        };
        assert_eq!(run(2).0, 2, "two workers run two groups at once");
        let (peak, ran_on) = run(1);
        assert_eq!(peak, 1);
        assert_eq!(ran_on.len(), 5, "fast(): one group per fraction");
        let caller = std::thread::current().id();
        assert!(
            ran_on.iter().all(|&t| t == caller),
            "one worker runs every group inline on the caller"
        );
    }

    #[test]
    fn failing_groups_report_errors_in_request_order_at_any_thread_count() {
        let curves = vec![PowerLaw::new(2.0, 0.3), PowerLaw::new(3.5, 0.31)];
        let clean = synthetic_measure(vec![200, 400], curves, 0.2);
        let measure = |group: &[MeasureRequest]| -> Vec<Vec<SliceLossMeasurement>> {
            if group[0].target_slice == Some(1) {
                panic!("persistent group fault");
            }
            group.iter().map(&clean).collect()
        };
        let est = CurveEstimator::fast(9).with_mode(EstimationMode::Exhaustive);
        let errors_at = |threads: usize| {
            let mut est = est.clone();
            est.threads = threads;
            est.estimate(2, None, &measure).1
        };
        let serial = errors_at(1);
        assert_eq!(
            serial,
            errors_at(4),
            "thread count must not change the errors"
        );
        // Request order is the schedule's (repeat-major, fractions
        // ascending), not the group order or the dispatch order.
        let want: Vec<(f64, usize)> = est
            .build_requests(2)
            .iter()
            .filter(|r| r.target_slice == Some(1))
            .map(|r| (r.frac, r.rep))
            .collect();
        let got: Vec<(f64, usize)> = serial.iter().map(|e| (e.frac, e.rep)).collect();
        assert_eq!(got, want);
        assert!(serial
            .iter()
            .all(|e| e.attempts == est.retries + 1 && e.cause == "persistent group fault"));
    }

    #[test]
    #[should_panic(expected = "one result per request")]
    fn estimate_rejects_short_group_results() {
        let est = CurveEstimator::fast(1);
        let _ = est.estimate(1, None, &|_group| Vec::new());
    }

    #[test]
    fn degenerate_measurements_report_error() {
        // Measurement function that always reports the same subset size.
        let measure = |_req: &MeasureRequest| {
            vec![SliceLossMeasurement {
                slice: 0,
                n: 100,
                loss: 0.5,
            }]
        };
        let est = CurveEstimator::fast(1);
        assert!(fits(&est, 1, &measure)[0].is_err());
    }

    #[test]
    fn first_attempt_panic_is_retried_bit_identically() {
        let curves = vec![PowerLaw::new(2.0, 0.3), PowerLaw::new(3.5, 0.31)];
        let clean_measure = synthetic_measure(vec![200, 400], curves.clone(), 0.2);
        let est = CurveEstimator::fast(9).with_mode(EstimationMode::Exhaustive);
        let clean = full(&est, 2, &clean_measure);

        // The first measurement request targeting slice 0 panics exactly
        // once; the retry re-runs the identical seed-pinned computation.
        let fired = std::sync::atomic::AtomicBool::new(false);
        let faulty = |req: &MeasureRequest| {
            if req.target_slice == Some(0) && !fired.swap(true, Ordering::Relaxed) {
                panic!("transient measurement fault");
            }
            clean_measure(req)
        };
        let (recovered, errors) = run(&est, 2, None, &faulty);
        assert!(fired.load(Ordering::Relaxed), "fault fired");
        assert!(errors.is_empty(), "retry absorbed the transient fault");
        let recovered: Vec<SliceEstimate> = recovered.into_iter().flatten().collect();
        assert_same_bits(&clean, &recovered, "retried");
    }

    #[test]
    fn exhausted_retries_quarantine_only_the_faulty_slice() {
        let curves = vec![PowerLaw::new(2.0, 0.3), PowerLaw::new(3.5, 0.31)];
        let clean_measure = synthetic_measure(vec![200, 400], curves, 0.2);
        let faulty = |req: &MeasureRequest| {
            if req.target_slice == Some(1) {
                panic!("persistent measurement fault");
            }
            clean_measure(req)
        };
        let est = CurveEstimator::fast(9).with_mode(EstimationMode::Exhaustive);
        let (detail, errors) = run(&est, 2, None, &faulty);
        assert!(!errors.is_empty());
        for e in &errors {
            assert_eq!(e.target_slice, Some(1));
            assert_eq!(e.attempts, est.retries + 1, "every retry was spent");
            assert!(e.cause.contains("persistent measurement fault"));
            assert!(e.to_string().contains("slice 1"), "display names the slice");
        }
        // The faulty slice has no points, so its fit is a typed error; the
        // healthy slice still fits.
        let (healthy, faulty) = (detail[0].as_ref().unwrap(), detail[1].as_ref().unwrap());
        assert!(healthy.fit.is_ok());
        assert!(faulty.fit.is_err());
        assert!(faulty.points.is_empty());
    }

    #[test]
    fn zero_retries_still_yields_typed_error_not_abort() {
        let faulty = |_req: &MeasureRequest| -> Vec<SliceLossMeasurement> {
            panic!("fault at every attempt");
        };
        let mut est = CurveEstimator::fast(9).with_mode(EstimationMode::Exhaustive);
        est.retries = 0;
        let (detail, errors) = run(&est, 1, None, &faulty);
        assert!(!errors.is_empty());
        assert!(errors.iter().all(|e| e.attempts == 1));
        assert!(detail[0].as_ref().unwrap().fit.is_err());
    }

    #[test]
    fn single_thread_matches_parallel() {
        let curves = vec![PowerLaw::new(2.2, 0.4), PowerLaw::new(0.9, 0.15)];
        let measure = synthetic_measure(vec![300, 120], curves, 0.2);
        let mut est = CurveEstimator::fast(3);
        est.threads = 1;
        let seq = full(&est, 2, &measure);
        est.threads = 8;
        let par = full(&est, 2, &measure);
        assert_same_bits(&seq, &par, "threads 1 vs 8");
    }
}
