//! Automated drift detection and bounded-staleness recovery.
//!
//! The paper assumes every slice's distribution is fixed for the whole run;
//! the acquisition pool under a drift plan (see [`st_data::drift`])
//! is not. A tuner that keeps trusting a stale learning curve after its
//! slice shifted silently mis-allocates the remaining budget, so this
//! module watches the evidence the estimation rounds already produce:
//! each re-measured slice's validation loss at its full current size is
//! compared against what the slice's *previous* fitted curve predicted,
//! and the log residuals feed a per-slice one-sided CUSUM accumulator
//! ([`st_curve::ResidualCusum`]).
//!
//! A slice whose score crosses `TunerConfig::drift_threshold` walks the
//! recovery ladder:
//!
//! 1. **re-measure** — the slice's incremental state is invalidated
//!    ([`IncrementalState::force_dirty`](crate::IncrementalState)) and its
//!    measurement seed stream is bumped to a fresh derivation, so the next
//!    round refits the slice from post-drift evidence alone;
//! 2. **reset** — the slice's CUSUM is cleared and its previous-fit
//!    baseline replaced, so recovered slices stop re-flagging;
//! 3. **quarantine** — a slice that re-flags after `max_drift_resets`
//!    recoveries is persistently drifting: it is excluded from further
//!    acquisition (its data stream is poisoned; buying more of it burns
//!    budget and *raises* its loss) and surfaced through the same
//!    [`TuningWarning::EstimationQuarantined`](crate::TuningWarning)
//!    plumbing the fault layer uses.
//!
//! Separately, the detector bounds the documented cross-slice staleness of
//! incremental re-estimation: a clean slice is force-re-measured once its
//! *neighbors'* cumulative growth since the slice's last measurement
//! crosses `TunerConfig::max_staleness` examples (no seed bump — the
//! pinned-seed re-measure is a plain memo invalidation).
//!
//! Everything here is deterministic: the CUSUM state, reset counts, and
//! staleness counters are pure functions of the run's measurements, and
//! are carried in checkpoint schema v2 so a `--resume` through a drift
//! event stays bit-identical. With `TunerConfig::drift_detection` off and
//! `max_staleness` unbounded the detector is never constructed — the
//! stationary path's behavior is unchanged, bit for bit.

use crate::tuner::TunerConfig;
use st_curve::{PowerLaw, ResidualCusum, SliceEstimate};

/// One detection: slice `slice`'s residual score crossed the threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftFlag {
    /// The drifting slice.
    pub slice: usize,
    /// The CUSUM score at detection time.
    pub score: f64,
}

/// Per-slice drift state the iterative loop threads through its rounds.
#[derive(Debug)]
pub struct DriftDetector {
    threshold: f64,
    slack: f64,
    /// CUSUM flagging enabled (`TunerConfig::drift_detection`); the
    /// staleness bound below works without it.
    detect: bool,
    max_staleness: usize,
    cusums: Vec<ResidualCusum>,
    /// Each slice's last trusted fit and the largest subset size it
    /// observed — the residual baseline. Residuals compare fresh full-size
    /// measurements against the baseline's *level at its own observed
    /// size*, never an extrapolated prediction: a stationary slice's loss
    /// is non-increasing in data size, so extrapolation optimism on a
    /// steep curve would read as drift where there is none.
    prev_fit: Vec<Option<(PowerLaw, f64)>>,
    /// Drift recoveries performed per slice.
    resets: Vec<usize>,
    /// Examples added to *other* slices since this slice's last
    /// measurement.
    staleness: Vec<usize>,
    quarantined: Vec<bool>,
}

impl DriftDetector {
    /// Builds the detector for `num_slices` slices when `config` engages
    /// any of its machinery; `None` keeps the stationary path untouched.
    pub fn from_config(config: &TunerConfig, num_slices: usize) -> Option<Self> {
        if !config.drift_detection && config.max_staleness == usize::MAX {
            return None;
        }
        Some(DriftDetector {
            threshold: config.drift_threshold,
            slack: config.drift_slack,
            detect: config.drift_detection,
            max_staleness: config.max_staleness,
            cusums: vec![ResidualCusum::new(); num_slices],
            prev_fit: vec![None; num_slices],
            resets: vec![0; num_slices],
            staleness: vec![0; num_slices],
            quarantined: vec![false; num_slices],
        })
    }

    /// Folds one estimation round in: for every slice in `measured` the
    /// observed full-size loss is scored against the slice's previous fit,
    /// the staleness counter is cleared, and the fit baseline advances.
    /// Returns the slices whose score crossed the threshold, ascending.
    pub fn observe_round(
        &mut self,
        measured: &[bool],
        estimates: &[SliceEstimate],
    ) -> Vec<DriftFlag> {
        let mut flags = Vec::new();
        for (s, est) in estimates.iter().enumerate() {
            if !measured[s] || self.quarantined[s] {
                continue;
            }
            self.staleness[s] = 0;
            let observed = observed_loss(est);
            if self.detect {
                if let (Some((prev, n_obs)), Some((_, loss))) = (self.prev_fit[s], observed) {
                    let score = self.cusums[s].observe(prev.eval(n_obs), loss, self.slack);
                    if score >= self.threshold {
                        flags.push(DriftFlag { slice: s, score });
                    }
                }
            }
            // The residual baseline advances only while the slice looks
            // stationary (score at zero). While evidence is accumulating
            // the baseline holds, so a slow creep — each round's increment
            // under the slack — still sums against the pre-drift curve
            // instead of being absorbed one refit at a time.
            if !self.detect || self.cusums[s].score() == 0.0 {
                if let (Ok(fit), Some((n, _))) = (&est.fit, observed) {
                    self.prev_fit[s] = Some((*fit, n));
                }
            }
        }
        flags
    }

    /// Starts a recovery for a flagged slice: counts the reset, clears its
    /// accumulated evidence, and drops the residual baseline — the next
    /// measurement re-anchors it on post-drift evidence without scoring
    /// (exactly like a slice's first measurement). Returns the total
    /// recoveries for the slice, for the `max_drift_resets` comparison.
    pub fn begin_recovery(&mut self, slice: usize) -> usize {
        self.resets[slice] += 1;
        self.cusums[slice].reset();
        self.prev_fit[slice] = None;
        self.resets[slice]
    }

    /// Degrades a persistently drifting slice: no further residual
    /// observations, no further recoveries, and
    /// [`is_quarantined`](Self::is_quarantined) tells the allocator to
    /// stop buying its poisoned data.
    pub fn quarantine(&mut self, slice: usize) {
        self.quarantined[slice] = true;
    }

    /// Whether `slice` has been drift-quarantined.
    pub fn is_quarantined(&self, slice: usize) -> bool {
        self.quarantined[slice]
    }

    /// Drift recoveries performed for `slice` so far.
    pub fn resets(&self, slice: usize) -> usize {
        self.resets[slice]
    }

    /// Folds one acquisition in: every slice's staleness counter grows by
    /// the examples added to *other* slices. Returns the slices whose
    /// accumulated neighbor growth crossed the bound (their counters are
    /// cleared; the caller force-re-measures them), ascending.
    pub fn note_growth(&mut self, before: &[usize], after: &[usize]) -> Vec<usize> {
        let grown: Vec<usize> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        let total: usize = grown.iter().sum();
        let mut crossed = Vec::new();
        for (s, &own) in grown.iter().enumerate() {
            if self.quarantined[s] {
                continue;
            }
            self.staleness[s] += total - own;
            if self.staleness[s] >= self.max_staleness {
                self.staleness[s] = 0;
                crossed.push(s);
            }
        }
        crossed
    }

    /// Serialized view for checkpoint schema v2.
    pub(crate) fn snapshot(&self) -> crate::checkpoint::DriftSnapshot {
        crate::checkpoint::DriftSnapshot {
            cusum: self.cusums.iter().map(|c| c.snapshot()).collect(),
            staleness: self.staleness.iter().map(|&s| s as u64).collect(),
            resets: self.resets.iter().map(|&r| r as u64).collect(),
            quarantined: self.quarantined.clone(),
            prev_fit: self
                .prev_fit
                .iter()
                .map(|f| f.map(|(p, n)| (p.b.to_bits(), p.a.to_bits(), n.to_bits())))
                .collect(),
        }
    }

    /// Restores a [`snapshot`](Self::snapshot) bit-exactly (the checkpoint
    /// fingerprint check precedes this, so the widths line up).
    pub(crate) fn restore(&mut self, snap: &crate::checkpoint::DriftSnapshot) {
        assert_eq!(
            snap.cusum.len(),
            self.cusums.len(),
            "drift checkpoint sized for a different dataset"
        );
        self.cusums = snap
            .cusum
            .iter()
            .map(|&c| ResidualCusum::restore(c))
            .collect();
        self.staleness = snap.staleness.iter().map(|&s| s as usize).collect();
        self.resets = snap.resets.iter().map(|&r| r as usize).collect();
        self.quarantined = snap.quarantined.clone();
        self.prev_fit = snap
            .prev_fit
            .iter()
            .map(|f| {
                f.map(|(b, a, n)| {
                    (
                        PowerLaw {
                            b: f64::from_bits(b),
                            a: f64::from_bits(a),
                        },
                        f64::from_bits(n),
                    )
                })
            })
            .collect();
    }
}

/// The observed loss a round measured for one slice at its largest subset
/// size: the mean over the estimate's max-`n` points (several repeats
/// measure the full fraction). `None` when the round produced no finite
/// point — a quarantined measurement is the fault layer's problem.
fn observed_loss(est: &SliceEstimate) -> Option<(f64, f64)> {
    let max_n = est
        .points
        .iter()
        .filter(|p| p.loss.is_finite() && p.n >= 1.0)
        .map(|p| p.n)
        .fold(f64::NEG_INFINITY, f64::max);
    if !max_n.is_finite() {
        return None;
    }
    let at_max: Vec<f64> = est
        .points
        .iter()
        .filter(|p| p.n == max_n && p.loss.is_finite())
        .map(|p| p.loss)
        .collect();
    let mean = at_max.iter().sum::<f64>() / at_max.len() as f64;
    Some((max_n, mean))
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_curve::CurvePoint;
    use st_models::ModelSpec;

    fn config() -> TunerConfig {
        TunerConfig::new(ModelSpec::softmax())
    }

    fn estimate(fit: PowerLaw, points: &[(f64, f64)]) -> SliceEstimate {
        SliceEstimate {
            fit: Ok(fit),
            repeat_fits: vec![fit],
            points: points
                .iter()
                .map(|&(n, loss)| CurvePoint::weighted(n, loss, n))
                .collect(),
        }
    }

    #[test]
    fn detector_is_absent_on_default_configs() {
        assert!(DriftDetector::from_config(&config(), 4).is_none());
        assert!(DriftDetector::from_config(&config().with_drift_detection(0.5), 4).is_some());
        assert!(DriftDetector::from_config(&config().with_max_staleness(100), 4).is_some());
    }

    #[test]
    fn on_curve_rounds_never_flag_and_drifted_rounds_do() {
        let cfg = config().with_drift_detection(0.5);
        let mut det = DriftDetector::from_config(&cfg, 2).unwrap();
        let curve = PowerLaw::new(2.0, 0.5);
        // Round 1 establishes the baseline — nothing to compare yet.
        let ests = vec![
            estimate(curve, &[(100.0, 0.2)]),
            estimate(curve, &[(100.0, 0.2)]),
        ];
        assert!(det.observe_round(&[true, true], &ests).is_empty());
        // Rounds at the predicted loss stay cold.
        let on = vec![
            estimate(curve, &[(400.0, 0.1)]),
            estimate(curve, &[(400.0, 0.1)]),
        ];
        assert!(det.observe_round(&[true, true], &on).is_empty());
        // Slice 1's measured loss jumps to 3× the prediction.
        let off = vec![
            estimate(curve, &[(400.0, 0.1)]),
            estimate(curve, &[(400.0, 0.3)]),
        ];
        let flags = det.observe_round(&[true, true], &off);
        assert_eq!(flags.len(), 1);
        assert_eq!(flags[0].slice, 1);
        assert!(flags[0].score > 0.5, "score {}", flags[0].score);
    }

    #[test]
    fn unmeasured_and_quarantined_slices_are_skipped() {
        let cfg = config().with_drift_detection(0.1);
        let mut det = DriftDetector::from_config(&cfg, 2).unwrap();
        let curve = PowerLaw::new(2.0, 0.5);
        let ests = vec![
            estimate(curve, &[(100.0, 0.2)]),
            estimate(curve, &[(100.0, 0.2)]),
        ];
        det.observe_round(&[true, true], &ests);
        let off = vec![
            estimate(curve, &[(400.0, 10.0)]),
            estimate(curve, &[(400.0, 10.0)]),
        ];
        assert!(
            det.observe_round(&[false, false], &off).is_empty(),
            "unmeasured slices contribute no residuals"
        );
        det.quarantine(1);
        let flags = det.observe_round(&[true, true], &off);
        assert_eq!(flags.len(), 1, "quarantined slice stays silent");
        assert_eq!(flags[0].slice, 0);
    }

    #[test]
    fn recovery_resets_the_accumulated_evidence() {
        let cfg = config().with_drift_detection(0.3);
        let mut det = DriftDetector::from_config(&cfg, 1).unwrap();
        let curve = PowerLaw::new(2.0, 0.5);
        det.observe_round(&[true], &[estimate(curve, &[(100.0, 0.2)])]);
        // The drifted round's refit already reflects the post-drift data
        // (the measurement and the fit come from the same round); the
        // residual is scored against the *previous* round's curve.
        let refit = PowerLaw::new(10.0, 0.5);
        let off = vec![estimate(refit, &[(400.0, 0.5)])];
        assert_eq!(det.observe_round(&[true], &off).len(), 1);
        assert_eq!(det.begin_recovery(0), 1);
        // Post-recovery rounds score against the drift-adapted baseline:
        // residuals stay cold.
        let fresh = vec![estimate(refit, &[(400.0, 0.5)])];
        assert!(det.observe_round(&[true], &fresh).is_empty());
        assert!(det
            .observe_round(&[true], &[estimate(refit, &[(900.0, 0.34)])])
            .is_empty());
        assert_eq!(det.resets(0), 1);
    }

    #[test]
    fn staleness_counts_neighbor_growth_and_crosses_once() {
        let cfg = config().with_max_staleness(100);
        let mut det = DriftDetector::from_config(&cfg, 3).unwrap();
        assert!(det.note_growth(&[10, 10, 10], &[70, 10, 10]).is_empty());
        // Slice 1 and 2 have now seen 60 foreign examples; 50 more cross.
        let crossed = det.note_growth(&[70, 10, 10], &[120, 10, 10]);
        assert_eq!(crossed, vec![1, 2], "slice 0's own growth is not staleness");
        // Counters cleared on crossing.
        assert!(det.note_growth(&[120, 10, 10], &[130, 10, 10]).is_empty());
        // A measurement clears the counter too.
        let curve = PowerLaw::new(2.0, 0.5);
        let ests = vec![estimate(curve, &[(100.0, 0.2)]); 3];
        det.note_growth(&[130, 10, 10], &[180, 10, 10]);
        det.observe_round(&[false, true, false], &ests);
        let crossed = det.note_growth(&[180, 10, 10], &[260, 10, 10]);
        assert_eq!(crossed, vec![2], "slice 1 was just measured");
    }

    #[test]
    fn snapshot_restores_bit_exactly() {
        let cfg = config().with_drift_detection(0.5).with_max_staleness(500);
        let mut det = DriftDetector::from_config(&cfg, 2).unwrap();
        let curve = PowerLaw::new(2.0, 0.5);
        det.observe_round(
            &[true, true],
            &[
                estimate(curve, &[(100.0, 0.2)]),
                estimate(curve, &[(100.0, 0.21)]),
            ],
        );
        det.observe_round(
            &[true, true],
            &[
                estimate(curve, &[(250.0, 0.17)]),
                estimate(curve, &[(250.0, 0.35)]),
            ],
        );
        det.begin_recovery(1);
        det.note_growth(&[100, 100], &[160, 100]);
        det.quarantine(0);

        let mut restored = DriftDetector::from_config(&cfg, 2).unwrap();
        restored.restore(&det.snapshot());
        assert_eq!(restored.snapshot(), det.snapshot());
        assert_eq!(restored.resets(1), 1);
        assert!(restored.is_quarantined(0));
    }
}
