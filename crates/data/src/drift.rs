//! Deterministic non-stationarity for the drift suite.
//!
//! The paper treats every slice distribution as fixed for the whole run; a
//! production tuner serving live traffic cannot. This module compiles a
//! *drift plan* into the acquisition pool: from a named round onward,
//! examples drawn for a slice come from a shifted generative model. The
//! plan is a pure function of the spec — no clocks, no RNG — so a drifting
//! run replays bit-identically across runs, retries, and resumes.
//!
//! The library never reads the process environment: a plan is active only
//! once a caller [`install`]s it (or hands one to a single pool).
//! `slice-tuner-cli` reads `ST_DRIFT` at startup and installs what
//! [`parse_plan_lenient`] compiles from it; tests install plans directly.
//!
//! Grammar (comma-separated specs):
//!
//! ```text
//! ST_DRIFT=shift@slice1:round2:mag3.0,label@slice0:round1:mag0.2
//! ```
//!
//! - `shift@slice<S>:round<R>:mag<M>` — from round `R` onward, every cluster
//!   center of slice `S` moves by `M` along each feature coordinate (a mean
//!   shift: the slice's examples land somewhere the fitted curve never saw).
//! - `label@slice<S>:round<R>:mag<M>` — the slice's label-noise rate jumps
//!   by `M` (clamped to `[0, 0.95]`): its irreducible loss floor rises.
//! - `scale@slice<S>:round<R>:mag<M>` — every cluster's `sigma` multiplies
//!   by `1 + M` (floored at 0): a covariance drift that widens or collapses
//!   the slice's blobs.
//!
//! Events accumulate: two events for the same slice both apply once their
//! rounds have passed, in spec order. Round numbers follow the tuner's
//! acquisition rounds — round 0 is the pre-pass draw, round `r ≥ 1` is the
//! `r`-th iterative acquisition round (the same convention the fault
//! plan's `nan_loss` uses for estimation streams).
//!
//! With no plan installed every query is a relaxed atomic load and an early
//! return, so the harness costs nothing on the stationary hot path. The
//! installed plan is process-global, so drift tests serialize around it.

use crate::generator::GaussianSliceModel;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// The kind of distributional change one drift event applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftKind {
    /// Mean shift: add `mag` to every cluster-center coordinate.
    Shift,
    /// Label drift: add `mag` to the label-noise rate (clamped to [0, 0.95]).
    Label,
    /// Covariance drift: multiply every cluster `sigma` by `1 + mag`
    /// (floored at 0).
    Scale,
}

impl DriftKind {
    fn key(self) -> &'static str {
        match self {
            DriftKind::Shift => "shift",
            DriftKind::Label => "label",
            DriftKind::Scale => "scale",
        }
    }
}

/// One scheduled distribution change: from `round` onward, slice `slice`'s
/// generative model is transformed by `kind` with magnitude `mag`.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftEvent {
    /// What changes.
    pub kind: DriftKind,
    /// Which slice drifts.
    pub slice: u64,
    /// First acquisition round the drifted model applies to (0 = pre-pass).
    pub round: u64,
    /// Magnitude of the change (finite; semantics depend on `kind`).
    pub mag: f64,
}

impl fmt::Display for DriftEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@slice{}:round{}:mag{}",
            self.kind.key(),
            self.slice,
            self.round,
            self.mag
        )
    }
}

/// A compiled drift plan: the scheduled distribution changes, in spec order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriftPlan {
    /// Events in the order they appeared in the spec; events whose round has
    /// passed apply cumulatively in this order.
    pub events: Vec<DriftEvent>,
}

impl DriftPlan {
    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The model slice `slice` draws from at acquisition round `round`, or
    /// `None` when no event has touched it yet (the caller keeps the base
    /// model — the stationary path stays allocation-free).
    pub fn drifted_model(
        &self,
        base: &GaussianSliceModel,
        slice: usize,
        round: u64,
    ) -> Option<GaussianSliceModel> {
        let mut model: Option<GaussianSliceModel> = None;
        for e in &self.events {
            if e.slice != slice as u64 || e.round > round {
                continue;
            }
            let m = model.get_or_insert_with(|| base.clone());
            match e.kind {
                DriftKind::Shift => {
                    for c in &mut m.clusters {
                        for x in &mut c.center {
                            *x += e.mag;
                        }
                    }
                }
                DriftKind::Label => {
                    m.label_noise = (m.label_noise + e.mag).clamp(0.0, 0.95);
                }
                DriftKind::Scale => {
                    let factor = (1.0 + e.mag).max(0.0);
                    for c in &mut m.clusters {
                        c.sigma *= factor;
                    }
                }
            }
        }
        model
    }
}

impl fmt::Display for DriftPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

/// The accepted `ST_DRIFT` grammar, for warnings and usage strings.
pub fn drift_grammar() -> &'static str {
    "shift@slice<S>:round<R>:mag<M> | label@slice<S>:round<R>:mag<M> | \
     scale@slice<S>:round<R>:mag<M>"
}

/// Parses one comma-separated `ST_DRIFT` value into a plan.
///
/// # Errors
/// Returns a message naming the first offending spec and the valid grammar.
pub fn parse_plan(spec: &str) -> Result<DriftPlan, String> {
    let mut plan = DriftPlan::default();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let bad = || {
            format!(
                "unknown ST_DRIFT spec '{part}' (valid specs: {})",
                drift_grammar()
            )
        };
        let (kind, arg) = part.split_once('@').ok_or_else(bad)?;
        let kind = match kind {
            "shift" => DriftKind::Shift,
            "label" => DriftKind::Label,
            "scale" => DriftKind::Scale,
            _ => return Err(bad()),
        };
        let mut fields = arg.split(':');
        let slice: u64 = fields
            .next()
            .and_then(|s| s.strip_prefix("slice"))
            .ok_or_else(bad)?
            .parse()
            .map_err(|_| bad())?;
        let round: u64 = fields
            .next()
            .and_then(|s| s.strip_prefix("round"))
            .ok_or_else(bad)?
            .parse()
            .map_err(|_| bad())?;
        let mag: f64 = fields
            .next()
            .and_then(|s| s.strip_prefix("mag"))
            .ok_or_else(bad)?
            .parse()
            .map_err(|_| bad())?;
        if fields.next().is_some() || !mag.is_finite() {
            return Err(bad());
        }
        plan.events.push(DriftEvent {
            kind,
            slice,
            round,
            mag,
        });
    }
    Ok(plan)
}

/// Compiles a comma-separated spec the way a binary reading `ST_DRIFT`
/// needs: each unknown spec becomes a message (naming the grammar) and the
/// rest still applies, so a typo cannot silently disable a drift run's
/// real shifts. The plan is `None` when no valid spec remains.
pub fn parse_plan_lenient(spec: &str) -> (Option<DriftPlan>, Vec<String>) {
    let mut plan = DriftPlan::default();
    let mut errors = Vec::new();
    for part in spec.split(',') {
        match parse_plan(part) {
            Ok(p) => plan.events.extend(p.events),
            Err(e) => errors.push(e),
        }
    }
    ((!plan.is_empty()).then_some(plan), errors)
}

/// The installed plan. `INSTALLED` mirrors `PLAN.is_some()`, so the
/// stationary path never takes the lock.
static PLAN: Mutex<Option<DriftPlan>> = Mutex::new(None);
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// Installs (or, with `None`, clears) the process-wide drift plan.
pub fn install(plan: Option<DriftPlan>) {
    let active = plan.is_some();
    *PLAN.lock().expect("drift plan poisoned") = plan;
    INSTALLED.store(active, Ordering::SeqCst);
}

/// True when a drift plan is installed. This is the zero-cost gate the
/// acquisition pool checks first.
#[inline]
pub fn active() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// The model slice `slice` draws from at round `round` under the installed
/// plan, or `None` when the slice is still stationary.
pub fn active_model(
    base: &GaussianSliceModel,
    slice: usize,
    round: u64,
) -> Option<GaussianSliceModel> {
    if !active() {
        return None;
    }
    PLAN.lock()
        .expect("drift plan poisoned")
        .as_ref()
        .and_then(|p| p.drifted_model(base, slice, round))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::LabelCluster;

    // The installed plan is process-global; these tests run under one lock
    // so they cannot observe each other's plans.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn base_model() -> GaussianSliceModel {
        GaussianSliceModel::new(
            vec![
                LabelCluster::new(0, 1.0, vec![0.0, 1.0], 0.5),
                LabelCluster::new(1, 1.0, vec![2.0, 3.0], 0.5),
            ],
            0.1,
        )
    }

    #[test]
    fn parses_the_full_grammar() {
        let p = parse_plan(
            "shift@slice1:round2:mag3.0, label@slice0:round1:mag0.2,scale@slice2:round3:mag-0.5",
        )
        .unwrap();
        assert_eq!(p.events.len(), 3);
        assert_eq!(p.events[0].kind, DriftKind::Shift);
        assert_eq!((p.events[0].slice, p.events[0].round), (1, 2));
        assert_eq!(p.events[0].mag, 3.0);
        assert_eq!(p.events[1].kind, DriftKind::Label);
        assert_eq!(p.events[2].kind, DriftKind::Scale);
        assert_eq!(p.events[2].mag, -0.5);
    }

    #[test]
    fn rejects_unknown_specs_listing_the_grammar() {
        for bad in [
            "bogus@slice1:round1:mag1",
            "shift@1:2:3",
            "shift@slice1:round1",
            "shift@slice1:round1:mag1:extra",
            "shift@slice1:round1:magnan",
        ] {
            let err = parse_plan(bad).expect_err(bad);
            assert!(err.contains(bad), "{err}");
            assert!(err.contains("shift@slice<S>"), "{err}");
        }
    }

    #[test]
    fn display_round_trips_through_parse() {
        let spec = "shift@slice1:round2:mag3,label@slice0:round1:mag0.25";
        let plan = parse_plan(spec).unwrap();
        assert_eq!(plan.to_string(), spec);
        assert_eq!(parse_plan(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn shift_moves_every_center_from_its_round_onward() {
        let plan = parse_plan("shift@slice1:round2:mag3.0").unwrap();
        let base = base_model();
        assert!(plan.drifted_model(&base, 1, 1).is_none(), "before round");
        assert!(plan.drifted_model(&base, 0, 5).is_none(), "other slice");
        let m = plan.drifted_model(&base, 1, 2).expect("at round");
        assert_eq!(m.clusters[0].center, vec![3.0, 4.0]);
        assert_eq!(m.clusters[1].center, vec![5.0, 6.0]);
        let later = plan.drifted_model(&base, 1, 7).expect("after round");
        assert_eq!(later, m, "a step change, not a ramp");
    }

    #[test]
    fn label_and_scale_apply_with_clamps() {
        let plan = parse_plan("label@slice0:round1:mag0.99,scale@slice0:round1:mag-2.0").unwrap();
        let m = plan.drifted_model(&base_model(), 0, 1).unwrap();
        assert_eq!(m.label_noise, 0.95, "label noise clamps below 1");
        assert_eq!(m.clusters[0].sigma, 0.0, "sigma floors at 0");
    }

    #[test]
    fn events_accumulate_in_spec_order() {
        let plan = parse_plan("shift@slice0:round1:mag1.0,shift@slice0:round2:mag1.0").unwrap();
        let base = base_model();
        let at1 = plan.drifted_model(&base, 0, 1).unwrap();
        assert_eq!(at1.clusters[0].center, vec![1.0, 2.0]);
        let at2 = plan.drifted_model(&base, 0, 2).unwrap();
        assert_eq!(at2.clusters[0].center, vec![2.0, 3.0]);
    }

    #[test]
    fn installed_plan_drives_active_model() {
        let _g = serial();
        install(Some(parse_plan("shift@slice0:round0:mag1.0").unwrap()));
        assert!(active());
        let m = active_model(&base_model(), 0, 0).expect("plan applies");
        assert_eq!(m.clusters[0].center, vec![1.0, 2.0]);
        assert!(active_model(&base_model(), 1, 0).is_none());
        install(None);
        assert!(!active());
        assert!(active_model(&base_model(), 0, 0).is_none());
    }

    #[test]
    fn lenient_parse_keeps_valid_specs_and_reports_the_rest() {
        let (plan, errors) =
            parse_plan_lenient("shift@slice1:round2:mag3, bogus@slice0:round1:mag1,");
        assert_eq!(plan.expect("valid specs remain").events.len(), 1);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("bogus@slice0"), "{}", errors[0]);
        let (plan, errors) = parse_plan_lenient("shift@1:2:3");
        assert!(plan.is_none() && errors.len() == 1);
        assert_eq!(parse_plan_lenient(""), (None, Vec::new()));
    }
}
