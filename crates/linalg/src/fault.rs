//! Deterministic fault injection for the chaos suite.
//!
//! The tuning loop's fault-tolerance layer (panic isolation, retry,
//! quarantine, fit fallbacks) is only trustworthy if every recovery path is
//! exercised, so this module compiles a *fault plan* into the workspace's
//! injection points: the trial worker, the trainer's minibatch loop, and
//! the power-law fitter. The plan is a function of the spec alone — no
//! clocks, no RNG — so an injected failure reproduces exactly across runs
//! and retries.
//!
//! The library never reads the process environment: a plan is active only
//! once a caller [`install`]s it. `slice-tuner-cli` and the `service` bench
//! read `ST_FAULT` at startup and install what [`parse_plan_lenient`]
//! compiles from it; tests install plans directly.
//!
//! Grammar (comma-separated specs):
//!
//! ```text
//! ST_FAULT=trial_panic@2,nan_loss@slice3:round1,fit_diverge@0.1
//! ```
//!
//! - `trial_panic@<t>` — trial `t`'s worker panics on its **first** attempt
//!   only; the deterministic retry succeeds (exercises retry).
//! - `nan_loss@slice<s>:round<r>` — every estimation measurement targeting
//!   slice `s` during round `r` poisons a minibatch with NaN, on **every**
//!   attempt; retries exhaust and the slice is quarantined (exercises
//!   quarantine).
//! - `fit_diverge@<p>` — each power-law fit diverges with probability `p`,
//!   decided by hashing the fit's input points (order-independent, so the
//!   same points always make the same decision); failed fits take the
//!   existing fallback-curve path (exercises fallbacks).
//!
//! Service faults (consumed by `st_server` and the service bench; the
//! request counter is the server's global accepted-request ordinal, so a
//! dropped request's *retry* arrives under a fresh ordinal and succeeds):
//!
//! - `conn_drop@<req>` — the server aborts connection handling for global
//!   request `req` before writing any response byte; the client sees EOF
//!   and retries (exercises client retry + idempotent advance).
//! - `slow_client@<req>:ms<M>` — the bench client trickles request `req`'s
//!   bytes over `M` milliseconds (exercises the server's read deadline).
//! - `session_panic@<s>:round<R>` — session `s`'s worker panics while
//!   advancing into round `R`, on the **first** attempt only; the next
//!   request resumes bit-identically from the checkpoint (exercises the
//!   crash-only contract).
//!
//! With no plan installed every query is a relaxed atomic load and an early
//! return, so the harness costs nothing on the fault-free hot path. The
//! installed plan is process-global, so chaos tests in one binary serialize
//! around it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// A compiled fault plan: which injection points fire, and when.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Trials whose worker panics on attempt 0.
    pub trial_panics: Vec<u64>,
    /// `(slice, round)` pairs whose estimation measurements poison a
    /// minibatch with NaN on every attempt.
    pub nan_losses: Vec<(u64, u64)>,
    /// Probability that any given power-law fit diverges.
    pub fit_diverge: Option<f64>,
    /// Global request ordinals whose connection the server drops before
    /// responding.
    pub conn_drops: Vec<u64>,
    /// `(request, milliseconds)` pairs: the client trickles that request's
    /// bytes over the given duration.
    pub slow_clients: Vec<(u64, u64)>,
    /// `(session, round)` pairs whose session worker panics on attempt 0 of
    /// advancing into that round.
    pub session_panics: Vec<(u64, u64)>,
}

impl FaultPlan {
    fn is_empty(&self) -> bool {
        self.trial_panics.is_empty()
            && self.nan_losses.is_empty()
            && self.fit_diverge.is_none()
            && self.conn_drops.is_empty()
            && self.slow_clients.is_empty()
            && self.session_panics.is_empty()
    }
}

/// The accepted `ST_FAULT` grammar, for warnings and usage strings.
pub fn fault_grammar() -> &'static str {
    "trial_panic@<trial> | nan_loss@slice<S>:round<R> | fit_diverge@<p in [0,1]> | \
     conn_drop@<req> | slow_client@<req>:ms<M> | session_panic@<s>:round<R>"
}

/// Parses one comma-separated `ST_FAULT` value into a plan.
///
/// # Errors
/// Returns a message naming the first offending spec and the valid grammar.
pub fn parse_plan(spec: &str) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::default();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let bad = || {
            format!(
                "unknown ST_FAULT spec '{part}' (valid specs: {})",
                fault_grammar()
            )
        };
        let (kind, arg) = part.split_once('@').ok_or_else(bad)?;
        match kind {
            "trial_panic" => {
                let t: u64 = arg.parse().map_err(|_| bad())?;
                plan.trial_panics.push(t);
            }
            "nan_loss" => {
                let (s, r) = arg.split_once(':').ok_or_else(bad)?;
                let s: u64 = s
                    .strip_prefix("slice")
                    .ok_or_else(bad)?
                    .parse()
                    .map_err(|_| bad())?;
                let r: u64 = r
                    .strip_prefix("round")
                    .ok_or_else(bad)?
                    .parse()
                    .map_err(|_| bad())?;
                plan.nan_losses.push((s, r));
            }
            "fit_diverge" => {
                let p: f64 = arg.parse().map_err(|_| bad())?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(bad());
                }
                plan.fit_diverge = Some(p);
            }
            "conn_drop" => {
                let req: u64 = arg.parse().map_err(|_| bad())?;
                plan.conn_drops.push(req);
            }
            "slow_client" => {
                let (req, ms) = arg.split_once(':').ok_or_else(bad)?;
                let req: u64 = req.parse().map_err(|_| bad())?;
                let ms: u64 = ms
                    .strip_prefix("ms")
                    .ok_or_else(bad)?
                    .parse()
                    .map_err(|_| bad())?;
                plan.slow_clients.push((req, ms));
            }
            "session_panic" => {
                let (s, r) = arg.split_once(':').ok_or_else(bad)?;
                let s: u64 = s.parse().map_err(|_| bad())?;
                let r: u64 = r
                    .strip_prefix("round")
                    .ok_or_else(bad)?
                    .parse()
                    .map_err(|_| bad())?;
                plan.session_panics.push((s, r));
            }
            _ => return Err(bad()),
        }
    }
    Ok(plan)
}

/// Compiles a comma-separated spec the way a binary reading `ST_FAULT`
/// needs: each unknown spec becomes a message (naming the grammar) and the
/// rest still applies, so a typo cannot silently disable a chaos run's
/// real faults. The plan is `None` when no valid spec remains.
pub fn parse_plan_lenient(spec: &str) -> (Option<FaultPlan>, Vec<String>) {
    let mut plan = FaultPlan::default();
    let mut errors = Vec::new();
    for part in spec.split(',') {
        match parse_plan(part) {
            Ok(p) => {
                plan.trial_panics.extend(p.trial_panics);
                plan.nan_losses.extend(p.nan_losses);
                if p.fit_diverge.is_some() {
                    plan.fit_diverge = p.fit_diverge;
                }
                plan.conn_drops.extend(p.conn_drops);
                plan.slow_clients.extend(p.slow_clients);
                plan.session_panics.extend(p.session_panics);
            }
            Err(e) => errors.push(e),
        }
    }
    ((!plan.is_empty()).then_some(plan), errors)
}

/// The installed plan. `INSTALLED` mirrors `PLAN.is_some()`, so the
/// fault-free path never takes the lock.
static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// Installs (or, with `None`, clears) the process-wide fault plan.
pub fn install(plan: Option<FaultPlan>) {
    let active = plan.is_some();
    *PLAN.lock().expect("fault plan poisoned") = plan;
    INSTALLED.store(active, Ordering::SeqCst);
}

/// True when a fault plan is installed. This is the zero-cost gate every
/// injection point checks first.
#[inline]
pub fn active() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Looks up the installed plan and applies `f` to it. Callers check
/// [`active`] first, so the fault-free path never takes the lock.
fn with_plan<T>(f: impl FnOnce(&FaultPlan) -> T) -> Option<T> {
    PLAN.lock().expect("fault plan poisoned").as_ref().map(f)
}

/// Should trial `trial`'s worker panic on this `attempt`? Fires on attempt
/// 0 only, so the deterministic retry observes a clean re-execution.
#[inline]
pub fn trial_panics(trial: usize, attempt: usize) -> bool {
    if !active() || attempt != 0 {
        return false;
    }
    with_plan(|p| p.trial_panics.contains(&(trial as u64))).unwrap_or(false)
}

thread_local! {
    static NAN_ARMED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// RAII guard arming NaN-loss injection for the current thread; dropped
/// (including during unwinding) it disarms.
pub struct NanLossScope {
    armed: bool,
}

impl Drop for NanLossScope {
    fn drop(&mut self) {
        if self.armed {
            NAN_ARMED.with(|c| c.set(false));
        }
    }
}

/// Arms NaN-loss injection for the current thread when the active plan
/// lists `(slice, round)`. The estimation layer calls this around each
/// measurement (it knows the slice and round); the trainer's minibatch loop
/// consumes the flag via [`nan_loss_armed`]. Fires on **every** attempt:
/// the injected fault is persistent, so retries exhaust and the slice is
/// quarantined.
pub fn arm_nan_loss(slice: Option<usize>, round: u64) -> NanLossScope {
    let armed = active()
        && slice.is_some_and(|s| {
            with_plan(|p| p.nan_losses.contains(&(s as u64, round))).unwrap_or(false)
        });
    if armed {
        NAN_ARMED.with(|c| c.set(true));
    }
    NanLossScope { armed }
}

/// Should the current thread's training poison a minibatch with NaN?
#[inline]
pub fn nan_loss_armed() -> bool {
    if !active() {
        return false;
    }
    NAN_ARMED.with(|c| c.get())
}

/// Should a power-law fit with this input hash diverge? The caller hashes
/// the fit's input points (order-independently), so the decision is a pure
/// function of the data and reproduces across runs, retries, and resumes.
#[inline]
pub fn fit_diverges(points_hash: u64) -> bool {
    if !active() {
        return false;
    }
    with_plan(|p| match p.fit_diverge {
        Some(prob) => (points_hash as f64 / u64::MAX as f64) < prob,
        None => false,
    })
    .unwrap_or(false)
}

/// Should the server drop the connection serving global request `req`
/// before writing any response byte?
#[inline]
pub fn conn_drop(req: u64) -> bool {
    if !active() {
        return false;
    }
    with_plan(|p| p.conn_drops.contains(&req)).unwrap_or(false)
}

/// Milliseconds over which the bench client should trickle request `req`'s
/// bytes, when the plan slows it down.
#[inline]
pub fn slow_client(req: u64) -> Option<u64> {
    if !active() {
        return None;
    }
    with_plan(|p| {
        p.slow_clients
            .iter()
            .find(|(r, _)| *r == req)
            .map(|&(_, ms)| ms)
    })
    .unwrap_or(None)
}

/// Should session `session`'s worker panic advancing into `round` on this
/// `attempt`? Fires on attempt 0 only: the next request over the same
/// session resumes from the checkpoint and must succeed.
#[inline]
pub fn session_panics(session: u64, round: u64, attempt: usize) -> bool {
    if !active() || attempt != 0 {
        return false;
    }
    with_plan(|p| p.session_panics.contains(&(session, round))).unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The installed plan is process-global; these tests run under one lock so
    // they cannot observe each other's plans (the same discipline the
    // workspace chaos suite uses).
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn parses_the_full_grammar() {
        let p = parse_plan("trial_panic@2, nan_loss@slice3:round1, fit_diverge@0.1").unwrap();
        assert_eq!(p.trial_panics, vec![2]);
        assert_eq!(p.nan_losses, vec![(3, 1)]);
        assert_eq!(p.fit_diverge, Some(0.1));
    }

    #[test]
    fn rejects_unknown_specs_listing_the_grammar() {
        for bad in [
            "bogus@1",
            "trial_panic",
            "nan_loss@3:1",
            "fit_diverge@1.5",
            "conn_drop@x",
            "slow_client@3:50",
            "session_panic@1:2",
        ] {
            let err = parse_plan(bad).expect_err(bad);
            assert!(err.contains(bad.split('@').next().unwrap()), "{err}");
            assert!(err.contains("trial_panic@<trial>"), "{err}");
        }
    }

    #[test]
    fn parses_service_faults() {
        let p = parse_plan("conn_drop@7, slow_client@3:ms250, session_panic@1:round2").unwrap();
        assert_eq!(p.conn_drops, vec![7]);
        assert_eq!(p.slow_clients, vec![(3, 250)]);
        assert_eq!(p.session_panics, vec![(1, 2)]);
    }

    #[test]
    fn service_fault_queries_match_their_specs() {
        let _g = serial();
        install(Some(
            parse_plan("conn_drop@4,slow_client@2:ms100,session_panic@0:round3").unwrap(),
        ));
        assert!(conn_drop(4));
        assert!(!conn_drop(5), "other requests untouched");
        assert_eq!(slow_client(2), Some(100));
        assert_eq!(slow_client(4), None);
        assert!(session_panics(0, 3, 0));
        assert!(!session_panics(0, 3, 1), "retry must succeed");
        assert!(!session_panics(1, 3, 0), "other sessions untouched");
        assert!(!session_panics(0, 2, 0), "other rounds untouched");
        install(None);
        assert!(!conn_drop(4));
        assert_eq!(slow_client(2), None);
        assert!(!session_panics(0, 3, 0));
    }

    #[test]
    fn trial_panic_fires_on_first_attempt_only() {
        let _g = serial();
        install(Some(parse_plan("trial_panic@1").unwrap()));
        assert!(trial_panics(1, 0));
        assert!(!trial_panics(1, 1), "retry must succeed");
        assert!(!trial_panics(0, 0), "other trials untouched");
        install(None);
        assert!(!trial_panics(1, 0));
    }

    #[test]
    fn nan_loss_scope_arms_and_disarms() {
        let _g = serial();
        install(Some(parse_plan("nan_loss@slice2:round1").unwrap()));
        assert!(!nan_loss_armed());
        {
            let _scope = arm_nan_loss(Some(2), 1);
            assert!(nan_loss_armed(), "matching (slice, round) arms");
        }
        assert!(!nan_loss_armed(), "scope drop disarms");
        {
            let _scope = arm_nan_loss(Some(2), 2);
            assert!(!nan_loss_armed(), "wrong round stays cold");
        }
        {
            let _scope = arm_nan_loss(None, 1);
            assert!(!nan_loss_armed(), "joint measurements stay cold");
        }
        install(None);
    }

    #[test]
    fn fit_diverge_is_a_pure_function_of_the_hash() {
        let _g = serial();
        install(Some(parse_plan("fit_diverge@1.0").unwrap()));
        assert!(fit_diverges(123));
        install(Some(parse_plan("fit_diverge@0.0").unwrap()));
        assert!(!fit_diverges(123));
        install(Some(parse_plan("fit_diverge@0.5").unwrap()));
        let low = fit_diverges(u64::MAX / 4);
        let high = fit_diverges(u64::MAX / 4 * 3);
        assert!(low && !high, "threshold splits the hash space");
        install(None);
    }

    #[test]
    fn inactive_harness_answers_false_everywhere() {
        let _g = serial();
        install(None);
        assert!(!active());
        assert!(!trial_panics(0, 0));
        assert!(!nan_loss_armed());
        assert!(!fit_diverges(0));
    }

    #[test]
    fn lenient_parse_keeps_valid_specs_and_reports_the_rest() {
        let (plan, errors) = parse_plan_lenient("trial_panic@1, bogus@2,fit_diverge@0.5,");
        let plan = plan.expect("valid specs remain");
        assert_eq!(plan.trial_panics, vec![1]);
        assert_eq!(plan.fit_diverge, Some(0.5));
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("bogus@2"), "{}", errors[0]);
        let (plan, errors) = parse_plan_lenient("bogus@2");
        assert!(plan.is_none() && errors.len() == 1);
        assert_eq!(parse_plan_lenient(""), (None, Vec::new()));
    }
}
