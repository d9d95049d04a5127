//! Tuning sessions: the durable state machine behind the HTTP layer.
//!
//! A session owns **no** in-memory tuning state. Its authoritative state
//! is the schema-v2 checkpoint document on disk (written atomically after
//! every acquisition round by the core tuner), plus the immutable
//! registration parameters and an optional uploaded CSV — both durable.
//! Every `advance` rebuilds the dataset and pool from those durable
//! inputs and resumes from the checkpoint, so the recovery path *is* the
//! normal path: a worker that panicked mid-round leaves the previous
//! round's checkpoint intact, and the next attempt replays it
//! bit-identically. That is the crash-only contract.
//!
//! Panic isolation happens here: the whole advance runs under
//! `catch_unwind`, with the `ST_FAULT session_panic@<s>:round<R>`
//! injection point at the top (attempt 0 only, mirroring `trial_panic`).

use serde::json::Value;
use slice_tuner::checkpoint::{self, CheckpointError, RoundCheckpoint};
use slice_tuner::{IterativeRun, PoolSource, RoundPlan, SliceTuner, TSchedule, TunerConfig};
use st_curve::EstimationMode;
use st_data::{families, io, DatasetFamily, SlicedDataset};
use st_linalg::fault;
use st_models::ModelSpec;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Resolves a family name (shared with the CLI).
pub fn family_by_name(name: &str) -> Result<DatasetFamily, String> {
    match name {
        "fashion" => Ok(families::fashion()),
        "mixed" => Ok(families::mixed_selected()),
        "faces" => Ok(families::faces()),
        "census" => Ok(families::census()),
        "driftbench" => Ok(families::driftbench()),
        other => Err(format!(
            "unknown family '{other}' (try: fashion, mixed, faces, census, driftbench)"
        )),
    }
}

/// The shared model for a family: softmax for binary labels, else the
/// basic MLP (shared with the CLI).
pub fn spec_for(family: &DatasetFamily) -> ModelSpec {
    if family.num_classes == 2 {
        ModelSpec::softmax()
    } else {
        ModelSpec::basic()
    }
}

/// Best-effort text of a panic payload (the common `&str`/`String` cases).
fn payload_text(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Immutable registration parameters, parsed once from the register body.
/// Everything the rebuild needs lives here; nothing else may influence
/// the tuning run, or resume would not be deterministic.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    pub family: String,
    pub seed: u64,
    /// Acquisition budget in whole cost units.
    pub budget: u64,
    /// Initial per-slice training sizes; defaults to 40 per slice.
    pub sizes: Vec<usize>,
    pub validation: usize,
    pub epochs: usize,
    pub repeats: usize,
    /// Hard cap on acquisition rounds for this session.
    pub max_rounds: u64,
}

impl SessionSpec {
    /// Parses a register body. Unknown fields are rejected so typos fail
    /// loudly instead of silently falling back to defaults.
    pub fn parse(body: &str) -> Result<SessionSpec, String> {
        let value = serde::json::parse(body).map_err(|e| format!("bad JSON: {e}"))?;
        let obj = value
            .as_obj()
            .ok_or("register body must be a JSON object")?;
        const KNOWN: [&str; 8] = [
            "family",
            "seed",
            "budget",
            "sizes",
            "validation",
            "epochs",
            "repeats",
            "max_rounds",
        ];
        for (key, _) in obj {
            if !KNOWN.contains(&key.as_str()) {
                return Err(format!(
                    "unknown field '{key}' (known: {})",
                    KNOWN.join(", ")
                ));
            }
        }
        let family = value
            .get("family")
            .and_then(Value::as_str)
            .ok_or("missing required string field 'family'")?
            .to_string();
        let fam = family_by_name(&family)?;
        let get_u64 = |key: &str, default: u64| -> Result<u64, String> {
            match value.get(key) {
                None => Ok(default),
                Some(v) => v
                    .as_u64()
                    .ok_or_else(|| format!("field '{key}' must be a non-negative integer")),
            }
        };
        let sizes = match value.get("sizes") {
            None => vec![40; fam.num_slices()],
            Some(v) => {
                let arr = v
                    .as_arr()
                    .ok_or("field 'sizes' must be an array of integers")?;
                let sizes: Option<Vec<usize>> =
                    arr.iter().map(|x| x.as_u64().map(|n| n as usize)).collect();
                sizes.ok_or("field 'sizes' must be an array of non-negative integers")?
            }
        };
        if sizes.len() != fam.num_slices() {
            return Err(format!(
                "family '{family}' has {} slices but 'sizes' has {} entries",
                fam.num_slices(),
                sizes.len()
            ));
        }
        let validation = get_u64("validation", 60)? as usize;
        if validation == 0 {
            return Err("field 'validation' must be at least 1 (losses are measured on it)".into());
        }
        let spec = SessionSpec {
            family,
            seed: get_u64("seed", 7)?,
            budget: get_u64("budget", 400)?,
            sizes,
            validation,
            epochs: (get_u64("epochs", 8)? as usize).clamp(1, 200),
            repeats: (get_u64("repeats", 1)? as usize).clamp(1, 8),
            max_rounds: get_u64("max_rounds", 8)?.clamp(1, 64),
        };
        Ok(spec)
    }
}

/// The outcome of one advance attempt.
#[derive(Debug)]
pub enum AdvanceError {
    /// The session worker panicked; the session is degraded but
    /// resumable — the checkpoint on disk is untouched by the panic.
    Panicked(String),
    /// The tuner returned a typed error (foreign checkpoint, I/O, ...).
    Engine(String),
}

/// One tuning session. All fields are either immutable registration data
/// or cheap cached views of the checkpoint; the checkpoint file is the
/// single source of truth.
pub struct Session {
    pub id: u64,
    pub spec: SessionSpec,
    family: DatasetFamily,
    pub checkpoint_path: String,
    pub csv_path: String,
    /// Completed acquisition rounds, mirrored from the checkpoint.
    pub rounds: u64,
    /// True once an advance ended the run: Algorithm 1's stop rule holds
    /// (budget or round cap spent) or a round bought nothing. Further
    /// advances are served from the checkpoint.
    pub complete: bool,
    /// True if any advance attempt panicked. Sticky: a degraded session
    /// keeps serving (crash-only), the flag is diagnostic.
    pub degraded: bool,
    /// Wall-clock milliseconds consumed by this session's advances;
    /// the degradation ladder compares it against the session budget.
    pub spent_ms: u64,
    /// Attempt counters per target round, for fault injection parity
    /// with `trial_panic` (attempt 0 fires, retries do not).
    attempts: HashMap<u64, usize>,
}

impl Session {
    pub fn new(id: u64, spec: SessionSpec, dir: &str) -> Result<Session, String> {
        let family = family_by_name(&spec.family)?;
        Ok(Session {
            id,
            family,
            checkpoint_path: format!("{dir}/session-{id}.json"),
            csv_path: format!("{dir}/session-{id}.csv"),
            rounds: 0,
            complete: false,
            degraded: false,
            spent_ms: 0,
            attempts: HashMap::new(),
            spec,
        })
    }

    /// Stores an uploaded CSV as a durable session input. Refused once
    /// tuning has started: the upload participates in every rebuild, so
    /// changing it mid-session would fork the deterministic replay.
    pub fn upload_csv(&mut self, body: &str) -> Result<usize, String> {
        if self.rounds > 0 || self.checkpoint_exists() {
            return Err("session already started tuning; uploads are locked".to_string());
        }
        let examples = io::read_examples_bounded(body, self.family.num_slices())
            .map_err(|e| format!("bad CSV: {e}"))?;
        std::fs::write(&self.csv_path, body).map_err(|e| format!("storing CSV: {e}"))?;
        Ok(examples.len())
    }

    fn checkpoint_exists(&self) -> bool {
        std::fs::metadata(&self.checkpoint_path).is_ok()
    }

    /// Loads the authoritative checkpoint, if any.
    pub fn load_checkpoint(&self) -> Result<Option<RoundCheckpoint>, String> {
        checkpoint::load(&self.checkpoint_path).map_err(|e| e.to_string())
    }

    /// Rebuilds the dataset from durable inputs: generated base + any
    /// uploaded CSV. Identical on every call for a given session — the
    /// precondition for bit-identical resume.
    fn build_dataset(&self) -> Result<SlicedDataset, String> {
        let mut ds = SlicedDataset::generate(
            &self.family,
            &self.spec.sizes,
            self.spec.validation,
            self.spec.seed,
        );
        match std::fs::read_to_string(&self.csv_path) {
            Ok(text) => {
                let extra = io::read_examples_bounded(&text, self.family.num_slices())
                    .map_err(|e| format!("stored CSV no longer parses: {e}"))?;
                ds.try_absorb(extra).map_err(|e| e.to_string())?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("reading stored CSV: {e}")),
        }
        Ok(ds)
    }

    /// Rebuilds the session's engine from its durable inputs, resumes
    /// Algorithm 1 from the checkpoint, and hands both to `step`.
    fn with_run<T>(
        &self,
        repeats: usize,
        threads: usize,
        step: impl FnOnce(
            &mut SliceTuner<'_, PoolSource>,
            &mut IterativeRun,
        ) -> Result<T, CheckpointError>,
    ) -> Result<T, String> {
        let mut cfg = TunerConfig::new(spec_for(&self.family))
            .with_seed(self.spec.seed)
            .with_mode(EstimationMode::Exhaustive)
            .with_incremental()
            .with_checkpoint(&self.checkpoint_path)
            .with_resume();
        cfg.train.epochs = self.spec.epochs;
        cfg.fractions = vec![0.4, 0.7, 1.0];
        cfg.repeats = repeats;
        cfg.threads = threads.max(1);
        cfg.max_iterations = self.spec.max_rounds as usize;
        let mut pool = PoolSource::new(self.family.clone(), self.spec.seed);
        let mut tuner = SliceTuner::new(self.build_dataset()?, &mut pool, cfg);
        tuner
            .begin_iterative(TSchedule::moderate(), self.spec.budget as f64)
            .and_then(|mut run| step(&mut tuner, &mut run))
            .map_err(|e| e.to_string())
    }

    /// Advances the session to `target` rounds (resuming from the
    /// checkpoint), isolating panics. `repeats` may be shrunk by the
    /// degradation ladder; `threads` comes from the supervisor's thread
    /// budget. The run may legitimately stop before `target` when the
    /// budget or round cap is spent; the advance that ends the run marks
    /// the session complete.
    pub fn advance(
        &mut self,
        target: u64,
        repeats: usize,
        threads: usize,
    ) -> Result<(), AdvanceError> {
        let attempt = *self.attempts.entry(target).or_insert(0);
        self.attempts.insert(target, attempt + 1);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if fault::session_panics(self.id, target, attempt) {
                panic!(
                    "ST_FAULT injected session_panic@{}:round{}",
                    self.id, target
                );
            }
            self.with_run(repeats, threads, |tuner, run| {
                let over = tuner.run_rounds(run, Some(target as usize))?;
                Ok((run.iterations() as u64, over))
            })
            .map_err(AdvanceError::Engine)
        }));
        let (rounds, over) = match outcome {
            Ok(r) => r?,
            Err(payload) => {
                self.degraded = true;
                return Err(AdvanceError::Panicked(payload_text(payload.as_ref())));
            }
        };
        self.rounds = rounds;
        self.complete |= over;
        Ok(())
    }

    /// The curve zoo: per-slice power-law fits from the checkpoint's
    /// incremental estimator snapshot. `Err` per slice when that slice's
    /// fit failed (the engine's typed failure code is passed through).
    pub fn curves(&self) -> Result<Vec<Result<(u64, u64), String>>, String> {
        let cp = self
            .load_checkpoint()?
            .ok_or("no rounds completed yet (advance first)")?;
        let prev = cp
            .inc
            .as_ref()
            .and_then(|inc| inc.prev.as_ref())
            .ok_or("no curve estimates recorded yet (advance first)")?;
        Ok(prev.iter().map(|e| e.fit.clone()).collect())
    }

    /// The plan the next advance executes — the engine's
    /// [`SliceTuner::plan_round`] on the resumed state, at the cost of one
    /// estimation — and the remaining budget. `None` once the session is
    /// complete. Writes nothing.
    pub fn next_round(&self) -> Result<(Option<RoundPlan>, f64), String> {
        let cp = self
            .load_checkpoint()?
            .ok_or("no rounds completed yet (advance first)")?;
        let remaining = f64::from_bits(cp.remaining_bits).max(0.0);
        if self.complete {
            return Ok((None, remaining));
        }
        let plan = self.with_run(self.spec.repeats, 1, |tuner, run| Ok(tuner.plan_round(run)))?;
        Ok((plan, remaining))
    }

    /// The continuous allocation the next advance rounds and buys (after
    /// the imbalance-ratio cap), and the remaining budget; all zeros once
    /// no advance will spend.
    pub fn allocation(&self) -> Result<(Vec<f64>, f64), String> {
        let (plan, remaining) = self.next_round()?;
        let capped = plan.map_or_else(|| vec![0.0; self.family.num_slices()], |p| p.capped);
        Ok((capped, remaining))
    }

    /// The session's status document. `stale` marks a response served
    /// from the last-trusted checkpoint by the degradation ladder
    /// instead of running the requested advance.
    pub fn state_json(&self, stale: bool) -> String {
        let (remaining_bits, spent_bits) = match self.load_checkpoint() {
            Ok(Some(cp)) => (Some(cp.remaining_bits), Some(cp.total_spent_bits)),
            _ => (None, None),
        };
        let mut obj = vec![
            ("id".to_string(), Value::from_u64(self.id)),
            ("family".to_string(), Value::Str(self.spec.family.clone())),
            ("seed".to_string(), Value::from_u64(self.spec.seed)),
            ("budget".to_string(), Value::from_u64(self.spec.budget)),
            ("rounds".to_string(), Value::from_u64(self.rounds)),
            ("complete".to_string(), Value::Bool(self.complete)),
            ("degraded".to_string(), Value::Bool(self.degraded)),
            ("spent_ms".to_string(), Value::from_u64(self.spent_ms)),
        ];
        if let (Some(r), Some(s)) = (remaining_bits, spent_bits) {
            obj.push((
                "remaining_bits".to_string(),
                Value::Str(format!("{r:016x}")),
            ));
            obj.push(("spent_bits".to_string(), Value::Str(format!("{s:016x}"))));
        }
        if stale {
            obj.push(("stale".to_string(), Value::Bool(true)));
        }
        Value::Obj(obj).to_json()
    }

    /// The curve zoo as a JSON document (bit patterns are authoritative,
    /// the float renderings are for human eyes).
    pub fn curves_json(&self) -> Result<String, String> {
        let fits = self.curves()?;
        let arr: Vec<Value> = fits
            .iter()
            .enumerate()
            .map(|(i, fit)| {
                let mut obj = vec![("slice".to_string(), Value::from_u64(i as u64))];
                match fit {
                    Ok((b, a)) => {
                        obj.push(("b_bits".to_string(), Value::Str(format!("{b:016x}"))));
                        obj.push(("a_bits".to_string(), Value::Str(format!("{a:016x}"))));
                        obj.push((
                            "b".to_string(),
                            Value::Str(format!("{}", f64::from_bits(*b))),
                        ));
                        obj.push((
                            "a".to_string(),
                            Value::Str(format!("{}", f64::from_bits(*a))),
                        ));
                    }
                    Err(code) => obj.push(("error".to_string(), Value::Str(code.clone()))),
                }
                Value::Obj(obj)
            })
            .collect();
        Ok(Value::Obj(vec![
            ("id".to_string(), Value::from_u64(self.id)),
            ("curves".to_string(), Value::Arr(arr)),
        ])
        .to_json())
    }

    /// The next round's plan as a JSON document: the solver's allocation,
    /// the capped one, and the whole examples the next advance buys.
    pub fn allocation_json(&self) -> Result<String, String> {
        let (plan, remaining) = self.next_round()?;
        let n = self.family.num_slices();
        let (raw, capped, counts) = match plan {
            Some(p) => (p.raw, p.capped, p.counts),
            None => (vec![0.0; n], vec![0.0; n], vec![0; n]),
        };
        let floats =
            |v: &[f64]| Value::Arr(v.iter().map(|x| Value::Str(format!("{x:.3}"))).collect());
        let counts = counts.iter().map(|&c| Value::from_u64(c as u64)).collect();
        Ok(Value::Obj(vec![
            ("id".to_string(), Value::from_u64(self.id)),
            (
                "remaining".to_string(),
                Value::Str(format!("{remaining:.3}")),
            ),
            ("raw".to_string(), floats(&raw)),
            ("allocation".to_string(), floats(&capped)),
            ("counts".to_string(), Value::Arr(counts)),
        ])
        .to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_curve::PowerLaw;

    fn tmpdir(tag: &str) -> String {
        let dir = std::env::temp_dir().join(format!("st_server_session_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmpdir");
        dir.display().to_string()
    }

    fn census_spec() -> SessionSpec {
        SessionSpec::parse(
            r#"{"family":"census","seed":11,"budget":300,"sizes":[80,20,60,25],"validation":60}"#,
        )
        .expect("valid spec")
    }

    #[test]
    fn spec_parsing_validates_fields() {
        assert!(SessionSpec::parse("not json").is_err());
        assert!(SessionSpec::parse("{}").unwrap_err().contains("family"));
        assert!(SessionSpec::parse(r#"{"family":"nope"}"#)
            .unwrap_err()
            .contains("unknown family"));
        assert!(SessionSpec::parse(r#"{"family":"census","bogus":1}"#)
            .unwrap_err()
            .contains("unknown field 'bogus'"));
        assert!(SessionSpec::parse(r#"{"family":"census","sizes":[1,2]}"#)
            .unwrap_err()
            .contains("slices"));
        assert!(SessionSpec::parse(r#"{"family":"census","validation":0}"#)
            .unwrap_err()
            .contains("'validation' must be at least 1"));
        let spec = SessionSpec::parse(r#"{"family":"census"}"#).expect("defaults");
        assert_eq!(spec.sizes.len(), 4);
        assert_eq!(spec.budget, 400);
    }

    /// A census session with the server's default register body.
    fn default_session(seed: u64, dir: &str) -> Session {
        let body = format!(r#"{{"family":"census","seed":{seed}}}"#);
        Session::new(seed, SessionSpec::parse(&body).expect("valid spec"), dir).expect("session")
    }

    #[test]
    fn allocation_is_the_plan_the_next_advance_executes() {
        let dir = tmpdir("next_round");
        for seed in 0..8 {
            let mut s = default_session(seed, &dir);
            assert!(s.next_round().is_err(), "no plan before the first advance");
            s.advance(1, 1, 1).expect("first advance");
            loop {
                let doc = std::fs::read(&s.checkpoint_path).expect("checkpoint");
                let (plan, _) = s.next_round().expect("plan");
                let (capped, _) = s.allocation().expect("allocation");
                let after = std::fs::read(&s.checkpoint_path).expect("checkpoint");
                assert_eq!(doc, after, "seed {seed}: planning must write nothing");
                let Some(plan) = plan else {
                    assert!(
                        s.complete,
                        "seed {seed}: only a complete session has no plan"
                    );
                    break;
                };
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&capped), bits(&plan.capped), "seed {seed}");
                let round = s.rounds + 1;
                s.advance(round, 1, 1).expect("advance");
                let cp = s.load_checkpoint().expect("load").expect("present");
                assert_eq!(cp.iterations, round, "seed {seed}: the planned round ran");
                assert_eq!(
                    cp.rounds.last(),
                    Some(&plan.counts),
                    "seed {seed} round {round}: the advance bought another plan"
                );
            }
        }
    }

    #[test]
    fn the_advance_that_ends_the_run_reports_complete() {
        let dir = tmpdir("complete");
        let mut budget_ended = 0;
        for seed in 0..8 {
            let mut s = default_session(seed, &dir);
            let mut advances = 0;
            while !s.complete {
                s.advance(s.rounds + 1, 1, 1).expect("advance");
                advances += 1;
            }
            assert_eq!(
                advances, s.rounds,
                "seed {seed}: every advance bought a round, the last one said it was the last"
            );
            if s.rounds < s.spec.max_rounds {
                budget_ended += 1;
            }
        }
        assert!(budget_ended > 0, "some session must run out of budget");
    }

    #[test]
    fn advance_then_reresolve_state_from_checkpoint() {
        let dir = tmpdir("advance");
        let mut s = Session::new(0, census_spec(), &dir).expect("session");
        s.advance(1, 1, 1).expect("advance to round 1");
        assert_eq!(s.rounds, 1);
        let cp = s.load_checkpoint().expect("load").expect("present");
        assert_eq!(cp.iterations, 1);
        assert!(s.curves().is_ok(), "exhaustive+incremental records curves");
        let (d, remaining) = s.allocation().expect("allocation");
        assert_eq!(d.len(), 4);
        assert!(remaining > 0.0);
        assert!(d.iter().all(|x| x.is_finite() && *x >= 0.0));
    }

    #[test]
    fn allocation_is_zero_once_no_advance_will_spend() {
        let dir = tmpdir("spent");
        let run_to_completion = |id: u64, body: &str| {
            let spec = SessionSpec::parse(body).expect("valid spec");
            let mut s = Session::new(id, spec, &dir).expect("session");
            while !s.complete {
                s.advance(s.rounds + 1, 1, 1).expect("advance");
            }
            let (d, remaining) = s.allocation().expect("allocation");
            let cp = s.load_checkpoint().expect("load").expect("present");
            assert_eq!(remaining, f64::from_bits(cp.remaining_bits).max(0.0));
            (d, remaining)
        };
        // The round cap stops the session with budget left.
        let (d, remaining) =
            run_to_completion(0, r#"{"family":"census","seed":11,"max_rounds":1}"#);
        assert!(remaining >= 1.0, "{remaining}");
        assert_eq!(d, vec![0.0; 4]);
        // The budget runs down to rounding dust below every slice's cost.
        let (d, remaining) = run_to_completion(1, r#"{"family":"faces","seed":5,"budget":300}"#);
        assert!(remaining > 0.0 && remaining < 1.0, "{remaining}");
        assert_eq!(d, vec![0.0; 8]);
    }

    #[test]
    fn allocation_gives_a_failed_fit_the_engine_fallback() {
        let dir = tmpdir("failed_fit");
        let mut s = Session::new(0, census_spec(), &dir).expect("session");
        s.advance(1, 1, 1).expect("advance to round 1");
        let mut cp = s.load_checkpoint().expect("load").expect("present");
        fn fits(cp: &mut RoundCheckpoint) -> &mut Vec<checkpoint::EstimateSnapshot> {
            cp.inc
                .as_mut()
                .and_then(|inc| inc.prev.as_mut())
                .expect("curves recorded")
        }
        let healthy: Vec<PowerLaw> = fits(&mut cp)[1..]
            .iter()
            .map(|e| {
                let (b, a) = e.fit.clone().expect("healthy fit");
                PowerLaw::new(f64::from_bits(b), f64::from_bits(a))
            })
            .collect();
        let allocation_with = |cp: &RoundCheckpoint| {
            checkpoint::save(&s.checkpoint_path, cp).expect("save checkpoint");
            let (d, _) = s.allocation().expect("allocation");
            d.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        // Slice 0's fit failed: it must be allocated on the engine's
        // fallback, the log-mean of the other slices' fits.
        fits(&mut cp)[0].fit = Err("not_enough_points".to_string());
        let failed = allocation_with(&cp);
        let fallback = PowerLaw::log_mean(&healthy);
        fits(&mut cp)[0].fit = Ok((fallback.b.to_bits(), fallback.a.to_bits()));
        assert_eq!(failed, allocation_with(&cp));
    }

    #[test]
    fn advance_is_idempotent_under_retry() {
        let dir = tmpdir("idem");
        let mut s = Session::new(0, census_spec(), &dir).expect("session");
        s.advance(1, 1, 1).expect("first advance");
        let doc = std::fs::read_to_string(&s.checkpoint_path).expect("checkpoint");
        // A retry of the same target resumes and halts at the same round:
        // the checkpoint document does not change by a single byte.
        s.advance(1, 1, 1).expect("retried advance");
        let doc2 = std::fs::read_to_string(&s.checkpoint_path).expect("checkpoint");
        assert_eq!(doc, doc2, "idempotent retry must not move the state");
    }

    #[test]
    fn uploads_lock_after_first_advance() {
        let dir = tmpdir("upload");
        let mut s = Session::new(0, census_spec(), &dir).expect("session");
        // Census features are 12-dimensional (see `families::census`).
        let feats = ["0.5"; 12].join(",");
        let csv = format!("1,0,{feats}\n0,1,{feats}\n");
        let csv = csv.as_str();
        let n = s.upload_csv(csv).expect("upload before start");
        assert_eq!(n, 2);
        s.advance(1, 1, 1).expect("advance");
        let err = s.upload_csv(csv).expect_err("locked after start");
        assert!(err.contains("locked"), "{err}");
    }

    #[test]
    fn injected_session_panic_degrades_then_resumes_bit_identically() {
        use std::sync::{Mutex, MutexGuard};
        fn serial() -> MutexGuard<'static, ()> {
            static LOCK: Mutex<()> = Mutex::new(());
            LOCK.lock().unwrap_or_else(|e| e.into_inner())
        }
        let _g = serial();

        // Reference: uninterrupted advances to round 2.
        let dir = tmpdir("panic_ref");
        let mut reference = Session::new(3, census_spec(), &dir).expect("session");
        reference.advance(1, 1, 1).expect("round 1");
        reference.advance(2, 1, 1).expect("round 2");
        let want = std::fs::read_to_string(&reference.checkpoint_path).expect("ref checkpoint");

        // Faulted: the same session id/round is shot on its first attempt.
        fault::install(Some(
            fault::parse_plan("session_panic@3:round2").expect("plan"),
        ));
        let dir = tmpdir("panic_hit");
        let mut s = Session::new(3, census_spec(), &dir).expect("session");
        s.advance(1, 1, 1).expect("round 1 unaffected");
        let err = s.advance(2, 1, 1).expect_err("attempt 0 must panic");
        assert!(matches!(err, AdvanceError::Panicked(_)), "{err:?}");
        assert!(s.degraded, "panic marks the session degraded");
        assert_eq!(s.rounds, 1, "checkpoint untouched by the panic");
        // The retry resumes from the checkpoint and lands bit-identically.
        s.advance(2, 1, 1).expect("attempt 1 resumes");
        fault::install(None);
        assert_eq!(s.rounds, 2);
        let got = std::fs::read_to_string(&s.checkpoint_path).expect("checkpoint");
        assert_eq!(got, want, "resumed state must be bit-identical");
    }
}
