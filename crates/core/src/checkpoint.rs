//! Checkpoint/resume for iterative tuning runs.
//!
//! Algorithm 1 can spend a large budget over many acquisition rounds; a
//! crash mid-run used to throw all of it away. This module serializes the
//! round-level state of [`SliceTuner::run`](crate::SliceTuner) after every
//! completed acquisition round (`TunerConfig::checkpoint`), and restores it
//! on `--resume` so the continued run is **bit-identical** to an
//! uninterrupted one.
//!
//! ## Why replay instead of snapshotting the dataset
//!
//! Every measurement, fit, and allocation in the workspace is a pure
//! function of `(inputs, seed)`; the only *stateful* mutations a round
//! performs are `source.acquire` (which advances the acquisition source's
//! RNG) and `ds.absorb`. The checkpoint therefore records the **integer
//! acquisition counts** of each completed round, and resume replays them
//! through the live source and dataset: the replayed `acquire` calls
//! consume the identical RNG stream, so the rebuilt dataset and source
//! state match the crashed run bit for bit — without serializing a single
//! training example. Estimation is skipped during replay (it is stateless),
//! which also makes resume fast.
//!
//! The loop scalars (remaining budget, spent, the `T` threshold) are stored
//! as exact f64 bit patterns; incremental re-estimation state (dirty flags
//! and the previous round's estimates) is stored the same way.
//!
//! ## Format
//!
//! Versioned JSON (`vendor/serde`'s `json` module): a `magic` string, a
//! `version` number, and a fingerprint (master seed, budget bits, slice
//! count) that [`RoundCheckpoint::check_compatible`] verifies on load —
//! a checkpoint from a different run, or written by a newer schema, is
//! refused with a typed error instead of silently corrupting the resume.
//! Floats are 16-hex-digit bit patterns, so `save` ∘ `load` is exact.

use serde::json::{self, Value};
use std::fmt;

/// Current checkpoint schema version. Bump on any layout change; loads of
/// newer versions are refused (old binaries must not misread new files).
///
/// v2 added the drift-detector snapshot and the incremental seed-bump
/// vector; v1 documents (which predate both) still parse, with zeroed
/// bumps and no drift state.
pub const CHECKPOINT_VERSION: u64 = 2;

const MAGIC: &str = "slice_tuner_checkpoint";

/// Why a checkpoint could not be loaded or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure reading or writing the checkpoint.
    Io {
        /// The checkpoint path.
        path: String,
        /// The OS error message.
        cause: String,
    },
    /// The file is not a well-formed checkpoint document.
    Parse {
        /// The checkpoint path.
        path: String,
        /// What was malformed.
        cause: String,
    },
    /// The file was written by an unknown (newer) schema version.
    Version {
        /// The version found in the file.
        found: u64,
    },
    /// The checkpoint belongs to a different run (seed, budget, or slice
    /// count mismatch).
    Foreign {
        /// Which fingerprint field disagreed.
        field: &'static str,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, cause } => {
                write!(f, "checkpoint io failure at {path}: {cause}")
            }
            CheckpointError::Parse { path, cause } => {
                write!(f, "checkpoint at {path} is not readable: {cause}")
            }
            CheckpointError::Version { found } => write!(
                f,
                "checkpoint schema version {found} is newer than this binary's \
                 {CHECKPOINT_VERSION}; refusing to resume from it"
            ),
            CheckpointError::Foreign { field } => write!(
                f,
                "checkpoint belongs to a different run ({field} mismatch); \
                 refusing to resume from it"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// One slice's serialized estimate: the pooled fit, per-repeat fits, and
/// measured points, all as exact bit patterns (fit failures keep a stable
/// error code instead).
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateSnapshot {
    /// `Ok((b_bits, a_bits))` or a [`FitError`](st_curve::FitError) code.
    pub fit: Result<(u64, u64), String>,
    /// Per-repeat `(b_bits, a_bits)`.
    pub repeat_fits: Vec<(u64, u64)>,
    /// Pooled `(n_bits, loss_bits, weight_bits)` points.
    pub points: Vec<(u64, u64, u64)>,
}

/// Serialized incremental re-estimation state
/// ([`IncrementalState`](crate::IncrementalState) minus the warm store).
#[derive(Debug, Clone, PartialEq)]
pub struct IncSnapshot {
    /// Per-slice dirty flags.
    pub dirty: Vec<bool>,
    /// The previous round's estimates, when one exists.
    pub prev: Option<Vec<EstimateSnapshot>>,
    /// Per-slice measurement-seed bumps from drift recovery (all zero when
    /// drift never fired; absent in v1 documents, which defaults to zero).
    pub seed_bumps: Vec<u64>,
}

/// Serialized drift-detector state
/// ([`DriftDetector`](crate::drift::DriftDetector)), so a resume through a
/// drift event replays detection, recovery, and quarantine bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftSnapshot {
    /// Per-slice CUSUM accumulators as `(cum_bits, last_bits, count)`.
    pub cusum: Vec<(u64, u64, u64)>,
    /// Per-slice neighbor-growth counters.
    pub staleness: Vec<u64>,
    /// Per-slice drift recoveries performed.
    pub resets: Vec<u64>,
    /// Per-slice drift quarantine flags.
    pub quarantined: Vec<bool>,
    /// Per-slice previous fitted curve and the largest subset size it
    /// observed, as `(b_bits, a_bits, n_bits)`.
    pub prev_fit: Vec<Option<(u64, u64, u64)>>,
}

/// Everything needed to resume an iterative run after round `iterations`.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundCheckpoint {
    /// Master seed of the run (fingerprint).
    pub seed: u64,
    /// Budget bits of the run (fingerprint).
    pub budget_bits: u64,
    /// Slice count of the run (fingerprint).
    pub num_slices: u64,
    /// Acquisition counts of the minimum-size pre-pass (empty = none ran).
    pub pre_pass: Vec<usize>,
    /// Per completed round: examples acquired per slice.
    pub rounds: Vec<Vec<usize>>,
    /// Remaining budget after the last completed round (f64 bits).
    pub remaining_bits: u64,
    /// Budget spent so far (f64 bits).
    pub total_spent_bits: u64,
    /// Algorithm 1's imbalance-change threshold `T` (f64 bits).
    pub t_bits: u64,
    /// Completed iterative rounds.
    pub iterations: u64,
    /// Incremental re-estimation state, when that mode is on.
    pub inc: Option<IncSnapshot>,
    /// Drift-detector state, when detection or a staleness bound is on.
    pub drift: Option<DriftSnapshot>,
}

impl RoundCheckpoint {
    /// Refuses checkpoints that belong to a different run.
    ///
    /// # Errors
    /// [`CheckpointError::Foreign`] naming the first mismatched field.
    pub fn check_compatible(
        &self,
        seed: u64,
        budget: f64,
        num_slices: usize,
    ) -> Result<(), CheckpointError> {
        if self.seed != seed {
            return Err(CheckpointError::Foreign { field: "seed" });
        }
        if self.budget_bits != budget.to_bits() {
            return Err(CheckpointError::Foreign { field: "budget" });
        }
        if self.num_slices != num_slices as u64 {
            return Err(CheckpointError::Foreign {
                field: "num_slices",
            });
        }
        Ok(())
    }

    /// Serializes to the versioned JSON document.
    pub fn to_json(&self) -> String {
        let counts =
            |c: &[usize]| Value::Arr(c.iter().map(|&n| Value::from_u64(n as u64)).collect());
        let mut members = vec![
            ("magic".to_string(), Value::Str(MAGIC.to_string())),
            ("version".to_string(), Value::from_u64(CHECKPOINT_VERSION)),
            ("seed".to_string(), Value::from_u64(self.seed)),
            ("budget".to_string(), bits(self.budget_bits)),
            ("num_slices".to_string(), Value::from_u64(self.num_slices)),
            ("pre_pass".to_string(), counts(&self.pre_pass)),
            (
                "rounds".to_string(),
                Value::Arr(self.rounds.iter().map(|r| counts(r)).collect()),
            ),
            ("remaining".to_string(), bits(self.remaining_bits)),
            ("total_spent".to_string(), bits(self.total_spent_bits)),
            ("t".to_string(), bits(self.t_bits)),
            ("iterations".to_string(), Value::from_u64(self.iterations)),
        ];
        if let Some(inc) = &self.inc {
            members.push(("inc".to_string(), inc_to_value(inc)));
        }
        if let Some(drift) = &self.drift {
            members.push(("drift".to_string(), drift_to_value(drift)));
        }
        Value::Obj(members).to_json()
    }

    /// Parses a checkpoint document, verifying magic and version.
    ///
    /// # Errors
    /// [`CheckpointError::Parse`] on malformed documents,
    /// [`CheckpointError::Version`] on newer schema versions.
    pub fn parse(text: &str, path: &str) -> Result<Self, CheckpointError> {
        let bad = |cause: String| CheckpointError::Parse {
            path: path.to_string(),
            cause,
        };
        let doc = json::parse(text).map_err(|e| bad(e.to_string()))?;
        match doc.get("magic").and_then(Value::as_str) {
            Some(m) if m == MAGIC => {}
            _ => return Err(bad(format!("missing magic string {MAGIC:?}"))),
        }
        let version = doc
            .get("version")
            .and_then(Value::as_u64)
            .ok_or_else(|| bad("missing version".to_string()))?;
        if version > CHECKPOINT_VERSION {
            return Err(CheckpointError::Version { found: version });
        }
        let u64_field = |key: &str| {
            doc.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| bad(format!("missing integer field {key:?}")))
        };
        let bits_field = |key: &str| {
            doc.get(key)
                .and_then(Value::as_str)
                .and_then(parse_bits)
                .ok_or_else(|| bad(format!("missing bit-pattern field {key:?}")))
        };
        let counts_of = |v: &Value, key: &str| -> Result<Vec<usize>, CheckpointError> {
            v.as_arr()
                .ok_or_else(|| bad(format!("{key:?} is not an array")))?
                .iter()
                .map(|n| {
                    n.as_u64()
                        .map(|n| n as usize)
                        .ok_or_else(|| bad(format!("non-integer count in {key:?}")))
                })
                .collect()
        };
        let pre_pass = counts_of(
            doc.get("pre_pass")
                .ok_or_else(|| bad("missing pre_pass".to_string()))?,
            "pre_pass",
        )?;
        let rounds = doc
            .get("rounds")
            .and_then(Value::as_arr)
            .ok_or_else(|| bad("missing rounds".to_string()))?
            .iter()
            .map(|r| counts_of(r, "rounds"))
            .collect::<Result<Vec<_>, _>>()?;
        let inc = match doc.get("inc") {
            None => None,
            Some(v) => Some(inc_from_value(v).map_err(bad)?),
        };
        let drift = match doc.get("drift") {
            None => None,
            Some(v) => Some(drift_from_value(v).map_err(bad)?),
        };
        Ok(RoundCheckpoint {
            seed: u64_field("seed")?,
            budget_bits: bits_field("budget")?,
            num_slices: u64_field("num_slices")?,
            pre_pass,
            rounds,
            remaining_bits: bits_field("remaining")?,
            total_spent_bits: bits_field("total_spent")?,
            t_bits: bits_field("t")?,
            iterations: u64_field("iterations")?,
            inc,
            drift,
        })
    }
}

/// An f64 bit pattern as a 16-hex-digit JSON string — exact round-trip,
/// unlike decimal.
fn bits(b: u64) -> Value {
    Value::Str(format!("{b:016x}"))
}

fn parse_bits(s: &str) -> Option<u64> {
    (s.len() == 16).then(|| u64::from_str_radix(s, 16).ok())?
}

fn fit_to_value(fit: &Result<(u64, u64), String>) -> Value {
    match fit {
        Ok((b, a)) => Value::Obj(vec![
            ("b".to_string(), bits(*b)),
            ("a".to_string(), bits(*a)),
        ]),
        Err(code) => Value::Obj(vec![("err".to_string(), Value::Str(code.clone()))]),
    }
}

fn fit_from_value(v: &Value) -> Result<Result<(u64, u64), String>, String> {
    if let Some(code) = v.get("err").and_then(Value::as_str) {
        return Ok(Err(code.to_string()));
    }
    let b = v
        .get("b")
        .and_then(Value::as_str)
        .and_then(parse_bits)
        .ok_or("fit missing b bits")?;
    let a = v
        .get("a")
        .and_then(Value::as_str)
        .and_then(parse_bits)
        .ok_or("fit missing a bits")?;
    Ok(Ok((b, a)))
}

fn inc_to_value(inc: &IncSnapshot) -> Value {
    let mut members = vec![
        (
            "dirty".to_string(),
            Value::Arr(inc.dirty.iter().map(|&d| Value::Bool(d)).collect()),
        ),
        (
            "seed_bumps".to_string(),
            Value::Arr(inc.seed_bumps.iter().map(|&b| Value::from_u64(b)).collect()),
        ),
    ];
    if let Some(prev) = &inc.prev {
        let estimates = prev
            .iter()
            .map(|e| {
                Value::Obj(vec![
                    ("fit".to_string(), fit_to_value(&e.fit)),
                    (
                        "repeat_fits".to_string(),
                        Value::Arr(
                            e.repeat_fits
                                .iter()
                                .map(|&(b, a)| fit_to_value(&Ok((b, a))))
                                .collect(),
                        ),
                    ),
                    (
                        "points".to_string(),
                        Value::Arr(
                            e.points
                                .iter()
                                .map(|&(n, l, w)| Value::Arr(vec![bits(n), bits(l), bits(w)]))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        members.push(("prev".to_string(), Value::Arr(estimates)));
    }
    Value::Obj(members)
}

fn inc_from_value(v: &Value) -> Result<IncSnapshot, String> {
    let dirty = v
        .get("dirty")
        .and_then(Value::as_arr)
        .ok_or("inc missing dirty flags")?
        .iter()
        .map(|d| d.as_bool().ok_or("non-bool dirty flag"))
        .collect::<Result<Vec<_>, _>>()?;
    // Absent in v1 documents: no drift recovery ever fired, so every
    // slice's bump is the zero default.
    let seed_bumps = match v.get("seed_bumps").and_then(Value::as_arr) {
        None => vec![0; dirty.len()],
        Some(arr) => arr
            .iter()
            .map(|b| b.as_u64().ok_or("non-integer seed bump"))
            .collect::<Result<Vec<_>, _>>()?,
    };
    let prev = match v.get("prev").and_then(Value::as_arr) {
        None => None,
        Some(estimates) => Some(
            estimates
                .iter()
                .map(|e| {
                    let fit = fit_from_value(e.get("fit").ok_or("estimate missing fit")?)?;
                    let repeat_fits = e
                        .get("repeat_fits")
                        .and_then(Value::as_arr)
                        .ok_or("estimate missing repeat_fits")?
                        .iter()
                        .map(|r| match fit_from_value(r)? {
                            Ok(pair) => Ok(pair),
                            Err(_) => Err("repeat fit cannot be an error".to_string()),
                        })
                        .collect::<Result<Vec<_>, String>>()?;
                    let points = e
                        .get("points")
                        .and_then(Value::as_arr)
                        .ok_or("estimate missing points")?
                        .iter()
                        .map(|p| {
                            let triple = p.as_arr().filter(|a| a.len() == 3).ok_or("bad point")?;
                            let bit = |i: usize| {
                                triple[i]
                                    .as_str()
                                    .and_then(parse_bits)
                                    .ok_or("bad point bits")
                            };
                            Ok::<_, &str>((bit(0)?, bit(1)?, bit(2)?))
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok::<_, String>(EstimateSnapshot {
                        fit,
                        repeat_fits,
                        points,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
        ),
    };
    Ok(IncSnapshot {
        dirty,
        prev,
        seed_bumps,
    })
}

fn drift_to_value(drift: &DriftSnapshot) -> Value {
    Value::Obj(vec![
        (
            "cusum".to_string(),
            Value::Arr(
                drift
                    .cusum
                    .iter()
                    .map(|&(cum, last, count)| {
                        Value::Arr(vec![bits(cum), bits(last), Value::from_u64(count)])
                    })
                    .collect(),
            ),
        ),
        (
            "staleness".to_string(),
            Value::Arr(
                drift
                    .staleness
                    .iter()
                    .map(|&s| Value::from_u64(s))
                    .collect(),
            ),
        ),
        (
            "resets".to_string(),
            Value::Arr(drift.resets.iter().map(|&r| Value::from_u64(r)).collect()),
        ),
        (
            "quarantined".to_string(),
            Value::Arr(drift.quarantined.iter().map(|&q| Value::Bool(q)).collect()),
        ),
        (
            "prev_fit".to_string(),
            Value::Arr(
                drift
                    .prev_fit
                    .iter()
                    .map(|f| match f {
                        None => Value::Null,
                        Some((b, a, n)) => Value::Arr(vec![bits(*b), bits(*a), bits(*n)]),
                    })
                    .collect(),
            ),
        ),
    ])
}

fn drift_from_value(v: &Value) -> Result<DriftSnapshot, String> {
    let arr_field = |key: &str| {
        v.get(key)
            .and_then(Value::as_arr)
            .ok_or(format!("drift missing {key}"))
    };
    let cusum = arr_field("cusum")?
        .iter()
        .map(|c| {
            let triple = c
                .as_arr()
                .filter(|a| a.len() == 3)
                .ok_or("bad cusum entry")?;
            let bit = |i: usize| {
                triple[i]
                    .as_str()
                    .and_then(parse_bits)
                    .ok_or("bad cusum bits")
            };
            let count = triple[2].as_u64().ok_or("bad cusum count")?;
            Ok::<_, &str>((bit(0)?, bit(1)?, count))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let u64s = |key: &'static str| -> Result<Vec<u64>, String> {
        arr_field(key)?
            .iter()
            .map(|n| n.as_u64().ok_or(format!("non-integer in drift {key}")))
            .collect()
    };
    let staleness = u64s("staleness")?;
    let resets = u64s("resets")?;
    let quarantined = arr_field("quarantined")?
        .iter()
        .map(|q| q.as_bool().ok_or("non-bool quarantine flag"))
        .collect::<Result<Vec<_>, _>>()?;
    let prev_fit = arr_field("prev_fit")?
        .iter()
        .map(|f| match f {
            Value::Null => Ok(None),
            _ => {
                let triple = f.as_arr().filter(|a| a.len() == 3).ok_or("bad prev_fit")?;
                let bit = |i: usize| {
                    triple[i]
                        .as_str()
                        .and_then(parse_bits)
                        .ok_or("bad prev_fit bits")
                };
                Ok::<_, &str>(Some((bit(0)?, bit(1)?, bit(2)?)))
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(DriftSnapshot {
        cusum,
        staleness,
        resets,
        quarantined,
        prev_fit,
    })
}

/// Stable code of a [`FitError`](st_curve::FitError) for serialization.
pub(crate) fn fit_error_code(e: &st_curve::FitError) -> &'static str {
    match e {
        st_curve::FitError::NotEnoughPoints => "not_enough_points",
        st_curve::FitError::DegenerateLosses => "degenerate_losses",
        st_curve::FitError::NonFinitePoint => "non_finite_point",
        st_curve::FitError::Diverged => "diverged",
    }
}

/// Inverse of [`fit_error_code`]; unknown codes fall back to
/// `NotEnoughPoints` (the mildest failure: fallback-curve resolution treats
/// every variant identically).
pub(crate) fn fit_error_from_code(code: &str) -> st_curve::FitError {
    match code {
        "degenerate_losses" => st_curve::FitError::DegenerateLosses,
        "non_finite_point" => st_curve::FitError::NonFinitePoint,
        "diverged" => st_curve::FitError::Diverged,
        _ => st_curve::FitError::NotEnoughPoints,
    }
}

/// Converts live estimates to their serialized form.
pub(crate) fn snapshot_estimates(estimates: &[st_curve::SliceEstimate]) -> Vec<EstimateSnapshot> {
    estimates
        .iter()
        .map(|e| EstimateSnapshot {
            fit: match &e.fit {
                Ok(p) => Ok((p.b.to_bits(), p.a.to_bits())),
                Err(err) => Err(fit_error_code(err).to_string()),
            },
            repeat_fits: e
                .repeat_fits
                .iter()
                .map(|p| (p.b.to_bits(), p.a.to_bits()))
                .collect(),
            points: e
                .points
                .iter()
                .map(|p| (p.n.to_bits(), p.loss.to_bits(), p.weight.to_bits()))
                .collect(),
        })
        .collect()
}

/// Inverse of [`snapshot_estimates`]: exact bit-pattern restoration.
pub(crate) fn restore_estimates(snaps: &[EstimateSnapshot]) -> Vec<st_curve::SliceEstimate> {
    let law = |(b, a): (u64, u64)| st_curve::PowerLaw {
        b: f64::from_bits(b),
        a: f64::from_bits(a),
    };
    snaps
        .iter()
        .map(|s| st_curve::SliceEstimate {
            fit: match &s.fit {
                Ok(pair) => Ok(law(*pair)),
                Err(code) => Err(fit_error_from_code(code)),
            },
            repeat_fits: s.repeat_fits.iter().map(|&p| law(p)).collect(),
            points: s
                .points
                .iter()
                .map(|&(n, l, w)| st_curve::CurvePoint {
                    n: f64::from_bits(n),
                    loss: f64::from_bits(l),
                    weight: f64::from_bits(w),
                })
                .collect(),
        })
        .collect()
}

/// Writes the checkpoint atomically: a temp file in the same directory is
/// renamed over the target, so a crash mid-write leaves the previous round's
/// checkpoint intact instead of a truncated document.
///
/// # Errors
/// [`CheckpointError::Io`] with the OS cause.
pub fn save(path: &str, cp: &RoundCheckpoint) -> Result<(), CheckpointError> {
    let io = |cause: std::io::Error| CheckpointError::Io {
        path: path.to_string(),
        cause: cause.to_string(),
    };
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, cp.to_json()).map_err(io)?;
    std::fs::rename(&tmp, path).map_err(io)
}

/// Removes the orphaned temp file a kill between `save`'s write and rename
/// leaves behind. Called on every `load` (resume) so a crashed run's temp
/// never lingers; missing temps are not an error.
pub fn clean_orphan_temp(path: &str) {
    let _ = std::fs::remove_file(format!("{path}.tmp"));
}

/// Sweeps `dir` for orphaned `*.tmp` checkpoint temps and removes them,
/// returning how many were cleaned. Service startup and shutdown run this
/// over the session checkpoint directory so a kill mid-`save` can never
/// accumulate garbage.
///
/// # Errors
/// [`CheckpointError::Io`] if the directory cannot be read (a missing
/// directory is fine: nothing to clean).
pub fn clean_orphan_temps(dir: &str) -> Result<usize, CheckpointError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => {
            return Err(CheckpointError::Io {
                path: dir.to_string(),
                cause: e.to_string(),
            })
        }
    };
    let mut cleaned = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let is_temp = name.to_str().is_some_and(|n| n.ends_with(".tmp"));
        if is_temp && std::fs::remove_file(entry.path()).is_ok() {
            cleaned += 1;
        }
    }
    Ok(cleaned)
}

/// Loads a checkpoint; `Ok(None)` when the file does not exist (a resume
/// request with no checkpoint yet is simply a fresh run). Any orphaned
/// `{path}.tmp` from a crashed `save` is removed first — the rename never
/// happened, so the temp holds no state the checkpoint itself lacks.
///
/// # Errors
/// [`CheckpointError::Io`] / [`CheckpointError::Parse`] /
/// [`CheckpointError::Version`].
pub fn load(path: &str) -> Result<Option<RoundCheckpoint>, CheckpointError> {
    clean_orphan_temp(path);
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(CheckpointError::Io {
                path: path.to_string(),
                cause: e.to_string(),
            })
        }
    };
    RoundCheckpoint::parse(&text, path).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RoundCheckpoint {
        RoundCheckpoint {
            seed: 42,
            budget_bits: 300.0_f64.to_bits(),
            num_slices: 4,
            pre_pass: vec![3, 0, 0, 1],
            rounds: vec![vec![10, 0, 2, 5], vec![0, 7, 0, 0]],
            remaining_bits: 123.456_f64.to_bits(),
            total_spent_bits: 176.544_f64.to_bits(),
            t_bits: 4.0_f64.to_bits(),
            iterations: 2,
            inc: Some(IncSnapshot {
                dirty: vec![false, true, false, false],
                prev: Some(vec![EstimateSnapshot {
                    fit: Ok((2.0_f64.to_bits(), 0.3_f64.to_bits())),
                    repeat_fits: vec![(2.1_f64.to_bits(), 0.31_f64.to_bits())],
                    points: vec![(10.0_f64.to_bits(), 0.5_f64.to_bits(), 10.0_f64.to_bits())],
                }]),
                seed_bumps: vec![0, 2, 0, 0],
            }),
            drift: Some(DriftSnapshot {
                cusum: vec![(0.7_f64.to_bits(), 0.1_f64.to_bits(), 3); 4],
                staleness: vec![0, 120, 0, 55],
                resets: vec![0, 2, 0, 0],
                quarantined: vec![false, false, true, false],
                prev_fit: vec![
                    Some((2.0_f64.to_bits(), 0.3_f64.to_bits(), 240.0_f64.to_bits())),
                    None,
                    Some((1.5_f64.to_bits(), 0.2_f64.to_bits(), 96.0_f64.to_bits())),
                    None,
                ],
            }),
        }
    }

    #[test]
    fn round_trips_exactly() {
        let cp = sample();
        let parsed = RoundCheckpoint::parse(&cp.to_json(), "test").unwrap();
        assert_eq!(parsed, cp);
        // Serialize → parse → serialize is a fixpoint (byte-stable format).
        assert_eq!(parsed.to_json(), cp.to_json());
    }

    #[test]
    fn fit_errors_round_trip_as_codes() {
        let mut cp = sample();
        cp.inc = Some(IncSnapshot {
            dirty: vec![true],
            prev: Some(vec![EstimateSnapshot {
                fit: Err("diverged".to_string()),
                repeat_fits: vec![],
                points: vec![],
            }]),
            seed_bumps: vec![0],
        });
        let parsed = RoundCheckpoint::parse(&cp.to_json(), "test").unwrap();
        assert_eq!(parsed, cp);
        let live = restore_estimates(parsed.inc.unwrap().prev.unwrap().as_slice());
        assert_eq!(live[0].fit, Err(st_curve::FitError::Diverged));
    }

    #[test]
    fn refuses_newer_versions() {
        let doc = sample()
            .to_json()
            .replace("\"version\":2", "\"version\":99");
        assert_eq!(
            RoundCheckpoint::parse(&doc, "test").unwrap_err(),
            CheckpointError::Version { found: 99 }
        );
    }

    #[test]
    fn parses_v1_documents_without_drift_fields() {
        // A v1 document has no "drift" member and its "inc" carries no
        // "seed_bumps"; both default to the pre-drift state.
        let mut cp = sample();
        cp.inc.as_mut().unwrap().seed_bumps = vec![0; 4];
        cp.drift = None;
        let doc = cp
            .to_json()
            .replace("\"version\":2", "\"version\":1")
            .replace("\"seed_bumps\":[0,0,0,0],", "");
        assert!(!doc.contains("seed_bumps") && !doc.contains("drift"));
        let parsed = RoundCheckpoint::parse(&doc, "test").unwrap();
        assert_eq!(parsed.inc.as_ref().unwrap().seed_bumps, vec![0; 4]);
        assert_eq!(parsed.drift, None);
        let v1_as_v2 = parsed.clone();
        v1_as_v2.check_compatible(42, 300.0, 4).unwrap();
        assert_eq!(v1_as_v2, cp, "v1 parses to the equivalent v2 state");
    }

    #[test]
    fn refuses_foreign_checkpoints() {
        let cp = sample();
        assert!(cp.check_compatible(42, 300.0, 4).is_ok());
        assert_eq!(
            cp.check_compatible(43, 300.0, 4).unwrap_err(),
            CheckpointError::Foreign { field: "seed" }
        );
        assert_eq!(
            cp.check_compatible(42, 301.0, 4).unwrap_err(),
            CheckpointError::Foreign { field: "budget" }
        );
        assert_eq!(
            cp.check_compatible(42, 300.0, 5).unwrap_err(),
            CheckpointError::Foreign {
                field: "num_slices"
            }
        );
    }

    #[test]
    fn rejects_garbage_with_typed_errors() {
        for garbage in ["", "{}", "not json", "{\"magic\":\"something_else\"}"] {
            assert!(matches!(
                RoundCheckpoint::parse(garbage, "test"),
                Err(CheckpointError::Parse { .. })
            ));
        }
    }

    #[test]
    fn estimate_snapshots_restore_bit_identically() {
        let live = vec![st_curve::SliceEstimate {
            fit: Ok(st_curve::PowerLaw::new(2.5, 0.25)),
            repeat_fits: vec![st_curve::PowerLaw::new(2.4, 0.26)],
            points: vec![st_curve::CurvePoint {
                n: 17.0,
                loss: 0.123_456_789,
                weight: 17.0,
            }],
        }];
        let back = restore_estimates(&snapshot_estimates(&live));
        let (a, b) = (live[0].fit.as_ref().unwrap(), back[0].fit.as_ref().unwrap());
        assert_eq!(a.b.to_bits(), b.b.to_bits());
        assert_eq!(a.a.to_bits(), b.a.to_bits());
        assert_eq!(
            live[0].points[0].loss.to_bits(),
            back[0].points[0].loss.to_bits()
        );
    }

    #[test]
    fn load_sweeps_the_orphaned_temp() {
        let dir = std::env::temp_dir().join("st_checkpoint_orphan_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.json");
        let path = path.to_str().unwrap();
        let cp = sample();
        save(path, &cp).unwrap();
        // Simulate a kill between write and rename: a stale temp next to a
        // good checkpoint.
        std::fs::write(format!("{path}.tmp"), "half-written").unwrap();
        assert_eq!(load(path).unwrap(), Some(cp));
        assert!(
            !std::path::Path::new(&format!("{path}.tmp")).exists(),
            "resume must sweep the orphan"
        );
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn directory_sweep_removes_only_temps() {
        let dir = std::env::temp_dir().join("st_checkpoint_sweep_test");
        std::fs::create_dir_all(&dir).unwrap();
        let keep = dir.join("s1.json");
        save(keep.to_str().unwrap(), &sample()).unwrap();
        std::fs::write(dir.join("s1.json.tmp"), "orphan").unwrap();
        std::fs::write(dir.join("s2.json.tmp"), "orphan").unwrap();
        let cleaned = clean_orphan_temps(dir.to_str().unwrap()).unwrap();
        assert_eq!(cleaned, 2);
        assert!(keep.exists(), "real checkpoints survive the sweep");
        assert!(!dir.join("s1.json.tmp").exists());
        assert_eq!(
            clean_orphan_temps(dir.to_str().unwrap()).unwrap(),
            0,
            "second sweep finds nothing"
        );
        assert_eq!(
            clean_orphan_temps(dir.join("missing").to_str().unwrap()).unwrap(),
            0,
            "missing directory is nothing to clean"
        );
        std::fs::remove_file(keep).unwrap();
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let dir = std::env::temp_dir().join("st_checkpoint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.json");
        let path = path.to_str().unwrap();
        let cp = sample();
        save(path, &cp).unwrap();
        assert_eq!(load(path).unwrap(), Some(cp));
        std::fs::remove_file(path).unwrap();
        assert_eq!(load(path).unwrap(), None, "missing file is a fresh run");
    }
}
