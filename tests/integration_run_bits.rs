//! Whole runs' output bits, pinned.
//!
//! A change that claims "no output bit moved" must leave these digests
//! alone. Each case runs one small Slice Tuner job end to end and folds
//! what it produced into 64-bit FNV-1a digests, one per component:
//!
//! - `original`: the report before any acquisition;
//! - `report`: the final report (overall loss, average and max EER, and
//!   every per-slice loss, as bits);
//! - `acquisition`: examples bought per slice, iterations, the `spent`
//!   bits and the number of model trainings;
//! - `warnings`: the `Display` text of every warning, in order;
//! - `checkpoint`: the bytes of the checkpoint file the run wrote
//!   (iterative cases, and the server session after every advance).
//!
//! The cases cover the estimation schedules and the data planes the
//! engine ships: amortized, exhaustive, and exhaustive with incremental
//! re-estimation; one `ST_FAULT` plan and one `ST_DRIFT` plan, installed
//! in process around their own case only; and one `st_server` session
//! advanced round by round until it completes. Every case runs on one
//! thread with fractions `[0.4, 0.7, 1.0]`, one repeat, at most 8 epochs,
//! at most 3 rounds and at most 60 initial examples per slice.
//!
//! The softmax gradient calls libm's `exp`, so the digests belong to the
//! host they were generated on ([`GENERATED_ON`]). A deliberate change to
//! the output bits updates [`EXPECTED`] from the table this test prints
//! on a mismatch, and says which cases moved and why.

use slice_tuner::{
    EstimationMode, PoolSource, RunResult, SliceTuner, Strategy, TSchedule, TunerConfig,
};
use st_data::{drift, families, DatasetFamily, SlicedDataset};
use st_linalg::fault;
use st_models::ModelSpec;
use st_server::{Session, SessionSpec};
use std::path::{Path, PathBuf};

/// The host triple and libm the constants below were generated with.
const GENERATED_ON: &str = "x86_64-unknown-linux-gnu, glibc 2.36";

/// `(case, component, digest)` for every digest [`digests`] computes, in
/// order.
#[rustfmt::skip]
const EXPECTED: [(&str, &str, u64); 33] = [
    ("census/uniform", "original", 0xb4225ae5870334f4),
    ("census/uniform", "report", 0x933586f6a47278b5),
    ("census/uniform", "acquisition", 0x290dcf9a266badf4),
    ("census/uniform", "warnings", 0xcbf29ce484222325),
    ("fashion/water-filling", "original", 0x96681cd75cc39f9d),
    ("fashion/water-filling", "report", 0x489250cf645cb212),
    ("fashion/water-filling", "acquisition", 0xb98d33f540569c34),
    ("fashion/water-filling", "warnings", 0xcbf29ce484222325),
    ("faces/one-shot", "original", 0x51e31df353ac3e3a),
    ("faces/one-shot", "report", 0x9786a824cb9981b3),
    ("faces/one-shot", "acquisition", 0x4bc603ebb2656c9f),
    ("faces/one-shot", "warnings", 0xcbf29ce484222325),
    ("census/moderate/amortized", "original", 0xd9907b7594948db4),
    ("census/moderate/amortized", "report", 0xa639e08b166ad0eb),
    ("census/moderate/amortized", "acquisition", 0x8fbd389b1aa30f5b),
    ("census/moderate/amortized", "warnings", 0xcbf29ce484222325),
    ("census/moderate/amortized", "checkpoint", 0x71e54a5cd85827ec),
    ("faces/moderate/exhaustive+incremental", "original", 0x50e80f561b27ff7b),
    ("faces/moderate/exhaustive+incremental", "report", 0x9cd3df95254d6680),
    ("faces/moderate/exhaustive+incremental", "acquisition", 0x65d15ecf4a494164),
    ("faces/moderate/exhaustive+incremental", "warnings", 0xcbf29ce484222325),
    ("faces/moderate/exhaustive+incremental", "checkpoint", 0xe5ee18a071440364),
    ("census/moderate/exhaustive+nan_loss", "original", 0x2aff854d973bd5e7),
    ("census/moderate/exhaustive+nan_loss", "report", 0x40cbe43b93f10a09),
    ("census/moderate/exhaustive+nan_loss", "acquisition", 0xdd981f67bf74941c),
    ("census/moderate/exhaustive+nan_loss", "warnings", 0x12f25b45539227c3),
    ("census/moderate/exhaustive+nan_loss", "checkpoint", 0xe334c8d068c819fc),
    ("driftbench/conservative/incremental+drift", "original", 0xe5acdd196275eae5),
    ("driftbench/conservative/incremental+drift", "report", 0x6dafbe073a543639),
    ("driftbench/conservative/incremental+drift", "acquisition", 0xccf61aaec4d75c42),
    ("driftbench/conservative/incremental+drift", "warnings", 0x2beedbae2b00f3e2),
    ("driftbench/conservative/incremental+drift", "checkpoint", 0x0a72c02ee82a1883),
    ("census/session", "checkpoint", 0x22c0e4a1cd4089c6),
];

/// 64-bit FNV-1a over bytes.
#[derive(Clone, Copy)]
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(mut self, bytes: &[u8]) -> Self {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn word(self, word: u64) -> Self {
        self.bytes(&word.to_le_bytes())
    }

    fn floats(self, values: &[f64]) -> Self {
        values.iter().fold(self, |h, v| h.word(v.to_bits()))
    }
}

/// The settings every case shares.
fn config(spec: ModelSpec, seed: u64) -> TunerConfig {
    let mut cfg = TunerConfig::new(spec).with_seed(seed);
    cfg.train.epochs = 8;
    cfg.fractions = vec![0.4, 0.7, 1.0];
    cfg.repeats = 1;
    cfg.threads = 1;
    cfg.max_iterations = 3;
    cfg
}

/// A fresh scratch directory for this test's checkpoint files.
fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("st_run_bits_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Installs a fault plan for a scope and clears it on drop, even if the
/// scope panics.
struct FaultGuard;

impl FaultGuard {
    fn install(spec: &str) -> Self {
        fault::install(Some(fault::parse_plan(spec).expect("valid fault plan")));
        FaultGuard
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        fault::install(None);
    }
}

/// Installs a drift plan for a scope and clears it on drop, even if the
/// scope panics.
struct DriftGuard;

impl DriftGuard {
    fn install(spec: &str) -> Self {
        drift::install(Some(drift::parse_plan(spec).expect("valid drift plan")));
        DriftGuard
    }
}

impl Drop for DriftGuard {
    fn drop(&mut self) {
        drift::install(None);
    }
}

/// One case: a family, its initial sizes and budget, a strategy, a
/// configuration, and the rounds it must run to test what it is for.
struct Case {
    name: &'static str,
    min_rounds: usize,
    family: DatasetFamily,
    sizes: Vec<usize>,
    validation: usize,
    budget: f64,
    strategy: Strategy,
    config: TunerConfig,
}

impl Case {
    /// Runs the case, writing a checkpoint into `dir` when the strategy
    /// is iterative, and returns its digests.
    fn digests(self, dir: &Path) -> Vec<(String, String, u64)> {
        let seed = self.config.seed;
        let iterative = matches!(self.strategy, Strategy::Iterative(_));
        let file: String = self
            .name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let checkpoint = dir.join(format!("{file}.json"));
        let mut cfg = self.config;
        if iterative {
            cfg = cfg.with_checkpoint(checkpoint.display().to_string());
        }
        let ds = SlicedDataset::generate(&self.family, &self.sizes, self.validation, seed);
        let mut pool = PoolSource::new(self.family, seed);
        let mut tuner = SliceTuner::new(ds, &mut pool, cfg);
        let result = tuner
            .try_run(self.strategy, self.budget)
            .unwrap_or_else(|e| panic!("{}: {e}", self.name));
        assert!(
            result.iterations >= self.min_rounds,
            "{}: ran {} round(s), the case needs at least {}",
            self.name,
            result.iterations,
            self.min_rounds
        );
        let mut out = run_digests(&result);
        if iterative {
            let bytes = std::fs::read(&checkpoint).expect("the run wrote its checkpoint");
            out.push(("checkpoint", Fnv1a::new().bytes(&bytes).0));
        }
        out.into_iter()
            .map(|(component, d)| (self.name.to_string(), component.to_string(), d))
            .collect()
    }
}

fn report_digest(r: &slice_tuner::EvalReport) -> u64 {
    Fnv1a::new()
        .floats(&[r.overall_loss, r.avg_eer, r.max_eer])
        .floats(&r.per_slice_losses)
        .0
}

fn run_digests(r: &RunResult) -> Vec<(&'static str, u64)> {
    let acquisition = r
        .acquired
        .iter()
        .fold(Fnv1a::new(), |h, &n| h.word(n as u64))
        .word(r.iterations as u64)
        .word(r.spent.to_bits())
        .word(r.trainings as u64);
    let warnings = r.warnings.iter().fold(Fnv1a::new(), |h, w| {
        h.bytes(w.to_string().as_bytes()).bytes(b"\n")
    });
    vec![
        ("original", report_digest(&r.original)),
        ("report", report_digest(&r.report)),
        ("acquisition", acquisition.0),
        ("warnings", warnings.0),
    ]
}

/// A census session with the server's defaults (40 examples per slice,
/// budget 400), capped at 3 rounds and advanced one round per call; the
/// digest covers the checkpoint after every advance.
fn session_digests(dir: &Path) -> Vec<(String, String, u64)> {
    let spec = SessionSpec::parse(r#"{"family":"census","seed":7,"max_rounds":3}"#)
        .expect("valid session spec");
    let (repeats, rounds_cap) = (spec.repeats, spec.max_rounds);
    let mut session = Session::new(1, spec, &dir.display().to_string()).expect("new session");
    let mut h = Fnv1a::new();
    let mut advances = 0;
    while !session.complete {
        assert!(advances <= rounds_cap, "session did not complete");
        session
            .advance(session.rounds + 1, repeats, 1)
            .unwrap_or_else(|e| panic!("census session advance: {e:?}"));
        advances += 1;
        let bytes = std::fs::read(&session.checkpoint_path).expect("the advance saved");
        h = h.word(session.rounds).bytes(&bytes);
    }
    vec![("census/session".to_string(), "checkpoint".to_string(), h.0)]
}

fn digests() -> Vec<(String, String, u64)> {
    let dir = scratch_dir();
    let mut out = Vec::new();
    out.extend(
        Case {
            name: "census/uniform",
            min_rounds: 1,
            family: families::census(),
            sizes: vec![60, 25, 45, 30],
            validation: 50,
            budget: 150.0,
            strategy: Strategy::Uniform,
            config: config(ModelSpec::softmax(), 3),
        }
        .digests(&dir),
    );
    out.extend(
        Case {
            name: "fashion/water-filling",
            min_rounds: 1,
            family: families::fashion(),
            sizes: vec![20, 30, 12, 25, 15, 30, 10, 28, 22, 18],
            validation: 25,
            budget: 240.0,
            strategy: Strategy::WaterFilling,
            config: config(ModelSpec::softmax(), 5),
        }
        .digests(&dir),
    );
    out.extend(
        Case {
            name: "faces/one-shot",
            min_rounds: 1,
            family: families::faces(),
            sizes: vec![30, 14, 24, 12, 20, 10, 16, 12],
            validation: 25,
            budget: 240.0,
            strategy: Strategy::OneShot,
            config: config(ModelSpec::basic(), 9),
        }
        .digests(&dir),
    );
    out.extend(
        Case {
            name: "census/moderate/amortized",
            min_rounds: 2,
            family: families::census(),
            sizes: vec![60, 20, 50, 25],
            validation: 50,
            budget: 300.0,
            strategy: Strategy::Iterative(TSchedule::moderate()),
            config: config(ModelSpec::softmax(), 11),
        }
        .digests(&dir),
    );
    out.extend(
        Case {
            name: "faces/moderate/exhaustive+incremental",
            min_rounds: 2,
            family: families::faces(),
            sizes: vec![40, 12, 36, 10, 30, 10, 24, 12],
            validation: 25,
            budget: 900.0,
            strategy: Strategy::Iterative(TSchedule::moderate()),
            config: config(ModelSpec::basic(), 13)
                .with_mode(EstimationMode::Exhaustive)
                .with_incremental(),
        }
        .digests(&dir),
    );
    {
        let _plan = FaultGuard::install("nan_loss@slice1:round1");
        out.extend(
            Case {
                name: "census/moderate/exhaustive+nan_loss",
                min_rounds: 2,
                family: families::census(),
                sizes: vec![60, 20, 50, 25],
                validation: 50,
                budget: 300.0,
                strategy: Strategy::Iterative(TSchedule::moderate()),
                config: config(ModelSpec::softmax(), 17).with_mode(EstimationMode::Exhaustive),
            }
            .digests(&dir),
        );
    }
    {
        let _plan = DriftGuard::install("label@slice0:round1:mag0.95");
        let mut cfg = config(ModelSpec::softmax(), 23)
            .with_mode(EstimationMode::Exhaustive)
            .with_incremental()
            .with_drift_detection(0.15);
        cfg.drift_slack = 0.05;
        out.extend(
            Case {
                name: "driftbench/conservative/incremental+drift",
                min_rounds: 2,
                family: families::driftbench(),
                sizes: vec![40, 60],
                validation: 60,
                budget: 800.0,
                strategy: Strategy::Iterative(TSchedule::conservative()),
                config: cfg,
            }
            .digests(&dir),
        );
    }
    out.extend(session_digests(&dir));
    std::fs::remove_dir_all(&dir).ok();
    out
}

#[test]
fn run_outputs_match_the_pinned_digests() {
    let got = digests();
    let first_diff =
        (0..got.len().max(EXPECTED.len())).find(|&i| match (got.get(i), EXPECTED.get(i)) {
            (Some((c, p, d)), Some((wc, wp, wd))) => {
                (c.as_str(), p.as_str(), *d) != (*wc, *wp, *wd)
            }
            _ => true,
        });
    let Some(i) = first_diff else {
        return;
    };
    let at = match got.get(i) {
        Some((case, component, _)) => format!("case \"{case}\", component \"{component}\""),
        None => format!("expected entry {i} (missing from this run)"),
    };
    let mut table = String::new();
    for (case, component, digest) in &got {
        table.push_str(&format!(
            "    (\"{case}\", \"{component}\", {digest:#018x}),\n"
        ));
    }
    panic!(
        "run output bits differ from the pinned digests, first at {at}.\n\
         The constants were generated on {GENERATED_ON}; this host is {}-{}.\n\
         On another host or libm a mismatch may come from `exp`, not from a \
         regression.\nActual table ({} entries):\n{table}",
        std::env::consts::ARCH,
        std::env::consts::OS,
        got.len(),
    );
}
