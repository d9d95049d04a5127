//! Drift-robustness gate: a non-stationary acquisition pool (one slice's
//! label distribution degrades from round 1 on) tuned twice — once by a
//! *static/stale* baseline that trusts its pre-drift learning curves for
//! the whole run, once by the drift-aware iterative tuner — and the final
//! losses compared. The stale tuner one-shots the entire budget into the
//! drifted slice (its pre-drift curve was the steepest) and buys nothing
//! but poison; the drift-aware tuner watches the residual run-up on the
//! slice's re-measured curve, quarantines the slice once its recovery
//! budget is spent, and re-routes the remaining budget to the clean slice.
//! The gate asserts the drift-aware run leaves the drifted slice's final
//! loss >= 1.2x better than the stale baseline (and the overall loss no
//! worse), and emits machine-readable `BENCH_drift.json`, which the CI
//! drift gate greps for its fields and the CI archive step uploads.
//!
//! ```text
//! cargo run --release -p st_bench --bin drift
//! ```
//!
//! Knobs:
//!
//! - `ST_QUICK=1` — short trainings and coarser fractions;
//! - `ST_DRIFT_JSON` — output path (default `BENCH_drift.json`).
//!
//! The scenario is purpose-built so drift is *attributable*: the two
//! slices live in orthogonal feature subspaces (poisoned examples in one
//! slice cannot silently re-shape the other slice's decision boundary
//! beyond shared-model contamination), the drifted slice starts small and
//! easy (low base loss, so label poison produces a large *relative*
//! residual — the quantity the CUSUM accumulates), and the clean slice is
//! large and hard (where redirected budget still buys real improvement).
//! Both runs share the seed, the dataset, and the drift plan; everything
//! is deterministic — no wall-clock in the gate — so it is always
//! enforced.

use slice_tuner::{
    AcquisitionSource, EstimationMode, PoolSource, RunResult, SliceTuner, Strategy, TSchedule,
    TunerConfig, TuningWarning,
};
use st_bench::{quick, rule};
use st_data::{families, SlicedDataset};
use st_models::ModelSpec;
use std::fmt::Write as _;

const SEED: u64 = 23;
const BUDGET: f64 = 300.0;
/// The drifting slice and its schedule: from round 1 on, every example the
/// pool delivers for slice 0 carries (near-)maximal label noise — acquired
/// data that actively mis-trains the model. Slice 0 is small and steep
/// under this seed, so the stale baseline funds it with the whole budget:
/// exactly the regime where trusting a pre-drift curve hurts.
const DRIFT_SLICE: usize = 0;
const DRIFT_SPEC: &str = "label@slice0:round1:mag0.95";
/// CUSUM knobs pinned by the gate: threshold low enough that the drifted
/// slice's accumulated residual crosses in both quick and full modes,
/// slack low enough that its per-round creep is not debited away.
const DRIFT_THRESHOLD: f64 = 0.15;
const DRIFT_SLACK: f64 = 0.05;

fn config() -> TunerConfig {
    let mut cfg = TunerConfig::new(ModelSpec::softmax()).with_seed(SEED);
    if quick() {
        cfg.train.epochs = 8;
        cfg.fractions = vec![0.4, 0.7, 1.0];
        cfg.repeats = 1;
    } else {
        cfg.train.epochs = 20;
        cfg.fractions = vec![0.2, 0.4, 0.6, 0.8, 1.0];
        cfg.repeats = 2;
    }
    cfg.max_iterations = 12;
    cfg.with_mode(EstimationMode::Exhaustive).with_incremental()
}

/// One full run over the drifting pool. `aware` is the only knob that
/// differs: the stale baseline estimates its curves once on the pre-drift
/// data and one-shots the budget (the pool is already past drift onset, so
/// everything it buys is poisoned); the aware run iterates with detection
/// and targeted recovery on.
fn run(aware: bool) -> RunResult {
    let plan =
        st_data::drift::parse_plan(DRIFT_SPEC).unwrap_or_else(|e| panic!("bench drift spec: {e}"));
    let fam = families::driftbench();
    let ds = SlicedDataset::generate(&fam, &[100, 500], 400, SEED);
    let mut pool = PoolSource::new(fam, SEED).with_drift(plan);
    let mut cfg = config();
    let strategy = if aware {
        // Quarantine on the first confirmed detection: the bench plan
        // drifts permanently, so recovery re-measures can only re-confirm.
        cfg = cfg
            .with_drift_detection(DRIFT_THRESHOLD)
            .with_max_drift_resets(0);
        cfg.drift_slack = DRIFT_SLACK;
        Strategy::Iterative(TSchedule::conservative())
    } else {
        pool.note_round(1);
        Strategy::OneShot
    };
    let mut tuner = SliceTuner::new(ds, &mut pool, cfg);
    tuner.run(strategy, BUDGET)
}

fn main() {
    let kernel = st_linalg::kernel_kind();
    println!(
        "drift gate: driftbench under {DRIFT_SPEC}, budget {BUDGET}, kernel {} {}",
        kernel.name(),
        if quick() { "(quick)" } else { "" }
    );
    rule(72);

    let stale = run(false);
    let aware = run(true);

    let detections = aware
        .warnings
        .iter()
        .filter(|w| matches!(w, TuningWarning::DriftDetected { .. }))
        .count();
    let quarantines = aware
        .warnings
        .iter()
        .filter(|w| matches!(w, TuningWarning::EstimationQuarantined { .. }))
        .count();
    let stale_slice = stale.report.per_slice_losses[DRIFT_SLICE];
    let aware_slice = aware.report.per_slice_losses[DRIFT_SLICE];
    let slice_ratio = stale_slice / aware_slice;
    let overall_ratio = stale.report.overall_loss / aware.report.overall_loss;

    println!("{:<28} {:>12} {:>12}", "", "stale", "drift-aware");
    let row = |name: &str, a: f64, b: f64| {
        println!("{name:<28} {a:>12.4} {b:>12.4}");
    };
    row("drift slice final loss", stale_slice, aware_slice);
    row(
        "overall final loss",
        stale.report.overall_loss,
        aware.report.overall_loss,
    );
    row(
        "drift slice acquired",
        stale.acquired[DRIFT_SLICE] as f64,
        aware.acquired[DRIFT_SLICE] as f64,
    );
    row("spent", stale.spent, aware.spent);
    println!("\naware run: {detections} drift detection(s), {quarantines} quarantine(s)");
    println!(
        "drifted-slice loss ratio {slice_ratio:.2}x (target >= 1.2x), overall ratio \
         {overall_ratio:.2}x (target >= 1.0x)"
    );

    // ---- JSON emission ---------------------------------------------------
    let path = std::env::var("ST_DRIFT_JSON").unwrap_or_else(|_| "BENCH_drift.json".to_string());
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"drift\",");
    let _ = writeln!(json, "  \"schema_version\": 1,");
    let _ = writeln!(json, "  \"kernel\": \"{}\",", kernel.name());
    let _ = writeln!(json, "  \"quick\": {},", quick());
    let _ = writeln!(json, "  \"family\": \"driftbench\",");
    let _ = writeln!(json, "  \"budget\": {BUDGET},");
    let _ = writeln!(json, "  \"drift_spec\": \"{DRIFT_SPEC}\",");
    let _ = writeln!(json, "  \"stale_slice_loss\": {stale_slice:.6},");
    let _ = writeln!(json, "  \"aware_slice_loss\": {aware_slice:.6},");
    let _ = writeln!(json, "  \"slice_loss_ratio\": {slice_ratio:.4},");
    let _ = writeln!(
        json,
        "  \"stale_overall_loss\": {:.6},",
        stale.report.overall_loss
    );
    let _ = writeln!(
        json,
        "  \"aware_overall_loss\": {:.6},",
        aware.report.overall_loss
    );
    let _ = writeln!(json, "  \"overall_loss_ratio\": {overall_ratio:.4},");
    let _ = writeln!(json, "  \"detections\": {detections},");
    let _ = writeln!(json, "  \"quarantines\": {quarantines},");
    let _ = writeln!(json, "  \"target\": 1.2,");
    let _ = writeln!(json, "  \"gate_enforced\": true");
    let _ = writeln!(json, "}}");
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("\nwrote {path}");

    // ---- Gates (deterministic, always enforced) --------------------------
    assert!(
        detections >= 1,
        "the drift-aware run must detect the injected drift at least once"
    );
    assert!(
        quarantines >= 1,
        "the persistently drifting slice must end the run quarantined"
    );
    assert!(
        slice_ratio >= 1.2,
        "drift-aware tuning must leave the drifted slice's final loss >= 1.2x \
         better than the static/stale baseline, got {slice_ratio:.2}x \
         ({stale_slice:.4} vs {aware_slice:.4})"
    );
    assert!(
        overall_ratio >= 1.0,
        "drift-aware tuning must not regress the overall loss, got \
         {overall_ratio:.2}x"
    );
    println!("gates passed: detection fired, quarantine engaged, slice ratio >= 1.2x");
}
