//! End-to-end pipeline profiler: times one full estimator → fit → optimize
//! trial with a per-phase breakdown (data generation, subset trainings,
//! curve fitting, convex solver), gates the dense estimation plane
//! (matrix-native data plane, lockstep group training, stacked eval)
//! against the per-call gather reference and the prepacked operand API
//! against per-call packing, gates the fault-tolerance guards' overhead on
//! the fault-free hot path, and emits machine-readable
//! `BENCH_pipeline.json` (schema in `docs/profiling.md`).
//!
//! ```text
//! cargo run --release -p st_bench --bin pipeline
//! ```
//!
//! Knobs:
//!
//! - `ST_QUICK=1` — small dataset/budget and fewer timing reps;
//! - `ST_PIPELINE_NO_GATE=1` — emit timings and JSON but skip the *speed*
//!   gates (CI's schema smoke uses this; the bit-identity cross-checks
//!   always run);
//! - `ST_BENCH_JSON` — output path (default `BENCH_pipeline.json`);
//! - `ST_KERNEL` — overrides the bench default (`sharded` on multi-core
//!   hosts, `simd` on single-core).

use slice_tuner::{PoolSource, RunResult, SliceTuner, Strategy, TSchedule};
use st_bench::{assert_bits_identical, bench_fill as fill, best_secs, rule, FamilySetup};
use st_curve::{fit_power_law, EstimationMode, PowerLaw, SliceEstimate};
use st_data::SlicedDataset;
use st_linalg::{GemmBackend, SimdKernel};
use std::fmt::Write as _;
use std::time::Instant;

/// One named phase timing for the report and the JSON emission.
struct Phase {
    name: &'static str,
    ms: f64,
    /// Optional count annotation (model trainings behind the phase).
    trainings: Option<usize>,
}

/// The data-plane gate cell: the AdultCensus analog (the paper's softmax
/// model) with the paper's 500-per-slice validation sets, short subset
/// trainings, and the paper's repeat count. Training compute and the
/// evaluation GEMMs are op-for-op identical on both data planes, so deep
/// models and long trainings only dilute the reading; the softmax cell
/// keeps the quantity under test — per-measure example clones,
/// validation-matrix gathers, and subset re-scans — the dominant cost,
/// exactly the "hundreds of cheap measure calls per trial" regime the
/// estimator lives in. (`run_estimation`/`run_full_trial` honor each gate
/// cell's own `setup.validation`; census carries the paper's 500, so this
/// constant keeps only the census-pinned uses — the shared dataset and the
/// incremental cell — on the same size.)
const GATE_VALIDATION: usize = 500;

/// The estimation plane under test: per-call gather (the PR-4 reference,
/// one cloned-subset training per request) or dense (the matrix-native
/// plane with lockstep group training and stacked evaluation). The two are
/// bit-identical by contract.
#[derive(Clone, Copy, PartialEq)]
enum Plane {
    PerCall,
    Dense,
}

fn gate_config(setup: &FamilySetup, seed: u64, plane: Plane) -> slice_tuner::TunerConfig {
    let mut cfg = setup.config(seed); // no curve cache: every measure trains
    cfg.train.epochs = 1;
    cfg.fractions = vec![0.2, 0.4, 0.6, 0.8, 1.0];
    cfg.repeats = 5;
    cfg.per_call_gather = plane == Plane::PerCall;
    cfg
}

/// One full (uncached) curve estimation on the gate cell, on the given
/// plane. Returns wall-clock seconds, the estimates, and the training
/// count.
fn run_estimation(setup: &FamilySetup, plane: Plane) -> (f64, Vec<SliceEstimate>, usize) {
    let ds = SlicedDataset::generate(&setup.family, &setup.equal_sizes(), setup.validation, 11);
    let mut source = PoolSource::new(setup.family.clone(), 0x9157);
    let tuner = SliceTuner::new(ds, &mut source, gate_config(setup, 11, plane));
    let start = Instant::now();
    let detailed = tuner.estimate_curves_detailed(0);
    (start.elapsed().as_secs_f64(), detailed, tuner.trainings())
}

/// One full One-shot trial (estimate → solve → acquire → retrain →
/// evaluate) on the gate cell, on the given plane, uncached.
fn run_full_trial(setup: &FamilySetup, plane: Plane, budget: f64) -> (f64, RunResult) {
    let ds = SlicedDataset::generate(&setup.family, &setup.equal_sizes(), setup.validation, 12);
    let mut source = PoolSource::new(setup.family.clone(), 0x9158);
    let mut tuner = SliceTuner::new(ds, &mut source, gate_config(setup, 12, plane));
    let start = Instant::now();
    let result = tuner.run(Strategy::OneShot, budget);
    (start.elapsed().as_secs_f64(), result)
}

/// Asserts two estimation runs measured the same points and fitted the
/// same curves, bit for bit.
fn assert_estimates_identical(a: &[SliceEstimate], b: &[SliceEstimate]) {
    assert_eq!(a.len(), b.len(), "slice count mismatch");
    for (s, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.points.len(), y.points.len(), "slice {s} point count");
        for (p, q) in x.points.iter().zip(&y.points) {
            assert_bits_identical("estimation subset size", &[p.n], &[q.n]);
            assert_bits_identical("estimation loss", &[p.loss], &[q.loss]);
        }
        match (&x.fit, &y.fit) {
            (Ok(f), Ok(g)) => {
                assert_bits_identical("fit b", &[f.b], &[g.b]);
                assert_bits_identical("fit a", &[f.a], &[g.a]);
            }
            (Err(_), Err(_)) => {}
            _ => panic!("slice {s}: one data plane fitted, the other failed"),
        }
    }
}

/// The incremental-estimation gate cell: the census analog with uneven
/// starting slices (so the iterative allocation concentrates on a few
/// slices and leaves the rest clean between rounds), the exhaustive
/// schedule (the one dirty-slice tracking can skip within), and a budget
/// that the Conservative T schedule spreads over several acquisition rounds.
/// Identical in quick and full mode — quick shrinks the timing reps only
/// — so the gate reading is comparable everywhere.
const INC_SIZES: [usize; 4] = [150, 60, 110, 80];
const INC_BUDGET: f64 = 600.0;

fn incremental_config(setup: &FamilySetup, refit_all: bool) -> slice_tuner::TunerConfig {
    let mut cfg = setup.config(13);
    cfg.train.epochs = 4;
    cfg.fractions = vec![0.2, 0.4, 0.6, 0.8, 1.0];
    cfg.repeats = 2;
    cfg.mode = EstimationMode::Exhaustive;
    cfg.incremental = true;
    cfg.incremental_refit_all = refit_all;
    cfg.max_iterations = 6;
    cfg
}

/// One iterative trial on the incremental gate cell: dirty-slice tracking
/// when `refit_all` is false, the forced full-refit baseline (identical
/// incremental semantics, none of the skipping) when true. Returns
/// wall-clock seconds, the trial result, and the training count.
fn run_incremental_trial(setup: &FamilySetup, refit_all: bool) -> (f64, RunResult, usize) {
    let ds = SlicedDataset::generate(&setup.family, &INC_SIZES, GATE_VALIDATION, 13);
    let mut source = PoolSource::new(setup.family.clone(), 0x915A);
    let mut tuner = SliceTuner::new(ds, &mut source, incremental_config(setup, refit_all));
    let start = Instant::now();
    let result = tuner.run(Strategy::Iterative(TSchedule::conservative()), INC_BUDGET);
    (start.elapsed().as_secs_f64(), result, tuner.trainings())
}

/// Asserts two trials produced identical results, bit for bit.
fn assert_trials_identical(a: &RunResult, b: &RunResult) {
    assert_eq!(a.acquired, b.acquired, "acquired counts");
    assert_eq!(a.iterations, b.iterations, "iterations");
    assert_bits_identical("spent", &[a.spent], &[b.spent]);
    assert_bits_identical(
        "original per-slice losses",
        &a.original.per_slice_losses,
        &b.original.per_slice_losses,
    );
    assert_bits_identical(
        "final per-slice losses",
        &a.report.per_slice_losses,
        &b.report.per_slice_losses,
    );
    assert_bits_identical(
        "overall loss",
        &[a.report.overall_loss],
        &[b.report.overall_loss],
    );
}

fn main() {
    let kernel = st_bench::init_bench_kernel();
    let quick = st_bench::quick();
    let no_gate = std::env::var("ST_PIPELINE_NO_GATE")
        .map(|v| v == "1")
        .unwrap_or(false);

    println!("Pipeline profiler — one estimator → fit → optimize trial, per phase");
    println!(
        "kernel: {} | quick: {quick} | gate: {}\n",
        kernel.name(),
        if no_gate {
            "reporting only"
        } else {
            "enforced"
        }
    );

    // ---- Trial phases ----------------------------------------------------
    //
    // The workload is one real Slice Tuner cell: generate a sliced dataset,
    // estimate per-slice learning curves (the repeated-small-training hot
    // path that dominates wall-clock), fit the measured points, and solve
    // the one-shot allocation. The phases come from the data-plane gate
    // cell (the AdultCensus analog in both modes — quick mode shrinks the
    // budget and timing reps, not the family, so the gate reading is
    // comparable everywhere).
    let setup = FamilySetup::census();
    // The gate budget is the quick-scaled cell in BOTH modes: the
    // acquisition sampling and post-acquisition retraining it buys are
    // common to both data planes, so a large budget only dilutes (and
    // noises up) the full-trial reading without exercising anything new.
    let budget = (setup.budget / 4.0).max(100.0);
    let sizes = setup.equal_sizes();

    let start = Instant::now();
    let ds = SlicedDataset::generate(&setup.family, &sizes, GATE_VALIDATION, 11);
    let data_gen_s = start.elapsed().as_secs_f64();

    // ---- Data-plane gate: estimation + full trial ------------------------
    //
    // The estimator's hot path used to clone every subset's examples and
    // re-gather every slice's validation matrix once per measure call
    // (the PR-4 reference, kept behind `TunerConfig::per_call_gather`).
    // The dense plane builds the dense snapshot once, samples subsets as
    // row ids, trains each same-shape group in lockstep, and evaluates
    // straight from the shared matrices. Both planes must be
    // bit-identical and train equally often; the dense plane must
    // be faster on the estimation ("training") and end-to-end
    // ("full_trial") phases. Interleaved best-of rounds keep scheduler
    // noise off one contender.
    let rounds = if quick { 3 } else { 4 };
    let (mut est_call_s, mut est_dense_s) = (f64::INFINITY, f64::INFINITY);
    let (mut trial_call_s, mut trial_dense_s) = (f64::INFINITY, f64::INFINITY);
    let (secs, detailed_call, call_trainings) = run_estimation(&setup, Plane::PerCall);
    est_call_s = est_call_s.min(secs);
    let (secs, detailed, trainings) = run_estimation(&setup, Plane::Dense);
    est_dense_s = est_dense_s.min(secs);
    assert_estimates_identical(&detailed_call, &detailed);
    assert_eq!(
        trainings, call_trainings,
        "the dense plane must train exactly as often as the per-call plane"
    );
    let (secs, trial_call) = run_full_trial(&setup, Plane::PerCall, budget);
    trial_call_s = trial_call_s.min(secs);
    let (secs, trial) = run_full_trial(&setup, Plane::Dense, budget);
    trial_dense_s = trial_dense_s.min(secs);
    assert_trials_identical(&trial_call, &trial);
    for _ in 1..rounds {
        est_call_s = est_call_s.min(run_estimation(&setup, Plane::PerCall).0);
        est_dense_s = est_dense_s.min(run_estimation(&setup, Plane::Dense).0);
        trial_call_s = trial_call_s.min(run_full_trial(&setup, Plane::PerCall, budget).0);
        trial_dense_s = trial_dense_s.min(run_full_trial(&setup, Plane::Dense, budget).0);
    }
    let est_speedup = est_call_s / est_dense_s;
    let trial_speedup = trial_call_s / trial_dense_s;

    // Phase: curve fit — refit the measured points exactly as the
    // estimator does after its trainings, repeated for a stable reading.
    let fit_reps = if quick { 20 } else { 50 };
    let mut fits_ok = 0usize;
    let start = Instant::now();
    for _ in 0..fit_reps {
        for e in &detailed {
            if fit_power_law(&e.points).is_ok() {
                fits_ok += 1;
            }
        }
    }
    let curve_fit_s = start.elapsed().as_secs_f64() / fit_reps as f64;

    // Phase: solver — the convex allocation on the fitted curves (curves
    // come from the estimates above; no retraining happens here).
    let curves: Vec<PowerLaw> = detailed
        .iter()
        .map(|e| e.fit.clone().unwrap_or(PowerLaw::new(1.0, 0.2)))
        .collect();
    let mut cfg = setup.config(11);
    cfg.per_call_gather = false;
    let mut source = PoolSource::new(setup.family.clone(), 0x9157);
    let tuner = SliceTuner::new(ds, &mut source, cfg);
    let solver_reps = if quick { 20 } else { 50 };
    let mut allocation = Vec::new();
    let start = Instant::now();
    for _ in 0..solver_reps {
        allocation = tuner.one_shot_allocation(&curves, budget);
    }
    let solver_s = start.elapsed().as_secs_f64() / solver_reps as f64;

    // ---- Incremental re-estimation gate ----------------------------------
    //
    // Algorithm 1 re-estimates every slice's curve each round; incremental
    // mode re-measures only the slices the last acquisition touched. The
    // baseline (`incremental_refit_all`) keeps every incremental semantic
    // — pinned estimator seed, accumulator-seeded fits, append-only
    // snapshots — but refits everything, so the ratio isolates the skipping.
    // Dirty-tracking runs are also checked bit-reproducible run to run.
    // ---- Numeric-guards overhead gate ------------------------------------
    //
    // The robustness layer's fault-free cost: panic isolation around each
    // estimation measurement, the trainer's non-finite minibatch-loss scan,
    // and the fitter's point validation. `TunerConfig::without_guards()`
    // strips all three, so the guarded/unguarded ratio on the estimation
    // hot path is exactly the layer's overhead. Guards must not change a
    // single bit of the estimates, and the overhead is gated at <= 1.02x.
    let run_guards_cell = |unguarded: bool| {
        let ds = SlicedDataset::generate(&setup.family, &setup.equal_sizes(), setup.validation, 11);
        let mut source = PoolSource::new(setup.family.clone(), 0x9157);
        let mut cfg = gate_config(&setup, 11, Plane::Dense);
        if unguarded {
            cfg = cfg.without_guards();
        }
        let tuner = SliceTuner::new(ds, &mut source, cfg);
        let start = Instant::now();
        let detailed = tuner.estimate_curves_detailed(0);
        (start.elapsed().as_secs_f64(), detailed)
    };
    let (mut guarded_s, mut unguarded_s) = (f64::INFINITY, f64::INFINITY);
    let (secs, guarded_est) = run_guards_cell(false);
    guarded_s = guarded_s.min(secs);
    let (secs, unguarded_est) = run_guards_cell(true);
    unguarded_s = unguarded_s.min(secs);
    assert_estimates_identical(&guarded_est, &unguarded_est);
    // Far more interleaved rounds than the other gates: a 2% threshold
    // needs both contenders' best-of floors an order of magnitude tighter
    // than the >=15% gates tolerate, and each round is only one cheap
    // estimation on the quick-scaled cell.
    let guard_rounds = if quick { 12 } else { 20 };
    for _ in 0..guard_rounds {
        unguarded_s = unguarded_s.min(run_guards_cell(true).0);
        guarded_s = guarded_s.min(run_guards_cell(false).0);
    }
    let guards_overhead = guarded_s / unguarded_s;

    let (_, inc_trial, inc_trainings) = run_incremental_trial(&setup, false);
    let (_, _full_trial, refit_trainings) = run_incremental_trial(&setup, true);
    let (_, inc_again, again_trainings) = run_incremental_trial(&setup, false);
    assert_eq!(
        inc_trainings, again_trainings,
        "incremental trial training counts must reproduce"
    );
    assert_trials_identical(&inc_trial, &inc_again);
    let trainings_ratio = refit_trainings as f64 / inc_trainings as f64;
    let inc_rounds = if quick { 2 } else { 3 };
    let (mut inc_s, mut refit_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..inc_rounds {
        refit_s = refit_s.min(run_incremental_trial(&setup, true).0);
        inc_s = inc_s.min(run_incremental_trial(&setup, false).0);
    }
    let inc_speedup = refit_s / inc_s;

    let phases = [
        Phase {
            name: "data_gen",
            ms: data_gen_s * 1e3,
            trainings: None,
        },
        Phase {
            name: "training",
            ms: est_dense_s * 1e3,
            trainings: Some(trainings),
        },
        Phase {
            name: "curve_fit",
            ms: curve_fit_s * 1e3,
            trainings: None,
        },
        Phase {
            name: "solver",
            ms: solver_s * 1e3,
            trainings: None,
        },
        Phase {
            name: "full_trial",
            ms: trial_dense_s * 1e3,
            trainings: Some(trial.trainings),
        },
        Phase {
            name: "incremental",
            ms: inc_s * 1e3,
            trainings: Some(inc_trainings),
        },
    ];
    // `total_ms` is the serial estimate → fit → solve pipeline (one trial's
    // phases, dense plane); the remaining phases are gate-cell measurements
    // that overlap it (`full_trial` contains an estimation, `incremental`
    // is its own trial) and are summed separately so neither total
    // silently drops a phase.
    let total_ms: f64 = data_gen_s * 1e3 + est_dense_s * 1e3 + curve_fit_s * 1e3 + solver_s * 1e3;
    let gated_phases_ms: f64 = trial_dense_s * 1e3 + inc_s * 1e3;

    println!("{} (B = {budget}, {} slices)", setup.label, sizes.len());
    println!("{:<12} {:>12}  note", "phase", "ms");
    rule(56);
    for p in &phases {
        let note = match p.trainings {
            Some(t) => format!("{t} model trainings"),
            None => String::new(),
        };
        println!("{:<12} {:>12.3}  {note}", p.name, p.ms);
    }
    rule(56);
    println!(
        "{:<12} {:>12.3}  (estimate + fit + solve; {} fits, {} alloc slots)",
        "total",
        total_ms,
        fits_ok,
        allocation.len()
    );
    println!(
        "{:<12} {:>12.3}  (full_trial + incremental, overlap the above)\n",
        "gated", gated_phases_ms
    );

    println!(
        "data-plane gate: dense plane vs per-call gather (bit-identical, same training count)"
    );
    println!(
        "  training:   per-call {:.3} ms | dense {:.3} ms | speedup {est_speedup:.2}x",
        est_call_s * 1e3,
        est_dense_s * 1e3,
    );
    println!(
        "  full_trial: per-call {:.3} ms | dense {:.3} ms | speedup {trial_speedup:.2}x (target >= 1.15x{})",
        trial_call_s * 1e3,
        trial_dense_s * 1e3,
        if no_gate { ", not enforced" } else { "" }
    );

    // Bit determinism of the dense plane across the trial executor's
    // worker counts: the same 2-trial cell aggregated at --jobs 1 and 2
    // must match loss for loss (the cache is shared within each run only).
    let jobs_cell = |jobs: usize| {
        let cfg = setup
            .config(31)
            .with_cache(std::sync::Arc::new(slice_tuner::CurveCache::new()));
        slice_tuner::run_trials_parallel(
            &setup.family,
            &sizes,
            setup.validation,
            budget,
            Strategy::OneShot,
            &cfg,
            2,
            jobs,
        )
    };
    let agg1 = jobs_cell(1);
    let agg2 = jobs_cell(2);
    for (a, b) in agg1.trials.iter().zip(&agg2.trials) {
        assert_trials_identical(a, b);
    }
    println!("  jobs determinism: 2-trial aggregates bit-identical at --jobs 1 and 2\n");

    // ---- Prepacked vs per-call packing gate ------------------------------
    //
    // The estimator's GEMM profile: one fixed operand (weights) multiplied
    // by a stream of small activation batches. Shape 512×784×64 (the
    // kernels bench's "fwd" shape) consumed in 16-row minibatches — the
    // minibatch regime where per-call re-packing of the 784×64 operand is
    // a measurable fraction of each call. Measured on the single-threaded
    // simd core so the reading is host-core-count independent; bits must
    // match exactly either way.
    let (rows, k, n, mb) = (512usize, 784usize, 64usize, 16usize);
    let reps = if quick { 5 } else { 9 };
    let pack_rounds = if quick { 3 } else { 5 };
    let a = fill(rows * k, 0xA11CE);
    let b = fill(k * n, 0xB0B);
    let simd = SimdKernel;

    let run_per_call = |out: &mut [f64]| {
        out.fill(0.0);
        for r0 in (0..rows).step_by(mb) {
            let h = mb.min(rows - r0);
            simd.gemm(
                h,
                k,
                n,
                &a[r0 * k..(r0 + h) * k],
                &b,
                &mut out[r0 * n..(r0 + h) * n],
            );
        }
    };
    let run_prepacked = |out: &mut [f64]| {
        out.fill(0.0);
        // The single pack is part of the timed body: the speedup below is
        // end-to-end, not pack-cost-hidden.
        let pb = simd.pack_b(k, n, &b);
        for r0 in (0..rows).step_by(mb) {
            let h = mb.min(rows - r0);
            simd.gemm_prepacked(
                h,
                k,
                n,
                &a[r0 * k..(r0 + h) * k],
                &pb,
                &mut out[r0 * n..(r0 + h) * n],
            );
        }
    };

    let mut per_call_out = vec![0.0; rows * n];
    let mut prepacked_out = vec![0.0; rows * n];
    run_per_call(&mut per_call_out);
    run_prepacked(&mut prepacked_out);
    assert_bits_identical("prepacked 512x784x64", &per_call_out, &prepacked_out);

    // The fused-bias epilogue must also match the separate bias pass on
    // the same shape (the per-layer affine forward contract).
    let bias = fill(n, 0xB1A5);
    let pb = simd.pack_b(k, n, &b);
    let mut unfused = vec![0.0; rows * n];
    simd.gemm_prepacked(rows, k, n, &a, &pb, &mut unfused);
    for row in unfused.chunks_exact_mut(n) {
        for (o, &bv) in row.iter_mut().zip(&bias) {
            *o += bv;
        }
    }
    let mut fused = vec![0.0; rows * n];
    simd.gemm_prepacked_bias(rows, k, n, &a, &pb, &bias, &mut fused);
    assert_bits_identical("fused bias 512x784x64", &unfused, &fused);

    // Interleaved rounds so scheduler noise cannot land on one contender.
    let (mut t_call, mut t_pack) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..pack_rounds {
        t_call = t_call.min(best_secs(reps, || run_per_call(&mut per_call_out)));
        t_pack = t_pack.min(best_secs(reps, || run_prepacked(&mut prepacked_out)));
    }
    let speedup = t_call / t_pack;
    println!("prepacked gate: {rows}x{k}x{n} in {mb}-row minibatches (simd core, bit-identical)");
    println!(
        "  per-call packing: {:.3} ms | prepacked: {:.3} ms | speedup {speedup:.2}x (target >= 1.2x{})",
        t_call * 1e3,
        t_pack * 1e3,
        if no_gate { ", not enforced" } else { "" }
    );

    println!(
        "\nincremental gate: dirty-slice re-estimation vs full refit (exhaustive, {} rounds)",
        inc_trial.iterations
    );
    println!(
        "  refit-all: {:.3} ms ({refit_trainings} trainings) | incremental: {:.3} ms \
         ({inc_trainings} trainings)",
        refit_s * 1e3,
        inc_s * 1e3,
    );
    println!(
        "  speedup {inc_speedup:.2}x, trainings ratio {trainings_ratio:.2}x (target >= 1.5x{}); \
         bit-reproducible run to run",
        if no_gate { ", time not enforced" } else { "" }
    );

    println!("\nguards gate: fault-tolerance layer on vs off (estimation hot path, bit-identical)");
    println!(
        "  guarded: {:.3} ms | unguarded: {:.3} ms | overhead {guards_overhead:.3}x (target <= 1.02x{})",
        guarded_s * 1e3,
        unguarded_s * 1e3,
        if no_gate { ", not enforced" } else { "" }
    );

    // ---- JSON emission ---------------------------------------------------
    let path = std::env::var("ST_BENCH_JSON").unwrap_or_else(|_| "BENCH_pipeline.json".to_string());
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"pipeline\",");
    let _ = writeln!(json, "  \"schema_version\": 6,");
    let _ = writeln!(json, "  \"kernel\": \"{}\",", kernel.name());
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"family\": \"{}\",", setup.label);
    let _ = writeln!(json, "  \"budget\": {budget},");
    let _ = writeln!(json, "  \"phases\": [");
    for (i, p) in phases.iter().enumerate() {
        let comma = if i + 1 < phases.len() { "," } else { "" };
        match p.trainings {
            Some(t) => {
                let _ = writeln!(
                    json,
                    "    {{\"name\": \"{}\", \"ms\": {:.6}, \"trainings\": {t}}}{comma}",
                    p.name, p.ms
                );
            }
            None => {
                let _ = writeln!(
                    json,
                    "    {{\"name\": \"{}\", \"ms\": {:.6}}}{comma}",
                    p.name, p.ms
                );
            }
        }
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"total_ms\": {total_ms:.6},");
    let _ = writeln!(json, "  \"gated_phases_ms\": {gated_phases_ms:.6},");
    let _ = writeln!(json, "  \"data_plane\": {{");
    let _ = writeln!(
        json,
        "    \"training_per_call_ms\": {:.6},",
        est_call_s * 1e3
    );
    let _ = writeln!(json, "    \"training_dense_ms\": {:.6},", est_dense_s * 1e3);
    let _ = writeln!(json, "    \"training_speedup\": {est_speedup:.4},");
    let _ = writeln!(
        json,
        "    \"full_trial_per_call_ms\": {:.6},",
        trial_call_s * 1e3
    );
    let _ = writeln!(
        json,
        "    \"full_trial_dense_ms\": {:.6},",
        trial_dense_s * 1e3
    );
    let _ = writeln!(json, "    \"full_trial_speedup\": {trial_speedup:.4},");
    let _ = writeln!(json, "    \"target\": 1.15,");
    let _ = writeln!(json, "    \"gate_enforced\": {}", !no_gate);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"prepacked\": {{");
    let _ = writeln!(json, "    \"shape\": \"{rows}x{k}x{n}\",");
    let _ = writeln!(json, "    \"minibatch\": {mb},");
    let _ = writeln!(json, "    \"per_call_ms\": {:.6},", t_call * 1e3);
    let _ = writeln!(json, "    \"prepacked_ms\": {:.6},", t_pack * 1e3);
    let _ = writeln!(json, "    \"speedup\": {speedup:.4},");
    let _ = writeln!(json, "    \"target\": 1.2,");
    let _ = writeln!(json, "    \"gate_enforced\": {}", !no_gate);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"incremental\": {{");
    let _ = writeln!(json, "    \"refit_all_ms\": {:.6},", refit_s * 1e3);
    let _ = writeln!(json, "    \"incremental_ms\": {:.6},", inc_s * 1e3);
    let _ = writeln!(json, "    \"speedup\": {inc_speedup:.4},");
    let _ = writeln!(json, "    \"refit_all_trainings\": {refit_trainings},");
    let _ = writeln!(json, "    \"incremental_trainings\": {inc_trainings},");
    let _ = writeln!(json, "    \"trainings_ratio\": {trainings_ratio:.4},");
    let _ = writeln!(json, "    \"target\": 1.5,");
    let _ = writeln!(json, "    \"gate_enforced\": {}", !no_gate);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"guards\": {{");
    let _ = writeln!(json, "    \"guarded_ms\": {:.6},", guarded_s * 1e3);
    let _ = writeln!(json, "    \"unguarded_ms\": {:.6},", unguarded_s * 1e3);
    let _ = writeln!(json, "    \"overhead\": {guards_overhead:.4},");
    let _ = writeln!(json, "    \"target\": 1.02,");
    let _ = writeln!(json, "    \"gate_enforced\": {}", !no_gate);
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("\nwrote {path}");

    // The trainings ratio is deterministic (it counts skipped model
    // trainings, not wall-clock), so it is enforced even under
    // ST_PIPELINE_NO_GATE — shared-runner noise cannot move it.
    assert!(
        trainings_ratio >= 1.5,
        "incremental re-estimation must train >= 1.5x less than the full-refit \
         baseline on the gate cell, got {trainings_ratio:.2}x \
         ({inc_trainings} vs {refit_trainings} trainings)"
    );
    if !no_gate {
        assert!(
            est_speedup >= 1.15 && trial_speedup >= 1.15,
            "the dense plane must be >= 1.15x over per-call gather on the \
             training and full_trial phases, got {est_speedup:.2}x / {trial_speedup:.2}x"
        );
        assert!(
            speedup >= 1.2,
            "prepacked must be >= 1.2x over per-call packing on {rows}x{k}x{n} \
             ({mb}-row minibatches), got {speedup:.2}x"
        );
        assert!(
            inc_speedup >= 1.5,
            "incremental trials must run >= 1.5x faster than the full-refit \
             baseline on the gate cell, got {inc_speedup:.2}x"
        );
        assert!(
            guards_overhead <= 1.02,
            "the fault-tolerance guards must cost <= 1.02x on the fault-free \
             estimation hot path, got {guards_overhead:.3}x"
        );
        println!(
            "gates passed: data plane >= 1.15x, prepacked >= 1.2x, \
             incremental >= 1.5x, guards <= 1.02x, bit-identical outputs"
        );
    }
}
