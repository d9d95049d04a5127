//! The two tune workloads: `SlicedDataset::generate` + `SliceTuner::new` +
//! `try_run`, configured exactly as the CLI's `tune` command builds them.

use crate::replay::{self, Layers, RunSpec};
use crate::speed;
use crate::stats::{mean_of, median_of, ms_since, timed, Measured, Metric, Samples};
use slice_tuner::checkpoint;
use slice_tuner::TunerConfig;
use slice_tuner::{EstimationMode, PoolSource, RunResult, SliceTuner, Strategy, TSchedule};
use st_data::{families, split_seed, DatasetFamily, SlicedDataset};
use st_models::ModelSpec;
use std::time::{Duration, Instant};

/// One tune workload: a family analog and the CLI flags it is run with.
pub struct TuneWorkload {
    pub name: &'static str,
    pub family: DatasetFamily,
    pub sizes: Vec<usize>,
    pub validation: usize,
    pub budget: f64,
    /// Length of the seed list one run cycles through.
    pub seeds: u64,
}

impl TuneWorkload {
    /// `tune-census`: the CLI `tune` defaults (AdultCensus analog, 4
    /// slices, softmax model, 150 per slice, validation 300, B = 500,
    /// Moderate, amortized, λ = 1, no curve cache).
    ///
    /// Why: the model is tiny, so per-call overhead, curve fitting and the
    /// projected-subgradient solve are a visible share of a tune while
    /// GEMM is not. `st_optim` and `st_curve` changes show here, and
    /// `st_linalg` changes must not move it.
    pub fn census() -> TuneWorkload {
        TuneWorkload {
            name: "tune-census",
            family: families::census(),
            sizes: vec![150; 4],
            validation: 300,
            budget: 500.0,
            seeds: 64,
        }
    }

    /// `tune-faces`: the UTKFace analog (8 slices with the paper's Table 1
    /// costs, basic MLP), uneven initial sizes, B = 3000, Moderate,
    /// amortized. The sizes make Algorithm 1 run two rounds on nearly
    /// every seed, so the seed mix does not turn the latency bimodal.
    ///
    /// Why: GEMM-bound training and the batched estimation plane take most
    /// of each tune and the solver well under 1%. Kernel, trainer and
    /// estimation changes show here, and solver changes must not move it.
    pub fn faces() -> TuneWorkload {
        TuneWorkload {
            name: "tune-faces",
            family: families::faces(),
            sizes: vec![360, 80, 360, 80, 360, 80, 360, 80],
            validation: 300,
            budget: 3000.0,
            seeds: 20,
        }
    }

    /// The dataset seeds one run cycles through, derived from the
    /// benchmark seed.
    pub fn seed_list(&self, seed: u64) -> Vec<u64> {
        (0..self.seeds).map(|i| split_seed(seed, i) >> 16).collect()
    }

    /// The configuration `slice-tuner-cli tune` builds with its defaults.
    pub fn config(&self, seed: u64) -> TunerConfig {
        let mut config = TunerConfig::new(model_for(&self.family))
            .with_seed(seed)
            .with_lambda(1.0)
            .with_mode(EstimationMode::Amortized)
            .with_max_retries(2)
            .with_max_drift_resets(3);
        config.allow_nondeterministic_kernel = false;
        config
    }

    fn strategy() -> Strategy {
        Strategy::Iterative(TSchedule::moderate())
    }

    /// One timed unit of work: generate, bind, run.
    pub fn run_once(&self, seed: u64, config: TunerConfig) -> Result<RunResult, String> {
        let ds = SlicedDataset::generate(&self.family, &self.sizes, self.validation, seed);
        let mut pool = PoolSource::new(self.family.clone(), seed);
        let mut tuner = SliceTuner::new(ds, &mut pool, config);
        tuner
            .try_run(Self::strategy(), self.budget)
            .map_err(|e| e.to_string())
    }

    /// The work done before the first sample: one tune on a seed outside
    /// the measured list.
    pub fn warm_up(&self, seed: u64) -> Result<(), String> {
        let s = split_seed(seed, u64::MAX) >> 16;
        self.run_once(s, self.config(s)).map(|_| ())
    }
}

/// The shared model the CLI and the server pick for a family: softmax
/// regression for binary families, the basic MLP otherwise.
pub fn model_for(family: &DatasetFamily) -> ModelSpec {
    if family.num_classes == 2 {
        ModelSpec::softmax()
    } else {
        ModelSpec::basic()
    }
}

/// Every result bit a tune reports; repeats of one seed must agree.
fn fingerprint(r: &RunResult) -> Vec<u64> {
    let mut bits = vec![
        r.original.overall_loss.to_bits(),
        r.report.overall_loss.to_bits(),
        r.report.avg_eer.to_bits(),
        r.report.max_eer.to_bits(),
        r.spent.to_bits(),
        r.iterations as u64,
        r.trainings as u64,
        r.warnings.len() as u64,
    ];
    bits.extend(r.report.per_slice_losses.iter().map(|x| x.to_bits()));
    bits.extend(r.acquired.iter().map(|&n| n as u64));
    bits
}

/// `spent` is a float sum of per-example costs, so it can exceed B by a
/// few ulps (3000.0000000000005 on a faces seed); `round_to_budget` itself
/// admits 1e-9 of slack per round. Anything past this relative slack is a
/// real overspend.
const SPEND_TOLERANCE: f64 = 1e-9;

/// Whole passes over the seed list a run makes at least.
const MIN_PASSES: usize = 2;

/// Cycles through the seed list in whole passes (at least [`MIN_PASSES`],
/// so every seed repeats) until another pass would overrun `seconds`.
///
/// Each tune's time is scaled to the nominal host speed (see [`speed`]).
/// A tune is deterministic, so what still differs between one seed's
/// repeats is host noise shorter than a tune; each seed's time is its best
/// over the passes, which lie seconds apart. Latency and throughput are
/// taken over those per-seed times.
pub fn measure(w: &TuneWorkload, seed: u64, seconds: f64) -> Measured {
    let seeds = w.seed_list(seed);
    let mut first: Vec<Option<Vec<u64>>> = vec![None; seeds.len()];
    let mut losses = vec![f64::NAN; seeds.len()];
    let mut eers = vec![f64::NAN; seeds.len()];
    let mut best = vec![f64::INFINITY; seeds.len()];
    let mut seed_failed = vec![false; seeds.len()];
    let mut samples = Samples::default();
    let mut references = vec![speed::reference_ms()];
    let (mut attempted, mut failed, mut mismatched, mut overspent) = (0u64, 0u64, 0u64, 0u64);
    let t0 = Instant::now();
    let mut passes = 0;
    loop {
        let pass_start = Instant::now();
        for (i, &s) in seeds.iter().enumerate() {
            attempted += 1;
            let config = w.config(s);
            let (result, ms) = timed(|| w.run_once(s, config));
            let before = references[references.len() - 1];
            let after = speed::reference_ms();
            references.push(after);
            match result {
                Ok(r) => {
                    samples.push(ms);
                    best[i] = best[i].min(speed::normalise(ms, before, after));
                    if r.spent > w.budget * (1.0 + SPEND_TOLERANCE) {
                        overspent += 1;
                        eprintln!(
                            "{}: seed {s} spent {} > budget {}",
                            w.name, r.spent, w.budget
                        );
                    }
                    let fp = fingerprint(&r);
                    match &first[i] {
                        None => {
                            first[i] = Some(fp);
                            losses[i] = r.report.overall_loss;
                            eers[i] = r.report.avg_eer;
                        }
                        Some(want) if *want != fp => {
                            mismatched += 1;
                            eprintln!("{}: seed {s} is not bit-identical across repeats", w.name);
                        }
                        Some(_) => {}
                    }
                }
                Err(e) => {
                    failed += 1;
                    seed_failed[i] = true;
                    samples.push_failed();
                    eprintln!("{}: seed {s} failed: {e}", w.name);
                }
            }
        }
        passes += 1;
        let pass_s = pass_start.elapsed().as_secs_f64();
        if passes >= MIN_PASSES && t0.elapsed().as_secs_f64() + pass_s > seconds {
            break;
        }
    }
    let measured_s = t0.elapsed().as_secs_f64();
    // One sample per seed, its best time; the passes only denoise it. A
    // seed that failed once misses every latency limit.
    let mut per_seed = Samples::default();
    for (&ms, &bad) in best.iter().zip(&seed_failed) {
        if bad {
            per_seed.push_failed();
        } else {
            per_seed.push(ms);
        }
    }
    let (tail, pct) = per_seed.tail();
    let (raw_tail, raw_pct) = samples.tail();
    println!(
        "{}: {} tunes over {} seeds x {passes} passes in {measured_s:.2} s; \
         scaled, at each seed's best: p50 {:.3} ms, tail = p{pct:.1} of {} seeds; \
         as measured: p50 {:.3} ms, p{raw_pct:.1} {raw_tail:.3} ms; \
         reference median {:.4} ms (nominal {})",
        w.name,
        attempted,
        seeds.len(),
        per_seed.median(),
        per_seed.len(),
        samples.median(),
        median_of(&references),
        speed::NOMINAL_MS
    );
    println!("  tunes bit-identical across repeats: {}", mismatched == 0);
    println!("  tunes spending more than B: {overspent}");
    Measured {
        correct: mismatched == 0 && overspent == 0 && failed == 0,
        attempted,
        failed,
        metrics: vec![
            Metric::new("latency_p50_ms", per_seed.median(), "ms"),
            Metric::new("latency_tail_ms", tail, "ms"),
            // One tune of each seed back to back, at the per-seed times.
            Metric::new(
                "throughput_per_s",
                1e3 * per_seed.len() as f64 / per_seed.sum(),
                "1/s",
            ),
            Metric::new("final_loss", mean_of(&losses), "loss"),
            Metric::new("avg_eer", mean_of(&eers), "loss"),
        ],
    }
}

/// Checkpoint write, read and size of one run's state, as `--checkpoint`
/// would write it. Not part of the shipped tune, so not in the layer sum.
pub struct CheckpointCost {
    pub save_ms: f64,
    pub load_ms: f64,
    pub bytes: f64,
}

/// Times a checkpoint round trip of the state in `path` (median of `reps`).
pub fn checkpoint_cost(path: &str, reps: usize) -> Result<CheckpointCost, String> {
    let copy = format!("{path}.copy");
    let (mut save, mut load) = (Vec::new(), Vec::new());
    let mut bytes = 0.0;
    for _ in 0..reps {
        let (cp, ms) = timed(|| checkpoint::load(path));
        let cp = cp.map_err(|e| e.to_string())?.ok_or("missing checkpoint")?;
        load.push(ms);
        let (saved, ms) = timed(|| checkpoint::save(&copy, &cp));
        saved.map_err(|e| e.to_string())?;
        save.push(ms);
        bytes = std::fs::metadata(&copy).map_err(|e| e.to_string())?.len() as f64;
    }
    let _ = std::fs::remove_file(&copy);
    Ok(CheckpointCost {
        save_ms: crate::stats::median_of(&save),
        load_ms: crate::stats::median_of(&load),
        bytes,
    })
}

/// The traced run: for each seed of the list (until `seconds` is spent),
/// one untraced tune, one checkpointed reference tune, and the replay,
/// which must match the reference bit for bit.
pub struct Traced {
    /// Per replayed seed: untraced tune, layer sum and replay wall time,
    /// in milliseconds.
    pub per_seed: Vec<(f64, f64, f64)>,
    pub layers: Layers,
    pub checkpoint: CheckpointCost,
    pub attempted: u64,
}

pub fn traced(w: &TuneWorkload, seed: u64, seconds: f64, work: &str) -> Result<Traced, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let path = format!("{work}/tune.checkpoint.json");
    let mut per_seed = Vec::new();
    let mut layers = Layers::default();
    let mut attempted = 0;
    for s in w.seed_list(seed) {
        if attempted >= 3 && Instant::now() >= deadline {
            break;
        }
        attempted += 1;
        let t0 = Instant::now();
        w.run_once(s, w.config(s))?;
        let untraced_ms = ms_since(t0);
        let config = w.config(s);
        let run = RunSpec {
            family: &w.family,
            sizes: &w.sizes,
            validation: w.validation,
            seed: s,
            config: &config,
            schedule: TSchedule::moderate(),
            budget: w.budget,
        };
        let (want, _) = replay::reference(&run, &path)?;
        let (got, run_layers) = replay::replay(&run)?;
        if got != want {
            return Err(format!(
                "{}: the traced replay of seed {s} differs from try_run \
                 (replay {got:?}, try_run {want:?}); traced numbers refused",
                w.name
            ));
        }
        per_seed.push((untraced_ms, run_layers.sum_per_run(), run_layers.wall_ms));
        layers.merge(&run_layers);
    }
    let checkpoint = checkpoint_cost(&path, 5)?;
    let _ = std::fs::remove_file(&path);
    println!(
        "{}: replayed {attempted} seeds; every replay is bit-identical to try_run",
        w.name
    );
    Ok(Traced {
        per_seed,
        layers,
        checkpoint,
        attempted,
    })
}
