//! `slice-tuner-cli`: run Slice Tuner from the command line.
//!
//! ```text
//! slice-tuner-cli tune      --family census --strategy moderate --budget 500
//! slice-tuner-cli curves    --family fashion --size 300
//! slice-tuner-cli autoslice --family census --examples 1200
//! slice-tuner-cli families
//! ```

mod args;

use args::Args;
use slice_tuner::{PoolSource, SliceTuner, Strategy, TSchedule, TunerConfig};
use st_data::{families, SlicedDataset, SlicingConfig};
use st_server::session::{family_by_name, spec_for};
use std::process::ExitCode;

fn main() -> ExitCode {
    let parsed = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            usage();
            return ExitCode::FAILURE;
        }
    };
    // `--kernel` must be fixed before the first dense operation; it is a
    // global flag valid on every compute command, as is the opt-in for
    // non-deterministic backends.
    let allow_nondeterministic = match parsed.get_or("allow-nondeterministic-kernel", false) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(name) = parsed.get("kernel") {
        match select_kernel(name, allow_nondeterministic) {
            Ok(()) => {}
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // The opt-in must also cover kernels selected via ST_KERNEL in the
    // environment, not just the flag — every command computes under the
    // process kernel, so the refusal happens here, once, for all of them.
    let active = st_linalg::kernel_kind();
    if !active.bit_deterministic() && !allow_nondeterministic {
        eprintln!(
            "error: kernel '{}' (ST_KERNEL) is not bit-deterministic; pass \
             --allow-nondeterministic-kernel true to waive reproducibility, or pick one of: {}",
            active.name(),
            st_linalg::kernel_names()
        );
        return ExitCode::FAILURE;
    }
    install_env_plans();
    let result = match parsed.command.as_deref() {
        Some("tune") => cmd_tune(&parsed),
        Some("curves") => cmd_curves(&parsed),
        Some("autoslice") => cmd_autoslice(&parsed),
        Some("sensitivity") => cmd_sensitivity(&parsed),
        Some("experiment") => cmd_experiment(&parsed),
        Some("serve") => cmd_serve(&parsed),
        Some("call") => cmd_call(&parsed),
        Some("families") => cmd_families(),
        _ => {
            usage();
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Reads `ST_FAULT` and `ST_DRIFT` once and installs the plans they
/// compile to, before any command runs (`serve` and `call` included). The
/// libraries never read the environment; an unknown spec warns and the
/// rest of the value still applies.
fn install_env_plans() {
    if let Ok(spec) = std::env::var("ST_FAULT") {
        let (plan, errors) = st_linalg::fault::parse_plan_lenient(&spec);
        for e in errors {
            eprintln!("warning: {e}");
        }
        st_linalg::fault::install(plan);
    }
    if let Ok(spec) = std::env::var("ST_DRIFT") {
        let (plan, errors) = st_data::drift::parse_plan_lenient(&spec);
        for e in errors {
            eprintln!("warning: {e}");
        }
        st_data::drift::install(plan);
    }
}

fn usage() {
    eprintln!(
        "usage:\n  slice-tuner-cli tune      --family <name> [--strategy moderate] [--budget 500]\n\
         \x20                           [--sizes 40,80,...] [--lambda 1] [--seed 42]\n\
         \x20                           [--retries 2] [--checkpoint path [--resume true]]\n\
         \x20                           [--halt-after K] [--mode amortized|exhaustive]\n\
         \x20                           [--drift-detection true [--drift-threshold 0.6]]\n\
         \x20                           [--incremental true [--max-staleness N]]\n\
         \x20                           [--max-drift-resets 3]\n\
         \x20 slice-tuner-cli curves    --family <name> [--size 300] [--seed 42]\n\
         \x20 slice-tuner-cli autoslice --family <name> [--examples 1200] [--max-depth 4]\n\
         \x20 slice-tuner-cli sensitivity --family <name> [--budget 500] [--size 300]\n\
         \x20 slice-tuner-cli experiment --family <name> [--strategies uniform,waterfilling,moderate]\n\
         \x20                           [--budget 500] [--trials 3] [--jobs N] [--cache true|false]\n\
         \x20                           [--retries 2] [--format markdown|csv]\n\
         \x20 slice-tuner-cli serve     [--addr 127.0.0.1:7171] [--dir st_sessions]\n\
         \x20                           [--deadline-ms 5000] [--max-sessions 64] [--queue-depth 32]\n\
         \x20                           [--workers 0] [--session-budget-ms 0] (see docs/server.md)\n\
         \x20 slice-tuner-cli call      --url <host:port/path> [--method GET|POST] [--body '<json|csv>']\n\
         \x20 slice-tuner-cli families\n\
         families: fashion | mixed | faces | census | driftbench\n\
         global: --kernel naive|blocked|simd|sharded|fast (compute backend; default blocked,\n\
         \x20        also ST_KERNEL; 'fast' additionally needs --allow-nondeterministic-kernel\n\
         \x20        true because it waives bit-reproducibility)\n\
         \x20       ST_FAULT=<spec>[,<spec>...] injects deterministic faults for chaos testing;\n\
         \x20        specs: trial_panic@<trial> | nan_loss@slice<S>:round<R> | fit_diverge@<p>\n\
         \x20        | conn_drop@<req> | slow_client@<req>:ms<M> | session_panic@<s>:round<R>\n\
         \x20        (see docs/robustness.md and docs/server.md)\n\
         \x20       ST_DRIFT=<spec>[,<spec>...] makes acquisition pools non-stationary;\n\
         \x20        specs: shift@slice<S>:round<R>:mag<M> | label@... | scale@...\n\
         \x20        (see docs/drift.md)"
    );
}

/// Applies the global `--kernel` flag via `st_linalg::set_kernel`.
///
/// Unknown names list every valid backend; the non-deterministic `fast`
/// backend additionally requires `--allow-nondeterministic-kernel true`,
/// because it waives the bit-identity contract the trial runner (and every
/// determinism regression gate) relies on.
fn select_kernel(name: &str, allow_nondeterministic: bool) -> Result<(), String> {
    let kind = st_linalg::KernelKind::from_name(name).ok_or_else(|| {
        format!(
            "unknown kernel '{name}' (valid kernels: {})",
            st_linalg::kernel_names()
        )
    })?;
    if !kind.bit_deterministic() && !allow_nondeterministic {
        return Err(format!(
            "kernel '{name}' is not bit-deterministic; pass \
             --allow-nondeterministic-kernel true to waive reproducibility, \
             or pick one of: {}",
            st_linalg::kernel_names()
        ));
    }
    st_linalg::set_kernel(kind).map_err(|active| {
        format!(
            "compute kernel already fixed to '{}' (ST_KERNEL in the environment?)",
            active.name()
        )
    })
}

fn strategy_by_name(name: &str) -> Result<Strategy, String> {
    match name {
        "uniform" => Ok(Strategy::Uniform),
        "waterfilling" | "water-filling" => Ok(Strategy::WaterFilling),
        "proportional" => Ok(Strategy::Proportional),
        "oneshot" | "one-shot" => Ok(Strategy::OneShot),
        "conservative" => Ok(Strategy::Iterative(TSchedule::conservative())),
        "moderate" => Ok(Strategy::Iterative(TSchedule::moderate())),
        "aggressive" => Ok(Strategy::Iterative(TSchedule::aggressive())),
        "bandit" => Ok(Strategy::RottingBandit(Default::default())),
        other => Err(format!("unknown strategy '{other}'")),
    }
}

/// The `tune` command's validated inputs.
struct TuneRun {
    family: st_data::DatasetFamily,
    strategy: Strategy,
    budget: f64,
    sizes: Vec<usize>,
    validation: usize,
    seed: u64,
    config: TunerConfig,
}

/// Parses and range-checks `tune`'s flags into the run it describes.
fn parse_tune(args: &Args) -> Result<TuneRun, String> {
    let known = [
        "family",
        "strategy",
        "budget",
        "sizes",
        "lambda",
        "seed",
        "validation",
        "epochs",
        "mode",
        "retries",
        "checkpoint",
        "resume",
        "halt-after",
        "incremental",
        "drift-detection",
        "drift-threshold",
        "max-staleness",
        "max-drift-resets",
        "kernel",
        "allow-nondeterministic-kernel",
    ];
    reject_unknown(args, &known)?;
    let family = family_by_name(args.get("family").unwrap_or("census"))?;
    let strategy = strategy_by_name(args.get("strategy").unwrap_or("moderate"))?;
    let budget: f64 = args.get_or("budget", 500.0)?;
    let lambda: f64 = args.get_or("lambda", 1.0)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let validation: usize = args.get_or("validation", 300)?;
    let retries: usize = args.get_or("retries", 2)?;
    let resume: bool = args.get_or("resume", false)?;
    let mode = match args.get("mode").unwrap_or("amortized") {
        "amortized" => slice_tuner::EstimationMode::Amortized,
        "exhaustive" => slice_tuner::EstimationMode::Exhaustive,
        other => {
            return Err(format!(
                "unknown estimation mode '{other}' (amortized | exhaustive)"
            ))
        }
    };
    let halt_after: Option<usize> = match args.get("halt-after") {
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("--halt-after needs a round count, got '{v}'"))?,
        ),
        None => None,
    };
    let incremental: bool = args.get_or("incremental", false)?;
    let drift_detection: bool = args.get_or("drift-detection", false)?;
    let drift_threshold: f64 = args.get_or("drift-threshold", 0.6)?;
    let max_staleness: Option<usize> = match args.get("max-staleness") {
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("--max-staleness needs a foreign-example bound, got '{v}'"))?,
        ),
        None => None,
    };
    let max_drift_resets: usize = args.get_or("max-drift-resets", 3)?;
    validate_budget(budget)?;
    validate_lambda(lambda)?;
    validate_validation(validation)?;
    validate_retries(retries)?;
    validate_drift_threshold(drift_threshold)?;
    if args.get("drift-threshold").is_some() && !drift_detection {
        return Err("--drift-threshold needs --drift-detection true".into());
    }
    // Staleness forces re-measurement only through the incremental memo's
    // dirty set; without it the bound would be accepted and do nothing.
    if max_staleness.is_some() && !incremental {
        return Err("--max-staleness needs --incremental true".into());
    }
    if resume && args.get("checkpoint").is_none() {
        return Err("--resume needs --checkpoint <path> to resume from".into());
    }
    let sizes = args
        .get_list("sizes")?
        .unwrap_or_else(|| vec![150; family.num_slices()]);
    if sizes.len() != family.num_slices() {
        return Err(format!(
            "--sizes needs {} entries for family '{}'",
            family.num_slices(),
            family.name
        ));
    }

    let mut config = TunerConfig::new(spec_for(&family))
        .with_seed(seed)
        .with_lambda(lambda)
        .with_mode(mode)
        .with_max_retries(retries);
    if let Some(path) = args.get("checkpoint") {
        config = config.with_checkpoint(path);
    }
    if resume {
        config = config.with_resume();
    }
    if let Some(rounds) = halt_after {
        config = config.with_halt_after_rounds(rounds);
    }
    if incremental {
        config = config.with_incremental();
    }
    if drift_detection {
        config = config.with_drift_detection(drift_threshold);
    }
    if let Some(bound) = max_staleness {
        config = config.with_max_staleness(bound);
    }
    config = config.with_max_drift_resets(max_drift_resets);
    config.allow_nondeterministic_kernel = args.get_or("allow-nondeterministic-kernel", false)?;
    config.train.epochs = args.get_or("epochs", config.train.epochs)?;
    Ok(TuneRun {
        family,
        strategy,
        budget,
        sizes,
        validation,
        seed,
        config,
    })
}

fn cmd_tune(args: &Args) -> Result<(), String> {
    let TuneRun {
        family,
        strategy,
        budget,
        sizes,
        validation,
        seed,
        config,
    } = parse_tune(args)?;
    let ds = SlicedDataset::generate(&family, &sizes, validation, seed);
    let mut pool = PoolSource::new(family.clone(), seed);
    let mut tuner = SliceTuner::new(ds, &mut pool, config);
    let result = tuner.try_run(strategy, budget).map_err(|e| e.to_string())?;

    println!("strategy {:<14} budget {budget}", strategy.name());
    println!(
        "{:<16} {:>8} {:>8} {:>8}",
        "slice", "initial", "acquired", "final"
    );
    for (i, name) in family.slice_names().iter().enumerate() {
        println!(
            "{name:<16} {:>8} {:>8} {:>8}",
            sizes[i],
            result.acquired[i],
            tuner.dataset().train_sizes()[i]
        );
    }
    println!(
        "\nloss    {:.4} -> {:.4}\navg EER {:.4} -> {:.4}\nmax EER {:.4} -> {:.4}",
        result.original.overall_loss,
        result.report.overall_loss,
        result.original.avg_eer,
        result.report.avg_eer,
        result.original.max_eer,
        result.report.max_eer
    );
    println!(
        "spent {:.1} in {} iterations using {} model trainings",
        result.spent, result.iterations, result.trainings
    );
    // Surface degradations the run survived (quarantined slices etc.) —
    // the run completed, but the report should say what it ran without.
    for w in &result.warnings {
        eprintln!("warning: {w}");
    }
    Ok(())
}

/// Parse-time range checks for the numeric flags: a bad value fails here
/// with the flag's name instead of corrupting a solve rounds later.
fn validate_budget(budget: f64) -> Result<(), String> {
    if !budget.is_finite() || budget <= 0.0 {
        return Err(format!(
            "--budget must be a positive finite number, got {budget}"
        ));
    }
    Ok(())
}

fn validate_lambda(lambda: f64) -> Result<(), String> {
    if !lambda.is_finite() || lambda < 0.0 {
        return Err(format!(
            "--lambda must be a non-negative finite number, got {lambda}"
        ));
    }
    Ok(())
}

fn validate_validation(validation: usize) -> Result<(), String> {
    if validation == 0 {
        return Err("--validation must be at least 1 (losses are measured on it)".into());
    }
    Ok(())
}

fn validate_retries(retries: usize) -> Result<(), String> {
    if retries > 1000 {
        return Err(format!(
            "--retries {retries} is out of range (0..=1000); retries re-execute full \
             measurements, so large values only multiply the cost of a persistent fault"
        ));
    }
    Ok(())
}

fn validate_drift_threshold(threshold: f64) -> Result<(), String> {
    if !threshold.is_finite() || threshold <= 0.0 {
        return Err(format!(
            "--drift-threshold must be a positive finite CUSUM score, got {threshold}"
        ));
    }
    Ok(())
}

fn validate_jobs(jobs: usize) -> Result<(), String> {
    if jobs > 4096 {
        return Err(format!(
            "--jobs {jobs} is out of range (0..=4096, 0 = all cores)"
        ));
    }
    Ok(())
}

fn validate_deadline_ms(deadline_ms: u64) -> Result<(), String> {
    if !(1..=3_600_000).contains(&deadline_ms) {
        return Err(format!(
            "--deadline-ms {deadline_ms} is out of range (1..=3600000); the deadline bounds \
             every request read and queue wait, so 0 would shed all traffic"
        ));
    }
    Ok(())
}

fn validate_max_sessions(max_sessions: usize) -> Result<(), String> {
    if !(1..=100_000).contains(&max_sessions) {
        return Err(format!(
            "--max-sessions {max_sessions} is out of range (1..=100000); each session holds \
             a checkpoint file, so the cap is an admission-control knob, not a suggestion"
        ));
    }
    Ok(())
}

fn validate_queue_depth(queue_depth: usize) -> Result<(), String> {
    if !(1..=65_536).contains(&queue_depth) {
        return Err(format!(
            "--queue-depth {queue_depth} is out of range (1..=65536); past the high-water \
             mark the server answers 429, it never queues unboundedly"
        ));
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    reject_unknown(
        args,
        &[
            "addr",
            "dir",
            "deadline-ms",
            "max-sessions",
            "queue-depth",
            "workers",
            "session-budget-ms",
            "kernel",
            "allow-nondeterministic-kernel",
        ],
    )?;
    let mut cfg = st_server::ServerConfig::new(args.get("dir").unwrap_or("st_sessions"));
    cfg.addr = args.get("addr").unwrap_or("127.0.0.1:7171").to_string();
    cfg.deadline_ms = args.get_or("deadline-ms", 5_000u64)?;
    validate_deadline_ms(cfg.deadline_ms)?;
    cfg.max_sessions = args.get_or("max-sessions", 64usize)?;
    validate_max_sessions(cfg.max_sessions)?;
    cfg.queue_depth = args.get_or("queue-depth", 32usize)?;
    validate_queue_depth(cfg.queue_depth)?;
    cfg.workers = args.get_or("workers", 0usize)?;
    validate_jobs(cfg.workers)?;
    cfg.session_budget_ms = args.get_or("session-budget-ms", 0u64)?;

    let handle = st_server::start(cfg.clone())?;
    println!(
        "st_server listening on {} (dir {}, deadline {} ms, {} sessions max, queue depth {})",
        handle.addr(),
        cfg.dir,
        cfg.deadline_ms,
        cfg.max_sessions,
        cfg.queue_depth
    );
    println!("POST /shutdown to drain gracefully");
    let report = handle.wait();
    println!(
        "drained: {} queued job(s) served, {} orphan temp(s) swept at start, {} at shutdown",
        report.drained_jobs, report.swept_at_start, report.swept_at_shutdown
    );
    Ok(())
}

fn cmd_call(args: &Args) -> Result<(), String> {
    reject_unknown(
        args,
        &[
            "url",
            "method",
            "body",
            "attempts",
            "timeout-ms",
            "kernel",
            "allow-nondeterministic-kernel",
        ],
    )?;
    let url = args
        .get("url")
        .ok_or("--url <host:port/path> is required")?;
    let url = url.strip_prefix("http://").unwrap_or(url);
    let (host, path) = match url.find('/') {
        Some(i) => (&url[..i], &url[i..]),
        None => (url, "/"),
    };
    let addr: std::net::SocketAddr = host
        .parse()
        .map_err(|e| format!("bad address '{host}': {e}"))?;
    let method = args.get("method").unwrap_or("GET").to_uppercase();
    let body = args.get("body").unwrap_or("");
    let mut client = st_server::Client::new(addr);
    client.attempts = args.get_or("attempts", 6u32)?.clamp(1, 100);
    client.timeout = std::time::Duration::from_millis(args.get_or("timeout-ms", 120_000u64)?);
    let resp = client.request(&method, path, body)?;
    println!("{}", resp.body);
    if resp.status >= 400 {
        return Err(format!("{} {} -> {}", method, path, resp.status));
    }
    Ok(())
}

fn cmd_curves(args: &Args) -> Result<(), String> {
    reject_unknown(
        args,
        &[
            "family",
            "size",
            "seed",
            "validation",
            "bands",
            "kernel",
            "allow-nondeterministic-kernel",
        ],
    )?;
    let family = family_by_name(args.get("family").unwrap_or("census"))?;
    let size: usize = args.get_or("size", 300)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let validation: usize = args.get_or("validation", 300)?;
    let bands: bool = args.get_or("bands", false)?;

    let ds = SlicedDataset::generate(&family, &vec![size; family.num_slices()], validation, seed);
    let mut pool = PoolSource::new(family.clone(), seed);
    let config = TunerConfig::new(spec_for(&family)).with_seed(seed);
    let tuner = SliceTuner::new(ds, &mut pool, config);
    let detail = tuner.estimate_curves_detailed(0);

    println!(
        "learning curves at size {size} ({} trainings):",
        tuner.trainings()
    );
    for (name, est) in family.slice_names().iter().zip(&detail) {
        match &est.fit {
            Ok(c) => {
                print!(
                    "  {name:<16} y = {:.3}x^(-{:.3})   loss({size}) = {:.3}   loss({}) = {:.3}",
                    c.b,
                    c.a,
                    c.eval(size as f64),
                    size * 4,
                    c.eval(size as f64 * 4.0)
                );
                if bands {
                    match est.bands(200, 0.9, seed) {
                        Ok(b) => {
                            let iv = b.a_interval();
                            print!(
                                "   a ∈ [{:.3}, {:.3}]  rel width {:.0}%",
                                iv.lo,
                                iv.hi,
                                100.0 * b.relative_width(size as f64 * 4.0)
                            );
                        }
                        Err(_) => print!("   (bands unavailable)"),
                    }
                }
                println!();
            }
            Err(e) => println!("  {name:<16} fit failed: {e}"),
        }
    }
    if bands {
        println!("\n(rel width = 90% bootstrap band around the predicted loss at 4x the");
        println!(" current size — wide bands mean the optimizer is running on hints)");
    }
    Ok(())
}

fn cmd_autoslice(args: &Args) -> Result<(), String> {
    reject_unknown(
        args,
        &[
            "family",
            "examples",
            "max-depth",
            "min-size",
            "seed",
            "kernel",
            "allow-nondeterministic-kernel",
        ],
    )?;
    let family = family_by_name(args.get("family").unwrap_or("census"))?;
    let n: usize = args.get_or("examples", 1200)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let cfg = SlicingConfig {
        max_depth: args.get_or("max-depth", 4)?,
        min_slice_size: args.get_or("min-size", 30)?,
        ..Default::default()
    };

    // Pool the family's slices into one unsliced dataset, then rediscover
    // structure with the Appendix A procedure.
    let per = n / family.num_slices();
    let ds = SlicedDataset::generate(&family, &vec![per; family.num_slices()], 0, seed);
    let all = ds.all_train();
    let result = st_data::auto_slice(&all, family.num_classes, &cfg);

    println!(
        "auto-sliced {} examples of '{}' into {} slices with {} splits:",
        all.len(),
        family.name,
        result.num_slices,
        result.splits.len()
    );
    for (i, (&size, &h)) in result
        .slice_sizes()
        .iter()
        .zip(&result.slice_entropies)
        .enumerate()
    {
        println!("  slice {i:<3} size {size:<6} label entropy {h:.3}");
    }
    Ok(())
}

fn cmd_sensitivity(args: &Args) -> Result<(), String> {
    reject_unknown(
        args,
        &[
            "family",
            "budget",
            "size",
            "lambda",
            "seed",
            "validation",
            "kernel",
            "allow-nondeterministic-kernel",
        ],
    )?;
    let family = family_by_name(args.get("family").unwrap_or("census"))?;
    let budget: f64 = args.get_or("budget", 500.0)?;
    let size: usize = args.get_or("size", 300)?;
    let lambda: f64 = args.get_or("lambda", 1.0)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let validation: usize = args.get_or("validation", 300)?;

    let ds = SlicedDataset::generate(&family, &vec![size; family.num_slices()], validation, seed);
    let mut pool = PoolSource::new(family.clone(), seed);
    let config = TunerConfig::new(spec_for(&family))
        .with_seed(seed)
        .with_lambda(lambda);
    let tuner = SliceTuner::new(ds, &mut pool, config);
    let curves = tuner.estimate_curves(0);

    let sizes: Vec<f64> = tuner
        .dataset()
        .train_sizes()
        .iter()
        .map(|&s| s as f64)
        .collect();
    let problem =
        st_optim::AcquisitionProblem::new(curves, sizes, tuner.dataset().costs(), budget, lambda);
    let report = st_optim::budget_sensitivity(&problem);

    println!(
        "budget {budget}: marginal objective value {:.4e}/unit",
        report.marginal_value
    );
    println!(
        "{:<16} {:>12} {:>14}",
        "slice", "allocation", "d alloc / d B"
    );
    for (i, name) in family.slice_names().iter().enumerate() {
        println!(
            "{name:<16} {:>12.1} {:>14.4}",
            report.allocation[i], report.allocation_gradient[i]
        );
    }
    let sweep = st_optim::budget_curve(
        &problem,
        &[budget * 0.5, budget, budget * 2.0, budget * 4.0],
    );
    println!("\nobjective vs budget:");
    for (b, f) in sweep {
        println!("  B = {b:<10.0} objective = {f:.4}");
    }
    Ok(())
}

fn cmd_experiment(args: &Args) -> Result<(), String> {
    let known = [
        "family",
        "strategies",
        "budget",
        "trials",
        "size",
        "lambda",
        "seed",
        "validation",
        "epochs",
        "retries",
        "format",
        "jobs",
        "threads",
        "cache",
        "config",
        "kernel",
        "allow-nondeterministic-kernel",
    ];
    reject_unknown(args, &known)?;

    // Start from a config file when given; flags override its values.
    let base = match args.get("config") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            slice_tuner::ExperimentSpec::parse(&text).map_err(|e| e.to_string())?
        }
        None => slice_tuner::ExperimentSpec::default(),
    };

    let family = family_by_name(args.get("family").unwrap_or(&base.family))?;
    let strategies: Vec<Strategy> = match args.get("strategies") {
        Some(list) => list
            .split(',')
            .map(|s| strategy_by_name(s.trim()))
            .collect::<Result<_, _>>()?,
        None => base.strategies.clone(),
    };
    let budget: f64 = args.get_or("budget", base.budget)?;
    let trials: usize = args.get_or("trials", base.trials)?;
    if trials == 0 {
        return Err("--trials must be at least 1".into());
    }
    let size: usize = args.get_or("size", base.initial_size)?;
    let lambda: f64 = args.get_or("lambda", base.lambda)?;
    let seed: u64 = args.get_or("seed", base.seed)?;
    let validation: usize = args.get_or("validation", base.validation_size)?;
    let retries: usize = args.get_or("retries", 2)?;
    // `--jobs N` is the canonical worker-count flag (0 = all cores);
    // `--threads` is kept as an alias for older invocations.
    let jobs: usize = args.get_or("jobs", args.get_or("threads", 0)?)?;
    let format = args.get("format").unwrap_or("markdown");
    validate_budget(budget)?;
    validate_lambda(lambda)?;
    validate_validation(validation)?;
    validate_retries(retries)?;
    validate_jobs(jobs)?;

    let mut config = TunerConfig::new(spec_for(&family))
        .with_seed(seed)
        .with_lambda(lambda)
        .with_max_retries(retries);
    config.allow_nondeterministic_kernel = args.get_or("allow-nondeterministic-kernel", false)?;
    let default_epochs = if base.epochs > 0 {
        base.epochs
    } else {
        config.train.epochs
    };
    config.train.epochs = args.get_or("epochs", default_epochs)?;
    // One curve cache for the whole experiment (`--cache false` to disable):
    // strategies that estimate identical (dataset, seed) curves — e.g. the
    // three iterative schedules on the same trial — share the fits instead
    // of retraining. Metrics are unaffected; the Trainings column then
    // counts work actually performed, so later strategies report lower
    // numbers than they would standalone (a footnote flags this).
    let use_cache: bool = args.get_or("cache", true)?;
    let cache = use_cache.then(slice_tuner::CurveCache::shared);
    let config = match &cache {
        Some(c) => config.with_cache(std::sync::Arc::clone(c)),
        None => config,
    };

    let sizes = vec![size; family.num_slices()];
    let rows: Vec<slice_tuner::AggregateResult> = strategies
        .iter()
        .map(|&s| {
            slice_tuner::run_trials_parallel(
                &family, &sizes, validation, budget, s, &config, trials, jobs,
            )
        })
        .collect();

    match format {
        "markdown" => {
            let title = format!(
                "{} — B = {budget}, λ = {lambda}, init {size}/slice, {trials} trials",
                family.name
            );
            print!("{}", slice_tuner::methods_markdown(&title, &rows));
            print!(
                "\n{}",
                slice_tuner::acquisition_markdown(
                    "Acquired per slice (mean)",
                    &family.slice_names(),
                    &sizes,
                    &rows,
                )
            );
            if let Some(c) = &cache {
                if c.hits() > 0 {
                    println!(
                        "\n(curve cache: {} hits, {} misses — Trainings counts work actually \
                         performed, so strategies listed later reuse earlier fits; pass \
                         --cache false for strict standalone per-method costs)",
                        c.hits(),
                        c.misses()
                    );
                }
            }
        }
        "csv" => {
            print!("{}", slice_tuner::methods_csv(&rows));
            // Keep stdout machine-parseable; the cache caveat goes to stderr.
            if let Some(c) = &cache {
                if c.hits() > 0 {
                    eprintln!(
                        "note: curve cache shared across strategies ({} hits) — trainings \
                         column counts work actually performed; pass --cache false for \
                         strict standalone per-method costs",
                        c.hits()
                    );
                }
            }
        }
        other => return Err(format!("unknown format '{other}' (markdown | csv)")),
    }
    Ok(())
}

fn cmd_families() -> Result<(), String> {
    for fam in [
        families::fashion(),
        families::mixed(),
        families::faces(),
        families::census(),
        families::driftbench(),
    ] {
        println!(
            "{:<10} {} slices, {} classes, dim {}",
            fam.name,
            fam.num_slices(),
            fam.num_classes,
            fam.feature_dim
        );
        for (name, cost) in fam.slice_names().iter().zip(fam.costs()) {
            println!("    {name:<16} cost {cost}");
        }
    }
    Ok(())
}

fn reject_unknown(args: &Args, known: &[&str]) -> Result<(), String> {
    let unknown = args.unknown_flags(known);
    if unknown.is_empty() {
        Ok(())
    } else {
        Err(format!("unknown flags: {}", unknown.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_tune_flags(flags: &str) -> Result<TuneRun, String> {
        let argv = format!("tune {flags}");
        parse_tune(&Args::parse(argv.split_whitespace().map(String::from))?)
    }

    #[test]
    fn tune_is_incremental_only_when_asked() {
        let run = parse_tune_flags("").unwrap();
        assert!(!run.config.incremental);
        assert_eq!(run.config.max_staleness, usize::MAX);
        let run = parse_tune_flags("--incremental true --max-staleness 0").unwrap();
        assert!(run.config.incremental);
        assert_eq!(run.config.max_staleness, 0);
    }

    #[test]
    fn max_staleness_without_incremental_is_refused() {
        for flags in ["--max-staleness 5", "--incremental false --max-staleness 5"] {
            let err = parse_tune_flags(flags)
                .err()
                .expect("a staleness bound needs incremental mode");
            assert!(err.contains("--incremental true"), "{err}");
        }
    }

    #[test]
    fn serve_limits_are_range_checked_at_parse_time() {
        assert!(validate_deadline_ms(1).is_ok());
        assert!(validate_deadline_ms(3_600_000).is_ok());
        assert!(validate_deadline_ms(0)
            .unwrap_err()
            .contains("--deadline-ms"));
        assert!(validate_deadline_ms(3_600_001).is_err());

        assert!(validate_max_sessions(1).is_ok());
        assert!(validate_max_sessions(100_000).is_ok());
        assert!(validate_max_sessions(0)
            .unwrap_err()
            .contains("--max-sessions"));
        assert!(validate_max_sessions(100_001).is_err());

        assert!(validate_queue_depth(1).is_ok());
        assert!(validate_queue_depth(65_536).is_ok());
        assert!(validate_queue_depth(0)
            .unwrap_err()
            .contains("--queue-depth"));
        assert!(validate_queue_depth(65_537).is_err());
    }
}
