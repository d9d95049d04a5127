//! The repository benchmark: Slice Tuner's Algorithm 1 loop and its
//! serving layer, timed in the configuration the CLI and server ship.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tune-census --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every run prints readable lines, then one JSON line: `correct`,
//! `attempted`, `failed` and `metrics` (`BENCHMARK.json` lists them). The
//! kernel is the library default; `ST_KERNEL` is honoured only when set.
//! The host line records kernel, core count and ISA flags, so results from
//! different hosts or kernels are never compared.
//!
//! # Workloads
//!
//! Each runs in its own process, so `peak_rss_mb` and the process-wide
//! kernel choice do not leak between workloads.
//!
//! - `tune-census` — the CLI `tune` defaults on the AdultCensus analog,
//!   over a seed list derived from `--seed`. Why: the model is tiny, so
//!   per-call overhead, curve fitting and the projected-subgradient solve
//!   are a visible share (about 2.4 ms per solve, 2 solves in a ~50 ms
//!   tune) while GEMM is not; `st_optim` and `st_curve` changes show
//!   here, `st_linalg` changes must not move it.
//! - `tune-faces` — the UTKFace analog: 8 slices with Table 1 costs, basic
//!   MLP, sizes 360,80,... (two Algorithm 1 rounds), B = 3000. Why:
//!   GEMM-bound training and the batched estimation plane take most of a
//!   tune and the solver under 1%; kernel, trainer and estimation changes
//!   show here, solver changes must not move it.
//! - `serve-census` — an in-process `st_server` with `ServerConfig::new`
//!   defaults on loopback, and `min(nproc, 2)` closed-loop clients. Each
//!   registers sessions with the server's default body
//!   (`{"family":"census","seed":s}`), advances one round per POST until
//!   `complete`, and after each advance GETs the session, its curves and
//!   its allocation. Every request is sent once; no faults are injected.
//!   Why: it exercises exhaustive + incremental estimation, the
//!   per-advance dataset rebuild and checkpoint replay, checkpoint write
//!   and parse, and the HTTP/queue layer, with reads beside writes, so a
//!   change that speeds one by slowing the other shows. A server admits
//!   64 sessions, so the load moves to a fresh default server when one
//!   is full.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! Times marked *scaled* are scaled to a nominal host speed by a fixed
//! reference timed around them (see [`speed`]): the host drifts between
//! speed states for minutes at a time, which no statistic over one run
//! removes. The readable lines give the times as measured too.
//!
//! - `setup_s`: process start to ready for the first sample (kernel
//!   choice, one warm-up tune; or server start and one warm-up session),
//!   scaled; median of six fresh child processes, three before the
//!   measurement and three after it.
//! - `latency_p50_ms`, `latency_tail_ms`: one `generate` +
//!   `SliceTuner::new` + `try_run` (tune-*, scaled), one `POST …/advance`
//!   (serve-census, as measured: half an advance is the acceptor's fixed
//!   5 ms poll sleep, which host speed does not scale, so scaling would
//!   over-correct). The tail is the highest percentile with at least ten
//!   samples beyond it; the readable lines give it and the sample count.
//!   A tune is deterministic, so a seed's repeats differ only by host
//!   noise: on tune-* a sample is one seed, at its best scaled time over
//!   at least two passes, seconds apart. tune-faces has 20 seeds, so its
//!   tail by that rule is the 50th percentile.
//! - `throughput_per_s`: tunes per second, one tune of each seed back to
//!   back at those times (tune-*); sessions completed per second of the
//!   load (serve-census).
//! - `final_loss`, `avg_eer`: mean `overall_loss` and `avg_eer` of the
//!   final model over the seed list (tune-*) or over the served sessions
//!   (serve-census, the model retrained on the data each checkpoint
//!   bought). Deterministic, so a "speedup" that buys a worse model shows.
//! - `peak_rss_mb`: VmHWM of the workload's own process.
//!
//! Failed operations count in `failed` against `attempted` (the error
//! rate) and are recorded as infinitely slow. The serve workload's read
//! latency (the three GETs) is a per-layer figure; in the closed loop it
//! also bounds `throughput_per_s`.
//!
//! # Per-layer metrics (`--trace 1`), and the end-to-end metric each moves
//!
//! A separate traced run. On tune-* it re-drives the run round by round
//! through the public primitives Algorithm 1 uses (see [`replay`]) and
//! refuses its numbers unless the replay's per-round counts and final
//! losses are bit-equal to the untraced `try_run`. On serve-census the
//! layers are timed on one served session's configuration. Times are
//! milliseconds per call; `_calls` and `_trainings` are per replayed run.
//!
//! - `st_data.generate_ms` → `latency_p50_ms` on tune-* (small) and on
//!   serve (every advance regenerates the session dataset, `/allocation`
//!   again).
//! - `st_models.train_eval_ms`, `st_models.train_eval_calls` → latency on
//!   tune-faces (two per tune), and on serve (two per advance).
//! - `st_curve.estimate_ms`, `st_curve.estimate_trainings` → latency on
//!   both tune workloads (one estimate per round).
//! - `st_curve.fit_ms`: `fit_power_law` on a round's points, a child of
//!   estimate and not in the layer sum; tiny, so a fit change should move
//!   nothing.
//! - `st_optim.solve_ms`, `st_optim.solve_calls` → latency on tune-census,
//!   not on tune-faces; on serve `/allocation` solves too, so reads.
//! - `slice_tuner.plan_ms`: log-mean fallback, T-cap, rounding and the
//!   schedule step, per round.
//! - `slice_tuner.acquire_ms`: `acquire` + `absorb`, per round (small).
//! - `st_linalg.gemm_gflops`: the active kernel on the workload model's
//!   forward and backward shapes at the trainer's minibatch → latency on
//!   tune-faces, not on tune-census.
//! - `slice_tuner.checkpoint_save_ms`, `_load_ms`, `_bytes`: a round trip
//!   of the run's checkpoint (tune-*: as `--checkpoint` would write it,
//!   not in the layer sum) → advance and read latency on serve, where
//!   every request loads and parses it.
//! - `st_server.http_rtt_ms` (`GET /healthz`) → read and advance latency;
//!   the acceptor's 5 ms `WouldBlock` sleep sits here.
//! - `st_server.session_advance_ms`, `st_server.allocation_ms`: in-process
//!   `Session::advance` and `Session::allocation`; subtracted from the
//!   HTTP latencies they leave the HTTP/queue/lock share.
//! - `st_server.read_p50_ms`, `st_server.read_tail_ms`: the three GETs.
//! - `st_server.<route>_{sent,ok,failed}`: per-route request counts.
//! - `slice_tuner.unattributed_ms`: untraced latency p50 minus the layer
//!   sum (tune-*), or advance p50 minus `session_advance_ms` (serve);
//!   `slice_tuner.layer_share_pct` is the share the named layers cover,
//!   and `slice_tuner.replay_overhead_ms` the traced run's own cost.
//!
//! The tune workloads serve one session of their own family through a
//! default server (the probe in [`serve::probe`]), so every workload
//! reports every server layer.

mod replay;
mod serve;
mod speed;
mod stats;
mod tune;

use replay::{Layers, RunSpec};
use stats::{median_of, Measured, Metric};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use tune::TuneWorkload;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: set up as a run would, print `ready`, and exit.
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            args.setup_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if !["tune-census", "tune-faces", "serve-census"].contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload '{}' (tune-census | tune-faces | serve-census)",
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The CLI refuses non-deterministic kernels without an opt-in; the
    // benchmark checks bit-identity, so it refuses them outright.
    let kernel = st_linalg::kernel_kind();
    if !kernel.bit_deterministic() {
        eprintln!("error: kernel '{}' is not bit-deterministic", kernel.name());
        return ExitCode::FAILURE;
    }
    let work = format!(
        "{}/work/{}-{}",
        env!("CARGO_MANIFEST_DIR"),
        args.workload,
        std::process::id()
    );
    let outcome = std::fs::create_dir_all(&work)
        .map_err(|e| format!("creating {work}: {e}"))
        .and_then(|()| {
            if args.setup_probe {
                setup(&args, &work)
            } else {
                run(&args, &work)
            }
        });
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The seed of every warm-up. A warm-up tune or session takes as many
/// rounds as its seed asks for, so a warm-up on the run's own seed would
/// make `setup_s` swing with `--seed`.
const WARM_UP_SEED: u64 = 0;

/// The work a run does before its first sample. In a setup probe it ends
/// by printing `ready`, which the parent times.
fn setup(args: &Args, work: &str) -> Result<(), String> {
    match args.workload.as_str() {
        "serve-census" => {
            // Server start and one warm-up session served to completion.
            let log = serve::probe("census", WARM_UP_SEED, work)?;
            if log.failures() > 0 {
                return Err("the warm-up session failed".into());
            }
        }
        name => workload(name).warm_up(WARM_UP_SEED)?,
    }
    if args.setup_probe {
        println!("ready");
        std::io::stdout().flush().map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn workload(name: &str) -> TuneWorkload {
    if name == "tune-faces" {
        TuneWorkload::faces()
    } else {
        TuneWorkload::census()
    }
}

/// Fresh child processes timed on each side of the measurement.
const SETUP_PROBES_EACH_SIDE: usize = 3;

/// Times `n` fresh child processes from spawn to `ready`, each scaled to
/// the nominal host speed. `setup_s` is the median over probes taken
/// before and after the measurement.
fn setup_probes(args: &Args, n: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    for _ in 0..n {
        let before = speed::reference_ms();
        let t0 = Instant::now();
        let mut child = Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
                "--setup-probe",
            ])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning the setup probe: {e}"))?;
        let stdout = child.stdout.take().ok_or("setup probe has no stdout")?;
        let ready = BufReader::new(stdout)
            .lines()
            .map_while(Result::ok)
            .any(|line| line == "ready");
        let elapsed = t0.elapsed().as_secs_f64();
        let status = child.wait().map_err(|e| e.to_string())?;
        if !ready || !status.success() {
            return Err(format!("setup probe failed ({status})"));
        }
        times.push(speed::normalise(elapsed, before, speed::reference_ms()));
    }
    Ok(times)
}

/// VmHWM of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut isa: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, on) in [
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ] {
            if on {
                isa.push(name);
            }
        }
    }
    format!(
        "host: kernel={} nproc={nproc} arch={} isa={}",
        st_linalg::kernel_kind().name(),
        std::env::consts::ARCH,
        if isa.is_empty() {
            "none".to_string()
        } else {
            isa.join(",")
        }
    )
}

fn run(args: &Args, work: &str) -> Result<(), String> {
    println!("{}", host_line());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    if args.trace {
        setup(args, work)?;
        return match args.workload.as_str() {
            "serve-census" => serve_traced(args, work),
            name => tune_traced(&workload(name), args, work),
        };
    }
    let mut setup_times = setup_probes(args, SETUP_PROBES_EACH_SIDE)?;
    setup(args, work)?;
    let r = match args.workload.as_str() {
        "serve-census" => serve_untraced(args, work)?,
        name => tune::measure(&workload(name), args.seed, args.seconds),
    };
    setup_times.extend(setup_probes(args, SETUP_PROBES_EACH_SIDE)?);
    let mut metrics = vec![Metric::new("setup_s", median_of(&setup_times), "s")];
    metrics.extend(r.metrics);
    metrics.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB"));
    stats::print_result(r.correct, r.attempted, r.failed, &metrics);
    Ok(())
}

fn clients() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

fn serve_untraced(args: &Args, work: &str) -> Result<Measured, String> {
    let clients = clients();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (generations, load_s) = serve::load("census", args.seed, clients, deadline, 0, work)?;
    let log = serve::merged(&generations);
    let v = serve::verify(&generations, clients, work);
    let (tail, pct) = log.advance.tail();
    println!(
        "serve-census: {clients} clients, {} servers, {} sessions completed in {load_s:.2} s; \
         advance tail = p{pct:.1} of {} samples",
        generations.len(),
        log.completed.len(),
        log.advance.len()
    );
    println!(
        "  served checkpoints byte-equal to in-process references: {}/{}",
        v.identical, v.checked
    );
    let correct = log.failures() == 0 && v.checked > 0 && v.identical == v.checked;
    let metrics = vec![
        Metric::new("latency_p50_ms", log.advance.median(), "ms"),
        Metric::new("latency_tail_ms", tail, "ms"),
        Metric::new(
            "throughput_per_s",
            log.completed.len() as f64 / load_s,
            "1/s",
        ),
        Metric::new("final_loss", stats::mean_of(&v.losses), "loss"),
        Metric::new("avg_eer", stats::mean_of(&v.eers), "loss"),
    ];
    Ok(Measured {
        correct,
        attempted: log.attempted(),
        failed: log.failures(),
        metrics,
    })
}

/// Floating-point operations per second of the active kernel on the
/// forward (`X·W`) and backward (`Xᵀ·dZ`, `dZ·Wᵀ`) products of `dims`
/// (input, hidden…, classes) at the trainer's minibatch size.
fn gemm_gflops(dims: &[usize]) -> f64 {
    use st_linalg::Matrix;
    let m = st_models::TrainConfig::default().batch_size;
    let fill = |r: usize, c: usize| {
        Matrix::from_vec(
            r,
            c,
            (0..r * c)
                .map(|i| ((i * 7919) % 113) as f64 / 113.0 - 0.5)
                .collect(),
        )
    };
    let shapes: Vec<(Matrix, Matrix, Matrix)> = dims
        .windows(2)
        .map(|w| (fill(m, w[0]), fill(w[0], w[1]), fill(m, w[1])))
        .collect();
    let flops_per_pass: usize = dims.windows(2).map(|w| 3 * 2 * m * w[0] * w[1]).sum();
    let mut out = Matrix::zeros(1, 1);
    let mut passes = 0usize;
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_millis(300) {
        for (x, w, dz) in &shapes {
            x.matmul_into(w, &mut out);
            std::hint::black_box(&out);
            x.matmul_tn_into(dz, &mut out);
            std::hint::black_box(&out);
            dz.matmul_nt_into(w, &mut out);
            std::hint::black_box(&out);
        }
        passes += 1;
    }
    (passes * flops_per_pass) as f64 / t0.elapsed().as_secs_f64() / 1e9
}

fn model_dims(family: &st_data::DatasetFamily) -> Vec<usize> {
    let mut dims = vec![family.feature_dim];
    dims.extend(&tune::model_for(family).hidden);
    dims.push(family.num_classes);
    dims
}

/// The per-layer metrics every workload reports, from the replayed runs'
/// layers and the server-layer measurements.
struct LayerReport<'a> {
    layers: &'a Layers,
    checkpoint: &'a tune::CheckpointCost,
    gflops: f64,
    log: &'a serve::Log,
    session: &'a serve::InProcess,
    /// The untraced latency the layers account for.
    parent_ms: f64,
    /// The part of `parent_ms` the named layers leave uncovered.
    unattributed_ms: f64,
    /// The share of `parent_ms` the named layers cover, in percent.
    share_pct: f64,
    replay_overhead_ms: f64,
}

impl LayerReport<'_> {
    fn metrics(&self) -> Vec<Metric> {
        let l = self.layers;
        let (read_tail, read_pct) = self.log.read.tail();
        println!(
            "  layers cover {:.1}% of the {:.3} ms parent; read tail = p{read_pct:.1} of {} samples",
            self.share_pct,
            self.parent_ms,
            self.log.read.len()
        );
        let mut m = vec![
            Metric::new("st_data.generate_ms", l.generate.per_call(), "ms"),
            Metric::new("st_models.train_eval_ms", l.train_eval.per_call(), "ms"),
            Metric::new(
                "st_models.train_eval_calls",
                l.calls_per_run(l.train_eval.calls),
                "count",
            ),
            Metric::new("st_curve.estimate_ms", l.estimate.per_call(), "ms"),
            Metric::new(
                "st_curve.estimate_trainings",
                l.calls_per_run(l.estimate_trainings),
                "count",
            ),
            Metric::new("st_curve.fit_ms", l.fit.per_call(), "ms"),
            Metric::new("st_optim.solve_ms", l.solve.per_call(), "ms"),
            Metric::new(
                "st_optim.solve_calls",
                l.calls_per_run(l.solve.calls),
                "count",
            ),
            Metric::new("slice_tuner.plan_ms", l.plan.per_call(), "ms"),
            Metric::new("slice_tuner.acquire_ms", l.acquire.per_call(), "ms"),
            Metric::new(
                "slice_tuner.checkpoint_save_ms",
                self.checkpoint.save_ms,
                "ms",
            ),
            Metric::new(
                "slice_tuner.checkpoint_load_ms",
                self.checkpoint.load_ms,
                "ms",
            ),
            Metric::new(
                "slice_tuner.checkpoint_bytes",
                self.checkpoint.bytes,
                "bytes",
            ),
            Metric::new("st_linalg.gemm_gflops", self.gflops, "GFLOP/s"),
            Metric::new("st_server.http_rtt_ms", self.log.healthz.median(), "ms"),
            Metric::new(
                "st_server.session_advance_ms",
                self.session.advance_ms,
                "ms",
            ),
            Metric::new("st_server.allocation_ms", self.session.allocation_ms, "ms"),
            Metric::new("st_server.read_p50_ms", self.log.read.median(), "ms"),
            Metric::new("st_server.read_tail_ms", read_tail, "ms"),
        ];
        m.extend(serve::route_metrics(self.log));
        m.push(Metric::new(
            "slice_tuner.unattributed_ms",
            self.unattributed_ms,
            "ms",
        ));
        m.push(Metric::new(
            "slice_tuner.layer_share_pct",
            self.share_pct,
            "%",
        ));
        m.push(Metric::new(
            "slice_tuner.replay_overhead_ms",
            self.replay_overhead_ms,
            "ms",
        ));
        m
    }
}

fn tune_traced(w: &TuneWorkload, args: &Args, work: &str) -> Result<(), String> {
    let t = tune::traced(w, args.seed, args.seconds * 0.75, work)?;
    let family = w.family.name.as_str();
    let log = serve::probe(family, args.seed, work)?;
    let session = serve::in_process(
        &serve::register_body(family, args.seed, 0),
        &format!("{work}/session"),
    )?;
    // Paired per seed, then the median over the replayed seeds, so the
    // seed mix cannot skew the comparison.
    let paired = |f: &dyn Fn(&(f64, f64, f64)) -> f64| {
        median_of(&t.per_seed.iter().map(f).collect::<Vec<_>>())
    };
    let p50 = paired(&|p| p.0);
    let report = LayerReport {
        layers: &t.layers,
        checkpoint: &t.checkpoint,
        gflops: gemm_gflops(&model_dims(&w.family)),
        log: &log,
        session: &session,
        parent_ms: p50,
        unattributed_ms: paired(&|p| p.0 - p.1),
        share_pct: paired(&|p| 100.0 * p.1 / p.0),
        replay_overhead_ms: paired(&|p| p.2 - p.0),
    };
    println!(
        "{}: untraced latency p50 over the replayed seeds {p50:.3} ms",
        w.name
    );
    let metrics = report.metrics();
    let failed = log.failures();
    stats::print_result(failed == 0, t.attempted + log.attempted(), failed, &metrics);
    Ok(())
}

fn serve_traced(args: &Args, work: &str) -> Result<(), String> {
    let clients = clients();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds * 0.5);
    let (generations, _) = serve::load("census", args.seed, clients, deadline, 20, work)?;
    let log = serve::merged(&generations);
    let body = log
        .completed
        .first()
        .map(|(_, b)| b.clone())
        .ok_or("no session completed during the traced load")?;
    let session = serve::in_process(&body, &format!("{work}/session"))?;
    let family = st_server::session::family_by_name(&session.spec.family)?;
    let config = serve::session_config(&family, &session.spec, serve::estimator_threads());
    let run = RunSpec {
        family: &family,
        sizes: &session.spec.sizes,
        validation: session.spec.validation,
        seed: session.spec.seed,
        config: &config,
        schedule: slice_tuner::TSchedule::moderate(),
        budget: session.spec.budget as f64,
    };
    let (want, untraced_ms) = replay::reference(&run, &format!("{work}/replay.checkpoint.json"))?;
    let (got, layers) = replay::replay(&run)?;
    if got != want {
        return Err(format!(
            "serve-census: the traced replay differs from try_run (replay {got:?}, try_run {want:?}); \
             traced numbers refused"
        ));
    }
    println!("serve-census: the replayed session run is bit-identical to try_run");
    let advance_p50 = log.advance.median();
    let report = LayerReport {
        layers: &layers,
        checkpoint: &session.checkpoint,
        gflops: gemm_gflops(&model_dims(&family)),
        log: &log,
        session: &session,
        parent_ms: advance_p50,
        unattributed_ms: advance_p50 - session.advance_ms,
        share_pct: 100.0 * session.advance_ms / advance_p50,
        replay_overhead_ms: layers.wall_ms - untraced_ms,
    };
    let metrics = report.metrics();
    let failed = log.failures();
    stats::print_result(failed == 0, log.attempted(), failed, &metrics);
    Ok(())
}
