//! The `serve-census` workload and the server-layer probe every traced run
//! takes: an in-process `st_server` started with the `ServerConfig::new`
//! defaults on loopback, driven over HTTP with `st_server::Client`.

use crate::stats::{mean_of, median_of, timed, Metric, Samples};
use crate::tune::{checkpoint_cost, CheckpointCost};
use serde::json::Value;
use slice_tuner::{plan_thread_budget, PoolSource, SliceTuner, Strategy, TSchedule, TunerConfig};
use st_curve::EstimationMode;
use st_data::{split_seed, DatasetFamily, SlicedDataset};
use st_server::session::family_by_name;
use st_server::{Client, ServerConfig, Session, SessionSpec};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The routes the load generator calls, in the order `Log` counts them.
#[derive(Debug, Clone, Copy)]
pub enum Route {
    Register,
    Advance,
    Status,
    Curves,
    Allocation,
    Healthz,
}

/// Per-route request counts and latencies of one or more clients.
#[derive(Debug, Default, Clone)]
pub struct Log {
    pub sent: [u64; 6],
    pub failed: [u64; 6],
    pub advance: Samples,
    /// The three GETs after each advance.
    pub read: Samples,
    pub healthz: Samples,
    /// `(session id, register body)` of every session served to completion.
    pub completed: Vec<(u64, String)>,
}

impl Log {
    fn merge(&mut self, other: Log) {
        for i in 0..6 {
            self.sent[i] += other.sent[i];
            self.failed[i] += other.failed[i];
        }
        self.advance.extend(&other.advance);
        self.read.extend(&other.read);
        self.healthz.extend(&other.healthz);
        self.completed.extend(other.completed);
    }

    pub fn attempted(&self) -> u64 {
        self.sent.iter().sum()
    }

    pub fn failures(&self) -> u64 {
        self.failed.iter().sum()
    }

    /// One request, sent once. Anything but a 2xx, or a transport error,
    /// is a failure and is recorded as infinitely slow.
    fn call(
        &mut self,
        client: &Client,
        route: Route,
        method: &str,
        path: &str,
        body: &str,
    ) -> Option<String> {
        let i = route as usize;
        self.sent[i] += 1;
        let (resp, ms) = timed(|| client.request(method, path, body));
        let samples = match route {
            Route::Advance => Some(&mut self.advance),
            Route::Status | Route::Curves | Route::Allocation => Some(&mut self.read),
            Route::Healthz => Some(&mut self.healthz),
            Route::Register => None,
        };
        match resp {
            Ok(r) if (200..300).contains(&r.status) => {
                if let Some(s) = samples {
                    s.push(ms);
                }
                Some(r.body)
            }
            other => {
                self.failed[i] += 1;
                if let Some(s) = samples {
                    s.push_failed();
                }
                eprintln!("serve: {method} {path} failed: {other:?}");
                None
            }
        }
    }
}

/// The server's default register body for `family` (40 per slice, B =
/// 400, 8 epochs, at most 8 rounds) with a derived session seed.
pub fn register_body(family: &str, seed: u64, k: u64) -> String {
    format!(
        "{{\"family\":\"{family}\",\"seed\":{}}}",
        split_seed(seed, 0x5E55 ^ k) >> 40
    )
}

/// A client that sends every request exactly once, so retries cannot
/// hide failures.
fn client(addr: SocketAddr) -> Client {
    let mut c = Client::new(addr);
    c.attempts = 1;
    c
}

/// Estimator threads the server gives each session advance.
pub fn estimator_threads() -> usize {
    let defaults = ServerConfig::new("");
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sharded = st_linalg::kernel_kind() == st_linalg::KernelKind::Sharded;
    plan_thread_budget(workers, defaults.max_sessions.max(1), sharded).estimator_threads
}

/// Registers one session and advances it to completion, reading its
/// status, curves and allocation after every advance.
fn serve_session(log: &mut Log, c: &Client, body: &str) {
    let Some(resp) = log.call(c, Route::Register, "POST", "/sessions", body) else {
        return;
    };
    let Some(id) = serde::json::parse(&resp)
        .ok()
        .and_then(|v| v.get("id").and_then(Value::as_u64))
    else {
        eprintln!("serve: register answered without an id: {resp}");
        return;
    };
    loop {
        let Some(state) = log.call(
            c,
            Route::Advance,
            "POST",
            &format!("/sessions/{id}/advance"),
            "",
        ) else {
            return;
        };
        for (route, tail) in [
            (Route::Status, ""),
            (Route::Curves, "/curves"),
            (Route::Allocation, "/allocation"),
        ] {
            log.call(c, route, "GET", &format!("/sessions/{id}{tail}"), "");
        }
        let complete = serde::json::parse(&state)
            .ok()
            .and_then(|v| v.get("complete").and_then(Value::as_bool));
        match complete {
            Some(true) => {
                log.completed.push((id, body.to_string()));
                return;
            }
            Some(false) => {}
            None => {
                eprintln!("serve: advance answered without 'complete': {state}");
                return;
            }
        }
    }
}

/// One server lifetime of the load: closed-loop clients register and
/// complete sessions until the deadline or the server's admission cap.
pub struct Generation {
    pub dir: String,
    pub log: Log,
}

/// Drives `clients` closed-loop clients against fresh default servers
/// until `deadline`. A server holds at most `max_sessions` sessions, so
/// the load moves to a new server (and directory) when one is full.
/// With `pings` set, each server then answers that many `/healthz`
/// round trips; the load's duration excludes them.
pub fn load(
    family: &str,
    seed: u64,
    clients: usize,
    deadline: Instant,
    pings: usize,
    work: &str,
) -> Result<(Vec<Generation>, f64), String> {
    let mut load_s = 0.0;
    let next = AtomicU64::new(0);
    let mut generations = Vec::new();
    while Instant::now() < deadline {
        let t_gen = Instant::now();
        let dir = format!("{work}/gen{}", generations.len());
        let config = ServerConfig::new(&dir);
        let cap = config.max_sessions as u64;
        let handle = st_server::start(config)?;
        let addr = handle.addr();
        let registered = AtomicU64::new(0);
        let logs: Vec<Log> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..clients)
                .map(|_| {
                    scope.spawn(|| {
                        let c = client(addr);
                        let mut log = Log::default();
                        while Instant::now() < deadline
                            && registered.fetch_add(1, Ordering::SeqCst) < cap
                        {
                            let k = next.fetch_add(1, Ordering::SeqCst);
                            serve_session(&mut log, &c, &register_body(family, seed, k));
                        }
                        log
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread"))
                .collect()
        });
        let mut log = Log::default();
        for l in logs {
            log.merge(l);
        }
        load_s += t_gen.elapsed().as_secs_f64();
        let c = client(addr);
        for _ in 0..pings {
            log.call(&c, Route::Healthz, "GET", "/healthz", "");
        }
        handle.shutdown();
        handle.wait();
        generations.push(Generation { dir, log });
    }
    Ok((generations, load_s))
}

/// The logs of every generation, merged.
pub fn merged(generations: &[Generation]) -> Log {
    let mut log = Log::default();
    for g in generations {
        log.merge(g.log.clone());
    }
    log
}

/// `Session::config` as the server builds it, without the checkpoint
/// options.
pub fn session_config(family: &DatasetFamily, spec: &SessionSpec, threads: usize) -> TunerConfig {
    let mut cfg = TunerConfig::new(crate::tune::model_for(family))
        .with_seed(spec.seed)
        .with_mode(EstimationMode::Exhaustive)
        .with_incremental();
    cfg.train.epochs = spec.epochs;
    cfg.fractions = vec![0.4, 0.7, 1.0];
    cfg.repeats = spec.repeats;
    cfg.threads = threads.max(1);
    cfg.max_iterations = spec.max_rounds as usize;
    cfg
}

/// An in-process `Session` advanced one round per call, as the server
/// advances it; returns the session and each advance's milliseconds.
pub fn reference_session(
    id: u64,
    body: &str,
    dir: &str,
    threads: usize,
) -> Result<(Session, Vec<f64>), String> {
    let spec = SessionSpec::parse(body)?;
    let mut s = Session::new(id, spec, dir)?;
    let mut times = Vec::new();
    while !s.complete {
        let target = (s.rounds + 1).clamp(1, s.spec.max_rounds);
        if s.rounds >= target {
            break;
        }
        let repeats = s.spec.repeats;
        let (r, ms) = timed(|| s.advance(target, repeats, threads));
        r.map_err(|e| format!("reference advance: {e:?}"))?;
        times.push(ms);
    }
    Ok((s, times))
}

/// The quality of a finished session: the model retrained on the data its
/// checkpoint bought (resume from it, halt at its last round).
fn session_quality(s: &Session, threads: usize) -> Result<(f64, f64), String> {
    let family = family_by_name(&s.spec.family)?;
    let ds = SlicedDataset::generate(&family, &s.spec.sizes, s.spec.validation, s.spec.seed);
    let mut pool = PoolSource::new(family.clone(), s.spec.seed);
    let cfg = session_config(&family, &s.spec, threads)
        .with_checkpoint(&s.checkpoint_path)
        .with_resume()
        .with_halt_after_rounds(s.rounds as usize);
    let mut tuner = SliceTuner::new(ds, &mut pool, cfg);
    let r = tuner
        .try_run(
            Strategy::Iterative(TSchedule::moderate()),
            s.spec.budget as f64,
        )
        .map_err(|e| e.to_string())?;
    Ok((r.report.overall_loss, r.report.avg_eer))
}

/// Checks every completed session of every generation against an
/// in-process reference advanced the same way (byte-equal checkpoints),
/// and scores the model each one bought. Uses `clients` threads.
pub struct Verified {
    pub identical: usize,
    pub checked: usize,
    pub losses: Vec<f64>,
    pub eers: Vec<f64>,
}

pub fn verify(generations: &[Generation], clients: usize, work: &str) -> Verified {
    let threads = estimator_threads();
    let jobs: Vec<(usize, u64, String)> = generations
        .iter()
        .enumerate()
        .flat_map(|(g, gen)| {
            gen.log
                .completed
                .iter()
                .map(move |(id, body)| (g, *id, body.clone()))
        })
        .collect();
    let next = AtomicU64::new(0);
    let results: Vec<Vec<Result<(f64, f64), String>>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let j = next.fetch_add(1, Ordering::SeqCst) as usize;
                        let Some((g, id, body)) = jobs.get(j) else {
                            break;
                        };
                        let dir = format!("{work}/ref{g}");
                        out.push(check_one(&generations[*g].dir, *id, body, &dir, threads));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("verify thread"))
            .collect()
    });
    let mut v = Verified {
        identical: 0,
        checked: jobs.len(),
        losses: Vec::new(),
        eers: Vec::new(),
    };
    for r in results.into_iter().flatten() {
        match r {
            Ok((loss, eer)) => {
                v.identical += 1;
                v.losses.push(loss);
                v.eers.push(eer);
            }
            Err(e) => eprintln!("serve: {e}"),
        }
    }
    v
}

fn check_one(
    served_dir: &str,
    id: u64,
    body: &str,
    dir: &str,
    threads: usize,
) -> Result<(f64, f64), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let served = std::fs::read_to_string(format!("{served_dir}/session-{id}.json"))
        .map_err(|e| format!("session {id}: served checkpoint: {e}"))?;
    let (reference, _) = reference_session(id, body, dir, threads)?;
    let want = std::fs::read_to_string(&reference.checkpoint_path).map_err(|e| e.to_string())?;
    if served != want {
        return Err(format!(
            "session {id} in {served_dir}: served checkpoint differs from the in-process reference"
        ));
    }
    session_quality(&reference, threads)
}

/// Server-layer costs measured in process on one session: each
/// `Session::advance` and `Session::allocation`, and a checkpoint round
/// trip of its final state.
pub struct InProcess {
    pub advance_ms: f64,
    pub allocation_ms: f64,
    pub checkpoint: CheckpointCost,
    pub spec: SessionSpec,
}

pub fn in_process(body: &str, dir: &str) -> Result<InProcess, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let (s, times) = reference_session(0, body, dir, estimator_threads())?;
    let mut alloc = Vec::new();
    for _ in 0..5 {
        let (r, ms) = timed(|| s.allocation());
        r?;
        alloc.push(ms);
    }
    Ok(InProcess {
        advance_ms: mean_of(&times),
        allocation_ms: median_of(&alloc),
        checkpoint: checkpoint_cost(&s.checkpoint_path, 5)?,
        spec: s.spec.clone(),
    })
}

/// The per-route count metrics of a log.
pub fn route_metrics(log: &Log) -> Vec<Metric> {
    const NAMES: [[&str; 3]; 6] = [
        [
            "st_server.register_sent",
            "st_server.register_ok",
            "st_server.register_failed",
        ],
        [
            "st_server.advance_sent",
            "st_server.advance_ok",
            "st_server.advance_failed",
        ],
        [
            "st_server.status_sent",
            "st_server.status_ok",
            "st_server.status_failed",
        ],
        [
            "st_server.curves_sent",
            "st_server.curves_ok",
            "st_server.curves_failed",
        ],
        [
            "st_server.allocation_sent",
            "st_server.allocation_ok",
            "st_server.allocation_failed",
        ],
        [
            "st_server.healthz_sent",
            "st_server.healthz_ok",
            "st_server.healthz_failed",
        ],
    ];
    let mut out = Vec::new();
    for (i, names) in NAMES.iter().enumerate() {
        let (sent, failed) = (log.sent[i] as f64, log.failed[i] as f64);
        out.push(Metric::new(names[0], sent, "count"));
        out.push(Metric::new(names[1], sent - failed, "count"));
        out.push(Metric::new(names[2], failed, "count"));
    }
    out
}

/// A short load against one default server: one client, one session of
/// `family` served to completion, then `/healthz` round trips. The tune
/// workloads take this probe so every workload reports every server layer.
pub fn probe(family: &str, seed: u64, work: &str) -> Result<Log, String> {
    let dir = format!("{work}/probe");
    let handle = st_server::start(ServerConfig::new(&dir))?;
    let c = client(handle.addr());
    let mut log = Log::default();
    serve_session(&mut log, &c, &register_body(family, seed, u64::MAX));
    // More reads of the finished session, so the read tail rests on
    // enough samples.
    if let Some((id, _)) = log.completed.first().cloned() {
        for _ in 0..10 {
            for (route, tail) in [
                (Route::Status, ""),
                (Route::Curves, "/curves"),
                (Route::Allocation, "/allocation"),
            ] {
                log.call(&c, route, "GET", &format!("/sessions/{id}{tail}"), "");
            }
        }
    }
    for _ in 0..20 {
        log.call(&c, Route::Healthz, "GET", "/healthz", "");
    }
    handle.shutdown();
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(log)
}
