//! `st_server` — the crash-only serving layer for the slice tuner.
//!
//! A long-lived HTTP/1.1 service (vendored std `TcpListener`, no external
//! dependencies) holding many concurrent tuning sessions. The design is
//! robustness-first:
//!
//! * **Crash-only sessions.** A session's state is its checkpoint
//!   document on disk ([`slice_tuner::checkpoint`]), written atomically
//!   after every acquisition round. A panicking session worker is caught
//!   ([`session::Session::advance`]), the session is marked degraded, and
//!   the next request transparently resumes bit-identically — recovery
//!   *is* the normal code path.
//! * **One Algorithm 1.** Advances step the engine's
//!   [`slice_tuner::SliceTuner::plan_round`] /
//!   [`apply_round`](slice_tuner::SliceTuner::apply_round); `complete`
//!   turns true on the advance that ends the run. `/allocation` returns
//!   the plan the next advance executes (raw, capped, and counts) at the
//!   cost of one estimation, and answers `409` before the first advance.
//! * **Deadlines.** Every request read enforces a total wall-clock
//!   deadline (`408` past it), and jobs that waited in the queue longer
//!   than the deadline are shed with `503 Retry-After`.
//! * **Degradation ladder.** Per-session wall-clock budgets degrade
//!   service in steps ([`ladder_rung`]): shrink estimation repeats →
//!   serve last-trusted curves without running → reject with
//!   `Retry-After`.
//! * **Backpressure.** Accepted connections enter a bounded queue
//!   spread over a worker pool sized by
//!   [`slice_tuner::plan_thread_budget`], which also sets each advance's
//!   estimator threads; the compute kernel runs every product on the
//!   thread that calls it, so the two layers are the only ones that fan
//!   out. Past the high-water mark the acceptor answers `429` with a
//!   backoff hint instead of queueing.
//! * **Graceful shutdown.** `POST /shutdown` flips readiness first,
//!   drains the pending queue, flushes checkpoints (they are always
//!   flushed — atomic save per round), sweeps orphan temp files, and
//!   only then lets liveness go.
//!
//! ## Fault injection
//!
//! An installed fault plan ([`st_linalg::fault::install`]; the CLI
//! installs the one `ST_FAULT` names) drives the whole stack:
//! `conn_drop@<req>` drops the server→client response of the
//! `<req>`-th accepted connection *after* the work is durably
//! checkpointed (the client sees EOF, retries, and the idempotent
//! advance serves the already-computed state); `slow_client@<req>:ms<M>`
//! makes the [`client`] trickle its `<req>`-th request over `M` ms;
//! `session_panic@<s>:round<R>` shoots session `<s>`'s worker on its
//! first attempt at round `<R>`. Request ordinals count accepted
//! connections starting at 1; client-side ordinals count sent requests
//! starting at 1.
//!
//! ## Endpoints
//!
//! | Method | Path | Purpose |
//! |---|---|---|
//! | GET | `/healthz` | liveness |
//! | GET | `/readyz` | readiness (503 while draining) |
//! | GET | `/stats` | session/queue counters |
//! | POST | `/sessions` | register a family (JSON body) |
//! | POST | `/sessions/<id>/data` | upload CSV before the first advance |
//! | POST | `/sessions/<id>/advance` | advance one round (idempotent) |
//! | GET | `/sessions/<id>` | session status |
//! | GET | `/sessions/<id>/curves` | the curve zoo |
//! | GET | `/sessions/<id>/allocation` | the plan the next advance executes |
//! | POST | `/shutdown` | graceful drain |

pub mod client;
pub mod http;
pub mod session;

pub use client::Client;
pub use http::{Request, Response};
pub use session::{AdvanceError, Session, SessionSpec};

use http::{read_request, write_response};
use serde::json::Value;
use slice_tuner::checkpoint::clean_orphan_temps;
use slice_tuner::plan_thread_budget;
use st_linalg::fault;
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Supervisor configuration. All limits are range-checked by the CLI at
/// parse time; in-process users get the same defaults via [`ServerConfig::new`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; `127.0.0.1:0` picks a free port.
    pub addr: String,
    /// Directory for session checkpoints and uploaded CSVs.
    pub dir: String,
    /// Per-request total read deadline and queue-wait bound, in ms.
    pub deadline_ms: u64,
    /// Admission cap on concurrently registered sessions.
    pub max_sessions: usize,
    /// High-water mark of the pending-connection queue.
    pub queue_depth: usize,
    /// Worker budget; 0 means "available parallelism".
    pub workers: usize,
    /// Per-session wall-clock budget driving the degradation ladder;
    /// 0 means unbounded.
    pub session_budget_ms: u64,
}

impl ServerConfig {
    pub fn new(dir: impl Into<String>) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            dir: dir.into(),
            deadline_ms: 5_000,
            max_sessions: 64,
            queue_depth: 32,
            workers: 0,
            session_budget_ms: 0,
        }
    }
}

/// One rung of the degradation ladder, chosen purely from the session's
/// consumed wall-clock against its budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// Below 50% of budget: full service.
    Full,
    /// ≥ 50%: estimation repeats shrink to 1 — cheaper rounds, same
    /// determinism (repeats are part of the recorded run, not replayed).
    ShrinkRepeats,
    /// ≥ 80%: serve the last-trusted curves from the checkpoint without
    /// running the advance.
    ServeStale,
    /// ≥ 100%: reject with `Retry-After`.
    Reject,
}

/// The ladder as a pure function, so it can be tested exhaustively.
/// `budget_ms == 0` disables the ladder (always [`Rung::Full`]).
pub fn ladder_rung(spent_ms: u64, budget_ms: u64) -> Rung {
    if budget_ms == 0 {
        return Rung::Full;
    }
    // u128 products: the comparisons stay exact over the whole u64 range.
    let (spent, budget) = (u128::from(spent_ms), u128::from(budget_ms));
    if spent >= budget {
        Rung::Reject
    } else if spent * 5 >= budget * 4 {
        Rung::ServeStale
    } else if spent * 2 >= budget {
        Rung::ShrinkRepeats
    } else {
        Rung::Full
    }
}

/// What graceful shutdown accomplished, returned by [`ServerHandle::wait`].
#[derive(Debug, Clone, Copy)]
pub struct DrainReport {
    /// Orphaned `*.tmp` checkpoint files swept at startup.
    pub swept_at_start: usize,
    /// Orphans swept during the final shutdown pass (0 in a healthy run).
    pub swept_at_shutdown: usize,
    /// Connections still in the queue when drain began, all of which
    /// were served before exit.
    pub drained_jobs: usize,
}

struct Job {
    stream: TcpStream,
    ordinal: u64,
    enqueued: Instant,
}

/// The bounded pending-connection queue: admission control happens at
/// `push` (the acceptor rejects past the high-water mark), dispatch at
/// `pop` (workers block on the condvar until work or drain).
struct Gate {
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
}

impl Gate {
    fn push(&self, job: Job, depth: usize) -> Result<(), Job> {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() >= depth {
            return Err(job);
        }
        q.push_back(job);
        drop(q);
        self.cv.notify_one();
        Ok(())
    }

    fn pop(&self, draining: &AtomicBool) -> Option<Job> {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = q.pop_front() {
                return Some(job);
            }
            if draining.load(Ordering::SeqCst) {
                return None;
            }
            q = self
                .cv
                .wait_timeout(q, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    fn len(&self) -> usize {
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

struct Shared {
    cfg: ServerConfig,
    sessions: Mutex<HashMap<u64, Arc<Mutex<Session>>>>,
    next_id: AtomicU64,
    /// Accepted-connection counter; ordinals for `conn_drop@<req>`.
    requests: AtomicU64,
    ready: AtomicBool,
    draining: AtomicBool,
    gate: Gate,
    /// Estimator threads each session advance may use, from the shared
    /// thread budget.
    estimator_threads: usize,
    drained_jobs: AtomicUsize,
}

impl Shared {
    fn begin_shutdown(&self) {
        // Readiness flips before anything else (load balancers stop
        // routing), then the drain flag wakes every worker.
        self.ready.store(false, Ordering::SeqCst);
        self.drained_jobs.store(self.gate.len(), Ordering::SeqCst);
        self.draining.store(true, Ordering::SeqCst);
        self.gate.cv.notify_all();
    }
}

/// A running server. Dropping the handle does *not* stop the server;
/// call [`ServerHandle::shutdown`] or `POST /shutdown`, then
/// [`ServerHandle::wait`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
    swept_at_start: usize,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// In-process equivalent of `POST /shutdown`.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Joins the acceptor and workers after a drain, performing the
    /// final orphan sweep.
    pub fn wait(self) -> DrainReport {
        for t in self.threads {
            let _ = t.join();
        }
        let swept_at_shutdown = clean_orphan_temps(&self.shared.cfg.dir).unwrap_or(0);
        DrainReport {
            swept_at_start: self.swept_at_start,
            swept_at_shutdown,
            drained_jobs: self.shared.drained_jobs.load(Ordering::SeqCst),
        }
    }

    /// Test/ops hook: charge wall-clock against a session's budget, as
    /// if its advances had consumed it. Drives the degradation ladder
    /// deterministically in tests.
    pub fn charge_session_ms(&self, id: u64, ms: u64) -> bool {
        let session = {
            let sessions = self
                .shared
                .sessions
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            sessions.get(&id).cloned()
        };
        match session {
            Some(s) => {
                s.lock().unwrap_or_else(|e| e.into_inner()).spent_ms += ms;
                true
            }
            None => false,
        }
    }
}

/// Binds, sweeps orphaned checkpoint temps, and spawns the supervisor:
/// one acceptor plus a worker pool sized by the shared thread budget.
pub fn start(cfg: ServerConfig) -> Result<ServerHandle, String> {
    std::fs::create_dir_all(&cfg.dir).map_err(|e| format!("creating '{}': {e}", cfg.dir))?;
    let swept_at_start = clean_orphan_temps(&cfg.dir).map_err(|e| e.to_string())?;

    let listener =
        TcpListener::bind(&cfg.addr).map_err(|e| format!("binding '{}': {e}", cfg.addr))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("nonblocking accept: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;

    let total_workers = if cfg.workers == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        cfg.workers
    };
    let budget = plan_thread_budget(total_workers, cfg.max_sessions.max(1), false);

    let shared = Arc::new(Shared {
        sessions: Mutex::new(HashMap::new()),
        next_id: AtomicU64::new(0),
        requests: AtomicU64::new(0),
        ready: AtomicBool::new(true),
        draining: AtomicBool::new(false),
        gate: Gate {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
        },
        estimator_threads: budget.estimator_threads,
        drained_jobs: AtomicUsize::new(0),
        cfg,
    });

    let mut threads = Vec::new();
    for _ in 0..budget.trial_workers {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || worker_loop(&shared)));
    }
    {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || accept_loop(&shared, listener)));
    }

    Ok(ServerHandle {
        addr,
        shared,
        threads,
        swept_at_start,
    })
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let ordinal = shared.requests.fetch_add(1, Ordering::SeqCst) + 1;
                let job = Job {
                    stream,
                    ordinal,
                    enqueued: Instant::now(),
                };
                if let Err(mut rejected) = shared.gate.push(job, shared.cfg.queue_depth) {
                    // Past the high-water mark: immediate backpressure
                    // with a backoff hint, never an unbounded queue.
                    let resp = Response::error(
                        429,
                        "backpressure",
                        "pending queue is at its high-water mark; retry with backoff",
                    )
                    .with_retry_after(1);
                    let _ = write_response(&mut rejected.stream, &resp);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.gate.pop(&shared.draining) {
        handle_connection(shared, job);
    }
}

fn handle_connection(shared: &Arc<Shared>, job: Job) {
    let mut stream = job.stream;
    let deadline = Duration::from_millis(shared.cfg.deadline_ms);
    // A job that already overstayed the deadline in the queue is shed:
    // serving it would blow the client's own timeout anyway.
    if job.enqueued.elapsed() > deadline {
        let resp = Response::error(
            503,
            "queue_deadline",
            "request waited out its deadline in the queue",
        )
        .with_retry_after(1);
        let _ = write_response(&mut stream, &resp);
        return;
    }
    let resp = match read_request(&mut stream, deadline) {
        Ok(req) => route(shared, &req),
        Err(e) => Response::error(e.status(), e.code(), &e.to_string()),
    };
    // Service-level chaos: drop the connection AFTER the work (and its
    // checkpoint write) but BEFORE the response — the harshest spot for
    // a crash-only server, and exactly where idempotent retries heal.
    if fault::conn_drop(job.ordinal) {
        return;
    }
    let _ = write_response(&mut stream, &resp);
}

fn route(shared: &Arc<Shared>, req: &Request) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Response::json(200, "{\"live\":true}".to_string()),
        ("GET", ["readyz"]) => {
            if shared.ready.load(Ordering::SeqCst) {
                Response::json(200, "{\"ready\":true}".to_string())
            } else {
                Response::error(503, "draining", "server is draining").with_retry_after(1)
            }
        }
        ("GET", ["stats"]) => {
            let sessions = shared
                .sessions
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .len();
            Response::json(
                200,
                Value::Obj(vec![
                    ("sessions".to_string(), Value::from_u64(sessions as u64)),
                    (
                        "queued".to_string(),
                        Value::from_u64(shared.gate.len() as u64),
                    ),
                    (
                        "requests".to_string(),
                        Value::from_u64(shared.requests.load(Ordering::SeqCst)),
                    ),
                ])
                .to_json(),
            )
        }
        ("POST", ["shutdown"]) => {
            shared.begin_shutdown();
            Response::json(202, "{\"draining\":true}".to_string())
        }
        ("POST", ["sessions"]) => register(shared, &req.body),
        ("POST", ["sessions", id, "data"]) => {
            with_session(shared, id, |s| match s.upload_csv(&req.body) {
                Ok(n) => Response::json(200, format!("{{\"id\":{},\"examples\":{n}}}", s.id)),
                Err(e) => Response::error(409, "upload_rejected", &e),
            })
        }
        ("POST", ["sessions", id, "advance"]) => advance(shared, id, &req.body),
        ("GET", ["sessions", id]) => {
            with_session(shared, id, |s| Response::json(200, s.state_json(false)))
        }
        ("GET", ["sessions", id, "curves"]) => {
            with_session(shared, id, |s| match s.curves_json() {
                Ok(body) => Response::json(200, body),
                Err(e) => Response::error(409, "no_curves", &e),
            })
        }
        ("GET", ["sessions", id, "allocation"]) => {
            with_session(shared, id, |s| match s.allocation_json() {
                Ok(body) => Response::json(200, body),
                Err(e) => Response::error(409, "no_allocation", &e),
            })
        }
        _ => Response::error(404, "not_found", &format!("{} {}", req.method, req.path)),
    }
}

fn register(shared: &Arc<Shared>, body: &str) -> Response {
    if shared.draining.load(Ordering::SeqCst) {
        return Response::error(503, "draining", "server is draining").with_retry_after(1);
    }
    let spec = match SessionSpec::parse(body) {
        Ok(spec) => spec,
        Err(e) => return Response::error(400, "bad_register", &e),
    };
    let mut sessions = shared.sessions.lock().unwrap_or_else(|e| e.into_inner());
    if sessions.len() >= shared.cfg.max_sessions {
        return Response::error(
            429,
            "session_capacity",
            &format!("at the {}-session admission cap", shared.cfg.max_sessions),
        )
        .with_retry_after(5);
    }
    let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    let session = match Session::new(id, spec, &shared.cfg.dir) {
        Ok(s) => s,
        Err(e) => return Response::error(400, "bad_register", &e),
    };
    let body = session.state_json(false);
    sessions.insert(id, Arc::new(Mutex::new(session)));
    Response::json(201, body)
}

/// Looks up a session and runs `f` under its lock (one advance at a
/// time per session; concurrent requests for the same session serialize
/// here, which is what makes retried advances idempotent).
fn with_session(
    shared: &Arc<Shared>,
    id: &str,
    f: impl FnOnce(&mut Session) -> Response,
) -> Response {
    let Ok(id) = id.parse::<u64>() else {
        return Response::error(400, "bad_session_id", "session ids are integers");
    };
    let session = {
        let sessions = shared.sessions.lock().unwrap_or_else(|e| e.into_inner());
        sessions.get(&id).cloned()
    };
    match session {
        Some(s) => {
            let mut guard = s.lock().unwrap_or_else(|e| e.into_inner());
            f(&mut guard)
        }
        None => Response::error(404, "unknown_session", &format!("no session {id}")),
    }
}

fn advance(shared: &Arc<Shared>, id: &str, body: &str) -> Response {
    let budget_ms = shared.cfg.session_budget_ms;
    let threads = shared.estimator_threads;
    // Optional body: {"to_round": k}. An empty body advances one round.
    let to_round = if body.trim().is_empty() {
        None
    } else {
        match serde::json::parse(body) {
            Ok(v) => v.get("to_round").and_then(Value::as_u64),
            Err(e) => return Response::error(400, "bad_advance", &format!("bad JSON: {e}")),
        }
    };
    with_session(shared, id, |s| {
        let target = to_round.unwrap_or(s.rounds + 1).clamp(1, s.spec.max_rounds);
        // Idempotency: a retried (or duplicate) advance for a round the
        // checkpoint already covers serves the durable state untouched.
        if s.rounds >= target || s.complete {
            return Response::json(200, s.state_json(false));
        }
        let repeats = match ladder_rung(s.spent_ms, budget_ms) {
            Rung::Reject => {
                return Response::error(
                    429,
                    "session_budget_exhausted",
                    "the session's wall-clock budget is spent",
                )
                .with_retry_after(30);
            }
            Rung::ServeStale => return Response::json(200, s.state_json(true)),
            Rung::ShrinkRepeats => 1,
            Rung::Full => s.spec.repeats,
        };
        let t0 = Instant::now();
        let outcome = s.advance(target, repeats, threads);
        s.spent_ms += t0.elapsed().as_millis() as u64;
        match outcome {
            Ok(()) => Response::json(200, s.state_json(false)),
            Err(AdvanceError::Panicked(msg)) => Response::error(
                500,
                "session_panicked",
                &format!("worker panicked ({msg}); session is degraded but resumable — retry"),
            )
            .with_retry_after(1),
            Err(AdvanceError::Engine(msg)) => Response::error(500, "engine_error", &msg),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_rungs_cover_the_budget_range() {
        // Disabled ladder: always full service.
        assert_eq!(ladder_rung(u64::MAX, 0), Rung::Full);
        // The documented thresholds, exactly at and around the edges.
        assert_eq!(ladder_rung(0, 1000), Rung::Full);
        assert_eq!(ladder_rung(499, 1000), Rung::Full);
        assert_eq!(ladder_rung(500, 1000), Rung::ShrinkRepeats);
        assert_eq!(ladder_rung(799, 1000), Rung::ShrinkRepeats);
        assert_eq!(ladder_rung(800, 1000), Rung::ServeStale);
        assert_eq!(ladder_rung(999, 1000), Rung::ServeStale);
        assert_eq!(ladder_rung(1000, 1000), Rung::Reject);
        assert_eq!(ladder_rung(u64::MAX, 1), Rung::Reject);
        // No overflow near the top of the range (u64::MAX is odd, so
        // MAX/2 floors to just *below* the 50% threshold).
        assert_eq!(ladder_rung(u64::MAX / 2, u64::MAX), Rung::Full);
        assert_eq!(ladder_rung(u64::MAX / 2 + 1, u64::MAX), Rung::ShrinkRepeats);
    }

    #[test]
    fn gate_rejects_past_the_high_water_mark() {
        let gate = Gate {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut streams = Vec::new();
        for ordinal in 1..=3u64 {
            let client = TcpStream::connect(addr).expect("connect");
            let (stream, _) = listener.accept().expect("accept");
            streams.push(client);
            let job = Job {
                stream,
                ordinal,
                enqueued: Instant::now(),
            };
            let result = gate.push(job, 2);
            if ordinal <= 2 {
                assert!(result.is_ok(), "below high-water admits");
            } else {
                assert!(result.is_err(), "past high-water rejects");
            }
        }
        assert_eq!(gate.len(), 2);
        // Draining pops the remaining jobs, then yields None.
        let draining = AtomicBool::new(true);
        assert!(gate.pop(&draining).is_some());
        assert!(gate.pop(&draining).is_some());
        assert!(gate.pop(&draining).is_none());
    }
}
