//! Integration: the crash-only serving layer (`st_server`) end to end
//! over real TCP.
//!
//! Covers the full session lifecycle (register → advance → status /
//! curves / allocation → shutdown), the crash-only healing paths
//! (dropped responses and worker panics heal through blind idempotent
//! retry, bit-identically to an uninterrupted in-process run), the
//! degradation ladder (full → serve-stale → reject as a session's
//! wall-clock budget drains), admission control past the queue's
//! high-water mark, and the graceful drain leaving a clean checkpoint
//! directory.
//!
//! Fault plans are process-global, so every test holds one serial lock
//! and clears the plan on drop, exactly like the chaos suite.

use st_server::{Client, ServerConfig, ServerHandle, Session, SessionSpec};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

struct FaultGuard {
    _serial: MutexGuard<'static, ()>,
}

impl FaultGuard {
    fn clean() -> Self {
        let guard = FaultGuard { _serial: serial() };
        st_linalg::fault::install(None);
        guard
    }

    fn install(spec: &str) -> Self {
        let guard = FaultGuard { _serial: serial() };
        st_linalg::fault::install(Some(
            st_linalg::fault::parse_plan(spec).expect("valid fault plan"),
        ));
        guard
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        st_linalg::fault::install(None);
    }
}

/// A fresh checkpoint directory under the system temp dir.
fn temp_dir(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("st_server_tests_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir.display().to_string()
}

/// A small census session: 4 imbalanced slices, 2 rounds max, quick
/// trainings. Identical body on every call so reference sessions can
/// re-parse it.
const SPEC_BODY: &str = r#"{"family":"census","seed":11,"budget":300,"sizes":[80,20,60,25],"validation":60,"epochs":8,"max_rounds":2}"#;

fn start(tag: &str, tweak: impl FnOnce(&mut ServerConfig)) -> (ServerHandle, String) {
    let dir = temp_dir(tag);
    let mut cfg = ServerConfig::new(&dir);
    cfg.deadline_ms = 30_000;
    tweak(&mut cfg);
    let handle = st_server::start(cfg).expect("server starts");
    (handle, dir)
}

/// One raw HTTP/1.1 exchange with no retries — for asserting the exact
/// first response (the [`Client`] deliberately heals 5xx/429/408).
/// Returns the status code and the full response text (head + body).
fn raw_request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {text:?}"));
    (status, text)
}

fn no_orphan_temps(dir: &str) -> bool {
    std::fs::read_dir(dir)
        .map(|entries| {
            !entries
                .flatten()
                .any(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
        })
        .unwrap_or(false)
}

/// The whole lifecycle over real TCP: health, registration, advancing
/// (including the idempotent duplicate), the curve zoo, the allocation,
/// error statuses for bad input, and a graceful drain that leaves the
/// durable state on disk with no temp litter.
#[test]
fn lifecycle_round_trip_over_http() {
    let _guard = FaultGuard::clean();
    let (handle, dir) = start("lifecycle", |_| {});
    let addr = handle.addr();

    let (status, text) = raw_request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{text}");
    let (status, _) = raw_request(addr, "GET", "/readyz", "");
    assert_eq!(status, 200);

    let (status, text) = raw_request(addr, "POST", "/sessions", SPEC_BODY);
    assert_eq!(status, 201, "{text}");
    assert!(text.contains("\"id\":0"), "{text}");

    let (status, text) = raw_request(addr, "GET", "/sessions/0", "");
    assert_eq!(status, 200);
    assert!(text.contains("\"rounds\":0,"), "{text}");

    let (status, text) = raw_request(addr, "POST", "/sessions/0/advance", "{\"to_round\":1}");
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("\"rounds\":1,"), "{text}");

    // A duplicate advance for a round the checkpoint already covers is
    // served from durable state, untouched.
    let before = std::fs::read_to_string(format!("{dir}/session-0.json")).expect("checkpoint");
    let (status, text) = raw_request(addr, "POST", "/sessions/0/advance", "{\"to_round\":1}");
    assert_eq!(status, 200);
    assert!(text.contains("\"rounds\":1,"), "{text}");
    let after = std::fs::read_to_string(format!("{dir}/session-0.json")).expect("checkpoint");
    assert_eq!(
        before, after,
        "an idempotent advance must not rewrite state"
    );

    let (status, text) = raw_request(addr, "GET", "/sessions/0/curves", "");
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("b_bits"), "{text}");
    let (status, text) = raw_request(addr, "GET", "/sessions/0/allocation", "");
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("\"allocation\""), "{text}");
    assert!(text.contains("\"counts\""), "{text}");

    let (status, _) = raw_request(addr, "GET", "/sessions/9", "");
    assert_eq!(status, 404);
    let (status, _) = raw_request(addr, "POST", "/sessions", "{\"family\":\"nope\"}");
    assert_eq!(status, 400);
    let body = "{\"family\":\"census\",\"validation\":0}";
    let (status, text) = raw_request(addr, "POST", "/sessions", body);
    assert_eq!(status, 400, "{text}");
    assert!(text.contains("bad_register"), "{text}");
    let (status, text) = raw_request(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    assert!(text.contains("\"sessions\":1"), "{text}");

    let (status, _) = raw_request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 202);
    let report = handle.wait();
    assert_eq!(
        report.swept_at_shutdown, 0,
        "a healthy drain sweeps nothing"
    );
    assert!(
        std::fs::metadata(format!("{dir}/session-0.json")).is_ok(),
        "the session's durable state survives the drain"
    );
    assert!(no_orphan_temps(&dir), "no *.tmp litter after the drain");
}

/// `conn_drop@2` severs the advance's response *after* the round is
/// durably checkpointed. The client sees EOF, blindly retries, and the
/// idempotent advance serves the already-computed state — byte-identical
/// on disk to a session advanced with no fault at all.
#[test]
fn dropped_response_heals_by_idempotent_retry_bit_identically() {
    let _guard = FaultGuard::install("conn_drop@2");
    let (handle, dir) = start("conn_drop", |_| {});
    let client = Client::new(handle.addr());

    let resp = client
        .request("POST", "/sessions", SPEC_BODY)
        .expect("register");
    assert_eq!(resp.status, 201, "{}", resp.body);
    let resp = client
        .request("POST", "/sessions/0/advance", "{\"to_round\":1}")
        .expect("advance heals through retry");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"rounds\":1,"), "{}", resp.body);

    // Reference: the same spec advanced uninterrupted in-process (the
    // id offset dodges the fault plan; the engine inputs match).
    let spec = SessionSpec::parse(SPEC_BODY).expect("spec");
    let mut reference = Session::new(100, spec, &dir).expect("reference session");
    reference.advance(1, 1, 1).expect("reference advance");
    let served = std::fs::read_to_string(format!("{dir}/session-0.json")).expect("served");
    let want = std::fs::read_to_string(&reference.checkpoint_path).expect("reference");
    assert_eq!(served, want, "healed session diverged from the clean run");

    handle.shutdown();
    handle.wait();
}

/// `session_panic@0:round1` shoots the worker mid-advance on its first
/// attempt. The panic is caught, the session answers `500` with a
/// retry hint and is marked degraded, and the retried advance resumes
/// from the checkpoint to a state bit-identical to the clean run —
/// recovery is the normal code path.
#[test]
fn session_panic_degrades_then_resumes_bit_identically() {
    let _guard = FaultGuard::install("session_panic@0:round1");
    let (handle, dir) = start("panic", |_| {});
    let addr = handle.addr();

    let (status, text) = raw_request(addr, "POST", "/sessions", SPEC_BODY);
    assert_eq!(status, 201, "{text}");

    // First attempt: the injected panic surfaces as a structured 500.
    let (status, text) = raw_request(addr, "POST", "/sessions/0/advance", "{\"to_round\":1}");
    assert_eq!(status, 500, "{text}");
    assert!(text.contains("session_panicked"), "{text}");
    assert!(text.contains("Retry-After"), "{text}");

    // The session is degraded but resumable.
    let (status, text) = raw_request(addr, "GET", "/sessions/0", "");
    assert_eq!(status, 200);
    assert!(text.contains("\"degraded\":true"), "{text}");

    // The blind retry succeeds (the fault fires on attempt 0 only).
    let (status, text) = raw_request(addr, "POST", "/sessions/0/advance", "{\"to_round\":1}");
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("\"rounds\":1,"), "{text}");

    let spec = SessionSpec::parse(SPEC_BODY).expect("spec");
    let mut reference = Session::new(100, spec, &dir).expect("reference session");
    reference.advance(1, 1, 1).expect("reference advance");
    let served = std::fs::read_to_string(format!("{dir}/session-0.json")).expect("served");
    let want = std::fs::read_to_string(&reference.checkpoint_path).expect("reference");
    assert_eq!(served, want, "resumed session diverged from the clean run");

    handle.shutdown();
    handle.wait();
}

/// The degradation ladder across a session's wall-clock budget: full
/// service below 50%, last-trusted state without running past 80%
/// (`"stale":true`, rounds unchanged), rejection with a backoff hint at
/// 100%. Driven deterministically through the charge hook.
#[test]
fn ladder_serves_stale_then_rejects_as_the_budget_drains() {
    let _guard = FaultGuard::clean();
    let (handle, _dir) = start("ladder", |cfg| {
        cfg.session_budget_ms = 600_000;
    });
    let addr = handle.addr();

    let (status, text) = raw_request(addr, "POST", "/sessions", SPEC_BODY);
    assert_eq!(status, 201, "{text}");
    let (status, text) = raw_request(addr, "POST", "/sessions/0/advance", "{\"to_round\":1}");
    assert_eq!(status, 200, "{text}");
    assert!(
        !text.contains("\"stale\""),
        "full service below 50%: {text}"
    );

    // Past 80%: the advance serves the last-trusted state untouched.
    assert!(handle.charge_session_ms(0, 500_000));
    let (status, text) = raw_request(addr, "POST", "/sessions/0/advance", "{\"to_round\":2}");
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("\"stale\":true"), "{text}");
    assert!(
        text.contains("\"rounds\":1,"),
        "stale serving must not run: {text}"
    );

    // At 100%: rejected with a backoff hint.
    assert!(handle.charge_session_ms(0, 200_000));
    let (status, text) = raw_request(addr, "POST", "/sessions/0/advance", "{\"to_round\":2}");
    assert_eq!(status, 429, "{text}");
    assert!(text.contains("session_budget_exhausted"), "{text}");
    assert!(text.contains("Retry-After"), "{text}");

    handle.shutdown();
    handle.wait();
}

/// Admission control: with one worker wedged on a stalled connection and
/// the depth-1 queue full, the acceptor sheds the next connection with
/// an immediate `429` + backoff hint instead of queueing unboundedly.
#[test]
fn backpressure_sheds_past_the_high_water_mark() {
    let _guard = FaultGuard::clean();
    let (handle, _dir) = start("backpressure", |cfg| {
        cfg.workers = 1;
        cfg.queue_depth = 1;
        cfg.deadline_ms = 400;
    });
    let addr = handle.addr();

    // Wedge the single worker: a silent connection holds it until the
    // read deadline sheds it with 408.
    let _wedge = TcpStream::connect(addr).expect("wedge connect");
    std::thread::sleep(Duration::from_millis(100));
    // Fill the queue behind it.
    let _queued = TcpStream::connect(addr).expect("queued connect");
    std::thread::sleep(Duration::from_millis(100));

    // Past the high-water mark: immediate backpressure.
    let mut shed = TcpStream::connect(addr).expect("shed connect");
    shed.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut text = String::new();
    shed.read_to_string(&mut text).expect("read 429");
    assert!(text.starts_with("HTTP/1.1 429"), "{text}");
    assert!(text.contains("backpressure"), "{text}");
    assert!(text.contains("Retry-After"), "{text}");

    handle.shutdown();
    handle.wait();
}

/// `slow_client@1:ms200` trickles the first request's bytes over 200 ms;
/// a server deadline comfortably above that still serves it (the read
/// loop consumes a slow but live client), while the per-read deadline
/// keeps a true slow-loris bounded (covered by the http unit tests).
#[test]
fn slow_client_trickle_is_served_within_deadline() {
    let _guard = FaultGuard::install("slow_client@1:ms200");
    let (handle, _dir) = start("slow", |cfg| {
        cfg.deadline_ms = 5_000;
    });
    let client = Client::new(handle.addr());
    let resp = client.request("GET", "/healthz", "").expect("healthz");
    assert_eq!(resp.status, 200, "{}", resp.body);

    handle.shutdown();
    handle.wait();
}
