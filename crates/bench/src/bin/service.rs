//! Service-level chaos gate: an in-process `st_server` under a combined
//! `ST_FAULT` plan — dropped connections, slow-loris clients, and
//! session-worker panics — driven by N concurrent clients that each
//! register a session and advance it through R acquisition rounds.
//!
//! The gate asserts the crash-only contract end to end:
//!
//! * **zero lost sessions** — every session reaches the rounds its
//!   uninterrupted reference (below) reaches, despite drops and panics
//!   (clients heal by blind idempotent retry);
//! * **zero corrupt sessions** — every checkpoint on disk parses, and no
//!   orphaned `*.tmp` files survive the drain;
//! * **bit-identical resume** — each served session's final checkpoint
//!   document equals, byte for byte, a reference session advanced
//!   uninterrupted in-process with the same seed;
//! * **bounded p99** — a sanity bound on request latency (wall-clock
//!   numbers are reported, the deterministic gates above are the teeth).
//!
//! Emits machine-readable `BENCH_service.json`, which the CI service gate
//! greps for its verdicts and the CI archive step uploads.
//!
//! ```text
//! cargo run --release -p st_bench --bin service
//! ```
//!
//! Knobs:
//!
//! - `ST_QUICK=1` — fewer sessions/rounds and shorter trainings;
//! - `ST_FAULT=<plan>` — overrides the built-in chaos plan (specs that
//!   target request ordinals 1..=N hit the registration phase, which is
//!   intentionally not retried — prefer ordinals past the session count);
//! - `ST_SERVICE_JSON` — output path (default `BENCH_service.json`).

use st_bench::{quick, rule};
use st_linalg::fault;
use st_server::{Client, ServerConfig, Session, SessionSpec};
use std::fmt::Write as _;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const SEED_BASE: u64 = 40;
/// The built-in combined plan: two response drops (ordinals past the
/// registration phase), one slow-loris request, and two session-worker
/// panics on different sessions/rounds.
const FAULTS: &str =
    "conn_drop@5,conn_drop@8,slow_client@5:ms300,session_panic@0:round1,session_panic@1:round2";

fn sessions() -> usize {
    if quick() {
        3
    } else {
        4
    }
}

fn rounds() -> u64 {
    if quick() {
        2
    } else {
        3
    }
}

fn epochs() -> usize {
    if quick() {
        8
    } else {
        12
    }
}

fn register_body(seed: u64) -> String {
    format!(
        "{{\"family\":\"census\",\"seed\":{seed},\"budget\":300,\"sizes\":[80,20,60,25],\
         \"validation\":60,\"epochs\":{},\"max_rounds\":{}}}",
        epochs(),
        rounds()
    )
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let kernel = st_linalg::kernel_kind();
    let n = sessions();
    let r = rounds();

    // `ST_FAULT` wins when set (the CI chaos leg sets one; unknown specs
    // warn and the rest applies); the built-in combined plan covers local
    // runs.
    let plan_text = std::env::var("ST_FAULT").unwrap_or_else(|_| FAULTS.to_string());
    let (plan, errors) = fault::parse_plan_lenient(&plan_text);
    for e in errors {
        eprintln!("warning: {e}");
    }
    fault::install(plan);

    println!(
        "service gate: {n} concurrent sessions x {r} rounds under ST_FAULT={plan_text}, kernel {} {}",
        kernel.name(),
        if quick() { "(quick)" } else { "" }
    );
    rule(72);

    let dir = std::env::temp_dir().join("st_bench_service");
    let _ = std::fs::remove_dir_all(&dir);
    let dir = dir.display().to_string();

    let mut cfg = ServerConfig::new(&dir);
    cfg.deadline_ms = 60_000;
    cfg.max_sessions = n + 2;
    cfg.queue_depth = 16;
    let handle = st_server::start(cfg).unwrap_or_else(|e| panic!("starting server: {e}"));
    let addr = handle.addr();

    // One send-ordinal counter for the whole fleet so `slow_client@<req>`
    // addresses a deterministic point in the combined request stream.
    let counter = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();

    // Register sequentially so session ids map to seeds deterministically
    // (id i <-> SEED_BASE + i) — the bit-identity gate depends on it.
    let register_client = Client::new(addr).with_counter(Arc::clone(&counter));
    for i in 0..n {
        let resp = register_client
            .request("POST", "/sessions", &register_body(SEED_BASE + i as u64))
            .unwrap_or_else(|e| panic!("registering session {i}: {e}"));
        assert_eq!(resp.status, 201, "register {i}: {}", resp.body);
    }

    // N concurrent clients, one per session, advancing round by round.
    let latencies: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let mut threads = Vec::new();
    for i in 0..n {
        let counter = Arc::clone(&counter);
        let latencies = Arc::clone(&latencies);
        threads.push(std::thread::spawn(move || {
            let client = Client::new(addr).with_counter(counter);
            for round in 1..=r {
                let path = format!("/sessions/{i}/advance");
                let body = format!("{{\"to_round\":{round}}}");
                let t = Instant::now();
                let resp = client
                    .request("POST", &path, &body)
                    .unwrap_or_else(|e| panic!("session {i} round {round}: {e}"));
                latencies
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(t.elapsed().as_secs_f64() * 1e3);
                assert_eq!(resp.status, 200, "session {i} round {round}: {}", resp.body);
            }
            // The curve zoo and allocation must be servable post-run.
            for tail in ["/curves", "/allocation"] {
                let resp = client
                    .request("GET", &format!("/sessions/{i}{tail}"), "")
                    .unwrap_or_else(|e| panic!("session {i} {tail}: {e}"));
                assert_eq!(resp.status, 200, "session {i} {tail}: {}", resp.body);
            }
        }));
    }
    for t in threads {
        t.join().expect("client thread");
    }

    // Graceful drain, then the durable-state gates.
    let resp = register_client
        .request("POST", "/shutdown", "")
        .unwrap_or_else(|e| panic!("shutdown: {e}"));
    assert_eq!(resp.status, 202, "shutdown: {}", resp.body);
    let report = handle.wait();
    let total_secs = t0.elapsed().as_secs_f64();

    let mut lost = 0usize;
    let mut corrupt = 0usize;
    let mut identical = 0usize;
    for i in 0..n {
        // Reference: the same session advanced uninterrupted in-process.
        // Ids are offset past the fault plan's targets so no service
        // fault fires; the engine-visible inputs (seed, spec) match.
        let spec = SessionSpec::parse(&register_body(SEED_BASE + i as u64))
            .unwrap_or_else(|e| panic!("reference spec: {e}"));
        let mut reference = Session::new(1000 + i as u64, spec, &dir)
            .unwrap_or_else(|e| panic!("reference session: {e}"));
        for round in 1..=r {
            reference
                .advance(round, 1, 1)
                .unwrap_or_else(|e| panic!("reference session {i} round {round}: {e:?}"));
        }
        let want = std::fs::read_to_string(&reference.checkpoint_path)
            .unwrap_or_else(|e| panic!("reference checkpoint: {e}"));

        let path = format!("{dir}/session-{i}.json");
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => {
                lost += 1;
                continue;
            }
        };
        let cp = match slice_tuner::checkpoint::RoundCheckpoint::parse(&text, &path) {
            Ok(cp) => cp,
            Err(e) => {
                eprintln!("session {i}: corrupt checkpoint: {e}");
                corrupt += 1;
                continue;
            }
        };
        if cp.iterations < reference.rounds {
            eprintln!(
                "session {i}: only {} of its reference's {} rounds",
                cp.iterations, reference.rounds
            );
            lost += 1;
            continue;
        }
        if text == want {
            identical += 1;
        } else {
            eprintln!("session {i}: served checkpoint != uninterrupted reference");
        }
    }
    let temps = std::fs::read_dir(&dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
                .count()
        })
        .unwrap_or(0);

    let mut lat: Vec<f64> = latencies.lock().unwrap_or_else(|e| e.into_inner()).clone();
    lat.sort_by(|a, b| a.total_cmp(b));
    let p50 = percentile(&lat, 0.50);
    let p99 = percentile(&lat, 0.99);
    let sessions_per_sec = n as f64 / total_secs;

    println!("{:<32} {:>10}", "sessions", n);
    println!("{:<32} {:>10}", "rounds per session", r);
    println!("{:<32} {:>10}", "advance requests measured", lat.len());
    println!("{:<32} {:>10}", "lost sessions", lost);
    println!("{:<32} {:>10}", "corrupt sessions", corrupt);
    println!("{:<32} {:>10}", "bit-identical to reference", identical);
    println!("{:<32} {:>10}", "orphan temps after drain", temps);
    println!("{:<32} {:>10}", "queued jobs drained", report.drained_jobs);
    println!("{:<32} {:>10.2}", "sessions/sec", sessions_per_sec);
    println!("{:<32} {:>10.1}", "p50 advance ms", p50);
    println!("{:<32} {:>10.1}", "p99 advance ms", p99);

    // ---- JSON emission ---------------------------------------------------
    let path =
        std::env::var("ST_SERVICE_JSON").unwrap_or_else(|_| "BENCH_service.json".to_string());
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"service\",");
    let _ = writeln!(json, "  \"schema_version\": 1,");
    let _ = writeln!(json, "  \"kernel\": \"{}\",", kernel.name());
    let _ = writeln!(json, "  \"quick\": {},", quick());
    let _ = writeln!(json, "  \"family\": \"census\",");
    let _ = writeln!(json, "  \"sessions\": {n},");
    let _ = writeln!(json, "  \"rounds\": {r},");
    let _ = writeln!(json, "  \"faults\": \"{plan_text}\",");
    let _ = writeln!(json, "  \"lost_sessions\": {lost},");
    let _ = writeln!(json, "  \"corrupt_sessions\": {corrupt},");
    let _ = writeln!(json, "  \"bit_identical\": {},", identical == n);
    let _ = writeln!(json, "  \"orphan_temps\": {temps},");
    let _ = writeln!(json, "  \"sessions_per_sec\": {sessions_per_sec:.4},");
    let _ = writeln!(json, "  \"p50_ms\": {p50:.2},");
    let _ = writeln!(json, "  \"p99_ms\": {p99:.2},");
    let _ = writeln!(json, "  \"gate_enforced\": true");
    let _ = writeln!(json, "}}");
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("\nwrote {path}");

    // ---- Gates -----------------------------------------------------------
    assert_eq!(lost, 0, "every session must reach its reference's rounds");
    assert_eq!(corrupt, 0, "every checkpoint on disk must parse");
    assert_eq!(
        identical, n,
        "every served session must be bit-identical to its uninterrupted reference"
    );
    assert_eq!(temps, 0, "the drain must leave no orphaned *.tmp files");
    assert!(
        p99.is_finite() && p99 < 120_000.0,
        "p99 advance latency must stay bounded, got {p99:.1} ms"
    );
    println!("gates passed: 0 lost, 0 corrupt, {n}/{n} bit-identical, clean checkpoint dir");
}
