//! Perf-trend reporter: folds the machine-readable bench artifacts of the
//! current build — `BENCH_pipeline.json` (per-phase timings + data-plane /
//! prepacked / incremental / guards gate readings) and, when present,
//! `BENCH_kernels.json` (kernel-gate speedups + the batched-vs-looped
//! small-shape group), `BENCH_drift.json` (drift-robustness gate
//! ratios), and `BENCH_service.json` (service-level chaos gate
//! throughput/latency) — into an append-only `BENCH_trend.json` keyed
//! by commit, so the perf trajectory across commits lives in one artifact
//! (schema in `docs/profiling.md`).
//!
//! ```text
//! cargo run --release -p st_bench --bin pipeline   # writes BENCH_pipeline.json
//! cargo run --release -p st_bench --bin trend      # appends to BENCH_trend.json
//! ```
//!
//! Knobs:
//!
//! - `ST_BENCH_JSON` — pipeline artifact to read (default
//!   `BENCH_pipeline.json`);
//! - `ST_KERNELS_JSON` — kernels artifact to read (default
//!   `BENCH_kernels.json`; skipped silently when absent);
//! - `ST_DRIFT_JSON` — drift-gate artifact to read (default
//!   `BENCH_drift.json`; skipped silently when absent);
//! - `ST_SERVICE_JSON` — service-gate artifact to read (default
//!   `BENCH_service.json`; skipped silently when absent);
//! - `ST_TREND_JSON` — trend artifact to append to (default
//!   `BENCH_trend.json`);
//! - `ST_COMMIT` — commit id to stamp (falls back to `GITHUB_SHA`, then
//!   `git rev-parse --short HEAD`, then `"unknown"`).
//!
//! CI runs this right after the pipeline schema smoke and uploads
//! `BENCH_trend.json` as a build artifact; downloading the artifact from
//! successive runs and re-running `trend` accumulates the history.

use std::fmt::Write as _;
use std::time::{SystemTime, UNIX_EPOCH};

/// Extracts the number following `pat` in `src` (the artifacts are written
/// by our own bins with a fixed, regular layout, so a scan beats pulling a
/// JSON parser into the vendored dependency set).
fn num_after(src: &str, pat: &str) -> Option<f64> {
    let at = src.find(pat)? + pat.len();
    let rest = &src[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the quoted string following `pat`.
fn str_after(src: &str, pat: &str) -> Option<String> {
    let at = src.find(pat)? + pat.len();
    let rest = &src[at..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// The commit id to stamp on the entry.
fn commit_id() -> String {
    if let Ok(c) = std::env::var("ST_COMMIT") {
        if !c.trim().is_empty() {
            return c.trim().to_string();
        }
    }
    if let Ok(c) = std::env::var("GITHUB_SHA") {
        if !c.trim().is_empty() {
            return c.trim().to_string();
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let pipeline_path =
        std::env::var("ST_BENCH_JSON").unwrap_or_else(|_| "BENCH_pipeline.json".to_string());
    let kernels_path =
        std::env::var("ST_KERNELS_JSON").unwrap_or_else(|_| "BENCH_kernels.json".to_string());
    let drift_path =
        std::env::var("ST_DRIFT_JSON").unwrap_or_else(|_| "BENCH_drift.json".to_string());
    let service_path =
        std::env::var("ST_SERVICE_JSON").unwrap_or_else(|_| "BENCH_service.json".to_string());
    let trend_path =
        std::env::var("ST_TREND_JSON").unwrap_or_else(|_| "BENCH_trend.json".to_string());

    let pipeline = std::fs::read_to_string(&pipeline_path).unwrap_or_else(|e| {
        panic!("reading {pipeline_path}: {e} (run `st_bench --bin pipeline` first)")
    });
    assert!(
        pipeline.contains("\"bench\": \"pipeline\""),
        "{pipeline_path} is not a pipeline artifact"
    );
    let schema = num_after(&pipeline, "\"schema_version\": ").unwrap_or(0.0) as u64;
    assert!(
        schema >= 2,
        "{pipeline_path} has schema_version {schema}; trend needs >= 2 \
         (re-run the pipeline bin from this build)"
    );
    let kernels = std::fs::read_to_string(&kernels_path).ok();
    let drift = std::fs::read_to_string(&drift_path)
        .ok()
        .filter(|d| d.contains("\"bench\": \"drift\""));
    let service = std::fs::read_to_string(&service_path)
        .ok()
        .filter(|s| s.contains("\"bench\": \"service\""));

    // ---- Build the entry -------------------------------------------------
    let commit = commit_id();
    let timestamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let kernel = str_after(&pipeline, "\"kernel\": \"").unwrap_or_else(|| "?".into());
    let quick = pipeline.contains("\"quick\": true");

    let phase = |name: &str| num_after(&pipeline, &format!("\"name\": \"{name}\", \"ms\": "));
    // The batched gate (phase and section) exists in pipeline schemas 4–5
    // only: schema 6 folded it into the one dense estimation plane, so
    // newer entries carry no `batched` phase or `batched_speedup`.
    let batched = schema < 6;
    // `incremental` appears from pipeline schema 3 on; older artifacts fold
    // in with nulls for it (and for `batched` before schema 4).
    let phase_names: Vec<&str> = [
        "data_gen",
        "training",
        "batched",
        "curve_fit",
        "solver",
        "full_trial",
        "incremental",
    ]
    .into_iter()
    .filter(|&name| batched || name != "batched")
    .collect();

    let mut entry = String::new();
    let _ = writeln!(entry, "    {{");
    let _ = writeln!(entry, "      \"commit\": \"{commit}\",");
    let _ = writeln!(entry, "      \"timestamp\": {timestamp},");
    let _ = writeln!(entry, "      \"kernel\": \"{kernel}\",");
    let _ = writeln!(entry, "      \"quick\": {quick},");
    let _ = writeln!(entry, "      \"phases_ms\": {{");
    for (i, name) in phase_names.iter().enumerate() {
        let comma = if i + 1 < phase_names.len() { "," } else { "" };
        match phase(name) {
            Some(ms) => {
                let _ = writeln!(entry, "        \"{name}\": {ms:.6}{comma}");
            }
            None => {
                let _ = writeln!(entry, "        \"{name}\": null{comma}");
            }
        }
    }
    let _ = writeln!(entry, "      }},");
    let write_num = |entry: &mut String, key: &str, v: Option<f64>, comma: &str| {
        match v {
            Some(v) => {
                let _ = writeln!(entry, "      \"{key}\": {v:.4}{comma}");
            }
            None => {
                let _ = writeln!(entry, "      \"{key}\": null{comma}");
            }
        };
    };
    write_num(
        &mut entry,
        "total_ms",
        num_after(&pipeline, "\"total_ms\": "),
        ",",
    );
    // Gated-but-overlapping phase total (pipeline schema 4+).
    write_num(
        &mut entry,
        "gated_phases_ms",
        num_after(&pipeline, "\"gated_phases_ms\": "),
        ",",
    );
    write_num(
        &mut entry,
        "data_plane_training_speedup",
        num_after(&pipeline, "\"training_speedup\": "),
        ",",
    );
    write_num(
        &mut entry,
        "data_plane_full_trial_speedup",
        num_after(&pipeline, "\"full_trial_speedup\": "),
        ",",
    );
    write_num(
        &mut entry,
        "prepacked_speedup",
        pipeline
            .find("\"prepacked\": {")
            .and_then(|at| num_after(&pipeline[at..], "\"speedup\": ")),
        ",",
    );
    // Batched-plane gate reading (pipeline schemas 4–5). The
    // `"batched": {` needle skips past the phase entry
    // (`"name": "batched", "ms": …`) because only the gate block opens an
    // object under that key.
    if batched {
        write_num(
            &mut entry,
            "batched_speedup",
            pipeline
                .find("\"batched\": {")
                .and_then(|at| num_after(&pipeline[at..], "\"speedup\": ")),
            ",",
        );
    }
    // Incremental re-estimation gate readings (pipeline schema 3+).
    let inc_section = pipeline.find("\"incremental\": {");
    write_num(
        &mut entry,
        "incremental_speedup",
        inc_section.and_then(|at| num_after(&pipeline[at..], "\"speedup\": ")),
        ",",
    );
    write_num(
        &mut entry,
        "incremental_trainings_ratio",
        inc_section.and_then(|at| num_after(&pipeline[at..], "\"trainings_ratio\": ")),
        ",",
    );
    // Fault-tolerance guards overhead (pipeline schema 5+); the scoped
    // find keeps the needle off the phase list and other gate blocks.
    write_num(
        &mut entry,
        "guards_overhead",
        pipeline
            .find("\"guards\": {")
            .and_then(|at| num_after(&pipeline[at..], "\"overhead\": ")),
        ",",
    );
    // Drift-robustness gate readings (from the drift bin's artifact).
    write_num(
        &mut entry,
        "drift_slice_loss_ratio",
        drift
            .as_deref()
            .and_then(|d| num_after(d, "\"slice_loss_ratio\": ")),
        ",",
    );
    write_num(
        &mut entry,
        "drift_overall_loss_ratio",
        drift
            .as_deref()
            .and_then(|d| num_after(d, "\"overall_loss_ratio\": ")),
        ",",
    );
    // Service-level chaos gate readings (from the service bin's artifact).
    write_num(
        &mut entry,
        "service_sessions_per_sec",
        service
            .as_deref()
            .and_then(|s| num_after(s, "\"sessions_per_sec\": ")),
        ",",
    );
    write_num(
        &mut entry,
        "service_p50_ms",
        service
            .as_deref()
            .and_then(|s| num_after(s, "\"p50_ms\": ")),
        ",",
    );
    write_num(
        &mut entry,
        "service_p99_ms",
        service
            .as_deref()
            .and_then(|s| num_after(s, "\"p99_ms\": ")),
        ",",
    );
    match &kernels {
        Some(k) => {
            write_num(
                &mut entry,
                "kernels_blocked_speedup",
                num_after(k, "\"blocked_speedup\": "),
                ",",
            );
            write_num(
                &mut entry,
                "kernels_simd_speedup",
                num_after(k, "\"simd_speedup\": "),
                ",",
            );
            write_num(
                &mut entry,
                "kernels_sharded_speedup",
                num_after(k, "\"sharded_speedup\": "),
                ",",
            );
            // Batched-vs-looped small-shape group (kernels schema 2+):
            // per-backend one-call-over-loop ratios.
            let group = k.find("\"batched_group\": {");
            for (i, backend) in ["naive", "blocked", "simd", "sharded", "fast"]
                .iter()
                .enumerate()
            {
                let comma = if i + 1 < 5 { "," } else { "" };
                write_num(
                    &mut entry,
                    &format!("kernels_batched_{backend}_speedup"),
                    group.and_then(|at| num_after(&k[at..], &format!("\"{backend}\": "))),
                    comma,
                );
            }
        }
        None => {
            let _ = writeln!(entry, "      \"kernels\": null");
        }
    }
    let _ = write!(entry, "    }}");

    // ---- Append to the trend artifact ------------------------------------
    //
    // The trend file is our own output, so appending is a string splice
    // before the closing of the entries array.
    const HEADER: &str = "{\n  \"bench\": \"trend\",\n  \"schema_version\": 1,\n  \"entries\": [\n";
    const FOOTER: &str = "\n  ]\n}\n";
    let trend = match std::fs::read_to_string(&trend_path) {
        Ok(existing) => {
            let body = existing
                .strip_prefix(HEADER)
                .and_then(|r| r.strip_suffix(FOOTER))
                .unwrap_or_else(|| {
                    panic!(
                        "{trend_path} exists but is not a trend artifact this tool wrote; \
                         move it aside or point ST_TREND_JSON elsewhere"
                    )
                });
            format!("{HEADER}{body},\n{entry}{FOOTER}")
        }
        Err(_) => format!("{HEADER}{entry}{FOOTER}"),
    };
    std::fs::write(&trend_path, &trend).unwrap_or_else(|e| panic!("writing {trend_path}: {e}"));

    // ---- Human summary ---------------------------------------------------
    let entries = trend.matches("\"commit\": ").count();
    println!("appended commit {commit} to {trend_path} ({entries} entries)");
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>9} {:>10} {:>11} {:>7} {:>7} {:>8}",
        "commit",
        "total_ms",
        "train_dp",
        "trial_dp",
        "batched",
        "prepacked",
        "incremental",
        "guards",
        "drift",
        "svc_p99"
    );
    for chunk in trend.split("    {").skip(1) {
        let c = str_after(chunk, "\"commit\": \"").unwrap_or_else(|| "?".into());
        let fmt = |v: Option<f64>| v.map_or("-".into(), |x| format!("{x:.2}"));
        println!(
            "{:<12} {:>10} {:>10} {:>10} {:>9} {:>10} {:>11} {:>7} {:>7} {:>8}",
            c,
            fmt(num_after(chunk, "\"total_ms\": ")),
            fmt(num_after(chunk, "\"data_plane_training_speedup\": ")),
            fmt(num_after(chunk, "\"data_plane_full_trial_speedup\": ")),
            fmt(num_after(chunk, "\"batched_speedup\": ")),
            fmt(num_after(chunk, "\"prepacked_speedup\": ")),
            fmt(num_after(chunk, "\"incremental_speedup\": ")),
            fmt(num_after(chunk, "\"guards_overhead\": ")),
            fmt(num_after(chunk, "\"drift_slice_loss_ratio\": ")),
            fmt(num_after(chunk, "\"service_p99_ms\": ")),
        );
    }
}
