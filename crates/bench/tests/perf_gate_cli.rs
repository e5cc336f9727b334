//! End-to-end CLI tests for the `perf_gate` binary: baseline recording,
//! a passing gate, and a demonstrable failure under synthetic slowdown.
//!
//! The tests assert gate *logic* — counters, exit codes, messages. Where a
//! run is expected to pass, its wall-ratio and overhead thresholds are set
//! far beyond anything machine noise can produce; only the synthetic
//! slowdown and the impossible overhead threshold are expected to fail.

use std::path::PathBuf;
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hetmmm_perf_gate_{}_{name}", std::process::id()))
}

fn gate(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perf_gate"))
        .args(args)
        .output()
        .expect("spawn perf_gate")
}

/// [`gate`] with wall-ratio and overhead limits no noisy machine can
/// cross, for runs whose gate logic is expected to pass.
fn gate_noise_proof(args: &[&str]) -> std::process::Output {
    gate(
        &[
            args,
            &["--threshold", "1000", "--overhead-threshold", "1000"],
        ]
        .concat(),
    )
}

#[test]
fn gate_passes_against_fresh_baseline_and_fails_under_slowdown() {
    let baseline = tmp("baseline.json");
    let current = tmp("current.json");
    let baseline_s = baseline.to_str().unwrap();
    let current_s = current.to_str().unwrap();
    let _ = std::fs::remove_file(&baseline);
    let _ = std::fs::remove_file(&current);

    // Record a baseline.
    let out = gate(&[
        "--quick",
        "--no-history",
        "--k",
        "2",
        "--baseline",
        baseline_s,
        "--current",
        current_s,
        "--write-baseline",
    ]);
    assert!(
        out.status.success(),
        "write-baseline failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(baseline.exists(), "baseline file written");

    // Same seeded workloads against that baseline: counters match exactly
    // → exit 0 and BENCH_current written.
    let out = gate_noise_proof(&[
        "--quick",
        "--no-history",
        "--k",
        "2",
        "--baseline",
        baseline_s,
        "--current",
        current_s,
    ]);
    assert!(
        out.status.success(),
        "gate should pass: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(current.exists(), "BENCH_current written");
    let current_text = std::fs::read_to_string(&current).unwrap();
    let suite: hetmmm_report::BenchSuite = serde_json::from_str(&current_text).unwrap();
    assert_eq!(suite.v, hetmmm_report::BENCH_VERSION);
    assert_eq!(suite.entries.len(), 7, "5 workloads + obs_overhead on/off");
    let on = suite.entry("obs_overhead_on").unwrap();
    assert!(
        on.counters
            .iter()
            .any(|(c, v)| c == "events_per_pass" && *v > 0),
        "instrumented arm must count delivered events: {:?}",
        on.counters
    );
    assert!(
        suite.entry("obs_overhead_off").is_some(),
        "suspended arm recorded"
    );
    assert!(
        !suite
            .entry("fig5_census_slice")
            .unwrap()
            .counters
            .is_empty(),
        "census slice records deterministic push counters"
    );
    assert!(
        !suite
            .entry("push_probe_fixed_point")
            .unwrap()
            .counters
            .is_empty(),
        "probe workload records deterministic probe counters"
    );
    let cache = suite.entry("dfa_probe_cache").unwrap();
    let counter = |name: &str| {
        cache
            .counters
            .iter()
            .find(|(c, _)| c == name)
            .map(|(_, v)| *v)
    };
    assert!(
        counter("push.probe.cache_hits").unwrap_or(0) > 0,
        "warm DFA workload must exercise the probe cache: {:?}",
        cache.counters
    );
    assert!(
        counter("push.probe.evals").unwrap_or(0) > 0,
        "warm DFA workload still pays kernel evals on misses: {:?}",
        cache.counters
    );

    // Inject a 100ms synthetic slowdown per repetition: every workload
    // blows the 1.8x ratio → non-zero exit naming the regressions.
    let out = gate(&[
        "--quick",
        "--no-history",
        "--k",
        "2",
        "--baseline",
        baseline_s,
        "--current",
        current_s,
        "--slowdown-nanos",
        "100000000",
    ]);
    assert!(
        !out.status.success(),
        "gate must fail under synthetic slowdown"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("wall regression"),
        "failure names the regression: {stderr}"
    );

    let _ = std::fs::remove_file(&baseline);
    let _ = std::fs::remove_file(&current);
}

#[test]
fn overhead_gate_fails_under_impossible_threshold() {
    let baseline = tmp("overhead_baseline.json");
    let current = tmp("overhead_current.json");
    let _ = std::fs::remove_file(&baseline);
    // Instrumented-vs-suspended is always >= some cost: a sub-1.0
    // threshold that no real instrumentation can meet must fail the gate
    // and say why, even with no wall baseline to compare against.
    let out = gate(&[
        "--quick",
        "--no-history",
        "--k",
        "1",
        "--baseline",
        baseline.to_str().unwrap(),
        "--current",
        current.to_str().unwrap(),
        "--overhead-threshold",
        "0.000001",
    ]);
    assert!(!out.status.success(), "impossible overhead threshold");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("instrumentation overhead"),
        "failure names the overhead gate: {stderr}"
    );
    let _ = std::fs::remove_file(&current);
}

#[test]
fn gate_without_baseline_exits_zero_with_note() {
    let baseline = tmp("missing_baseline.json");
    let current = tmp("nobase_current.json");
    let _ = std::fs::remove_file(&baseline);
    let out = gate_noise_proof(&[
        "--quick",
        "--no-history",
        "--k",
        "1",
        "--baseline",
        baseline.to_str().unwrap(),
        "--current",
        current.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "no baseline is not a failure");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no baseline"), "explains itself: {stdout}");
    let _ = std::fs::remove_file(&current);
}

#[test]
fn history_appends_and_bench_trend_analyzes() {
    let baseline = tmp("trend_baseline.json");
    let current = tmp("trend_current.json");
    let history = tmp("trend_history.jsonl");
    let history_s = history.to_str().unwrap();
    let _ = std::fs::remove_file(&baseline);
    let _ = std::fs::remove_file(&current);
    let _ = std::fs::remove_file(&history);

    let trend = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_bench_trend"))
            .args(args)
            .output()
            .expect("spawn bench_trend")
    };

    // No history file at all: graceful no-op.
    let out = trend(&["--history", history_s]);
    assert!(out.status.success(), "missing history is a pass");
    assert!(String::from_utf8_lossy(&out.stdout).contains("no history"));

    // One gate run appends one entry; a single entry is still a pass.
    let base = [
        "--quick",
        "--k",
        "1",
        "--baseline",
        baseline.to_str().unwrap(),
        "--current",
        current.to_str().unwrap(),
        "--history",
        history_s,
    ];
    let out = gate_noise_proof(&base);
    assert!(out.status.success(), "gate run failed");
    let text = std::fs::read_to_string(&history).expect("history appended");
    assert_eq!(text.lines().count(), 1, "one entry per gate run");
    let out = trend(&["--history", history_s]);
    assert!(out.status.success(), "insufficient history is a pass");
    assert!(String::from_utf8_lossy(&out.stdout).contains("insufficient history"));

    // A second run gives the analyzer a reference; same seeded workloads
    // on the same machine stay within any sane threshold.
    let out = gate_noise_proof(&base);
    assert!(out.status.success(), "second gate run failed");
    let text = std::fs::read_to_string(&history).unwrap();
    assert_eq!(text.lines().count(), 2, "history is append-only");
    let out = trend(&["--history", history_s, "--threshold", "1000"]);
    assert!(
        out.status.success(),
        "trend must pass: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("== bench trend"),
        "renders report: {stdout}"
    );
    assert!(
        stdout.contains("dfa_probe_cache"),
        "covers workloads: {stdout}"
    );

    // An absurdly low threshold flags drift and exits nonzero.
    let out = trend(&["--history", history_s, "--threshold", "0.0000001"]);
    assert!(!out.status.success(), "tiny threshold must flag drift");
    assert!(String::from_utf8_lossy(&out.stderr).contains("DRIFT"));

    let _ = std::fs::remove_file(&baseline);
    let _ = std::fs::remove_file(&current);
    let _ = std::fs::remove_file(&history);
}
