//! End-to-end CLI tests for the `perf_gate` binary: the paired wall gate
//! run against its own executable, a demonstrable failure under synthetic
//! slowdown, the overhead gate, the suite's pinned seeded counters, and
//! a malformed flag value failing before any work.
//!
//! The tests assert gate *logic* — counters, exit codes, messages. Where a
//! run is expected to pass, its wall-ratio and overhead thresholds are set
//! far beyond anything machine noise can produce; only the synthetic
//! slowdown and the impossible overhead threshold are expected to fail.

use std::path::PathBuf;
use std::process::Command;

/// This package's `perf_gate`, which the paired tests also name as the
/// parent's binary.
const PERF_GATE: &str = env!("CARGO_BIN_EXE_perf_gate");

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hetmmm_perf_gate_{}_{name}", std::process::id()))
}

fn gate(args: &[&str]) -> std::process::Output {
    Command::new(PERF_GATE)
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
fn gate_without_baseline_exits_zero_with_note() {
    let current = tmp("nobase_current.json");
    let out = gate_noise_proof(&[
        "--quick",
        "--k",
        "1",
        "--current",
        current.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "no baseline is not a failure");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("wall gate skipped"),
        "explains itself: {stdout}"
    );
    let _ = std::fs::remove_file(&current);
}

#[test]
fn paired_gate_passes_against_its_own_binary() {
    let current = tmp("paired_current.json");
    let out = gate_noise_proof(&[
        "--quick",
        "--k",
        "3",
        "--baseline",
        PERF_GATE,
        "--current",
        current.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "gate should pass: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("perf gate PASS"), "says so: {stdout}");
    assert_eq!(
        stdout.matches("change/parent").count(),
        7,
        "one paired ratio per workload: {stdout}"
    );

    let current_text = std::fs::read_to_string(&current).expect("BENCH_current written");
    let _ = std::fs::remove_file(&current);
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
}

#[test]
fn paired_gate_fails_under_slowdown() {
    // A 100ms synthetic sleep per timed repetition on the change's side
    // only: every workload blows the 1.8x ratio -> non-zero exit naming
    // the regressions.
    let current = tmp("slow_current.json");
    let out = gate(&[
        "--quick",
        "--k",
        "3",
        "--baseline",
        PERF_GATE,
        "--current",
        current.to_str().unwrap(),
        "--slowdown-nanos",
        "100000000",
        "--threshold",
        "1.8",
        "--overhead-threshold",
        "1000",
    ]);
    let _ = std::fs::remove_file(&current);
    assert!(
        !out.status.success(),
        "gate must fail under synthetic slowdown"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("wall regression"),
        "failure names the regression: {stderr}"
    );
}

#[test]
fn missing_baseline_binary_fails_naming_the_path() {
    let missing = tmp("no_such_perf_gate");
    let current = tmp("missing_current.json");
    let _ = std::fs::remove_file(&missing);
    let out = gate_noise_proof(&[
        "--quick",
        "--k",
        "1",
        "--baseline",
        missing.to_str().unwrap(),
        "--current",
        current.to_str().unwrap(),
    ]);
    let _ = std::fs::remove_file(&current);
    assert!(!out.status.success(), "a missing parent binary fails");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(missing.to_str().unwrap()),
        "failure names the path: {stderr}"
    );
}

/// The 28 deterministic counters of the full-size suite, as
/// `(workload, counter, value)`. Each is a pure function of the
/// workload's seed, so a mismatch is a change in behaviour: a change
/// that alters behaviour on purpose edits this table and says why.
const PINNED_COUNTERS: [(&str, &str, u64); 28] = [
    ("dfa_probe_cache", "push.probe.cache_hits", 51),
    ("dfa_probe_cache", "push.probe.evals", 45),
    ("exec_threaded_multiply", "exec.elems_sent.P", 8192),
    ("exec_threaded_multiply", "exec.elems_sent.R", 4096),
    ("exec_threaded_multiply", "exec.elems_sent.S", 4096),
    ("exec_threaded_multiply", "exec.recoveries", 0),
    ("exec_threaded_multiply", "exec.updates.P", 131072),
    ("exec_threaded_multiply", "exec.updates.R", 65536),
    ("exec_threaded_multiply", "exec.updates.S", 65536),
    ("fig5_census_slice", "dfa.push.type1.down", 994),
    ("fig5_census_slice", "dfa.push.type1.left", 698),
    ("fig5_census_slice", "dfa.push.type1.right", 1009),
    ("fig5_census_slice", "dfa.push.type1.up", 997),
    ("fig5_census_slice", "dfa.push.type3.down", 97),
    ("fig5_census_slice", "dfa.push.type3.left", 21),
    ("fig5_census_slice", "dfa.push.type3.right", 52),
    ("fig5_census_slice", "dfa.push.type3.up", 102),
    ("fig5_census_slice", "dfa.push.type5.down", 66),
    ("fig5_census_slice", "dfa.push.type5.left", 41),
    ("fig5_census_slice", "dfa.push.type5.right", 42),
    ("fig5_census_slice", "dfa.push.type5.up", 49),
    ("fig5_census_slice", "dfa.push.type6.down", 54),
    ("fig5_census_slice", "dfa.push.type6.left", 20),
    ("fig5_census_slice", "dfa.push.type6.right", 27),
    ("fig5_census_slice", "dfa.push.type6.up", 54),
    ("obs_overhead_on", "events_per_pass", 6338),
    ("push_probe_fixed_point", "push.probe.cache_hits", 0),
    ("push_probe_fixed_point", "push.probe.evals", 2560),
];

#[test]
fn seeded_counters_match_the_pinned_values() {
    let current = tmp("pinned_current.json");
    let out = gate_noise_proof(&["--k", "1", "--current", current.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "full-size gate run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let suite: hetmmm_report::BenchSuite =
        serde_json::from_str(&std::fs::read_to_string(&current).unwrap()).unwrap();
    let _ = std::fs::remove_file(&current);
    let mut measured: Vec<(String, String, u64)> = suite
        .entries
        .iter()
        .flat_map(|e| {
            e.counters
                .iter()
                .map(move |(c, v)| (e.name.clone(), c.clone(), *v))
        })
        .collect();
    measured.sort();
    let pinned: Vec<(String, String, u64)> = PINNED_COUNTERS
        .iter()
        .map(|&(w, c, v)| (w.to_string(), c.to_string(), v))
        .collect();
    assert_eq!(measured, pinned);
}

#[test]
fn overhead_gate_fails_under_impossible_threshold() {
    let current = tmp("overhead_current.json");
    // Instrumented-vs-suspended is always >= some cost: a sub-1.0
    // threshold that no real instrumentation can meet must fail the gate
    // and say why, even with no parent binary to pair against.
    let out = gate(&[
        "--quick",
        "--k",
        "1",
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
fn malformed_flag_value_exits_two_naming_the_flag() {
    let current = tmp("malformed_current.json");
    let _ = std::fs::remove_file(&current);
    let out = gate_noise_proof(&[
        "--quick",
        "--k",
        "five",
        "--current",
        current.to_str().unwrap(),
    ]);
    let written = current.exists();
    let _ = std::fs::remove_file(&current);
    assert_eq!(
        out.status.code(),
        Some(2),
        "a malformed --k is a usage error"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--k") && stderr.contains("five"),
        "the message names the flag and the value: {stderr}"
    );
    assert!(!written, "nothing is measured before the flags parse");
}
