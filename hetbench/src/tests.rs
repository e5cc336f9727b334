//! Unit tests: the pinned census cap exhaustion, digest determinism,
//! observability hygiene, and the names `BENCHMARK.json` declares.

use crate::measure::{quantile, Metrics, END_TO_END, PER_LAYER};
use crate::workloads::{Scale, Workload};
use crate::{run, uninstrumented, Options, DEFAULT_SECONDS};
use hetmmm::prelude::*;
use serde::Value;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Observability state is process-global: tests that touch it or run a
/// workload hold this lock.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn small(workload: Workload, seed: u64, trace: bool) -> crate::Outcome {
    let opts = Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
    };
    run(opts, Scale::Test).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

#[test]
fn census_cap_exhaustion_is_pinned() {
    // The first non-converged run among seeds 0..300 of every paper ratio
    // at N = 100. The census workloads count such runs as `unconverged`
    // in their report, not as failed calls: `census()` still tabulates them.
    let ratio = Ratio::new(4, 2, 1);
    let out = DfaRunner::new(DfaConfig::new(100, ratio)).run_seed(212);
    assert_eq!(out.termination, Termination::ZeroDeltaCapExhausted);
    assert_eq!(out.steps, 510);
    assert!(out.voc_final <= out.voc_initial);
    let report = hetmmm::census(&CensusConfig::new(100, ratio).with_runs(1).with_seed0(212));
    assert_eq!((report.total(), report.unconverged), (1, 1));
}

/// Per-layer metrics a workload's traced run must fill: the layers it calls.
fn layers(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::CensusPaper | Workload::CensusSweep => &[
            "push.dfa_run_ms_p50",
            "push.us_per_step",
            "push.steps_per_run",
            "push.beautify_ms_p50",
            "partition.random_start_ms_p50",
            "shapes.classify_ms_p50",
        ],
        Workload::NprocSearch => &[
            "nproc.run_ms_p50",
            "nproc.us_per_step",
            "nproc.steps_per_run",
        ],
        Workload::CandidatesRank => &[
            "shapes.construct_ms_p50",
            "cost.evaluate_ms_p50",
            "sim.simulate_ms_p50",
        ],
        Workload::MultiplyClean => &[
            "mmm.kernel_ms",
            "mmm.compute_ms",
            "mmm.recv_wait_ms",
            "mmm.elems_sent_per_op",
        ],
        Workload::MultiplyCrash => &[
            "mmm.kernel_ms",
            "mmm.compute_ms",
            "mmm.checkpoint_ms",
            "mmm.checkpoints_per_op",
        ],
    }
}

#[test]
fn digests_repeat_for_a_seed_and_traces_fill_their_layers() {
    let _obs = obs_lock();
    for w in Workload::ALL {
        let name = w.name();
        let a = small(w, 7, false);
        assert_eq!(
            a.calls, a.digest_calls,
            "{name}: a 0-second run makes the digest calls"
        );
        assert_eq!(a.digest, small(w, 7, false).digest, "{name}: same seed");
        assert_ne!(a.digest, small(w, 8, false).digest, "{name}: other seed");

        let traced = small(w, 7, true);
        assert_eq!(a.digest, traced.digest, "{name}: traced run");
        for metric in layers(w).iter().chain(&["bench.layer_coverage"]) {
            let value = traced.metrics.iter().find(|(n, _, _)| n == metric);
            assert!(
                value.is_some_and(|(_, v, _)| v > 0.0),
                "{name}: {metric} = {value:?}"
            );
        }
    }
}

#[test]
fn timed_calls_refuse_observability() {
    let _obs = obs_lock();
    obs::resume_sinks();
    let id = obs::install_sink(obs::NullSink::new());
    assert!(uninstrumented().is_err(), "a delivering sink is refused");
    obs::uninstall_sink(id);
    obs::metrics().set_enabled(true);
    assert!(uninstrumented().is_err(), "metrics recording is refused");
    obs::metrics().set_enabled(false);
    assert!(uninstrumented().is_ok());
}

#[test]
fn runs_leave_observability_off() {
    let _obs = obs_lock();
    for trace in [false, true] {
        small(Workload::MultiplyCrash, 3, trace);
        assert!(!obs::enabled() && !obs::metrics_enabled(), "trace={trace}");
    }
}

#[test]
fn quantile_is_nearest_rank() {
    let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
    assert_eq!(quantile(&samples, 0.5), 3.0);
    assert_eq!(quantile(&samples, 0.9), 5.0);
    assert_eq!(quantile(&samples, 0.0), 1.0);
    assert_eq!(quantile(&[], 0.5), 0.0);
}

fn name_ok(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn metric_names_are_well_formed_and_few() {
    assert!(!END_TO_END.is_empty() && END_TO_END.len() <= 16);
    assert!(!PER_LAYER.is_empty() && PER_LAYER.len() <= 128);
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(name_ok(name), "{name}");
        assert!(unit_ok(unit), "{name}: {unit}");
        assert!(seen.insert(*name), "{name} declared twice");
    }
    for w in Workload::ALL {
        assert!(name_ok(w.name()) && w.why().len() <= 200, "{}", w.name());
    }
}

fn text(v: Option<&Value>) -> &str {
    match v {
        Some(Value::Str(s)) => s,
        other => panic!("expected a string, found {other:?}"),
    }
}

fn entries(v: &Value, key: &str) -> Vec<Value> {
    v.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .to_vec()
}

/// `(name, unit)` pairs of one metric list of the printed summary line.
fn printed(catalog: &'static [(&'static str, &'static str)]) -> Vec<(String, String)> {
    let line = Metrics::new(catalog).summary_json(true, 1, 0);
    let summary: Value = serde_json::from_str(&line).expect("summary line is JSON");
    match summary.get("metrics") {
        Some(Value::Map(pairs)) => pairs
            .iter()
            .map(|(name, m)| (name.clone(), text(m.get("unit")).to_string()))
            .collect(),
        other => panic!("summary has no metrics map: {other:?}"),
    }
}

#[test]
fn benchmark_json_declares_exactly_what_the_binary_prints() {
    let decl: Value =
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");

    let workloads: Vec<(String, String)> = entries(&decl, "workloads")
        .iter()
        .map(|w| {
            (
                text(w.get("name")).to_string(),
                text(w.get("why")).to_string(),
            )
        })
        .collect();
    let ours: Vec<(String, String)> = Workload::ALL
        .iter()
        .map(|w| (w.name().to_string(), w.why().to_string()))
        .collect();
    assert_eq!(workloads, ours);

    let lists: [(&str, &'static [(&'static str, &'static str)]); 2] =
        [("end_to_end", &END_TO_END), ("per_layer", &PER_LAYER)];
    for (key, catalog) in lists {
        let declared: Vec<(String, String)> = entries(&decl, key)
            .iter()
            .map(|m| {
                (
                    text(m.get("name")).to_string(),
                    text(m.get("unit")).to_string(),
                )
            })
            .collect();
        assert_eq!(declared, printed(catalog), "{key}: declared vs printed");
    }

    let bound = |name: &str| match entries(&decl, "end_to_end")
        .iter()
        .find(|m| text(m.get("name")) == name)
        .and_then(|m| m.get("bound"))
    {
        Some(Value::Float(b)) => *b,
        other => panic!("{name}: bound {other:?}"),
    };
    for (name, _) in END_TO_END {
        assert!(
            bound(name) > 0.0 && bound(name) <= bound("setup_s"),
            "{name}"
        );
    }
    let run_seconds = decl.get("run_seconds").and_then(Value::as_u64);
    assert_eq!(run_seconds.map(|s| s as f64), Some(DEFAULT_SECONDS));
}
