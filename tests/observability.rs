//! Integration tests for the observability layer (`hetmmm-obs`): event
//! determinism under a fake clock, manifest round-trips, executor event
//! streams, and serde round-trips of the stats types that manifests embed.
//!
//! The obs facade is process-global, so every test that installs sinks or
//! swaps the clock serializes on [`test_lock`] and restores global state
//! before releasing it.

use hetmmm::prelude::*;
use hetmmm_obs as obs;
use std::sync::{Arc, Mutex, MutexGuard};

/// Serialize tests that touch the process-global facade state.
fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Restore pristine global state (no sinks, real clock, metrics off).
fn reset_obs() {
    obs::uninstall_all_sinks();
    obs::reset_clock();
    obs::metrics().set_enabled(false);
    obs::metrics().reset();
}

/// Run a seeded DFA search with a fake clock and a JSONL sink, returning
/// the raw bytes the sink wrote.
fn capture_dfa_jsonl(seed: u64) -> Vec<u8> {
    let fake = Arc::new(obs::FakeClock::new());
    obs::set_clock(fake);
    let buf = obs::SharedBuf::new();
    let id = obs::install_sink(Arc::new(obs::JsonlSink::to_writer(Box::new(buf.clone()))));
    let runner = DfaRunner::new(DfaConfig::new(24, Ratio::new(2, 1, 1)));
    let out = runner.run(seed).expect("seed converges");
    assert!(out.converged);
    obs::uninstall_sink(id);
    obs::reset_clock();
    buf.contents()
}

#[test]
fn seeded_dfa_run_emits_deterministic_jsonl() {
    let _guard = test_lock();
    reset_obs();
    let first = capture_dfa_jsonl(17);
    let second = capture_dfa_jsonl(17);
    reset_obs();
    assert!(!first.is_empty(), "instrumented run must emit events");
    // Same seed + fake clock => byte-identical artifact. (Span ids are
    // process-global and differ between the two runs, so compare with the
    // span-id fields normalized out. The JSONL writer emits compact JSON,
    // so `"span":<digits>` is the exact textual form of those fields.)
    let normalize = |bytes: &[u8]| -> String {
        let text = String::from_utf8(bytes.to_vec()).unwrap();
        let mut out = String::with_capacity(text.len());
        let mut rest = text.as_str();
        while let Some(at) = rest.find("\"span\":") {
            let after = at + "\"span\":".len();
            out.push_str(&rest[..after]);
            out.push('0');
            rest = rest[after..].trim_start_matches(|c: char| c.is_ascii_digit());
        }
        out.push_str(rest);
        out
    };
    assert_eq!(normalize(&first), normalize(&second));
}

#[test]
fn dfa_event_stream_is_schema_valid_and_well_formed() {
    let _guard = test_lock();
    reset_obs();
    let bytes = capture_dfa_jsonl(17);
    reset_obs();
    let text = String::from_utf8(bytes).unwrap();
    let records: Vec<obs::EventRecord> = text
        .lines()
        .map(|line| serde_json::from_str(line).expect("every line parses"))
        .collect();
    assert!(records.iter().all(|r| r.v == obs::SCHEMA_VERSION));
    // Exactly one run: one start, one end, matching span pair around them.
    let starts = records
        .iter()
        .filter(|r| matches!(r.event, obs::EventKind::DfaRunStart { .. }))
        .count();
    let ends: Vec<&obs::EventRecord> = records
        .iter()
        .filter(|r| matches!(r.event, obs::EventKind::DfaRunEnd { .. }))
        .collect();
    assert_eq!(starts, 1);
    assert_eq!(ends.len(), 1);
    match &ends[0].event {
        obs::EventKind::DfaRunEnd {
            steps,
            termination,
            voc_initial,
            voc_final,
            ..
        } => {
            assert!(*steps > 0);
            assert!(voc_final <= voc_initial);
            assert!(["FixedPoint", "NeutralCycle"].contains(&termination.as_str()));
        }
        _ => unreachable!(),
    }
    // Push events carry valid types and count up to the reported steps.
    let pushes = records
        .iter()
        .filter_map(|r| match &r.event {
            obs::EventKind::DfaPush { push_type, .. } => Some(*push_type),
            _ => None,
        })
        .collect::<Vec<u8>>();
    assert!(pushes.iter().all(|t| (1..=6).contains(t)));
    match &ends[0].event {
        obs::EventKind::DfaRunEnd { steps, .. } => assert_eq!(pushes.len() as u64, *steps),
        _ => unreachable!(),
    }
}

#[test]
fn dfa_metrics_count_pushes_and_convergence() {
    let _guard = test_lock();
    reset_obs();
    obs::metrics().set_enabled(true);
    let runner = DfaRunner::new(DfaConfig::new(24, Ratio::new(2, 1, 1)));
    let out = runner.run(17).expect("seed converges");
    let snapshot = obs::metrics().snapshot();
    reset_obs();
    let push_total: u64 = snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("dfa.push."))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(push_total, out.steps as u64);
    let hist = snapshot
        .histograms
        .iter()
        .find(|h| h.name == "dfa.steps_to_convergence")
        .expect("histogram registered");
    assert_eq!(hist.count, 1);
    assert_eq!(hist.sum, out.steps as u64);
}

#[test]
fn executor_emits_send_recv_and_volume_metrics() {
    let _guard = test_lock();
    reset_obs();
    obs::metrics().set_enabled(true);
    let sink = obs::CollectSink::new();
    let id = obs::install_sink(sink.clone());

    let n = 12;
    let part = Partition::from_fn(n, |i, _| {
        if i < 4 {
            Proc::P
        } else if i < 8 {
            Proc::R
        } else {
            Proc::S
        }
    });
    let a = Matrix::from_fn(n, |i, j| (i * n + j) as f64);
    let b = Matrix::identity(n);
    let (_, stats) = multiply_partitioned(&a, &b, &part).unwrap();

    obs::uninstall_sink(id);
    let snapshot = obs::metrics().snapshot();
    reset_obs();

    let events = sink.take();
    let sent_by_event: u64 = events
        .iter()
        .filter_map(|r| match &r.event {
            obs::EventKind::ExecSend { elems, .. } => Some(*elems),
            _ => None,
        })
        .sum();
    let recv_by_event: u64 = events
        .iter()
        .filter_map(|r| match &r.event {
            obs::EventKind::ExecRecv { elems, .. } => Some(*elems),
            _ => None,
        })
        .sum();
    assert_eq!(sent_by_event, stats.total_sent());
    assert_eq!(recv_by_event, stats.total_sent());

    let counter = |name: &str| -> u64 {
        snapshot
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    for p in Proc::ALL {
        let pe = &stats.per_proc[p.idx()];
        assert_eq!(counter(&format!("exec.updates.{p}")), pe.updates);
        assert_eq!(counter(&format!("exec.elems_sent.{p}")), pe.elems_sent);
    }
    assert_eq!(counter("exec.recoveries"), 0);
    let wait = snapshot
        .histograms
        .iter()
        .find(|h| h.name == "exec.recv_wait_nanos")
        .expect("recv wait histogram registered");
    assert!(wait.count > 0);
}

#[test]
fn executor_failure_emits_blame_and_repartition() {
    let _guard = test_lock();
    reset_obs();
    let sink = obs::CollectSink::new();
    let id = obs::install_sink(sink.clone());

    let n = 12;
    let part = Partition::from_fn(n, |i, _| {
        if i < 4 {
            Proc::R
        } else if i < 8 {
            Proc::S
        } else {
            Proc::P
        }
    });
    let a = Matrix::from_fn(n, |i, j| (i + 2 * j) as f64);
    let b = Matrix::identity(n);
    let config = ExecConfig::default()
        .with_recv_timeout(std::time::Duration::from_millis(200))
        .with_fault_plan(FaultPlan::crash(Proc::S, n / 2));
    let (_, stats) = multiply_partitioned_with(&a, &b, &part, &config).unwrap();
    assert_eq!(stats.recovery.faults_detected, 1);

    obs::uninstall_sink(id);
    reset_obs();

    let events = sink.take();
    let blames: Vec<&obs::EventRecord> = events
        .iter()
        .filter(|r| matches!(r.event, obs::EventKind::ExecBlame { .. }))
        .collect();
    assert_eq!(blames.len(), 1);
    match &blames[0].event {
        obs::EventKind::ExecBlame { dead, weights } => {
            assert_eq!(dead, &Proc::S.to_string());
            assert_eq!(weights.len(), 3);
            assert!(weights[Proc::S.idx()] >= 100, "crash confession weight");
        }
        _ => unreachable!(),
    }
    let reparts: Vec<&obs::EventRecord> = events
        .iter()
        .filter(|r| matches!(r.event, obs::EventKind::ExecRepartition { .. }))
        .collect();
    assert_eq!(reparts.len(), 1);
    match &reparts[0].event {
        obs::EventKind::ExecRepartition {
            dead,
            reassigned,
            survivors,
        } => {
            assert_eq!(dead, &Proc::S.to_string());
            assert_eq!(*reassigned, stats.recovery.elems_reassigned);
            assert_eq!(*survivors, 2);
        }
        _ => unreachable!(),
    }
    assert!(events
        .iter()
        .any(|r| matches!(r.event, obs::EventKind::ExecPeerLost { .. })));
}

#[test]
fn simulator_emits_run_and_phase_events() {
    let _guard = test_lock();
    reset_obs();
    let sink = obs::CollectSink::new();
    let id = obs::install_sink(sink.clone());

    let part = Partition::from_fn(12, |i, _| {
        if i < 4 {
            Proc::P
        } else if i < 8 {
            Proc::R
        } else {
            Proc::S
        }
    });
    let platform = Platform::new(Ratio::new(2, 1, 1), 1e9, 1e-9);
    let result = simulate(
        &part,
        &SimConfig::new(platform, Algorithm::Scb).with_spans(),
    );

    obs::uninstall_sink(id);
    reset_obs();

    let events = sink.take();
    let runs: Vec<&obs::EventRecord> = events
        .iter()
        .filter(|r| matches!(r.event, obs::EventKind::SimRun { .. }))
        .collect();
    assert_eq!(runs.len(), 1);
    match &runs[0].event {
        obs::EventKind::SimRun {
            algorithm,
            comm_time,
            exe_time,
            messages,
            elems_sent,
        } => {
            assert_eq!(algorithm, &Algorithm::Scb.to_string());
            assert!((comm_time - result.comm_time).abs() < 1e-15);
            assert!((exe_time - result.exe_time).abs() < 1e-15);
            assert_eq!(*messages, result.messages as u64);
            assert_eq!(*elems_sent, result.elems_sent);
        }
        _ => unreachable!(),
    }
    let phases = events
        .iter()
        .filter(|r| matches!(r.event, obs::EventKind::SimPhase { .. }))
        .count();
    assert_eq!(phases, result.spans.len());
}

#[test]
fn manifest_embeds_metrics_and_round_trips() {
    let _guard = test_lock();
    reset_obs();
    obs::metrics().set_enabled(true);
    let runner = DfaRunner::new(DfaConfig::new(16, Ratio::new(2, 1, 1)));
    let _ = runner.run_seed(5);
    let manifest = obs::RunManifest {
        v: obs::MANIFEST_VERSION,
        bin: "observability_test".into(),
        args: vec![("n".into(), "16".into()), ("seed".into(), "5".into())],
        seed: Some(5),
        git_rev: obs::git_rev(),
        started_unix_ms: 0,
        wall_nanos: 1,
        events_emitted: obs::events_emitted(),
        metrics: obs::metrics().snapshot(),
    };
    reset_obs();
    assert!(manifest
        .metrics
        .counters
        .iter()
        .any(|(name, v)| name.starts_with("dfa.push.") && *v > 0));
    let json = serde_json::to_string(&manifest).unwrap();
    let back: obs::RunManifest = serde_json::from_str(&json).unwrap();
    assert_eq!(back, manifest);
}

#[test]
fn stats_types_round_trip_for_manifest_embedding() {
    // The nproc run below emits spans; holding the lock keeps them out of
    // the sinks other tests install.
    let _guard = test_lock();
    // ExecStats / RecoveryStats / ProcExec and the nproc stats types are
    // embedded in artifacts; their serde round-trips must be lossless.
    let stats = {
        let mut s = hetmmm_mmm_stats_sample();
        s.recovery = RecoveryStats {
            faults_detected: 1,
            elems_reassigned: 42,
            retries: 1,
            recv_retries: 3,
            attempt_retries: 2,
            backoff_nanos: 50_000_000,
            resumed_steps: 7,
            replayed_steps: 9,
            checkpoints: 21,
            degraded_mode: true,
        };
        s
    };
    let json = serde_json::to_string(&stats).unwrap();
    let back: hetmmm::prelude::ExecStats = serde_json::from_str(&json).unwrap();
    assert_eq!(back, stats);

    let runner = hetmmm_nproc::NDfaRunner::new(hetmmm_nproc::NDfaConfig::new(16, vec![4, 2, 1]));
    let out = runner.run_seed(3);
    let outcome_stats = hetmmm_nproc::stats::outcome_stats(&out.partition);
    let json = serde_json::to_string(&outcome_stats).unwrap();
    let back: hetmmm_nproc::OutcomeStats = serde_json::from_str(&json).unwrap();
    assert_eq!(back, outcome_stats);
}

fn hetmmm_mmm_stats_sample() -> hetmmm::prelude::ExecStats {
    let mut stats = hetmmm::prelude::ExecStats::default();
    stats.per_proc[0].updates = 100;
    stats.per_proc[0].elems_sent = 7;
    stats.per_proc[1].elems_recv = 7;
    stats.per_proc[2].messages = 3;
    stats
}

#[test]
fn fake_clock_drives_span_durations_and_exec_config() {
    let _guard = test_lock();
    reset_obs();
    let fake = Arc::new(obs::FakeClock::new());
    obs::set_clock(fake.clone());
    let sink = obs::CollectSink::new();
    let id = obs::install_sink(sink.clone());
    {
        let _span = obs::span("test.window");
        fake.advance(12_345);
    }
    obs::uninstall_sink(id);
    obs::reset_clock();
    let events = sink.take();
    match &events[1].event {
        obs::EventKind::SpanEnd { nanos, .. } => assert_eq!(*nanos, 12_345),
        other => panic!("unexpected {other:?}"),
    }
    // ExecConfig accepts an injected clock (compiles + runs with it).
    let config = ExecConfig::default().with_clock(Arc::new(obs::MonotonicClock));
    let part = Partition::new(6, Proc::P);
    let a = Matrix::identity(6);
    let (c, _) = multiply_partitioned_with(&a, &a, &part, &config).unwrap();
    assert!(c.max_abs_diff(&a) < 1e-12);
    reset_obs();
}
