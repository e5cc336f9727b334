//! Integration tests for the timeline/attribution layer: a seeded
//! executor run under `FakeClock` exports a byte-identical Chrome trace,
//! segments reconstruct into a consistent per-worker timeline with a
//! critical path bounded by the makespan, every schema-v4 record the
//! executor emits round-trips through the JSONL wire format, and faulted
//! runs' streams satisfy the happens-before rules H001–H005.
//!
//! The obs facade is process-global, so every test serializes on
//! [`test_lock`] and restores global state before releasing it.

use hetmmm::mmm::{multiply_partitioned_with, ExecConfig, Matrix};
use hetmmm::prelude::*;
use hetmmm_obs as obs;
use hetmmm_report::{hb, EventLog, Timeline};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

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

fn striped_partition(n: usize) -> Partition {
    Partition::from_fn(n, |i, _| {
        if i < n / 3 {
            Proc::P
        } else if i < 2 * n / 3 {
            Proc::R
        } else {
            Proc::S
        }
    })
}

/// Run one instrumented executor multiply and return the captured records.
fn capture_run(n: usize, config: &ExecConfig) -> Vec<obs::EventRecord> {
    let sink = obs::CollectSink::new();
    let id = obs::install_sink(sink.clone());
    let part = striped_partition(n);
    let a = Matrix::from_fn(n, |i, j| (i * n + j) as f64);
    let b = Matrix::identity(n);
    let (_, stats) = multiply_partitioned_with(&a, &b, &part, config).expect("multiply");
    assert_eq!(stats.recovery.faults_detected, 0, "clean run expected");
    obs::uninstall_sink(id);
    sink.take()
}

#[test]
fn fake_clock_executor_trace_is_byte_identical() {
    let _guard = test_lock();
    reset_obs();
    let run = |block: usize| {
        let fake = Arc::new(obs::FakeClock::new());
        obs::set_clock(fake.clone());
        let config = ExecConfig::default().with_block(block).with_clock(fake);
        let records = capture_run(12, &config);
        obs::reset_clock();
        Timeline::from_events(&records).chrome_trace_json()
    };
    // At a block of 1 every worker sends each peer twelve messages.
    for block in [1, 4, 16] {
        let first = run(block);
        let second = run(block);
        assert!(!first.is_empty());
        assert_eq!(
            first, second,
            "same-seed FakeClock traces must be identical at block {block}"
        );
        // An unadvanced FakeClock stamps every segment at zero; the trace
        // is still structurally complete.
        assert!(first.contains("\"ph\":\"X\""));
        assert!(first.contains("\"thread_name\""));
        assert!(first.contains("compute"));
    }
    reset_obs();
}

#[test]
fn executor_segments_reconstruct_per_worker_timelines() {
    let _guard = test_lock();
    reset_obs();
    // Real monotonic clock: segments carry genuine durations, so the
    // timeline's attribution invariants are exercised with advancing time.
    // The empty fault plan arms checkpointing (clean runs skip it) without
    // injecting any fault; blocks of 4 of the 12 steps bank twice.
    let config = ExecConfig::default()
        .with_block(4)
        .with_fault_plan(FaultPlan::new());
    let records = capture_run(12, &config);
    reset_obs();

    let tl = Timeline::from_events(&records);
    assert!(!tl.is_empty(), "instrumented run must emit segments");
    let summaries = tl.summarize();
    assert_eq!(summaries.len(), 3, "one summary per processor");
    for (worker, s) in &summaries {
        assert!(
            s.compute_nanos > 0,
            "{worker} attributes compute time: {s:?}"
        );
        assert!(
            s.exe_nanos() >= s.compute_nanos,
            "{worker} exe covers compute"
        );
        assert!(
            (0.0..=1.0).contains(&s.overlap_fraction),
            "{worker} overlap fraction in range: {}",
            s.overlap_fraction
        );
    }
    // Every worker talks to both peers at every block: send and recv-wait
    // segments must be present and peer-directed.
    let mut kinds: Vec<&str> = tl.segments.iter().map(|s| s.kind.as_str()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert!(kinds.contains(&"send"));
    assert!(kinds.contains(&"recv-wait"));
    assert!(kinds.contains(&"checkpoint"));
    for seg in &tl.segments {
        assert!(seg.end_nanos >= seg.start_nanos, "well-formed: {seg:?}");
        let needs_peer = matches!(seg.kind.as_str(), "send" | "recv-wait");
        assert_eq!(needs_peer, !seg.peer.is_empty(), "peer discipline: {seg:?}");
    }

    // The critical path ends at the makespan and never exceeds it.
    let path = tl.critical_path();
    assert!(!path.segments.is_empty());
    assert!(path.length_nanos > 0);
    assert!(path.length_nanos <= tl.makespan_nanos());
    let last = path.segments.last().expect("non-empty path");
    assert_eq!(
        last.end_nanos,
        tl.segments
            .iter()
            .map(|s| s.end_nanos)
            .max()
            .expect("segments"),
        "critical path terminates at the latest-ending segment"
    );
}

#[test]
fn schema_v4_executor_records_round_trip_the_wire_format() {
    let _guard = test_lock();
    reset_obs();
    let fake = Arc::new(obs::FakeClock::new());
    obs::set_clock(fake.clone());
    let config = ExecConfig::default().with_clock(fake);
    let records = capture_run(12, &config);
    reset_obs();

    assert!(!records.is_empty());
    let mut segments = 0usize;
    for record in &records {
        assert_eq!(record.v, obs::SCHEMA_VERSION, "executor stamps v4");
        let line = serde_json::to_string(record).expect("serialize record");
        let back: obs::EventRecord = serde_json::from_str(&line).expect("parse record");
        assert_eq!(&back, record, "lossless wire round-trip");
        if matches!(record.event, obs::EventKind::ExecSegment { .. }) {
            segments += 1;
        }
    }
    assert!(segments > 0, "run must carry ExecSegment events");
}

/// Run one instrumented multiply under a fault plan and check its stream,
/// written out and read back as `obs_verify --hb` reads a file.
fn hb_check_faulted(n: usize, config: &ExecConfig, what: &str) {
    let sink = obs::CollectSink::new();
    let id = obs::install_sink(sink.clone());
    let a = Matrix::from_fn(n, |i, j| (i * n + j) as f64);
    let (c, _) = multiply_partitioned_with(&a, &Matrix::identity(n), &striped_partition(n), config)
        .expect("a single fault is survivable");
    obs::uninstall_sink(id);
    assert_eq!(c.max_abs_diff(&a), 0.0, "{what}: C = A·I");
    let text: String = sink
        .take()
        .iter()
        .map(|record| serde_json::to_string(record).expect("serialize record") + "\n")
        .collect();
    let report = hb::check(what, &EventLog::parse_str(&text));
    assert!(report.ok(), "{what}: {:?}", report.findings);
    assert_eq!((report.runs, report.skipped_lines), (1, 0), "{what}");
    assert!(report.windows >= 2, "{what}: {}", report.summary());
}

#[test]
fn faulted_executor_streams_satisfy_the_happens_before_rules() {
    let _guard = test_lock();
    reset_obs();
    let n = 12;
    let short = |timeout_ms| {
        ExecConfig::default()
            .with_recv_timeout(Duration::from_millis(timeout_ms))
            .with_retry_attempts(1)
            .with_backoff(Duration::from_millis(20), Duration::from_millis(40))
    };
    // Every single crash at blocks 1 and 4, 72 plans: the victim confesses
    // and its peers see the disconnect cascade.
    for block in [1, 4] {
        for victim in Proc::ALL {
            for step in 0..n {
                let config = short(200)
                    .with_block(block)
                    .with_fault_plan(FaultPlan::crash(victim, step));
                hb_check_faulted(
                    n,
                    &config,
                    &format!("{victim} crashes at {step}, block {block}"),
                );
            }
        }
    }
    // Inconclusive faults, with the fault tests' timeouts, earn a backoff
    // re-attempt before their conviction.
    let delay = FaultKind::DelaySendAt {
        step: 5,
        millis: 300,
    };
    let faults = [
        (200, FaultKind::DropMessageAt { step: 5 }),
        (80, FaultKind::StallAt { step: 5 }),
        (50, delay),
    ];
    for victim in Proc::ALL {
        for (timeout_ms, fault) in faults {
            let plan = FaultPlan::new().with_fault(victim, fault);
            let config = short(timeout_ms).with_block(4).with_fault_plan(plan);
            hb_check_faulted(n, &config, &format!("{victim}: {fault:?}, block 4"));
        }
    }
    reset_obs();
}
