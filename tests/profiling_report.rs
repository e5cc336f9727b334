//! Integration tests for the profiling/report layer (`hetmmm-report`)
//! over *live* instrumented runs: a seeded census captured under
//! `FakeClock` must report byte-identically, the span tree must reflect
//! real nesting across the rayon worker threads, and truncated streams
//! must degrade gracefully.

use hetmmm::prelude::*;
use hetmmm::{census, CensusConfig};
use hetmmm_obs as obs;
use hetmmm_report::{full_report, EventLog, FoldWeight, SpanProfile};
use std::sync::{Arc, Mutex, MutexGuard};

/// Serialize tests that touch the process-global facade state.
fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Restore pristine global state (no sinks, real clock, coarse spans).
fn reset_obs() {
    obs::uninstall_all_sinks();
    obs::reset_clock();
    obs::set_fine_spans(false);
    obs::metrics().set_enabled(false);
    obs::metrics().reset();
}

/// Run a seeded census slice under `FakeClock` with fine spans on and
/// return the raw JSONL the sink captured.
fn capture_census_jsonl(seed0: u64) -> Vec<u8> {
    obs::set_clock(Arc::new(obs::FakeClock::new()));
    obs::set_fine_spans(true);
    let buf = obs::SharedBuf::new();
    let id = obs::install_sink(Arc::new(obs::JsonlSink::to_writer(Box::new(buf.clone()))));
    let report = census(
        &CensusConfig::new(20, Ratio::new(2, 1, 1))
            .with_runs(6)
            .with_seed0(seed0),
    );
    assert_eq!(report.unconverged, 0, "seeded census must converge");
    obs::uninstall_sink(id);
    obs::set_fine_spans(false);
    obs::reset_clock();
    buf.contents()
}

#[test]
fn report_is_byte_identical_for_the_same_seed_under_fake_clock() {
    let _guard = test_lock();
    reset_obs();
    let first = capture_census_jsonl(3);
    let second = capture_census_jsonl(3);
    reset_obs();

    // The raw streams interleave differently across worker threads and
    // carry different span ids / thread ordinals — but the report
    // aggregates by span path and metric name, so it must match byte for
    // byte.
    let log_a = EventLog::parse_str(std::str::from_utf8(&first).unwrap());
    let log_b = EventLog::parse_str(std::str::from_utf8(&second).unwrap());
    assert!(log_a.skipped.is_empty());
    assert!(!log_a.records.is_empty());

    let report_a = full_report(&log_a, None);
    let report_b = full_report(&log_b, None);
    assert_eq!(report_a, report_b, "full report must be byte-identical");
    assert!(report_a.contains("push funnel:"));
    assert!(report_a.contains("steps_to_convergence"));
    assert!(report_a.contains("== span profile"));

    let folded_a = SpanProfile::from_events(&log_a.records).folded(FoldWeight::Calls);
    let folded_b = SpanProfile::from_events(&log_b.records).folded(FoldWeight::Calls);
    assert_eq!(folded_a, folded_b, "folded stacks must be byte-identical");
    assert!(
        !folded_a.is_empty(),
        "calls-weighted folded output stays non-empty under FakeClock"
    );
}

#[test]
fn live_profile_reflects_real_span_nesting_across_threads() {
    let _guard = test_lock();
    reset_obs();
    let bytes = capture_census_jsonl(5);
    reset_obs();
    let log = EventLog::parse_str(std::str::from_utf8(&bytes).unwrap());
    let profile = SpanProfile::from_events(&log.records);

    assert_eq!(profile.unmatched_ends, 0, "complete stream pairs fully");
    assert!(profile.threads >= 1);
    // The census span runs on the caller thread; DFA runs fan out over
    // rayon, so dfa.run roots live on worker threads. Fine-tier spans
    // must appear *nested*, never as roots.
    assert!(profile.roots.contains_key("census.run"));
    assert!(
        !profile.roots.contains_key("push.apply"),
        "push.apply only ever runs inside a coarse span"
    );
    let dfa = profile
        .roots
        .get("dfa.run")
        .expect("dfa.run spans on worker threads");
    let apply = dfa
        .children
        .get("push.apply")
        .expect("fine push.apply spans nest under dfa.run");
    assert!(apply.calls > 0);
    assert!(
        apply.children.contains_key("push.clean"),
        "the swap phase nests under the per-type attempt span"
    );
    // Phase-1 preparation (which reads the cached enclosing rectangle) is
    // computed once per (proc, dir) and shared across the six types, so
    // the rect lookup nests directly under dfa.run, not under push.apply.
    assert!(
        dfa.children.contains_key("partition.enclosing_rect"),
        "hoisted phase-1 rect lookup nests under the search loop"
    );
    assert!(
        dfa.children.contains_key("push.probe"),
        "fixed-point residual probes nest under the search loop"
    );

    // Funnel cross-check against the same stream: every accepted push is
    // one DfaPush event, and DfaRunEnd.steps counts exactly those.
    let analysis = hetmmm_report::Analysis::from_events(&log);
    let steps_sum = analysis.steps_to_convergence.as_ref().unwrap().sum;
    assert_eq!(
        analysis.funnel.accepted, steps_sum,
        "accepted pushes match summed steps-to-convergence"
    );
    assert_eq!(analysis.funnel.runs, 6);
}

#[test]
fn truncated_stream_degrades_to_unclosed_spans_not_errors() {
    let _guard = test_lock();
    reset_obs();
    let bytes = capture_census_jsonl(9);
    reset_obs();
    // Cut the artifact mid-stream, as a killed run would leave it.
    let half = &bytes[..bytes.len() / 2];
    let log = EventLog::parse_str(&String::from_utf8_lossy(half));
    assert!(!log.records.is_empty());

    let profile = SpanProfile::from_events(&log.records);
    let unclosed_total: u64 = {
        fn sum(nodes: &std::collections::BTreeMap<String, hetmmm_report::SpanNode>) -> u64 {
            nodes.values().map(|n| n.unclosed + sum(&n.children)).sum()
        }
        sum(&profile.roots)
    };
    assert!(
        unclosed_total > 0,
        "census.run (and friends) were still open at the cut"
    );
    // Rendering must not panic and must disclose the damage.
    let text = profile.render_text();
    assert!(text.contains("== span profile"));
}
