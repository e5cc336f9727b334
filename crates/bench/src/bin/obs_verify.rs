//! Schema and protocol validator for observability artifacts.
//!
//! Reads an event JSONL file (written by a `JsonlSink`) and checks that
//! every line parses as an `EventRecord` with the current schema version,
//! that span start/end events pair up, and that every `ExecSegment` is
//! well-formed (known kind, `end >= start`, peer present exactly when the
//! kind is peer-directed). Unparseable or foreign-schema lines are
//! *skipped and counted* rather than aborting the scan, so one corrupt
//! line still yields a full report — but any skip fails the gate, and a
//! file where **nothing** parsed exits with the distinct code 3 (wrong
//! file, or a stream from a different schema epoch) so CI can tell
//! "corrupt artifact" from "pointed at the wrong artifact".
//!
//! With `--hb`, additionally replays the stream through the
//! happens-before protocol checker (`hetmmm_report::hb`): vector clocks per
//! worker, send/recv matching per attempt window, checkpoint
//! monotonicity, blame-after-retry-budget discipline, no replay below the
//! resume step, and at most two unreceived messages per channel (rules
//! H001–H005). Optionally validates a manifest JSONL
//! (`results/manifests.jsonl`) the same way. CI runs this after a small
//! `fig5_archetype_census` run and after the chaos harness to guard both
//! the wire format and the recovery protocol.
//!
//! Usage:
//!   obs_verify --file results/fig5_events.jsonl [--manifest results/manifests.jsonl]
//!   obs_verify --hb results/chaos_events.jsonl
//!
//! Exit codes: 0 clean, 1 violation (schema, structure, or happens-before),
//! 3 file had lines but none parsed.

use hetmmm_bench::Args;
use hetmmm_obs::{EventKind, EventRecord, RunManifest, MANIFEST_VERSION, SCHEMA_VERSION};
use hetmmm_report::hb;
use std::collections::HashMap;
use std::process::ExitCode;

/// Exit code for "the file has lines, but not one parsed as a current-
/// schema event record": the caller almost certainly pointed at the wrong
/// artifact (e.g. a chaos *schedule* log instead of an event stream) or at
/// a stream from an old schema epoch.
const EXIT_NOTHING_PARSED: u8 = 3;

/// Timeline vocabulary an `ExecSegment.kind` may use (schema v4).
const SEGMENT_KINDS: [&str; 4] = ["compute", "send", "recv-wait", "checkpoint"];
/// The subset of [`SEGMENT_KINDS`] that must carry a non-empty `peer`.
const PEER_KINDS: [&str; 2] = ["send", "recv-wait"];

/// What a lenient event scan produced.
struct EventsReport {
    /// Records that parsed with the current schema version.
    events: usize,
    /// Balanced span pairs seen.
    spans: usize,
    /// Well-formed `ExecSegment`s seen.
    segments: usize,
    /// Lines that did not parse (bad JSON, blank, or foreign schema).
    skipped: usize,
    /// 1-based line and reason of the first skip, for the error message.
    first_skip: Option<(usize, String)>,
}

fn verify_events(path: &str) -> Result<EventsReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut open_spans: HashMap<u64, String> = HashMap::new();
    let mut report = EventsReport {
        events: 0,
        spans: 0,
        segments: 0,
        skipped: 0,
        first_skip: None,
    };
    let skip = |report: &mut EventsReport, lineno: usize, why: String| {
        report.skipped += 1;
        if report.first_skip.is_none() {
            report.first_skip = Some((lineno + 1, why));
        }
    };
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            skip(&mut report, lineno, "blank line".to_string());
            continue;
        }
        let record: EventRecord = match serde_json::from_str(line) {
            Ok(record) => record,
            Err(e) => {
                skip(&mut report, lineno, format!("unparseable record: {e}"));
                continue;
            }
        };
        if record.v != SCHEMA_VERSION {
            skip(
                &mut report,
                lineno,
                format!("schema version {} != expected {SCHEMA_VERSION}", record.v),
            );
            continue;
        }
        match &record.event {
            EventKind::SpanStart { span, name, .. } => {
                if open_spans.insert(*span, name.clone()).is_some() {
                    return Err(format!(
                        "{path}:{}: span id {span} opened twice",
                        lineno + 1
                    ));
                }
                report.spans += 1;
            }
            EventKind::SpanEnd { span, name, .. } => match open_spans.remove(span) {
                Some(open_name) if &open_name == name => {}
                Some(open_name) => {
                    return Err(format!(
                        "{path}:{}: span id {span} opened as {open_name:?} but closed as {name:?}",
                        lineno + 1
                    ));
                }
                None => {
                    return Err(format!(
                        "{path}:{}: span id {span} closed but never opened",
                        lineno + 1
                    ));
                }
            },
            EventKind::ExecSegment {
                worker,
                kind,
                peer,
                start_nanos,
                end_nanos,
                ..
            } => {
                if worker.is_empty() {
                    return Err(format!("{path}:{}: segment with empty worker", lineno + 1));
                }
                if !SEGMENT_KINDS.contains(&kind.as_str()) {
                    return Err(format!(
                        "{path}:{}: unknown segment kind {kind:?}",
                        lineno + 1
                    ));
                }
                if end_nanos < start_nanos {
                    return Err(format!(
                        "{path}:{}: segment ends before it starts ({end_nanos} < {start_nanos})",
                        lineno + 1
                    ));
                }
                if PEER_KINDS.contains(&kind.as_str()) == peer.is_empty() {
                    return Err(format!(
                        "{path}:{}: segment kind {kind:?} with peer {peer:?}",
                        lineno + 1
                    ));
                }
                report.segments += 1;
            }
            // No wildcard arm: a new variant fails to compile here until
            // this scan decides whether it has structure to validate.
            // Free-form and DFA events have no cross-record structure.
            EventKind::Message { .. }
            | EventKind::DfaRunStart { .. }
            | EventKind::DfaPush { .. }
            | EventKind::DfaPushRejected { .. }
            | EventKind::DfaRunEnd { .. }
            // Executor protocol ordering is checked by the --hb pass.
            | EventKind::ExecSend { .. }
            | EventKind::ExecRecv { .. }
            | EventKind::ExecPeerLost { .. }
            | EventKind::ExecRetry { .. }
            | EventKind::ExecResume { .. }
            | EventKind::ExecCheckpoint { .. }
            | EventKind::ExecDegraded { .. }
            | EventKind::ExecBlame { .. }
            | EventKind::ExecRepartition { .. }
            // Simulator and k-proc summaries are self-contained records.
            | EventKind::SimRun { .. }
            | EventKind::SimPhase { .. }
            | EventKind::NprocRunEnd { .. } => {}
        }
        report.events += 1;
    }
    if !open_spans.is_empty() {
        let mut names: Vec<&String> = open_spans.values().collect();
        names.sort();
        return Err(format!(
            "{path}: {} unclosed span(s): {names:?}",
            open_spans.len()
        ));
    }
    Ok(report)
}

fn verify_manifests(path: &str) -> Result<usize, String> {
    // A missing or empty manifest file is a fresh checkout, not a schema
    // violation: report zero records and let main exit 0.
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(format!("{path}: {e}")),
    };
    let mut count = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let manifest: RunManifest = serde_json::from_str(line)
            .map_err(|e| format!("{path}:{}: unparseable manifest: {e}", lineno + 1))?;
        if manifest.v != MANIFEST_VERSION {
            return Err(format!(
                "{path}:{}: manifest version {} != expected {MANIFEST_VERSION}",
                lineno + 1,
                manifest.v
            ));
        }
        if manifest.bin.is_empty() {
            return Err(format!("{path}:{}: empty binary name", lineno + 1));
        }
        count += 1;
    }
    Ok(count)
}

/// Run the happens-before checker over `path`, printing every violation
/// as `path:line: RULE message`. `Err` carries the exit code.
fn verify_hb(path: &str) -> Result<(), ExitCode> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("obs_verify: {path}: {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    let report = hb::check_stream(path, &text);
    if report.events == 0 && report.skipped_lines > 0 {
        eprintln!(
            "obs_verify: {path}: {} line(s), none parsed as schema-v{SCHEMA_VERSION} \
             event records — wrong file, or a stream from another schema epoch",
            report.skipped_lines
        );
        return Err(ExitCode::from(EXIT_NOTHING_PARSED));
    }
    for f in &report.findings {
        println!("{}:{}: {} {}", f.path, f.line, f.rule, f.message);
    }
    if report.ok() {
        println!("{path}: HB OK — {}", report.summary());
        Ok(())
    } else {
        eprintln!("obs_verify: {path}: happens-before: {}", report.summary());
        Err(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let args = Args::parse();
    let file = args.get_str("file");
    let hb_file = args.get_str("hb");
    if file.is_none() && hb_file.is_none() {
        eprintln!(
            "usage: obs_verify --file <events.jsonl> [--manifest <manifests.jsonl>] \
             [--hb <events.jsonl>]"
        );
        return ExitCode::FAILURE;
    }
    if let Some(file) = file {
        match verify_events(file) {
            Ok(report) if report.events == 0 && report.skipped > 0 => {
                let (line, why) = report.first_skip.unwrap_or((1, "empty".to_string()));
                eprintln!(
                    "obs_verify: {file}: {} line(s), none parsed as schema-v{SCHEMA_VERSION} \
                     event records (first skip at line {line}: {why}) — wrong file, or a \
                     stream from another schema epoch",
                    report.skipped
                );
                return ExitCode::from(EXIT_NOTHING_PARSED);
            }
            Ok(report) if report.events == 0 => {
                eprintln!("obs_verify: {file}: no events — instrumentation produced nothing");
                return ExitCode::FAILURE;
            }
            Ok(report) if report.skipped > 0 => {
                let (line, why) = report.first_skip.unwrap_or((1, "unknown".to_string()));
                eprintln!(
                    "obs_verify: {file}: {} of {} line(s) skipped (first at line {line}: {why})",
                    report.skipped,
                    report.events + report.skipped
                );
                return ExitCode::FAILURE;
            }
            Ok(report) => {
                println!(
                    "{file}: OK — {} events, {} balanced span(s), \
                     {} well-formed segment(s), schema v{SCHEMA_VERSION}",
                    report.events, report.spans, report.segments
                );
            }
            Err(err) => {
                eprintln!("obs_verify: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(manifest) = args.get_str("manifest") {
        match verify_manifests(manifest) {
            Ok(0) => {
                println!("{manifest}: no manifests found (fresh checkout?) — nothing to verify");
            }
            Ok(count) => {
                println!("{manifest}: OK — {count} manifest record(s), v{MANIFEST_VERSION}");
            }
            Err(err) => {
                eprintln!("obs_verify: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(hb_file) = hb_file {
        if let Err(code) = verify_hb(hb_file) {
            return code;
        }
    }
    ExitCode::SUCCESS
}
