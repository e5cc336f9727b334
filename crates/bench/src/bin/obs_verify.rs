//! Schema and protocol validator for observability artifacts.
//!
//! Reads an event JSONL file (written by a `JsonlSink`) through the
//! workspace's one loader (`hetmmm_report::input`) and checks that every
//! line parses as an `EventRecord` with the current schema version, that
//! span start/end events pair up, and that every `ExecSegment` is
//! well-formed (known kind, `end >= start`, peer present exactly when the
//! kind is peer-directed). Blank, unparseable or foreign-schema lines are
//! *skipped and counted* rather than aborting the scan, so one corrupt
//! line still yields a full report — but any skip fails the gate, and a
//! file where **nothing** parsed exits with the distinct code 3 (wrong
//! file, or a stream from a different schema epoch) so CI can tell
//! "corrupt artifact" from "pointed at the wrong artifact".
//!
//! With `--hb`, additionally checks the stream with the happens-before
//! protocol checker (`hetmmm_report::hb`): send/recv matching per attempt
//! window, checkpoint monotonicity, blame only after a backoff re-attempt
//! or a worker's self-report, no replay below the resume step, and at
//! most two unreceived messages per channel (rules H001–H005). A path
//! given to both `--file` and `--hb` is parsed once. Optionally validates
//! a manifest JSONL (`results/manifests.jsonl`) the same way. CI runs
//! this after a small `fig5_archetype_census` run and after the chaos
//! harness to guard both the wire format and the recovery protocol.
//!
//! Usage:
//!   obs_verify --file results/fig5_events.jsonl [--manifest results/manifests.jsonl]
//!   obs_verify --hb results/chaos_events.jsonl
//!
//! Exit codes: 0 clean, 1 violation (schema, structure, or happens-before),
//! 3 file had lines but none parsed.

use hetmmm_bench::Args;
use hetmmm_obs::{EventKind, MANIFEST_VERSION, SCHEMA_VERSION};
use hetmmm_report::{hb, EventLog, ManifestLog, Skip, SkipReason};
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

/// Print `msg` as a violation and return exit code 1.
fn fail(msg: String) -> ExitCode {
    eprintln!("obs_verify: {msg}");
    ExitCode::FAILURE
}

/// Why `skip` was skipped, in the words of its stream's record type.
fn why(skip: &Skip, record: &str, version: &str, expected: u32) -> String {
    match &skip.reason {
        SkipReason::Blank => "blank line".to_string(),
        SkipReason::Unparseable(e) => format!("unparseable {record}: {e}"),
        SkipReason::Foreign(v) => format!("{version} version {v} != expected {expected}"),
    }
}

fn read_events(path: &str) -> Result<EventLog, ExitCode> {
    EventLog::read_path(path).map_err(|e| fail(format!("{path}: {e}")))
}

/// Check span pairing and `ExecSegment` fields, then the skipped lines.
fn verify_events(path: &str, log: &EventLog) -> Result<(), ExitCode> {
    let mut open_spans: HashMap<u64, &str> = HashMap::new();
    let (mut spans, mut segments) = (0usize, 0usize);
    for (line, record) in log.numbered() {
        let at = |msg: String| fail(format!("{path}:{line}: {msg}"));
        match &record.event {
            EventKind::SpanStart { span, name, .. } => {
                if open_spans.insert(*span, name).is_some() {
                    return Err(at(format!("span id {span} opened twice")));
                }
                spans += 1;
            }
            EventKind::SpanEnd { span, name, .. } => match open_spans.remove(span) {
                Some(open_name) if open_name == name => {}
                Some(open_name) => {
                    return Err(at(format!(
                        "span id {span} opened as {open_name:?} but closed as {name:?}"
                    )));
                }
                None => return Err(at(format!("span id {span} closed but never opened"))),
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
                    return Err(at("segment with empty worker".to_string()));
                }
                if !SEGMENT_KINDS.contains(&kind.as_str()) {
                    return Err(at(format!("unknown segment kind {kind:?}")));
                }
                if end_nanos < start_nanos {
                    return Err(at(format!(
                        "segment ends before it starts ({end_nanos} < {start_nanos})"
                    )));
                }
                if PEER_KINDS.contains(&kind.as_str()) == peer.is_empty() {
                    return Err(at(format!("segment kind {kind:?} with peer {peer:?}")));
                }
                segments += 1;
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
    }
    if !open_spans.is_empty() {
        let mut names: Vec<&str> = open_spans.into_values().collect();
        names.sort_unstable();
        return Err(fail(format!(
            "{path}: {} unclosed span(s): {names:?}",
            names.len()
        )));
    }
    let (events, skipped) = (log.records.len(), log.skipped.len());
    match log.skipped.first() {
        Some(skip) if events == 0 => {
            eprintln!(
                "obs_verify: {path}: {skipped} line(s), none parsed as schema-v{SCHEMA_VERSION} \
                 event records (first skip at line {}: {}) — wrong file, or a stream from \
                 another schema epoch",
                skip.line,
                why(skip, "record", "schema", SCHEMA_VERSION)
            );
            Err(ExitCode::from(EXIT_NOTHING_PARSED))
        }
        None if events == 0 => Err(fail(format!(
            "{path}: no events — instrumentation produced nothing"
        ))),
        Some(skip) => Err(fail(format!(
            "{path}: {skipped} of {} line(s) skipped (first at line {}: {})",
            events + skipped,
            skip.line,
            why(skip, "record", "schema", SCHEMA_VERSION)
        ))),
        None => {
            println!(
                "{path}: OK — {events} events, {spans} balanced span(s), \
                 {segments} well-formed segment(s), schema v{SCHEMA_VERSION}"
            );
            Ok(())
        }
    }
}

fn verify_manifests(path: &str) -> Result<(), ExitCode> {
    // A missing or empty manifest file is a fresh checkout, not a schema
    // violation: report zero records and let main exit 0.
    let log = match ManifestLog::read_path(path) {
        Ok(log) => log,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => ManifestLog::default(),
        Err(e) => return Err(fail(format!("{path}: {e}"))),
    };
    // The first bad line in file order: skipped, or a nameless binary.
    let skipped = log.skipped.first().map(|skip| {
        let msg = why(skip, "manifest", "manifest", MANIFEST_VERSION);
        (skip.line, msg)
    });
    let nameless = log
        .numbered()
        .find(|(_, m)| m.bin.is_empty())
        .map(|(line, _)| (line, "empty binary name".to_string()));
    if let Some((line, msg)) = skipped.into_iter().chain(nameless).min() {
        return Err(fail(format!("{path}:{line}: {msg}")));
    }
    match log.records.len() {
        0 => println!("{path}: no manifests found (fresh checkout?) — nothing to verify"),
        count => println!("{path}: OK — {count} manifest record(s), v{MANIFEST_VERSION}"),
    }
    Ok(())
}

/// Run the happens-before checker over `log`, printing every violation
/// as `path:line: RULE message`.
fn verify_hb(path: &str, log: &EventLog) -> Result<(), ExitCode> {
    let report = hb::check(path, log);
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
        Err(fail(format!(
            "{path}: happens-before: {}",
            report.summary()
        )))
    }
}

fn run(args: &Args) -> Result<(), ExitCode> {
    let file = args.get_str("file");
    let hb_file = args.get_str("hb");
    if file.is_none() && hb_file.is_none() {
        eprintln!(
            "usage: obs_verify --file <events.jsonl> [--manifest <manifests.jsonl>] \
             [--hb <events.jsonl>]"
        );
        return Err(ExitCode::FAILURE);
    }
    let mut events = None;
    if let Some(file) = file {
        let log = read_events(file)?;
        verify_events(file, &log)?;
        events = Some(log);
    }
    if let Some(manifest) = args.get_str("manifest") {
        verify_manifests(manifest)?;
    }
    if let Some(hb_file) = hb_file {
        let log = match events {
            Some(log) if file == Some(hb_file) => log,
            _ => read_events(hb_file)?,
        };
        verify_hb(hb_file, &log)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    match run(&Args::parse()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}
