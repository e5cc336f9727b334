//! Happens-before protocol checker for schema-v4 executor event streams.
//!
//! The recovery executor (`crates/mmm/src/parallel.rs`) emits a typed
//! event trail — `ExecSend`/`ExecRecv`/`ExecRetry`/`ExecCheckpoint`/
//! `ExecResume`/`ExecBlame`/… — whose *ordering* carries the protocol's
//! correctness argument. [`check`] reads a parsed stream ([`EventLog`]),
//! cuts it into attempt windows, and checks five invariants:
//!
//! | id   | invariant |
//! |------|-----------|
//! | H001 | every receive has a matching send in the same attempt (same `from`/`to`/`step`, same element count, one receive per send) |
//! | H002 | checkpoint `through` is monotone per worker within an attempt and never below the attempt's `resume_step` |
//! | H003 | blame (`ExecBlame`) is emitted only after the retry budget was exhausted (an `ExecResume` with a backoff preceded it) or on a self-report (an `ExecPeerLost` with `worker == peer`) |
//! | H004 | after `ExecResume { resume_step }`, no worker event replays a step below `resume_step` |
//! | H005 | within an attempt, each ordered worker pair's non-empty sends never lead its non-empty receives by more than two |
//!
//! **Why attempt windows are enough.** The executor is a 3-worker star:
//! workers exchange messages only pairwise per block, and the supervisor
//! is a global barrier — it joins every worker thread before deciding on
//! retry, conviction, or resume. Each `ExecResume` (and each `exec.run`
//! span) therefore totally orders the attempts: every event of attempt
//! *i* happens-before every event of attempt *i + 1*, and no message
//! crosses from one to the next. So checking send/recv matching *within*
//! an attempt window plus per-window step bounds is sound, and no
//! per-worker clock would add an edge the barrier has not already
//! ordered.
//!
//! **Why H003 reads structure.** The supervisor convicts at once only
//! when a worker confessed: a modeled crash confesses after its thread
//! is joined, a panic is caught at the join, and both emit an
//! `ExecPeerLost` naming the worker itself. Any other failure is
//! inconclusive and earns a backoff re-attempt first. A peer's "channel
//! disconnected" testimony is no evidence: nearly every failed attempt
//! produces it, as the cascade from a peer that exited after detecting
//! the real failure.
//!
//! **Why H005 can read the stream's order.** A worker sends a peer its
//! message for a block only after receiving that peer's message for the
//! block before, which the peer sent only after receiving the worker's
//! message for the block before that. So a third unreceived message in a
//! channel means a worker ran ahead of the lockstep, and the executor's
//! unbounded channels rest on that never happening. `obs::emit` writes
//! each record under the sink's lock before the emitting worker goes on,
//! so a receive that happened before a send is already in the stream when
//! the send's line is written. A receive's line may still land before
//! its own send's (the race H001 tolerates), which only lowers the count.
//!
//! Every finding cites the exact 1-based line of the offending event.

use crate::input::EventLog;
use hetmmm_obs::EventKind;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// H005's bound: non-empty messages one worker may have sent a peer and
/// the peer not yet received, within one attempt.
const MAX_IN_FLIGHT: i64 = 2;

/// One protocol violation at one line of the stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HbFinding {
    /// Rule id, `H001`–`H005`.
    pub rule: &'static str,
    /// The stream's label (typically its file path).
    pub path: String,
    /// 1-based line of the offending event.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Outcome of a happens-before pass over one stream.
#[derive(Debug, Default)]
pub struct HbReport {
    /// Protocol violations, with the offending event's line number.
    pub findings: Vec<HbFinding>,
    /// Parsed event records.
    pub events: usize,
    /// Events that participated in the protocol model (`Exec*`).
    pub exec_events: usize,
    /// Lines the loader skipped (blank, unparseable, foreign schema).
    pub skipped_lines: usize,
    /// Executor runs seen (`exec.run` spans; 1 implicit run otherwise).
    pub runs: usize,
    /// Attempt windows checked (initial attempt + one per `ExecResume`).
    pub windows: usize,
    /// Most non-empty messages any one channel held unreceived (H005).
    pub max_in_flight: u64,
}

impl HbReport {
    /// Did the stream satisfy every invariant?
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "hb: {} events ({} exec) across {} run(s), {} attempt window(s), {} skipped line(s)",
            self.events, self.exec_events, self.runs, self.windows, self.skipped_lines
        );
        if self.max_in_flight > 0 {
            let _ = write!(out, "; at most {} message(s) in flight", self.max_in_flight);
        }
        let _ = write!(out, "; {} violation(s)", self.findings.len());
        out
    }
}

/// A message's `(from, to, step)`, unique within an attempt.
type MessageKey = (String, String, u64);

/// Mutable state of the attempt window currently being read.
#[derive(Default)]
struct Window {
    resume_step: u64,
    /// Each key's sends as `(elems, line)`, in stream order.
    sends: BTreeMap<MessageKey, VecDeque<(u64, usize)>>,
    /// Each non-empty receive as `(key, elems, line)`.
    recvs: Vec<(MessageKey, u64, usize)>,
    /// Per-worker highest checkpoint `through` seen this window.
    through: BTreeMap<String, (u64, usize)>,
    /// Per `(from, to)`: non-empty sends minus non-empty receives so far.
    /// Negative while a receive's line precedes its send's.
    in_flight: BTreeMap<(String, String), i64>,
}

/// Full checker state for one stream.
struct Checker<'a> {
    label: &'a str,
    report: HbReport,
    window: Window,
    /// Conviction-episode evidence since the last blame: a supervisor
    /// backoff re-attempt (`ExecResume` with `backoff_nanos > 0`).
    retried: bool,
    /// Conviction-episode evidence since the last blame: a self-report
    /// (`ExecPeerLost` with `worker == peer`).
    confessed: bool,
    in_run: bool,
}

/// Check a parsed event stream. `label` names the stream in findings
/// (typically the file path).
pub fn check(label: &str, log: &EventLog) -> HbReport {
    let mut ck = Checker {
        label,
        report: HbReport {
            events: log.records.len(),
            skipped_lines: log.skipped.len(),
            ..HbReport::default()
        },
        window: Window::default(),
        retried: false,
        confessed: false,
        in_run: false,
    };
    for (line, record) in log.numbered() {
        ck.event(&record.event, line);
    }
    let last = std::mem::take(&mut ck.window);
    ck.match_window(last);
    ck.report
}

impl Checker<'_> {
    fn flag(&mut self, rule: &'static str, line: usize, message: String) {
        self.report.findings.push(HbFinding {
            rule,
            path: self.label.to_string(),
            line,
            message,
        });
    }

    /// H004: a worker event tagged `step` must not precede the window's
    /// resume step.
    fn check_step(&mut self, what: &str, worker: &str, step: u64, line: usize) {
        if step < self.window.resume_step {
            self.flag(
                "H004",
                line,
                format!(
                    "{what} by {worker} replays step {step} below the attempt's \
                     resume_step {} — checkpointed work would be double-applied",
                    self.window.resume_step
                ),
            );
        }
    }

    /// H005: move `from → to`'s in-flight count by `delta` (+1 for a
    /// non-empty send, -1 for a non-empty receive) and flag a send that
    /// leaves more than [`MAX_IN_FLIGHT`] messages unreceived.
    fn count_in_flight(&mut self, from: &str, to: &str, delta: i64, line: usize) {
        let key = (from.to_string(), to.to_string());
        let count = self.window.in_flight.entry(key).or_default();
        *count += delta;
        let count = *count;
        let held = u64::try_from(count).unwrap_or(0);
        self.report.max_in_flight = self.report.max_in_flight.max(held);
        if delta > 0 && count > MAX_IN_FLIGHT {
            self.flag(
                "H005",
                line,
                format!(
                    "send {from}→{to} leaves {count} non-empty messages unreceived in \
                     this attempt; lockstep allows at most {MAX_IN_FLIGHT}"
                ),
            );
        }
    }

    /// H002: a worker's banks advance within an attempt, from its resume
    /// step on.
    fn checkpoint(&mut self, worker: &str, through: u64, line: usize) {
        if through < self.window.resume_step {
            self.flag(
                "H002",
                line,
                format!(
                    "checkpoint by {worker} banks through {through}, below the \
                     attempt's resume_step {}",
                    self.window.resume_step
                ),
            );
        }
        if let Some(&(prev, prev_line)) = self.window.through.get(worker) {
            if through < prev {
                self.flag(
                    "H002",
                    line,
                    format!(
                        "checkpoint by {worker} regresses: through {through} after \
                         banking through {prev} (line {prev_line}) in the same attempt"
                    ),
                );
            }
        }
        let entry = self
            .window
            .through
            .entry(worker.to_string())
            .or_insert((through, line));
        if through >= entry.0 {
            *entry = (through, line);
        }
    }

    /// H003: a blame needs a backoff re-attempt or a self-report since the
    /// previous blame; a conviction closes its evidence episode.
    fn blame(&mut self, dead: &str, line: usize) {
        if !self.retried && !self.confessed {
            self.flag(
                "H003",
                line,
                format!(
                    "{dead} blamed before retry-budget exhaustion: no backoff \
                     re-attempt (ExecResume with backoff_nanos > 0) and no self-report \
                     (ExecPeerLost with worker == peer) precede this blame"
                ),
            );
        }
        self.retried = false;
        self.confessed = false;
    }

    /// Count the implicit run of a stream whose executor events come
    /// without an `exec.run` span.
    fn ensure_run(&mut self) {
        if !self.in_run {
            self.in_run = true;
            self.report.runs += 1;
            self.report.windows += 1;
        }
    }

    /// Close the current attempt window and open the next one.
    fn open_window(&mut self, resume_step: u64) {
        let next = Window {
            resume_step,
            ..Window::default()
        };
        let closed = std::mem::replace(&mut self.window, next);
        self.report.windows += 1;
        self.match_window(closed);
    }

    fn event(&mut self, event: &EventKind, line: usize) {
        match event {
            EventKind::SpanStart { name, .. } if name == "exec.run" => {
                self.open_window(0);
                self.in_run = true;
                self.report.runs += 1;
                self.retried = false;
                self.confessed = false;
                return;
            }
            EventKind::ExecResume {
                resume_step,
                backoff_nanos,
                ..
            } => {
                self.ensure_run();
                self.open_window(*resume_step);
                self.retried |= *backoff_nanos > 0;
                return;
            }
            EventKind::ExecSend {
                from,
                to,
                step,
                elems,
            } => {
                self.check_step("send", from, *step, line);
                if *elems > 0 {
                    self.count_in_flight(from, to, 1, line);
                }
                self.window
                    .sends
                    .entry((from.clone(), to.clone(), *step))
                    .or_default()
                    .push_back((*elems, line));
            }
            EventKind::ExecRecv {
                from,
                to,
                step,
                elems,
                ..
            } => {
                self.check_step("recv", to, *step, line);
                if *elems > 0 {
                    self.count_in_flight(from, to, -1, line);
                    let key = (from.clone(), to.clone(), *step);
                    self.window.recvs.push((key, *elems, line));
                }
            }
            EventKind::ExecRetry { worker, step, .. } => {
                self.check_step("retry", worker, *step, line);
            }
            EventKind::ExecSegment { worker, step, .. } => {
                self.check_step("segment", worker, *step, line);
            }
            EventKind::ExecCheckpoint {
                worker, through, ..
            } => self.checkpoint(worker, *through, line),
            EventKind::ExecPeerLost {
                worker, peer, step, ..
            } => {
                // A self-report (a crash confession, or a panic caught at
                // join) is what the supervisor convicts on at once, and
                // it is testimony about where the fault fired, not work
                // being replayed, so H004 exempts it. The panic path
                // cannot even know a step and tags 0.
                if worker == peer {
                    self.confessed = true;
                } else {
                    self.check_step("peer-lost report", worker, *step, line);
                }
            }
            EventKind::ExecBlame { dead, .. } => self.blame(dead, line),
            EventKind::ExecRepartition { .. } | EventKind::ExecDegraded { .. } => {}
            _ => return,
        }
        self.ensure_run();
        self.report.exec_events += 1;
    }

    /// H001 is checked when a window closes, so that benign emission
    /// races (a receiver writing its `ExecRecv` line before the sender's
    /// `ExecSend` hits the sink) cannot produce false positives: within
    /// an attempt window, matching is order-free.
    fn match_window(&mut self, window: Window) {
        let Window {
            mut sends, recvs, ..
        } = window;
        for (key, elems, line) in recvs {
            let (from, to, step) = &key;
            let message = match sends.get_mut(&key).map(VecDeque::pop_front) {
                Some(Some((sent, _))) if sent == elems => continue,
                Some(Some((sent, sent_line))) => format!(
                    "recv {from}→{to} step {step} carries {elems} elems but the matching \
                     send (line {sent_line}) carried {sent}"
                ),
                Some(None) => format!(
                    "recv {from}→{to} step {step} received a message that was only \
                     sent once — duplicate delivery in one attempt"
                ),
                None => format!(
                    "recv {from}→{to} step {step} completed with no matching send in \
                     this attempt"
                ),
            };
            self.flag("H001", line, message);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmmm_obs::{EventKind as EK, EventRecord, SCHEMA_VERSION};

    fn rec(ts: u64, event: EK) -> String {
        serde_json::to_string(&EventRecord {
            v: SCHEMA_VERSION,
            ts_nanos: ts,
            event,
        })
        .expect("serialize")
    }

    fn span_start(name: &str) -> EK {
        EK::SpanStart {
            span: 1,
            name: name.to_string(),
            arg: 0,
            tid: 0,
        }
    }

    fn send(from: &str, to: &str, step: u64, elems: u64) -> EK {
        EK::ExecSend {
            from: from.into(),
            to: to.into(),
            step,
            elems,
        }
    }

    fn recv(from: &str, to: &str, step: u64, elems: u64) -> EK {
        EK::ExecRecv {
            from: from.into(),
            to: to.into(),
            step,
            elems,
            wait_nanos: 5,
        }
    }

    fn checkpoint(worker: &str, through: u64) -> EK {
        EK::ExecCheckpoint {
            worker: worker.into(),
            through,
            cells: 4,
        }
    }

    fn resume(attempt: u64, resume_step: u64, backoff_nanos: u64) -> EK {
        EK::ExecResume {
            attempt,
            resume_step,
            resumed: resume_step,
            replayed: 0,
            survivors: 3,
            backoff_nanos,
        }
    }

    fn peer_lost(worker: &str, peer: &str, step: u64, detail: &str) -> EK {
        EK::ExecPeerLost {
            worker: worker.into(),
            peer: peer.into(),
            step,
            detail: detail.into(),
        }
    }

    fn blame(dead: &str) -> EK {
        EK::ExecBlame {
            dead: dead.into(),
            weights: vec![0, 3, 0],
        }
    }

    fn text(events: Vec<EK>) -> String {
        events
            .into_iter()
            .enumerate()
            .map(|(i, e)| rec(i as u64, e))
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn stream(events: Vec<EK>) -> EventLog {
        EventLog::parse_str(&text(events))
    }

    #[test]
    fn clean_exchange_passes_with_clocks() {
        let log = stream(vec![
            span_start("exec.run"),
            send("R", "S", 0, 7),
            recv("R", "S", 0, 7),
            send("S", "R", 0, 3),
            recv("S", "R", 0, 3),
            checkpoint("R", 1),
            checkpoint("R", 2),
        ]);
        let report = check("t.jsonl", &log);
        assert!(report.ok(), "{:?}", report.findings);
        assert_eq!(report.runs, 1);
        assert_eq!(report.windows, 1);
        assert!(report.summary().contains("violation(s)"));
    }

    #[test]
    fn h001_fires_on_recv_without_send_with_line() {
        let log = stream(vec![
            span_start("exec.run"),
            send("R", "S", 0, 7),
            recv("R", "S", 0, 7),
            recv("S", "R", 2, 5), // never sent
        ]);
        let report = check("t.jsonl", &log);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "H001");
        assert_eq!(report.findings[0].line, 4);
        assert!(report.findings[0].message.contains("no matching send"));
    }

    #[test]
    fn h001_is_order_free_within_a_window() {
        // Emission race: the recv line lands before its send line. Must
        // NOT fire — matching is per-window, not per-stream-order.
        let log = stream(vec![
            span_start("exec.run"),
            recv("R", "S", 0, 7),
            send("R", "S", 0, 7),
        ]);
        assert!(check("t.jsonl", &log).ok());
    }

    #[test]
    fn h001_fires_on_elems_mismatch_and_duplicate_delivery() {
        let log = stream(vec![
            span_start("exec.run"),
            send("R", "S", 0, 7),
            recv("R", "S", 0, 9), // wrong payload size
        ]);
        let report = check("t.jsonl", &log);
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].message.contains("carries 9 elems"));

        let log = stream(vec![
            span_start("exec.run"),
            send("R", "S", 0, 7),
            recv("R", "S", 0, 7),
            recv("R", "S", 0, 7), // delivered twice
        ]);
        let report = check("t.jsonl", &log);
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].message.contains("duplicate delivery"));
    }

    #[test]
    fn h002_fires_on_checkpoint_regression() {
        let log = stream(vec![
            span_start("exec.run"),
            checkpoint("R", 5),
            checkpoint("R", 3),
        ]);
        let report = check("t.jsonl", &log);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "H002");
        assert_eq!(report.findings[0].line, 3);
        assert!(report.findings[0].message.contains("regresses"));
    }

    #[test]
    fn h002_allows_regression_across_attempts() {
        // Another worker lagged, so attempt 2 resumes at 3; R re-banks 4
        // after having banked 5 in attempt 1. Legal: windows reset.
        let log = stream(vec![
            span_start("exec.run"),
            checkpoint("R", 5),
            resume(2, 3, 1000),
            checkpoint("R", 4),
        ]);
        assert!(check("t.jsonl", &log).ok());
    }

    #[test]
    fn h003_fires_on_blame_before_retry() {
        let log = stream(vec![
            span_start("exec.run"),
            peer_lost("R", "S", 2, "receive timed out"),
            blame("S"),
        ]);
        let report = check("t.jsonl", &log);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "H003");
        assert_eq!(report.findings[0].line, 3);
    }

    #[test]
    fn h003_accepts_blame_after_backoff_resume_or_disconnect() {
        // Inconclusive evidence, but a backoff re-attempt was burned.
        let log = stream(vec![
            span_start("exec.run"),
            peer_lost("R", "S", 2, "receive timed out"),
            resume(2, 0, 20_000),
            peer_lost("R", "S", 2, "receive timed out"),
            blame("S"),
        ]);
        assert!(check("t.jsonl", &log).ok());
        // A bare disconnect is the cascade nearly every failed attempt
        // produces, not a confession: no justification.
        let log = stream(vec![
            span_start("exec.run"),
            peer_lost("R", "S", 2, "channel disconnected"),
            blame("S"),
        ]);
        let report = check("t.jsonl", &log);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "H003");
        // A second conviction needs fresh evidence.
        let log = stream(vec![
            span_start("exec.run"),
            peer_lost("S", "S", 2, "worker crashed (injected fault)"),
            blame("S"),
            peer_lost("R", "P", 4, "receive timed out"),
            blame("P"),
        ]);
        let report = check("t.jsonl", &log);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "H003");
        assert_eq!(report.findings[0].line, 5);
    }

    #[test]
    fn h003_convicts_on_a_self_report_not_on_a_disconnect() {
        // Structure, not prose: a peer's testimony is no justification
        // whatever its detail says, and a worker's report on itself is.
        for (worker, detail, ok) in [
            ("R", "channel disconnected", false),
            ("R", "worker panicked: boom", false),
            ("S", "worker crashed (injected fault)", true),
            ("S", "worker panicked: boom", true),
        ] {
            let lost = peer_lost(worker, "S", 0, detail);
            let report = check(
                "t.jsonl",
                &stream(vec![span_start("exec.run"), lost, blame("S")]),
            );
            assert_eq!(report.ok(), ok, "{worker}: {detail}");
            assert!(report
                .findings
                .iter()
                .all(|f| f.rule == "H003" && f.line == 3));
        }
    }

    #[test]
    fn h004_fires_on_step_below_resume() {
        let log = stream(vec![
            span_start("exec.run"),
            resume(2, 4, 1000),
            send("R", "S", 2, 7), // replaying step 2 < resume 4
        ]);
        let report = check("t.jsonl", &log);
        assert!(report.findings.iter().any(|f| f.rule == "H004"));
        let h004 = report.findings.iter().find(|f| f.rule == "H004").unwrap();
        assert_eq!(h004.line, 3);
        assert!(h004.message.contains("below the attempt's resume_step 4"));
    }

    #[test]
    fn h005_fires_on_a_third_unreceived_send() {
        let log = stream(vec![
            span_start("exec.run"),
            send("R", "S", 0, 7),
            send("R", "S", 4, 7),
            send("R", "S", 8, 7), // R ran a block ahead of the lockstep
            recv("R", "S", 0, 7),
            recv("R", "S", 4, 7),
            recv("R", "S", 8, 7),
        ]);
        let report = check("t.jsonl", &log);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].rule, "H005");
        assert_eq!(report.findings[0].line, 4);
        assert!(report.findings[0].message.contains("leaves 3 non-empty"));
        assert_eq!(report.max_in_flight, 3);
    }

    #[test]
    fn h005_allows_two_in_flight_and_resets_per_attempt() {
        // Lockstep at its widest: two sends ahead, an empty send that does
        // not count, and two more unreceived sends after a resume, whose
        // window starts from zero.
        let log = stream(vec![
            span_start("exec.run"),
            send("R", "S", 0, 7),
            send("R", "S", 4, 7),
            send("R", "S", 6, 0),
            recv("R", "S", 0, 7),
            send("R", "S", 8, 7),
            resume(2, 8, 1000),
            send("R", "S", 8, 7),
            send("R", "S", 12, 7),
        ]);
        let report = check("t.jsonl", &log);
        assert!(report.ok(), "{:?}", report.findings);
        assert_eq!(report.max_in_flight, 2);
        assert!(report.summary().contains("at most 2 message(s) in flight"));
    }

    #[test]
    fn runs_reset_windows_and_evidence() {
        // Two runs back to back: matching never crosses an exec.run span.
        let log = stream(vec![
            span_start("exec.run"),
            send("R", "S", 0, 7),
            recv("R", "S", 0, 7),
            span_start("exec.run"),
            recv("R", "S", 0, 7), // second run: no send yet
        ]);
        let report = check("t.jsonl", &log);
        assert_eq!(report.runs, 2);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "H001");
    }

    #[test]
    fn lenient_parse_counts_skips_and_ignores_foreign_schema() {
        let mut raw = text(vec![span_start("exec.run"), send("R", "S", 0, 1)]);
        raw.push_str("\n\nnot json at all\n");
        raw.push_str(
            &rec(9, send("R", "S", 1, 1)).replace(&format!("\"v\":{SCHEMA_VERSION}"), "\"v\":1"),
        );
        let report = check("t.jsonl", &EventLog::parse_str(&raw));
        assert_eq!(report.events, 2);
        assert_eq!(report.skipped_lines, 3);
    }

    #[test]
    fn stream_without_exec_events_passes_trivially() {
        let report = check("t.jsonl", &stream(vec![span_start("dfa.run")]));
        assert!(report.ok());
        assert_eq!(report.runs, 0);
        assert_eq!(report.exec_events, 0);
    }
}
