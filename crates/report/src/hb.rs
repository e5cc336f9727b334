//! Happens-before protocol checker for schema-v4 executor event streams.
//!
//! The recovery executor (`crates/mmm/src/parallel.rs`) emits a typed
//! event trail — `ExecSend`/`ExecRecv`/`ExecRetry`/`ExecCheckpoint`/
//! `ExecResume`/`ExecBlame`/… — whose *ordering* carries the protocol's
//! correctness argument. This module replays a JSONL stream of those
//! events, builds per-worker vector clocks, and checks five invariants:
//!
//! | id   | invariant |
//! |------|-----------|
//! | H001 | every receive has a matching send in the same attempt (same `from`/`to`/`step`, same element count, one receive per send) |
//! | H002 | checkpoint `through` is monotone per worker within an attempt and never below the attempt's `resume_step` |
//! | H003 | blame (`ExecBlame`) is emitted only after the retry budget was exhausted (an `ExecResume` with a backoff preceded it) or on conclusive evidence (a disconnect/panic/crash testimony) |
//! | H004 | after `ExecResume { resume_step }`, no worker event replays a step below `resume_step` |
//! | H005 | within an attempt, each ordered worker pair's non-empty sends never lead its non-empty receives by more than two |
//!
//! **Why vector clocks suffice here.** The executor is a 3-worker star:
//! workers exchange messages only pairwise per block, and the supervisor
//! is a global barrier — it joins every worker thread before deciding on
//! retry, conviction, or resume. Each `ExecResume` therefore totally
//! orders the attempts: every event of attempt *i* happens-before every
//! event of attempt *i + 1*. A 4-component clock (3 workers + the
//! supervisor) with join edges at sends/receives and barrier edges at
//! resumes captures the complete happens-before relation, so checking
//! send/recv matching *within* an attempt window plus per-window step
//! bounds is sound — no cross-window edge can exist that the barrier did
//! not already order.
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
//! Parsing is lenient (unparseable lines are counted, never fatal) but
//! every finding cites the exact 1-based line of the offending event.

use hetmmm_obs::{EventKind, EventRecord, SCHEMA_VERSION};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// The supervisor's actor name in the vector clocks.
const SUPERVISOR: &str = "sup";

/// H005's bound: non-empty messages one worker may have sent a peer and
/// the peer not yet received, within one attempt.
const MAX_IN_FLIGHT: i64 = 2;

/// A vector clock: actor name → event count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct VectorClock(BTreeMap<String, u64>);

impl VectorClock {
    fn tick(&mut self, actor: &str) {
        *self.0.entry(actor.to_string()).or_default() += 1;
    }

    fn join(&mut self, other: &VectorClock) {
        for (actor, &v) in &other.0 {
            let e = self.0.entry(actor.clone()).or_default();
            *e = (*e).max(v);
        }
    }
}

/// One protocol violation at one line of the stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HbFinding {
    /// Rule id, `H001`–`H005`.
    pub rule: &'static str,
    /// The stream's label (typically its file path).
    pub path: String,
    /// 1-based line of the offending event.
    pub line: u32,
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
    /// Unparseable or foreign-schema lines skipped.
    pub skipped_lines: usize,
    /// Executor runs seen (`exec.run` spans; 1 implicit run otherwise).
    pub runs: usize,
    /// Attempt windows checked (initial attempt + one per `ExecResume`).
    pub windows: usize,
    /// Most non-empty messages any one channel held unreceived (H005).
    pub max_in_flight: u64,
    /// Final vector-clock own-components per actor, for the summary line.
    pub clocks: BTreeMap<String, u64>,
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
        if !self.clocks.is_empty() {
            let _ = write!(out, "; clocks");
            for (actor, n) in &self.clocks {
                let _ = write!(out, " {actor}={n}");
            }
        }
        if self.max_in_flight > 0 {
            let _ = write!(out, "; at most {} message(s) in flight", self.max_in_flight);
        }
        let _ = write!(out, "; {} violation(s)", self.findings.len());
        out
    }
}

/// One recorded send awaiting its receive.
struct SendRec {
    elems: u64,
    line: u32,
    consumed: bool,
}

/// One recorded receive, matched against sends at window close.
struct RecvRec {
    from: String,
    to: String,
    step: u64,
    elems: u64,
    line: u32,
}

/// Mutable state of the attempt window currently being read.
#[derive(Default)]
struct Window {
    resume_step: u64,
    sends: BTreeMap<(String, String, u64), Vec<SendRec>>,
    recvs: Vec<RecvRec>,
    /// Per-worker highest checkpoint `through` seen this window.
    through: BTreeMap<String, (u64, u32)>,
    /// Workers that already joined the supervisor's fork clock.
    joined: BTreeSet<String>,
    /// Per `(from, to)`: non-empty sends minus non-empty receives so far.
    /// Negative while a receive's line precedes its send's.
    in_flight: BTreeMap<(String, String), i64>,
}

/// Full checker state for one stream.
struct Checker {
    label: String,
    report: HbReport,
    window: Window,
    /// Conviction-episode evidence: a supervisor retry re-attempt
    /// (`ExecResume` with `backoff_nanos > 0`) happened since the last
    /// blame.
    retry_resume_seen: bool,
    /// Conviction-episode evidence: conclusive testimony (disconnect,
    /// panic) since the last blame.
    conclusive_evidence: bool,
    clocks: BTreeMap<String, VectorClock>,
    sup: VectorClock,
    /// Supervisor clock snapshot forked to workers at the window start.
    fork: VectorClock,
    in_run: bool,
}

/// Check a JSONL event stream. `label` names the stream in findings
/// (typically the file path).
pub fn check_stream(label: &str, text: &str) -> HbReport {
    let mut ck = Checker {
        label: label.to_string(),
        report: HbReport::default(),
        window: Window::default(),
        retry_resume_seen: false,
        conclusive_evidence: false,
        clocks: BTreeMap::new(),
        sup: VectorClock::default(),
        fork: VectorClock::default(),
        in_run: false,
    };
    for (lineno, line) in text.lines().enumerate() {
        let line_no = (lineno + 1) as u32;
        if line.trim().is_empty() {
            ck.report.skipped_lines += 1;
            continue;
        }
        let rec: EventRecord = match serde_json::from_str(line) {
            Ok(rec) => rec,
            Err(_) => {
                ck.report.skipped_lines += 1;
                continue;
            }
        };
        if rec.v != SCHEMA_VERSION {
            ck.report.skipped_lines += 1;
            continue;
        }
        ck.report.events += 1;
        ck.event(&rec.event, line_no);
    }
    ck.finish()
}

impl Checker {
    /// A worker's first event in a window inherits the supervisor's
    /// barrier clock; every event advances the worker's own component.
    fn worker_tick(&mut self, actor: &str) {
        let clock = self.clocks.entry(actor.to_string()).or_default();
        if self.window.joined.insert(actor.to_string()) {
            clock.join(&self.fork);
        }
        clock.tick(actor);
    }

    fn sup_tick(&mut self) {
        self.sup.tick(SUPERVISOR);
    }

    fn flag(&mut self, rule: &'static str, line: u32, message: String) {
        self.report.findings.push(HbFinding {
            rule,
            path: self.label.clone(),
            line,
            message,
        });
    }

    /// H004: a worker event tagged `step` must not precede the window's
    /// resume step.
    fn check_step(&mut self, what: &str, worker: &str, step: u64, line: u32) {
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
    fn count_in_flight(&mut self, from: &str, to: &str, delta: i64, line: u32) {
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

    fn ensure_run(&mut self) {
        if !self.in_run {
            self.in_run = true;
            self.report.runs += 1;
            self.report.windows += 1;
        }
    }

    fn event(&mut self, event: &EventKind, line: u32) {
        match event {
            EventKind::SpanStart { name, .. } if name == "exec.run" => {
                self.close_window();
                self.in_run = true;
                self.report.runs += 1;
                self.report.windows += 1;
                self.window = Window::default();
                self.retry_resume_seen = false;
                self.conclusive_evidence = false;
                self.sup_tick();
                self.fork = self.sup.clone();
            }
            EventKind::ExecResume {
                resume_step,
                backoff_nanos,
                ..
            } => {
                self.ensure_run();
                self.close_window();
                self.report.windows += 1;
                // Barrier in: the supervisor joined every worker thread
                // before deciding to resume.
                let worker_clocks: Vec<VectorClock> = self.clocks.values().cloned().collect();
                for c in &worker_clocks {
                    self.sup.join(c);
                }
                self.sup_tick();
                self.fork = self.sup.clone();
                self.window = Window {
                    resume_step: *resume_step,
                    ..Window::default()
                };
                if *backoff_nanos > 0 {
                    self.retry_resume_seen = true;
                }
            }
            EventKind::ExecSend {
                from,
                to,
                step,
                elems,
            } => {
                self.ensure_run();
                self.report.exec_events += 1;
                self.worker_tick(from.as_str());
                let (from, to, step) = (from.clone(), to.clone(), *step);
                self.check_step("send", &from.clone(), step, line);
                if *elems > 0 {
                    self.count_in_flight(&from, &to, 1, line);
                }
                self.window
                    .sends
                    .entry((from, to, step))
                    .or_default()
                    .push(SendRec {
                        elems: *elems,
                        line,
                        consumed: false,
                    });
            }
            EventKind::ExecRecv {
                from,
                to,
                step,
                elems,
                ..
            } => {
                self.ensure_run();
                self.report.exec_events += 1;
                self.worker_tick(to.as_str());
                let to_name = to.clone();
                self.check_step("recv", &to_name, *step, line);
                if *elems > 0 {
                    self.count_in_flight(from, to, -1, line);
                    self.window.recvs.push(RecvRec {
                        from: from.clone(),
                        to: to.clone(),
                        step: *step,
                        elems: *elems,
                        line,
                    });
                }
            }
            EventKind::ExecRetry { worker, step, .. } => {
                self.ensure_run();
                self.report.exec_events += 1;
                let w = worker.clone();
                self.worker_tick(&w);
                self.check_step("retry", &w, *step, line);
            }
            EventKind::ExecCheckpoint {
                worker, through, ..
            } => {
                self.ensure_run();
                self.report.exec_events += 1;
                let w = worker.clone();
                self.worker_tick(&w);
                if *through < self.window.resume_step {
                    self.flag(
                        "H002",
                        line,
                        format!(
                            "checkpoint by {w} banks through {through}, below the \
                             attempt's resume_step {}",
                            self.window.resume_step
                        ),
                    );
                }
                if let Some(&(prev, prev_line)) = self.window.through.get(&w) {
                    if *through < prev {
                        self.flag(
                            "H002",
                            line,
                            format!(
                                "checkpoint by {w} regresses: through {through} after \
                                 banking through {prev} (line {prev_line}) in the same attempt"
                            ),
                        );
                    }
                }
                let entry = self.window.through.entry(w).or_insert((*through, line));
                if *through >= entry.0 {
                    *entry = (*through, line);
                }
            }
            EventKind::ExecSegment { worker, step, .. } => {
                self.ensure_run();
                self.report.exec_events += 1;
                let w = worker.clone();
                self.worker_tick(&w);
                self.check_step("segment", &w, *step, line);
            }
            EventKind::ExecPeerLost {
                worker,
                peer,
                step,
                detail,
            } => {
                self.ensure_run();
                self.report.exec_events += 1;
                let w = worker.clone();
                self.worker_tick(&w);
                // A self-report (worker == peer: a crash confession or a
                // panic caught at join time) is testimony about where the
                // fault fired, not work being replayed — exempt from the
                // H004 step bound. The panic path cannot even know a
                // step and tags 0.
                if worker != peer {
                    self.check_step("peer-lost report", &w, *step, line);
                }
                if detail.contains("disconnected")
                    || detail.contains("panicked")
                    || detail.contains("crashed")
                {
                    self.conclusive_evidence = true;
                }
            }
            EventKind::ExecBlame { dead, .. } => {
                self.ensure_run();
                self.report.exec_events += 1;
                self.sup_tick();
                if !self.retry_resume_seen && !self.conclusive_evidence {
                    self.flag(
                        "H003",
                        line,
                        format!(
                            "{dead} blamed before retry-budget exhaustion: no backoff \
                             re-attempt (ExecResume with backoff_nanos > 0) and no \
                             conclusive testimony (disconnect/panic/crash) precede this blame"
                        ),
                    );
                }
                // A conviction closes its evidence episode; the next blame
                // needs fresh justification.
                self.retry_resume_seen = false;
                self.conclusive_evidence = false;
            }
            EventKind::ExecRepartition { .. } | EventKind::ExecDegraded { .. } => {
                self.ensure_run();
                self.report.exec_events += 1;
                self.sup_tick();
            }
            _ => {}
        }
    }

    /// H001 is checked at window close so that benign emission races
    /// (a receiver writing its `ExecRecv` line before the sender's
    /// `ExecSend` hits the sink) cannot produce false positives: within
    /// an attempt window, matching is order-free.
    fn close_window(&mut self) {
        let recvs = std::mem::take(&mut self.window.recvs);
        for r in recvs {
            let key = (r.from.clone(), r.to.clone(), r.step);
            let unconsumed = self
                .window
                .sends
                .get_mut(&key)
                .map(|sends| sends.iter_mut().find(|s| !s.consumed));
            let problem = match unconsumed {
                Some(Some(send)) => {
                    send.consumed = true;
                    (send.elems != r.elems).then(|| {
                        format!(
                            "recv {}→{} step {} carries {} elems but the matching \
                             send (line {}) carried {}",
                            r.from, r.to, r.step, r.elems, send.line, send.elems
                        )
                    })
                }
                Some(None) => Some(format!(
                    "recv {}→{} step {} received a message that was only \
                     sent once — duplicate delivery in one attempt",
                    r.from, r.to, r.step
                )),
                None => Some(format!(
                    "recv {}→{} step {} completed with no matching send in \
                     this attempt",
                    r.from, r.to, r.step
                )),
            };
            if let Some(message) = problem {
                self.flag("H001", r.line, message);
            }
        }
        self.window.sends.clear();
        self.window.through.clear();
        self.window.joined.clear();
    }

    fn finish(mut self) -> HbReport {
        self.close_window();
        for (actor, clock) in &self.clocks {
            let own = clock.0.get(actor).copied().unwrap_or(0);
            self.report.clocks.insert(actor.clone(), own);
        }
        let sup_own = self.sup.0.get(SUPERVISOR).copied().unwrap_or(0);
        if sup_own > 0 {
            self.report.clocks.insert(SUPERVISOR.to_string(), sup_own);
        }
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmmm_obs::EventKind as EK;

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

    fn stream(events: Vec<EK>) -> String {
        events
            .into_iter()
            .enumerate()
            .map(|(i, e)| rec(i as u64, e))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn clean_exchange_passes_with_clocks() {
        let text = stream(vec![
            span_start("exec.run"),
            send("R", "S", 0, 7),
            recv("R", "S", 0, 7),
            send("S", "R", 0, 3),
            recv("S", "R", 0, 3),
            checkpoint("R", 1),
            checkpoint("R", 2),
        ]);
        let report = check_stream("t.jsonl", &text);
        assert!(report.ok(), "{:?}", report.findings);
        assert_eq!(report.runs, 1);
        assert_eq!(report.windows, 1);
        assert_eq!(report.clocks.get("R"), Some(&4));
        assert_eq!(report.clocks.get("S"), Some(&2));
        // S's clock saw R's send before its recv join… summary renders.
        assert!(report.summary().contains("violation(s)"));
    }

    #[test]
    fn h001_fires_on_recv_without_send_with_line() {
        let text = stream(vec![
            span_start("exec.run"),
            send("R", "S", 0, 7),
            recv("R", "S", 0, 7),
            recv("S", "R", 2, 5), // never sent
        ]);
        let report = check_stream("t.jsonl", &text);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "H001");
        assert_eq!(report.findings[0].line, 4);
        assert!(report.findings[0].message.contains("no matching send"));
    }

    #[test]
    fn h001_is_order_free_within_a_window() {
        // Emission race: the recv line lands before its send line. Must
        // NOT fire — matching is per-window, not per-stream-order.
        let text = stream(vec![
            span_start("exec.run"),
            recv("R", "S", 0, 7),
            send("R", "S", 0, 7),
        ]);
        assert!(check_stream("t.jsonl", &text).ok());
    }

    #[test]
    fn h001_fires_on_elems_mismatch_and_duplicate_delivery() {
        let text = stream(vec![
            span_start("exec.run"),
            send("R", "S", 0, 7),
            recv("R", "S", 0, 9), // wrong payload size
        ]);
        let report = check_stream("t.jsonl", &text);
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].message.contains("carries 9 elems"));

        let text = stream(vec![
            span_start("exec.run"),
            send("R", "S", 0, 7),
            recv("R", "S", 0, 7),
            recv("R", "S", 0, 7), // delivered twice
        ]);
        let report = check_stream("t.jsonl", &text);
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].message.contains("duplicate delivery"));
    }

    #[test]
    fn h002_fires_on_checkpoint_regression() {
        let text = stream(vec![
            span_start("exec.run"),
            checkpoint("R", 5),
            checkpoint("R", 3),
        ]);
        let report = check_stream("t.jsonl", &text);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "H002");
        assert_eq!(report.findings[0].line, 3);
        assert!(report.findings[0].message.contains("regresses"));
    }

    #[test]
    fn h002_allows_regression_across_attempts() {
        // Another worker lagged, so attempt 2 resumes at 3; R re-banks 4
        // after having banked 5 in attempt 1. Legal: windows reset.
        let text = stream(vec![
            span_start("exec.run"),
            checkpoint("R", 5),
            resume(2, 3, 1000),
            checkpoint("R", 4),
        ]);
        assert!(check_stream("t.jsonl", &text).ok());
    }

    #[test]
    fn h003_fires_on_blame_before_retry() {
        let text = stream(vec![
            span_start("exec.run"),
            peer_lost("R", "S", 2, "receive timed out"),
            blame("S"),
        ]);
        let report = check_stream("t.jsonl", &text);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "H003");
        assert_eq!(report.findings[0].line, 3);
    }

    #[test]
    fn h003_accepts_blame_after_backoff_resume_or_disconnect() {
        // Inconclusive evidence, but a backoff re-attempt was burned.
        let text = stream(vec![
            span_start("exec.run"),
            peer_lost("R", "S", 2, "receive timed out"),
            resume(2, 0, 20_000),
            peer_lost("R", "S", 2, "receive timed out"),
            blame("S"),
        ]);
        assert!(check_stream("t.jsonl", &text).ok());
        // Conclusive: a disconnect (crash confession cascade).
        let text = stream(vec![
            span_start("exec.run"),
            peer_lost("R", "S", 2, "channel disconnected"),
            blame("S"),
        ]);
        assert!(check_stream("t.jsonl", &text).ok());
        // A second conviction needs fresh evidence.
        let text = stream(vec![
            span_start("exec.run"),
            peer_lost("R", "S", 2, "channel disconnected"),
            blame("S"),
            peer_lost("R", "P", 4, "receive timed out"),
            blame("P"),
        ]);
        let report = check_stream("t.jsonl", &text);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "H003");
    }

    #[test]
    fn h004_fires_on_step_below_resume() {
        let text = stream(vec![
            span_start("exec.run"),
            resume(2, 4, 1000),
            send("R", "S", 2, 7), // replaying step 2 < resume 4
        ]);
        let report = check_stream("t.jsonl", &text);
        assert!(report.findings.iter().any(|f| f.rule == "H004"));
        let h004 = report.findings.iter().find(|f| f.rule == "H004").unwrap();
        assert_eq!(h004.line, 3);
        assert!(h004.message.contains("below the attempt's resume_step 4"));
    }

    #[test]
    fn h005_fires_on_a_third_unreceived_send() {
        let text = stream(vec![
            span_start("exec.run"),
            send("R", "S", 0, 7),
            send("R", "S", 4, 7),
            send("R", "S", 8, 7), // R ran a block ahead of the lockstep
            recv("R", "S", 0, 7),
            recv("R", "S", 4, 7),
            recv("R", "S", 8, 7),
        ]);
        let report = check_stream("t.jsonl", &text);
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
        let text = stream(vec![
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
        let report = check_stream("t.jsonl", &text);
        assert!(report.ok(), "{:?}", report.findings);
        assert_eq!(report.max_in_flight, 2);
        assert!(report.summary().contains("at most 2 message(s) in flight"));
    }

    #[test]
    fn runs_reset_windows_and_evidence() {
        // Two runs back to back: matching never crosses an exec.run span.
        let text = stream(vec![
            span_start("exec.run"),
            send("R", "S", 0, 7),
            recv("R", "S", 0, 7),
            span_start("exec.run"),
            recv("R", "S", 0, 7), // second run: no send yet
        ]);
        let report = check_stream("t.jsonl", &text);
        assert_eq!(report.runs, 2);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "H001");
    }

    #[test]
    fn lenient_parse_counts_skips_and_ignores_foreign_schema() {
        let mut text = stream(vec![span_start("exec.run"), send("R", "S", 0, 1)]);
        text.push_str("\n\nnot json at all\n");
        text.push_str(
            &rec(9, send("R", "S", 1, 1)).replace(&format!("\"v\":{SCHEMA_VERSION}"), "\"v\":1"),
        );
        let report = check_stream("t.jsonl", &text);
        assert_eq!(report.events, 2);
        assert_eq!(report.skipped_lines, 3);
    }

    #[test]
    fn stream_without_exec_events_passes_trivially() {
        let report = check_stream("t.jsonl", &stream(vec![span_start("dfa.run")]));
        assert!(report.ok());
        assert_eq!(report.runs, 0);
        assert_eq!(report.exec_events, 0);
    }
}
