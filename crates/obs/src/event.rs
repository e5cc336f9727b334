//! The typed event vocabulary and its serialized record format.
//!
//! Every instrumented layer emits [`EventKind`] values through the facade;
//! sinks receive them wrapped in an [`EventRecord`] that carries the schema
//! version and a timestamp from the installed [`crate::Clock`]. The JSONL
//! wire format is one record per line:
//!
//! ```json
//! {"v":1,"ts_nanos":12345,"event":{"DfaPush":{"step":1,"proc":"R",...}}}
//! ```
//!
//! Processor, direction, and termination fields are carried as short
//! strings (the `Display` form of the owning crate's enums) rather than as
//! the enums themselves: the obs crate sits *below* every other workspace
//! crate and cannot name their types without creating a dependency cycle.

use serde::{Deserialize, Serialize};

/// Version stamped on every serialized record. Bump on any breaking change
/// to [`EventKind`] or [`EventRecord`]; `obs_verify` rejects mismatches.
/// The test `wire_format_matches_the_golden` pins one record of every
/// variant, so a change that needs a bump fails it.
///
/// v2: span events carry the emitting thread's ordinal (`tid`), required by
/// the `hetmmm-report` profiler to reconstruct per-thread call trees from
/// an interleaved multi-thread stream.
///
/// v3: recovery-engine vocabulary — `ExecRetry` (worker-level receive
/// re-waits), `ExecResume` (supervisor attempt retries with backoff and a
/// checkpointed resume step), `ExecCheckpoint` (per-worker step-checkpoint
/// writes), and `ExecDegraded` (graceful serial fallback).
///
/// v4: timeline vocabulary — `ExecSegment` attributes one contiguous slice
/// of a worker's wall time to a phase (`compute` / `send` / `recv-wait` /
/// `checkpoint` / `blocked`), carrying clock-axis start/end so the
/// `hetmmm-report` timeline module can reconstruct per-processor
/// timelines, export Chrome traces, and compute the cross-worker critical
/// path.
pub const SCHEMA_VERSION: u32 = 4;

/// A structured event from one of the instrumented layers.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// A span opened (`span` is the unique id; `arg` is a span-specific
    /// payload such as the DFA seed or the executor pivot step).
    SpanStart {
        /// Unique span id (process-wide counter).
        span: u64,
        /// Span name, e.g. `dfa.run`.
        name: String,
        /// Span-specific argument (0 when unused).
        arg: u64,
        /// Ordinal of the opening thread ([`crate::thread_ordinal`]) —
        /// span nesting is only meaningful within one thread's sub-stream.
        tid: u64,
    },
    /// The matching span closed.
    SpanEnd {
        /// Id from the corresponding [`EventKind::SpanStart`].
        span: u64,
        /// Span name (repeated for grep-ability).
        name: String,
        /// Duration measured on the installed clock.
        nanos: u64,
        /// Thread ordinal recorded at span *open* time, so start/end pairs
        /// always agree even if a guard is dropped elsewhere.
        tid: u64,
    },
    /// Free-form routed text (the facade replacement for stray
    /// `println!`/`eprintln!` in library code).
    Message {
        /// Dotted origin label, e.g. `bench.table`.
        target: String,
        /// The preformatted line.
        text: String,
    },
    /// A DFA run started.
    DfaRunStart {
        /// Seed of the run (0 for explicit-state runs without one).
        seed: u64,
        /// Matrix dimension `N`.
        n: u64,
        /// Speed ratio rendered as `P:R:S`.
        ratio: String,
        /// Number of `(proc, dir)` entries in the push plan.
        plan_len: u64,
    },
    /// A push was accepted and applied.
    DfaPush {
        /// 1-based count of applied pushes so far.
        step: u64,
        /// Active processor: its letter, or its index on `k` processors.
        proc: String,
        /// Direction arrow.
        dir: String,
        /// The ladder rung: push type 1–6, or mode 1–3 on `k` processors.
        push_type: u8,
        /// Exact ΔVoC of the operation in line units (≤ 0).
        delta_voc: i64,
    },
    /// A plan entry was attempted and no rung of the ladder applied.
    DfaPushRejected {
        /// Active processor: its letter, or its index on `k` processors.
        proc: String,
        /// Direction arrow.
        dir: String,
    },
    /// A DFA run terminated; the fixed-point classification event.
    DfaRunEnd {
        /// Pushes applied.
        steps: u64,
        /// Termination kind (`FixedPoint`, `NeutralCycle`,
        /// `StepCapExhausted`, `ZeroDeltaCapExhausted`).
        termination: String,
        /// VoC of the start state.
        voc_initial: u64,
        /// VoC of the final state.
        voc_final: u64,
        /// `(proc, dir)` pairs that would still push under the full plan.
        residual_pushes: u64,
        /// Condensed under every direction (Theorem 8.3 test)?
        condensed: bool,
    },
    /// The executor sent a fragment message.
    ExecSend {
        /// Sender letter.
        from: String,
        /// Receiver letter.
        to: String,
        /// Pivot step `k`.
        step: u64,
        /// Elements carried.
        elems: u64,
    },
    /// The executor received a fragment message.
    ExecRecv {
        /// Sender letter.
        from: String,
        /// Receiver letter.
        to: String,
        /// Pivot step `k`.
        step: u64,
        /// Elements carried.
        elems: u64,
        /// Time the receiver blocked waiting for the message.
        wait_nanos: u64,
    },
    /// A worker declared a peer lost (timeout, disconnect, or out-of-step
    /// message).
    ExecPeerLost {
        /// The reporting worker.
        worker: String,
        /// The peer it blames.
        peer: String,
        /// Pivot step at detection.
        step: u64,
        /// Human-readable detail.
        detail: String,
    },
    /// A worker's receive timed out and it re-armed the wait instead of
    /// declaring the peer lost (transient-fault absorption, layer 1).
    ExecRetry {
        /// The waiting worker.
        worker: String,
        /// The peer it is still waiting on.
        peer: String,
        /// Pivot step `k` of the awaited fragment.
        step: u64,
        /// 1-based re-wait ordinal within this step's receive.
        attempt: u64,
        /// Extra wait granted by this retry (the backoff slice).
        wait_nanos: u64,
    },
    /// The supervisor re-ran the multiply from a checkpointed step
    /// (transient-fault absorption layer 2, and post-conviction resume).
    ExecResume {
        /// 1-based attempt number (the initial run is attempt 1).
        attempt: u64,
        /// First pivot step that still needs work somewhere.
        resume_step: u64,
        /// Pivot steps already banked for every cell (skipped entirely).
        resumed: u64,
        /// Worst-case steps re-run for the least-advanced cell.
        replayed: u64,
        /// Workers participating in this attempt.
        survivors: u64,
        /// Backoff slept before this attempt (0 for post-conviction
        /// resumes, which restart immediately).
        backoff_nanos: u64,
    },
    /// A worker banked its per-cell accumulators with the supervisor.
    ExecCheckpoint {
        /// The checkpointing worker.
        worker: String,
        /// All pivot steps `< through` are folded into the banked cells.
        through: u64,
        /// C cells in the snapshot.
        cells: u64,
    },
    /// The executor gave up on parallel recovery and finished the multiply
    /// serially from the last checkpoint (degraded mode, still `Ok`).
    ExecDegraded {
        /// Workers still alive when the fallback fired.
        survivors: u64,
        /// Convictions absorbed before falling back.
        cascade_depth: u64,
        /// Why: `sole-survivor`, `deadline`, or `retry-budget`.
        reason: String,
        /// Pivot steps the serial tail had to finish (worst cell).
        replayed: u64,
    },
    /// The supervisor aggregated worker verdicts into a culprit.
    ExecBlame {
        /// The processor judged dead.
        dead: String,
        /// Evidence weights per processor, indexed by `Proc::idx`.
        weights: Vec<u64>,
    },
    /// Survivor re-partitioning after a failure.
    ExecRepartition {
        /// The processor removed.
        dead: String,
        /// C elements whose owner changed.
        reassigned: u64,
        /// Workers remaining.
        survivors: u64,
    },
    /// One contiguous slice of a worker's wall time attributed to a phase
    /// (the timeline vocabulary, v4). Start/end are readings of the
    /// installed [`crate::Clock`], so segments from one run share an axis
    /// and are bit-identical under a `FakeClock`.
    ExecSegment {
        /// The worker whose time this is (processor letter).
        worker: String,
        /// Phase: `compute`, `send`, `recv-wait`, `checkpoint`, or
        /// `blocked` (sender stalled on a full channel).
        kind: String,
        /// Peer processor for `send`/`recv-wait`/`blocked` segments
        /// (empty for `compute`/`checkpoint`).
        peer: String,
        /// Pivot step `k` the segment belongs to.
        step: u64,
        /// Segment start on the installed clock.
        start_nanos: u64,
        /// Segment end on the installed clock (`end >= start`).
        end_nanos: u64,
    },
    /// One simulator run completed (aggregate timeline).
    SimRun {
        /// Algorithm name (SCB/PCB/SCO/PCO/PIO).
        algorithm: String,
        /// Simulated communication time (s).
        comm_time: f64,
        /// Simulated total execution time (s).
        exe_time: f64,
        /// Point-to-point transfers scheduled.
        messages: u64,
        /// Elements that crossed the network (hop-weighted).
        elems_sent: u64,
    },
    /// One recorded simulator timeline span (emitted only when span
    /// recording is on).
    SimPhase {
        /// Phase kind: `transfer`, `overlap`, or `compute`.
        phase: String,
        /// Sender (or computing processor).
        from: String,
        /// Receiver (same as `from` for compute phases).
        to: String,
        /// Start time (simulated seconds).
        start: f64,
        /// End time (simulated seconds).
        end: f64,
        /// Elements carried (0 for compute phases).
        elems: u64,
    },
    /// A k-processor search run terminated.
    NprocRunEnd {
        /// Processor count.
        k: u64,
        /// Pushes applied.
        steps: u64,
        /// Reached a fixed point / neutral cycle?
        converged: bool,
        /// VoC of the start state.
        voc_initial: u64,
        /// VoC of the final state.
        voc_final: u64,
    },
}

/// What a sink receives: schema version + timestamp + event.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Always [`SCHEMA_VERSION`] for records produced by this build.
    pub v: u32,
    /// Timestamp from the installed [`crate::Clock`].
    pub ts_nanos: u64,
    /// The event payload.
    pub event: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_json() {
        let record = EventRecord {
            v: SCHEMA_VERSION,
            ts_nanos: 42,
            event: EventKind::DfaPush {
                step: 7,
                proc: "R".into(),
                dir: "↓".into(),
                push_type: 3,
                delta_voc: -12,
            },
        };
        let json = serde_json::to_string(&record).unwrap();
        let back: EventRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn recovery_events_round_trip_through_json() {
        for event in [
            EventKind::ExecRetry {
                worker: "R".into(),
                peer: "S".into(),
                step: 4,
                attempt: 2,
                wait_nanos: 1_500_000,
            },
            EventKind::ExecResume {
                attempt: 3,
                resume_step: 7,
                resumed: 7,
                replayed: 9,
                survivors: 2,
                backoff_nanos: 50_000_000,
            },
            EventKind::ExecCheckpoint {
                worker: "P".into(),
                through: 11,
                cells: 64,
            },
            EventKind::ExecDegraded {
                survivors: 1,
                cascade_depth: 2,
                reason: "sole-survivor".into(),
                replayed: 5,
            },
        ] {
            let record = EventRecord {
                v: SCHEMA_VERSION,
                ts_nanos: 9,
                event,
            };
            let back: EventRecord =
                serde_json::from_str(&serde_json::to_string(&record).unwrap()).unwrap();
            assert_eq!(back, record);
        }
    }

    #[test]
    fn segment_events_round_trip_through_json() {
        for (kind, peer) in [
            ("compute", ""),
            ("send", "R"),
            ("recv-wait", "S"),
            ("checkpoint", ""),
            ("blocked", "P"),
        ] {
            let record = EventRecord {
                v: SCHEMA_VERSION,
                ts_nanos: 17,
                event: EventKind::ExecSegment {
                    worker: "P".into(),
                    kind: kind.into(),
                    peer: peer.into(),
                    step: 3,
                    start_nanos: 1_000,
                    end_nanos: 2_500,
                },
            };
            let back: EventRecord =
                serde_json::from_str(&serde_json::to_string(&record).unwrap()).unwrap();
            assert_eq!(back, record);
        }
    }

    /// One sample of every variant with fixed field values, in declaration
    /// order. Each arm builds the sample after its own variant, and the
    /// `match` has no wildcard arm, so a new variant fails to compile here
    /// until it joins the chain.
    fn one_of_each_variant() -> Vec<EventKind> {
        let mut all = vec![EventKind::SpanStart {
            span: 1,
            name: "dfa.run".into(),
            arg: 7,
            tid: 0,
        }];
        while let Some(next) = match &all[all.len() - 1] {
            EventKind::SpanStart { .. } => Some(EventKind::SpanEnd {
                span: 1,
                name: "dfa.run".into(),
                nanos: 250,
                tid: 0,
            }),
            EventKind::SpanEnd { .. } => Some(EventKind::Message {
                target: "bench.table".into(),
                text: "ratio 5:3:1".into(),
            }),
            EventKind::Message { .. } => Some(EventKind::DfaRunStart {
                seed: 42,
                n: 40,
                ratio: "5:3:1".into(),
                plan_len: 8,
            }),
            EventKind::DfaRunStart { .. } => Some(EventKind::DfaPush {
                step: 1,
                proc: "R".into(),
                dir: "↓".into(),
                push_type: 3,
                delta_voc: -12,
            }),
            EventKind::DfaPush { .. } => Some(EventKind::DfaPushRejected {
                proc: "S".into(),
                dir: "←".into(),
            }),
            EventKind::DfaPushRejected { .. } => Some(EventKind::DfaRunEnd {
                steps: 96,
                termination: "FixedPoint".into(),
                voc_initial: 3200,
                voc_final: 1480,
                residual_pushes: 0,
                condensed: true,
            }),
            EventKind::DfaRunEnd { .. } => Some(EventKind::ExecSend {
                from: "R".into(),
                to: "S".into(),
                step: 2,
                elems: 9,
            }),
            EventKind::ExecSend { .. } => Some(EventKind::ExecRecv {
                from: "R".into(),
                to: "S".into(),
                step: 2,
                elems: 9,
                wait_nanos: 1_000,
            }),
            EventKind::ExecRecv { .. } => Some(EventKind::ExecPeerLost {
                worker: "P".into(),
                peer: "S".into(),
                step: 3,
                detail: "receive timed out".into(),
            }),
            EventKind::ExecPeerLost { .. } => Some(EventKind::ExecRetry {
                worker: "P".into(),
                peer: "S".into(),
                step: 3,
                attempt: 1,
                wait_nanos: 2_000,
            }),
            EventKind::ExecRetry { .. } => Some(EventKind::ExecResume {
                attempt: 2,
                resume_step: 3,
                resumed: 3,
                replayed: 1,
                survivors: 3,
                backoff_nanos: 5_000,
            }),
            EventKind::ExecResume { .. } => Some(EventKind::ExecCheckpoint {
                worker: "R".into(),
                through: 4,
                cells: 16,
            }),
            EventKind::ExecCheckpoint { .. } => Some(EventKind::ExecDegraded {
                survivors: 1,
                cascade_depth: 2,
                reason: "sole-survivor".into(),
                replayed: 5,
            }),
            EventKind::ExecDegraded { .. } => Some(EventKind::ExecBlame {
                dead: "S".into(),
                weights: vec![0, 3, 1],
            }),
            EventKind::ExecBlame { .. } => Some(EventKind::ExecRepartition {
                dead: "S".into(),
                reassigned: 12,
                survivors: 2,
            }),
            EventKind::ExecRepartition { .. } => Some(EventKind::ExecSegment {
                worker: "P".into(),
                kind: "recv-wait".into(),
                peer: "R".into(),
                step: 4,
                start_nanos: 1_000,
                end_nanos: 2_500,
            }),
            EventKind::ExecSegment { .. } => Some(EventKind::SimRun {
                algorithm: "SCB".into(),
                comm_time: 0.5,
                exe_time: 1.25,
                messages: 6,
                elems_sent: 300,
            }),
            EventKind::SimRun { .. } => Some(EventKind::SimPhase {
                phase: "transfer".into(),
                from: "P".into(),
                to: "R".into(),
                start: 0.0,
                end: 0.125,
                elems: 40,
            }),
            EventKind::SimPhase { .. } => Some(EventKind::NprocRunEnd {
                k: 4,
                steps: 57,
                converged: true,
                voc_initial: 900,
                voc_final: 610,
            }),
            EventKind::NprocRunEnd { .. } => None,
        } {
            all.push(next);
        }
        all
    }

    /// The wire format of every variant. Changing any line (a renamed,
    /// added, removed or reordered field or variant, or a changed value
    /// encoding) breaks readers of existing streams, so it means bumping
    /// [`SCHEMA_VERSION`] along with this golden.
    const GOLDEN: &str = r#"{"v":4,"ts_nanos":0,"event":{"SpanStart":{"span":1,"name":"dfa.run","arg":7,"tid":0}}}
{"v":4,"ts_nanos":1,"event":{"SpanEnd":{"span":1,"name":"dfa.run","nanos":250,"tid":0}}}
{"v":4,"ts_nanos":2,"event":{"Message":{"target":"bench.table","text":"ratio 5:3:1"}}}
{"v":4,"ts_nanos":3,"event":{"DfaRunStart":{"seed":42,"n":40,"ratio":"5:3:1","plan_len":8}}}
{"v":4,"ts_nanos":4,"event":{"DfaPush":{"step":1,"proc":"R","dir":"↓","push_type":3,"delta_voc":-12}}}
{"v":4,"ts_nanos":5,"event":{"DfaPushRejected":{"proc":"S","dir":"←"}}}
{"v":4,"ts_nanos":6,"event":{"DfaRunEnd":{"steps":96,"termination":"FixedPoint","voc_initial":3200,"voc_final":1480,"residual_pushes":0,"condensed":true}}}
{"v":4,"ts_nanos":7,"event":{"ExecSend":{"from":"R","to":"S","step":2,"elems":9}}}
{"v":4,"ts_nanos":8,"event":{"ExecRecv":{"from":"R","to":"S","step":2,"elems":9,"wait_nanos":1000}}}
{"v":4,"ts_nanos":9,"event":{"ExecPeerLost":{"worker":"P","peer":"S","step":3,"detail":"receive timed out"}}}
{"v":4,"ts_nanos":10,"event":{"ExecRetry":{"worker":"P","peer":"S","step":3,"attempt":1,"wait_nanos":2000}}}
{"v":4,"ts_nanos":11,"event":{"ExecResume":{"attempt":2,"resume_step":3,"resumed":3,"replayed":1,"survivors":3,"backoff_nanos":5000}}}
{"v":4,"ts_nanos":12,"event":{"ExecCheckpoint":{"worker":"R","through":4,"cells":16}}}
{"v":4,"ts_nanos":13,"event":{"ExecDegraded":{"survivors":1,"cascade_depth":2,"reason":"sole-survivor","replayed":5}}}
{"v":4,"ts_nanos":14,"event":{"ExecBlame":{"dead":"S","weights":[0,3,1]}}}
{"v":4,"ts_nanos":15,"event":{"ExecRepartition":{"dead":"S","reassigned":12,"survivors":2}}}
{"v":4,"ts_nanos":16,"event":{"ExecSegment":{"worker":"P","kind":"recv-wait","peer":"R","step":4,"start_nanos":1000,"end_nanos":2500}}}
{"v":4,"ts_nanos":17,"event":{"SimRun":{"algorithm":"SCB","comm_time":0.5,"exe_time":1.25,"messages":6,"elems_sent":300}}}
{"v":4,"ts_nanos":18,"event":{"SimPhase":{"phase":"transfer","from":"P","to":"R","start":0.0,"end":0.125,"elems":40}}}
{"v":4,"ts_nanos":19,"event":{"NprocRunEnd":{"k":4,"steps":57,"converged":true,"voc_initial":900,"voc_final":610}}}"#;

    #[test]
    fn wire_format_matches_the_golden() {
        let lines: Vec<String> = one_of_each_variant()
            .into_iter()
            .enumerate()
            .map(|(i, event)| {
                serde_json::to_string(&EventRecord {
                    v: SCHEMA_VERSION,
                    ts_nanos: i as u64,
                    event,
                })
                .unwrap()
            })
            .collect();
        let actual = lines.join("\n");
        assert!(
            actual == GOLDEN,
            "the wire format changed: bump SCHEMA_VERSION and set GOLDEN to\n{actual}"
        );
    }

    #[test]
    fn unit_like_fields_survive() {
        let record = EventRecord {
            v: SCHEMA_VERSION,
            ts_nanos: 0,
            event: EventKind::ExecBlame {
                dead: "S".into(),
                weights: vec![0, 3, 100],
            },
        };
        let back: EventRecord =
            serde_json::from_str(&serde_json::to_string(&record).unwrap()).unwrap();
        assert_eq!(back, record);
    }
}
