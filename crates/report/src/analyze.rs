//! Run analyzer: aggregate reports over event streams and manifest logs.
//!
//! Three views, mirroring the paper's own tables: the push acceptance
//! funnel (how many plan attempts became applied pushes, by type and
//! direction — §VI's push-type taxonomy), convergence/latency summaries
//! with p50/p95/p99, and per-processor communication volume (the VoC the
//! whole search optimizes). Everything aggregates into sorted maps so the
//! rendered output is deterministic for a fixed input stream.

use crate::input::{EventLog, ManifestLog};
use hetmmm_obs::{EventKind, HistogramSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Exact order statistics over raw `u64` observations (nearest-rank).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactSummary {
    /// Observation count.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Minimum.
    pub min: u64,
    /// Maximum.
    pub max: u64,
    /// Median (nearest-rank).
    pub p50: u64,
    /// 95th percentile (nearest-rank).
    pub p95: u64,
    /// 99th percentile (nearest-rank).
    pub p99: u64,
}

impl ExactSummary {
    /// Summarize a value set; `None` when empty.
    pub fn from_values(mut values: Vec<u64>) -> Option<ExactSummary> {
        if values.is_empty() {
            return None;
        }
        values.sort_unstable();
        let rank = |q: f64| -> u64 {
            let idx = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len()) - 1;
            values[idx]
        };
        Some(ExactSummary {
            count: values.len() as u64,
            sum: values.iter().sum(),
            min: values[0],
            max: values[values.len() - 1],
            p50: rank(0.50),
            p95: rank(0.95),
            p99: rank(0.99),
        })
    }

    fn render_line(&self, label: &str) -> String {
        format!(
            "  {label:<22} n={} sum={} min={} p50={} p95={} p99={} max={}\n",
            self.count, self.sum, self.min, self.p50, self.p95, self.p99, self.max
        )
    }
}

/// The push acceptance funnel: plan attempts → applied pushes, broken
/// down by push type × direction (accepted) and processor × direction
/// (rejected).
#[derive(Debug, Default, Clone)]
pub struct PushFunnel {
    /// DFA runs seen (`DfaRunStart` events).
    pub runs: u64,
    /// Accepted pushes (`DfaPush`).
    pub accepted: u64,
    /// Rejected plan attempts (`DfaPushRejected`).
    pub rejected: u64,
    /// Accepted counts keyed by `(push_type, direction)`.
    pub accepted_by_type_dir: BTreeMap<(u8, String), u64>,
    /// Rejected counts keyed by `(proc, direction)`.
    pub rejected_by_proc_dir: BTreeMap<(String, String), u64>,
    /// Sum of applied ΔVoC (≤ 0: every accepted push lowers or keeps VoC).
    pub delta_voc_total: i64,
    /// Run terminations by kind (`FixedPoint`, `NeutralCycle`, …).
    pub terminations: BTreeMap<String, u64>,
}

impl PushFunnel {
    /// Total plan attempts (accepted + rejected).
    pub fn attempts(&self) -> u64 {
        self.accepted + self.rejected
    }
}

/// The recovery funnel: how faults moved through the executor's
/// four-layer recovery engine, from transient absorption (receive
/// re-waits) through checkpointed resumes and convictions down to the
/// degraded serial fallback. Aggregated from the v3 recovery events.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryFunnel {
    /// Worker-level receive re-waits (`ExecRetry`) — layer 1.
    pub recv_retries: u64,
    /// Extra wait granted by those re-waits (total backoff slices, ns).
    pub retry_wait_nanos: u64,
    /// Per-worker checkpoint writes (`ExecCheckpoint`) — layer 2.
    pub checkpoints: u64,
    /// Supervisor attempt resumes (`ExecResume`).
    pub resumes: u64,
    /// Backoff slept before resumes (ns; 0 for post-conviction restarts).
    pub backoff_nanos: u64,
    /// Pivot steps skipped thanks to banked checkpoints, over all resumes.
    pub resumed_steps: u64,
    /// Worst-case pivot steps re-run, over all resumes.
    pub replayed_steps: u64,
    /// Peer-lost testimonies workers filed (`ExecPeerLost`).
    pub peer_lost: u64,
    /// Convictions by convicted processor (`ExecBlame`) — layer 3.
    pub convictions_by_proc: BTreeMap<String, u64>,
    /// Survivor re-partitionings (`ExecRepartition`).
    pub repartitions: u64,
    /// C elements whose owner changed across all repartitions.
    pub elems_reassigned: u64,
    /// Degraded serial fallbacks by reason (`ExecDegraded`) — layer 4.
    pub degraded_by_reason: BTreeMap<String, u64>,
}

impl RecoveryFunnel {
    /// Total convictions across processors.
    pub fn convictions(&self) -> u64 {
        self.convictions_by_proc.values().sum()
    }

    /// Total degraded fallbacks across reasons.
    pub fn degraded(&self) -> u64 {
        self.degraded_by_reason.values().sum()
    }

    /// True when the stream carried no recovery activity at all (the
    /// render skips the section entirely for clean runs).
    pub fn is_empty(&self) -> bool {
        *self == RecoveryFunnel::default()
    }
}

/// Everything the analyzer extracts from one event stream.
#[derive(Debug, Default, Clone)]
pub struct Analysis {
    /// The push funnel.
    pub funnel: PushFunnel,
    /// The recovery funnel.
    pub recovery: RecoveryFunnel,
    /// Steps-to-convergence over `DfaRunEnd.steps`.
    pub steps_to_convergence: Option<ExactSummary>,
    /// Receive-wait times over `ExecRecv.wait_nanos`.
    pub recv_wait_nanos: Option<ExactSummary>,
    /// Elements sent per processor (`ExecSend.from`).
    pub sent_elems_by_proc: BTreeMap<String, u64>,
    /// Elements received per processor (`ExecRecv.to`).
    pub recv_elems_by_proc: BTreeMap<String, u64>,
    /// Records in the input stream.
    pub records: usize,
    /// Unparsable lines in the input stream.
    pub skipped_lines: usize,
}

impl Analysis {
    /// Aggregate one event stream.
    pub fn from_events(log: &EventLog) -> Analysis {
        let mut a = Analysis {
            records: log.records.len(),
            skipped_lines: log.skipped.len(),
            ..Analysis::default()
        };
        let mut steps = Vec::new();
        let mut waits = Vec::new();
        for record in &log.records {
            match &record.event {
                EventKind::DfaRunStart { .. } => a.funnel.runs += 1,
                EventKind::DfaPush {
                    dir,
                    push_type,
                    delta_voc,
                    ..
                } => {
                    a.funnel.accepted += 1;
                    a.funnel.delta_voc_total += delta_voc;
                    *a.funnel
                        .accepted_by_type_dir
                        .entry((*push_type, dir.clone()))
                        .or_default() += 1;
                }
                EventKind::DfaPushRejected { proc, dir } => {
                    a.funnel.rejected += 1;
                    *a.funnel
                        .rejected_by_proc_dir
                        .entry((proc.clone(), dir.clone()))
                        .or_default() += 1;
                }
                EventKind::DfaRunEnd {
                    steps: s,
                    termination,
                    ..
                } => {
                    steps.push(*s);
                    *a.funnel
                        .terminations
                        .entry(termination.clone())
                        .or_default() += 1;
                }
                EventKind::ExecSend { from, elems, .. } => {
                    *a.sent_elems_by_proc.entry(from.clone()).or_default() += elems;
                }
                EventKind::ExecRecv {
                    to,
                    elems,
                    wait_nanos,
                    ..
                } => {
                    *a.recv_elems_by_proc.entry(to.clone()).or_default() += elems;
                    waits.push(*wait_nanos);
                }
                EventKind::ExecRetry { wait_nanos, .. } => {
                    a.recovery.recv_retries += 1;
                    a.recovery.retry_wait_nanos += wait_nanos;
                }
                EventKind::ExecCheckpoint { .. } => a.recovery.checkpoints += 1,
                EventKind::ExecResume {
                    resumed,
                    replayed,
                    backoff_nanos,
                    ..
                } => {
                    a.recovery.resumes += 1;
                    a.recovery.resumed_steps += resumed;
                    a.recovery.replayed_steps += replayed;
                    a.recovery.backoff_nanos += backoff_nanos;
                }
                EventKind::ExecPeerLost { .. } => a.recovery.peer_lost += 1,
                EventKind::ExecBlame { dead, .. } => {
                    *a.recovery
                        .convictions_by_proc
                        .entry(dead.clone())
                        .or_default() += 1;
                }
                EventKind::ExecRepartition { reassigned, .. } => {
                    a.recovery.repartitions += 1;
                    a.recovery.elems_reassigned += reassigned;
                }
                EventKind::ExecDegraded { reason, .. } => {
                    *a.recovery
                        .degraded_by_reason
                        .entry(reason.clone())
                        .or_default() += 1;
                }
                _ => {}
            }
        }
        a.steps_to_convergence = ExactSummary::from_values(steps);
        a.recv_wait_nanos = ExactSummary::from_values(waits);
        a
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== event stream ({} records, {} skipped lines) ==",
            self.records, self.skipped_lines
        );
        let f = &self.funnel;
        let _ = writeln!(
            out,
            "push funnel: {} runs, {} attempts -> {} accepted / {} rejected, total dVoC {}",
            f.runs,
            f.attempts(),
            f.accepted,
            f.rejected,
            f.delta_voc_total
        );
        for ((push_type, dir), n) in &f.accepted_by_type_dir {
            let _ = writeln!(out, "  accepted type{push_type} {dir:<2} {n}");
        }
        for ((proc, dir), n) in &f.rejected_by_proc_dir {
            let _ = writeln!(out, "  rejected {proc} {dir:<2} {n}");
        }
        for (kind, n) in &f.terminations {
            let _ = writeln!(out, "  termination {kind} {n}");
        }
        if !self.recovery.is_empty() {
            let r = &self.recovery;
            let _ = writeln!(
                out,
                "recovery funnel: {} recv re-waits, {} checkpoints, {} resumes \
                 (resumed {} / replayed {} steps), {} convictions -> {} repartitions \
                 ({} elems), {} degraded",
                r.recv_retries,
                r.checkpoints,
                r.resumes,
                r.resumed_steps,
                r.replayed_steps,
                r.convictions(),
                r.repartitions,
                r.elems_reassigned,
                r.degraded()
            );
            for (proc, n) in &r.convictions_by_proc {
                let _ = writeln!(out, "  convicted {proc} {n}");
            }
            for (reason, n) in &r.degraded_by_reason {
                let _ = writeln!(out, "  degraded {reason} {n}");
            }
        }
        if let Some(s) = &self.steps_to_convergence {
            out.push_str(&s.render_line("steps_to_convergence"));
        }
        if let Some(s) = &self.recv_wait_nanos {
            out.push_str(&s.render_line("recv_wait_nanos"));
        }
        if !self.sent_elems_by_proc.is_empty() || !self.recv_elems_by_proc.is_empty() {
            let _ = writeln!(out, "per-processor volume (elements):");
            let procs: std::collections::BTreeSet<&String> = self
                .sent_elems_by_proc
                .keys()
                .chain(self.recv_elems_by_proc.keys())
                .collect();
            for proc in procs {
                let _ = writeln!(
                    out,
                    "  {proc} sent={} recv={}",
                    self.sent_elems_by_proc.get(proc).copied().unwrap_or(0),
                    self.recv_elems_by_proc.get(proc).copied().unwrap_or(0)
                );
            }
        }
        out
    }

    /// CSV sections as `(name, content)` pairs — one file per section.
    pub fn csv_sections(&self) -> Vec<(String, String)> {
        let mut sections = Vec::new();
        let mut funnel = String::from("kind,key,dir,count\n");
        for ((push_type, dir), n) in &self.funnel.accepted_by_type_dir {
            let _ = writeln!(funnel, "accepted,type{push_type},{dir},{n}");
        }
        for ((proc, dir), n) in &self.funnel.rejected_by_proc_dir {
            let _ = writeln!(funnel, "rejected,{proc},{dir},{n}");
        }
        sections.push(("push_funnel".to_string(), funnel));
        if !self.recovery.is_empty() {
            let r = &self.recovery;
            let mut rec = String::from("stage,key,count\n");
            let _ = writeln!(rec, "recv_retry,,{}", r.recv_retries);
            let _ = writeln!(rec, "retry_wait_nanos,,{}", r.retry_wait_nanos);
            let _ = writeln!(rec, "checkpoint,,{}", r.checkpoints);
            let _ = writeln!(rec, "resume,,{}", r.resumes);
            let _ = writeln!(rec, "backoff_nanos,,{}", r.backoff_nanos);
            let _ = writeln!(rec, "resumed_steps,,{}", r.resumed_steps);
            let _ = writeln!(rec, "replayed_steps,,{}", r.replayed_steps);
            let _ = writeln!(rec, "peer_lost,,{}", r.peer_lost);
            for (proc, n) in &r.convictions_by_proc {
                let _ = writeln!(rec, "conviction,{proc},{n}");
            }
            let _ = writeln!(rec, "repartition,,{}", r.repartitions);
            let _ = writeln!(rec, "elems_reassigned,,{}", r.elems_reassigned);
            for (reason, n) in &r.degraded_by_reason {
                let _ = writeln!(rec, "degraded,{reason},{n}");
            }
            sections.push(("recovery_funnel".to_string(), rec));
        }
        let mut hist = String::from("metric,count,sum,min,p50,p95,p99,max\n");
        for (label, s) in [
            ("steps_to_convergence", &self.steps_to_convergence),
            ("recv_wait_nanos", &self.recv_wait_nanos),
        ] {
            if let Some(s) = s {
                let _ = writeln!(
                    hist,
                    "{label},{},{},{},{},{},{},{}",
                    s.count, s.sum, s.min, s.p50, s.p95, s.p99, s.max
                );
            }
        }
        sections.push(("histograms".to_string(), hist));
        let mut vol = String::from("proc,sent_elems,recv_elems\n");
        let procs: std::collections::BTreeSet<&String> = self
            .sent_elems_by_proc
            .keys()
            .chain(self.recv_elems_by_proc.keys())
            .collect();
        for proc in procs {
            let _ = writeln!(
                vol,
                "{proc},{},{}",
                self.sent_elems_by_proc.get(proc).copied().unwrap_or(0),
                self.recv_elems_by_proc.get(proc).copied().unwrap_or(0)
            );
        }
        sections.push(("volumes".to_string(), vol));
        sections
    }
}

/// Aggregate view over `results/manifests.jsonl`: per-binary run counts,
/// summed counters, and histogram quantiles interpolated from the stored
/// bucket snapshots ([`HistogramSnapshot::quantile`]).
#[derive(Debug, Default, Clone)]
pub struct ManifestSummary {
    /// Per-bin aggregates, keyed by binary name.
    pub bins: BTreeMap<String, BinSummary>,
    /// Manifests parsed.
    pub manifests: usize,
    /// Unparsable lines.
    pub skipped_lines: usize,
}

/// Aggregates for one binary across its manifest records.
#[derive(Debug, Default, Clone)]
pub struct BinSummary {
    /// Runs recorded.
    pub runs: u64,
    /// Total events emitted across runs.
    pub events_emitted: u64,
    /// Wall times of each run.
    pub wall_nanos: Vec<u64>,
    /// Counters summed across runs.
    pub counters: BTreeMap<String, u64>,
    /// Histograms merged across runs (counts summed; first-seen bounds
    /// win — bounds are compile-time constants per metric name).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl ManifestSummary {
    /// Aggregate one manifest log.
    pub fn from_manifests(log: &ManifestLog) -> ManifestSummary {
        let mut summary = ManifestSummary {
            manifests: log.records.len(),
            skipped_lines: log.skipped.len(),
            ..ManifestSummary::default()
        };
        for m in &log.records {
            let bin = summary.bins.entry(m.bin.clone()).or_default();
            bin.runs += 1;
            bin.events_emitted += m.events_emitted;
            bin.wall_nanos.push(m.wall_nanos);
            for (name, v) in &m.metrics.counters {
                *bin.counters.entry(name.clone()).or_default() += v;
            }
            for h in &m.metrics.histograms {
                let merged =
                    bin.histograms
                        .entry(h.name.clone())
                        .or_insert_with(|| HistogramSnapshot {
                            name: h.name.clone(),
                            bounds: h.bounds.clone(),
                            counts: vec![0; h.counts.len()],
                            count: 0,
                            sum: 0,
                        });
                if merged.bounds == h.bounds {
                    for (acc, c) in merged.counts.iter_mut().zip(&h.counts) {
                        *acc += c;
                    }
                    merged.count += h.count;
                    merged.sum += h.sum;
                }
            }
        }
        summary
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== manifests ({} records, {} skipped lines) ==",
            self.manifests, self.skipped_lines
        );
        for (bin, s) in &self.bins {
            let _ = writeln!(
                out,
                "{bin}: {} run{}, {} events",
                s.runs,
                if s.runs == 1 { "" } else { "s" },
                s.events_emitted
            );
            if let Some(w) = ExactSummary::from_values(s.wall_nanos.clone()) {
                out.push_str(&w.render_line("wall_nanos"));
            }
            for (name, v) in &s.counters {
                let _ = writeln!(out, "  counter {name} {v}");
            }
            // Derived probe-cache hit rate: hits over total probe
            // evaluations (cached + evaluated). Only meaningful when the
            // bin recorded probe activity at all.
            let hits = s.counters.get("push.probe.cache_hits").copied();
            let evals = s.counters.get("push.probe.evals").copied();
            if let (Some(hits), Some(evals)) = (hits, evals) {
                let lookups = hits + evals;
                if lookups > 0 {
                    let _ = writeln!(
                        out,
                        "  derived push.probe.hit_rate {:.1}% ({hits}/{lookups})",
                        100.0 * hits as f64 / lookups as f64
                    );
                }
            }
            for (name, h) in &s.histograms {
                let q = |p: f64| {
                    h.quantile(p)
                        .map(|v| format!("{v:.1}"))
                        .unwrap_or_else(|| "-".to_string())
                };
                let _ = writeln!(
                    out,
                    "  histogram {name} n={} sum={} p50={} p95={} p99={}",
                    h.count,
                    h.sum,
                    q(0.50),
                    q(0.95),
                    q(0.99)
                );
            }
        }
        out
    }

    /// CSV: one row per (bin, counter) plus one per (bin, histogram).
    pub fn csv(&self) -> String {
        let mut out = String::from("bin,kind,name,count,sum,p50,p95,p99\n");
        for (bin, s) in &self.bins {
            for (name, v) in &s.counters {
                let _ = writeln!(out, "{bin},counter,{name},{v},,,,");
            }
            for (name, h) in &s.histograms {
                let q = |p: f64| h.quantile(p).map(|v| format!("{v:.1}")).unwrap_or_default();
                let _ = writeln!(
                    out,
                    "{bin},histogram,{name},{},{},{},{},{}",
                    h.count,
                    h.sum,
                    q(0.50),
                    q(0.95),
                    q(0.99)
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmmm_obs::{EventRecord, SCHEMA_VERSION};

    fn rec(event: EventKind) -> EventRecord {
        EventRecord {
            v: SCHEMA_VERSION,
            ts_nanos: 0,
            event,
        }
    }

    /// `records` on lines 1, 2, …, then `skipped` blank lines.
    fn log_of(records: Vec<EventRecord>, skipped: usize) -> EventLog {
        let n = records.len();
        let blank = |line| crate::input::Skip {
            line,
            reason: crate::input::SkipReason::Blank,
        };
        let skipped = (n + 1..=n + skipped).map(blank).collect();
        let lines = (1..=n).collect();
        EventLog {
            records,
            lines,
            skipped,
        }
    }

    fn sample_log() -> EventLog {
        log_of(
            vec![
                rec(EventKind::DfaRunStart {
                    seed: 1,
                    n: 40,
                    ratio: "1:1:1".into(),
                    plan_len: 8,
                }),
                rec(EventKind::DfaPush {
                    step: 1,
                    proc: "R".into(),
                    dir: "↓".into(),
                    push_type: 1,
                    delta_voc: -10,
                }),
                rec(EventKind::DfaPush {
                    step: 2,
                    proc: "S".into(),
                    dir: "↓".into(),
                    push_type: 1,
                    delta_voc: -4,
                }),
                rec(EventKind::DfaPushRejected {
                    proc: "P".into(),
                    dir: "→".into(),
                }),
                rec(EventKind::DfaRunEnd {
                    steps: 2,
                    termination: "FixedPoint".into(),
                    voc_initial: 100,
                    voc_final: 86,
                    residual_pushes: 0,
                    condensed: true,
                }),
                rec(EventKind::ExecSend {
                    from: "R".into(),
                    to: "S".into(),
                    step: 0,
                    elems: 64,
                }),
                rec(EventKind::ExecRecv {
                    from: "R".into(),
                    to: "S".into(),
                    step: 0,
                    elems: 64,
                    wait_nanos: 500,
                }),
            ],
            1,
        )
    }

    #[test]
    fn funnel_counts_accepted_rejected_and_terminations() {
        let a = Analysis::from_events(&sample_log());
        assert_eq!(a.funnel.runs, 1);
        assert_eq!(a.funnel.accepted, 2);
        assert_eq!(a.funnel.rejected, 1);
        assert_eq!(a.funnel.attempts(), 3);
        assert_eq!(a.funnel.delta_voc_total, -14);
        assert_eq!(a.funnel.accepted_by_type_dir[&(1, "↓".to_string())], 2);
        assert_eq!(a.funnel.terminations["FixedPoint"], 1);
        assert_eq!(a.sent_elems_by_proc["R"], 64);
        assert_eq!(a.recv_elems_by_proc["S"], 64);
        assert_eq!(a.recv_wait_nanos.as_ref().unwrap().p50, 500);
    }

    #[test]
    fn exact_summary_nearest_rank_quantiles() {
        let s = ExactSummary::from_values((1..=100).collect()).unwrap();
        assert_eq!(s.p50, 50);
        assert_eq!(s.p95, 95);
        assert_eq!(s.p99, 99);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert!(ExactSummary::from_values(vec![]).is_none());
        let single = ExactSummary::from_values(vec![7]).unwrap();
        assert_eq!((single.p50, single.p99), (7, 7));
    }

    fn recovery_log() -> EventLog {
        log_of(
            vec![
                rec(EventKind::ExecRetry {
                    worker: "R".into(),
                    peer: "S".into(),
                    step: 4,
                    attempt: 1,
                    wait_nanos: 10_000_000,
                }),
                rec(EventKind::ExecCheckpoint {
                    worker: "R".into(),
                    through: 5,
                    cells: 16,
                }),
                rec(EventKind::ExecCheckpoint {
                    worker: "P".into(),
                    through: 5,
                    cells: 8,
                }),
                rec(EventKind::ExecPeerLost {
                    worker: "R".into(),
                    peer: "S".into(),
                    step: 5,
                    detail: "recv timeout".into(),
                }),
                rec(EventKind::ExecBlame {
                    dead: "S".into(),
                    weights: vec![0, 6, 0],
                }),
                rec(EventKind::ExecRepartition {
                    dead: "S".into(),
                    reassigned: 40,
                    survivors: 2,
                }),
                rec(EventKind::ExecResume {
                    attempt: 2,
                    resume_step: 5,
                    resumed: 5,
                    replayed: 11,
                    survivors: 2,
                    backoff_nanos: 0,
                }),
                rec(EventKind::ExecDegraded {
                    survivors: 1,
                    cascade_depth: 2,
                    reason: "sole-survivor".into(),
                    replayed: 3,
                }),
            ],
            0,
        )
    }

    #[test]
    fn recovery_funnel_aggregates_all_stages() {
        let a = Analysis::from_events(&recovery_log());
        let r = &a.recovery;
        assert!(!r.is_empty());
        assert_eq!(r.recv_retries, 1);
        assert_eq!(r.retry_wait_nanos, 10_000_000);
        assert_eq!(r.checkpoints, 2);
        assert_eq!(r.peer_lost, 1);
        assert_eq!(r.convictions(), 1);
        assert_eq!(r.convictions_by_proc["S"], 1);
        assert_eq!(r.repartitions, 1);
        assert_eq!(r.elems_reassigned, 40);
        assert_eq!((r.resumes, r.resumed_steps, r.replayed_steps), (1, 5, 11));
        assert_eq!(r.degraded(), 1);
        assert_eq!(r.degraded_by_reason["sole-survivor"], 1);
        let text = a.render_text();
        assert!(text.contains("recovery funnel:"), "{text}");
        assert!(text.contains("convicted S 1"), "{text}");
        assert!(text.contains("degraded sole-survivor 1"), "{text}");
        let sections = a.csv_sections();
        let rec = &sections
            .iter()
            .find(|(name, _)| name == "recovery_funnel")
            .expect("recovery_funnel csv section")
            .1;
        assert!(rec.contains("conviction,S,1"), "{rec}");
        assert!(rec.contains("degraded,sole-survivor,1"), "{rec}");
    }

    #[test]
    fn clean_stream_omits_recovery_funnel() {
        let a = Analysis::from_events(&sample_log());
        assert!(a.recovery.is_empty());
        assert!(!a.render_text().contains("recovery funnel"));
        assert!(a
            .csv_sections()
            .iter()
            .all(|(name, _)| name != "recovery_funnel"));
    }

    #[test]
    fn render_is_deterministic() {
        let log = sample_log();
        let a = Analysis::from_events(&log);
        let b = Analysis::from_events(&log);
        assert_eq!(a.render_text(), b.render_text());
        assert_eq!(a.csv_sections(), b.csv_sections());
    }
}
