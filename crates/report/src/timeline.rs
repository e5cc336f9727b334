//! Per-processor timeline reconstruction from `ExecSegment` events.
//!
//! The executor (and the simulator) attribute every worker's wall time to
//! `compute` / `send` / `recv-wait` / `checkpoint` / `blocked` segments;
//! this module turns that stream back into per-processor timelines and
//! answers the questions the paper's cost models predict: measured
//! T_comm and T_exe per processor, the comm/compute overlap fraction, and
//! the cross-processor critical path (the chain of segments — same-worker
//! order plus send→recv-wait edges — that ends at the latest-finishing
//! segment, i.e. the measured makespan decomposition).
//!
//! The Chrome-trace exporter renders the segments in the trace-event JSON
//! format (`ph:"X"` complete events, microsecond timestamps) that
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//! directly. All output is deterministic: segments are sorted by a total
//! key, so a seeded `FakeClock` run renders byte-identically.

use hetmmm_obs::{EventKind, EventRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One attributed slice of a worker's wall time (the analysis-side mirror
/// of [`EventKind::ExecSegment`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Worker (processor letter).
    pub worker: String,
    /// Phase kind: `compute`, `send`, `recv-wait`, `checkpoint`, `blocked`.
    pub kind: String,
    /// Peer for comm segments (empty otherwise).
    pub peer: String,
    /// Pivot step.
    pub step: u64,
    /// Start on the emitting clock's axis.
    pub start_nanos: u64,
    /// End on the emitting clock's axis.
    pub end_nanos: u64,
}

impl Segment {
    /// Segment duration.
    pub fn nanos(&self) -> u64 {
        self.end_nanos.saturating_sub(self.start_nanos)
    }

    /// Is this a communication phase (`send`, `recv-wait`, or `blocked`)?
    pub fn is_comm(&self) -> bool {
        matches!(self.kind.as_str(), "send" | "recv-wait" | "blocked")
    }

    /// The deterministic total order used everywhere: time, then identity.
    fn sort_key(&self) -> (u64, u64, &str, &str, &str, u64) {
        (
            self.start_nanos,
            self.end_nanos,
            &self.worker,
            &self.kind,
            &self.peer,
            self.step,
        )
    }
}

/// Per-worker totals derived from one timeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerSummary {
    /// Total `compute` time.
    pub compute_nanos: u64,
    /// Total `send` time (includes any `blocked` sub-interval).
    pub send_nanos: u64,
    /// Total `recv-wait` time.
    pub recv_wait_nanos: u64,
    /// Total `checkpoint` time.
    pub checkpoint_nanos: u64,
    /// Total full-channel `blocked` time (also counted inside `send`).
    pub blocked_nanos: u64,
    /// Earliest segment start.
    pub first_nanos: u64,
    /// Latest segment end.
    pub last_nanos: u64,
    /// Segments attributed to this worker.
    pub segments: usize,
    /// Fraction of this worker's `compute` time during which at least one
    /// *other* worker sat in a comm segment — the measured comm/compute
    /// overlap the SCO/PCO/PIO models assume is exploitable.
    pub overlap_fraction: f64,
}

impl WorkerSummary {
    /// Measured communication time: send + recv-wait (`blocked` already
    /// lies inside `send`, so it is not double-counted).
    pub fn comm_nanos(&self) -> u64 {
        self.send_nanos + self.recv_wait_nanos
    }

    /// Measured execution time: this worker's timeline extent.
    pub fn exe_nanos(&self) -> u64 {
        self.last_nanos.saturating_sub(self.first_nanos)
    }
}

/// The critical path: the chain of segments ending at the latest-finishing
/// segment, following same-worker ordering edges and cross-worker
/// `send → recv-wait` edges backward to a chain start.
#[derive(Debug, Clone, Default)]
pub struct CriticalPath {
    /// The chain, in time order.
    pub segments: Vec<Segment>,
    /// Chain extent: last end − first start.
    pub length_nanos: u64,
    /// Sum of segment durations along the chain. May exceed
    /// `length_nanos`: the two endpoints of a send→recv-wait edge overlap
    /// in wall time, and both sides are on the path.
    pub busy_nanos: u64,
}

/// A reconstructed multi-worker timeline.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// All segments, in the deterministic total order.
    pub segments: Vec<Segment>,
}

impl Timeline {
    /// Extract and order every `ExecSegment` in the stream.
    pub fn from_events(records: &[EventRecord]) -> Timeline {
        let mut segments: Vec<Segment> = records
            .iter()
            .filter_map(|r| match &r.event {
                EventKind::ExecSegment {
                    worker,
                    kind,
                    peer,
                    step,
                    start_nanos,
                    end_nanos,
                } => Some(Segment {
                    worker: worker.clone(),
                    kind: kind.clone(),
                    peer: peer.clone(),
                    step: *step,
                    start_nanos: *start_nanos,
                    end_nanos: *end_nanos,
                }),
                _ => None,
            })
            .collect();
        segments.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        Timeline { segments }
    }

    /// Is there anything to report?
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Global extent: latest end − earliest start over all segments.
    pub fn makespan_nanos(&self) -> u64 {
        let first = self.segments.iter().map(|s| s.start_nanos).min();
        let last = self.segments.iter().map(|s| s.end_nanos).max();
        match (first, last) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => 0,
        }
    }

    /// Per-worker totals, keyed by worker name (sorted).
    pub fn summarize(&self) -> BTreeMap<String, WorkerSummary> {
        let mut out: BTreeMap<String, WorkerSummary> = BTreeMap::new();
        for seg in &self.segments {
            let w = out.entry(seg.worker.clone()).or_insert(WorkerSummary {
                first_nanos: u64::MAX,
                ..WorkerSummary::default()
            });
            let d = seg.nanos();
            match seg.kind.as_str() {
                "compute" => w.compute_nanos += d,
                "send" => w.send_nanos += d,
                "recv-wait" => w.recv_wait_nanos += d,
                "checkpoint" => w.checkpoint_nanos += d,
                "blocked" => w.blocked_nanos += d,
                _ => {}
            }
            w.first_nanos = w.first_nanos.min(seg.start_nanos);
            w.last_nanos = w.last_nanos.max(seg.end_nanos);
            w.segments += 1;
        }
        // Overlap fraction: intersect each worker's compute intervals with
        // the union of every other worker's comm intervals.
        let workers: Vec<String> = out.keys().cloned().collect();
        for worker in &workers {
            let compute: Vec<(u64, u64)> = self
                .segments
                .iter()
                .filter(|s| &s.worker == worker && s.kind == "compute" && s.nanos() > 0)
                .map(|s| (s.start_nanos, s.end_nanos))
                .collect();
            let others_comm: Vec<(u64, u64)> = self
                .segments
                .iter()
                .filter(|s| &s.worker != worker && s.is_comm() && s.kind != "blocked")
                .map(|s| (s.start_nanos, s.end_nanos))
                .collect();
            let comm = merge_intervals(others_comm);
            let total: u64 = compute.iter().map(|&(a, b)| b - a).sum();
            let overlapped: u64 = compute
                .iter()
                .map(|&(a, b)| {
                    comm.iter()
                        .map(|&(c, d)| d.min(b).saturating_sub(c.max(a)))
                        .sum::<u64>()
                })
                .sum();
            if let Some(w) = out.get_mut(worker) {
                w.overlap_fraction = if total > 0 {
                    overlapped as f64 / total as f64
                } else {
                    0.0
                };
            }
        }
        for w in out.values_mut() {
            if w.first_nanos == u64::MAX {
                w.first_nanos = 0;
            }
        }
        out
    }

    /// The cross-processor critical path.
    ///
    /// Walks backward from the latest-ending segment. At each segment the
    /// predecessor is whichever of these ends latest (ties prefer the
    /// cross-worker edge, which is the interesting one):
    ///
    /// - the matching `send` on the peer, when this segment is a
    ///   `recv-wait` (same `(peer, worker, step)` triple);
    /// - the same worker's latest segment ending at or before this start.
    pub fn critical_path(&self) -> CriticalPath {
        let Some(mut current) = self
            .segments
            .iter()
            .max_by_key(|s| (s.end_nanos, std::cmp::Reverse(s.sort_key())))
        else {
            return CriticalPath::default();
        };
        let mut chain = vec![current.clone()];
        loop {
            let cross: Option<&Segment> = if current.kind == "recv-wait" {
                self.segments
                    .iter()
                    .filter(|s| {
                        s.kind == "send"
                            && s.worker == current.peer
                            && s.peer == current.worker
                            && s.step == current.step
                    })
                    .max_by_key(|s| s.end_nanos)
            } else {
                None
            };
            let same: Option<&Segment> = self
                .segments
                .iter()
                .filter(|s| {
                    s.worker == current.worker
                        && s.end_nanos <= current.start_nanos
                        && s.sort_key() != current.sort_key()
                })
                .max_by_key(|s| (s.end_nanos, std::cmp::Reverse(s.sort_key())));
            let next = match (cross, same) {
                (Some(c), Some(s)) => {
                    if c.end_nanos >= s.end_nanos {
                        Some(c)
                    } else {
                        Some(s)
                    }
                }
                (Some(c), None) => Some(c),
                (None, Some(s)) => Some(s),
                (None, None) => None,
            };
            match next {
                // A cycle cannot arise from the time-ordered edges, but a
                // degenerate all-zero-length stream (FakeClock that never
                // advanced) could revisit; the membership check bounds us.
                Some(seg) if !chain.iter().any(|c| c.sort_key() == seg.sort_key()) => {
                    chain.push(seg.clone());
                    current = seg;
                }
                _ => break,
            }
        }
        chain.reverse();
        let first = chain.first().map(|s| s.start_nanos).unwrap_or(0);
        let last = chain.last().map(|s| s.end_nanos).unwrap_or(0);
        CriticalPath {
            length_nanos: last.saturating_sub(first),
            busy_nanos: chain.iter().map(Segment::nanos).sum(),
            segments: chain,
        }
    }

    /// Render the Chrome trace-event JSON (the "JSON Object Format": a
    /// `traceEvents` array of `ph:"X"` complete events). Timestamps are
    /// microseconds with nanosecond precision; one `tid` per worker in
    /// sorted order, named via `thread_name` metadata events. Deterministic
    /// byte-for-byte for a given timeline.
    pub fn chrome_trace_json(&self) -> String {
        let workers: Vec<&String> = {
            let mut w: Vec<&String> = self.segments.iter().map(|s| &s.worker).collect();
            w.sort();
            w.dedup();
            w
        };
        let tid_of =
            |worker: &str| -> usize { 1 + workers.iter().position(|w| *w == worker).unwrap_or(0) };
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for (i, worker) in workers.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":\"worker {}\"}}}}",
                i + 1,
                json_escape(worker)
            );
        }
        for seg in &self.segments {
            if !first {
                out.push(',');
            }
            first = false;
            let name = if seg.peer.is_empty() {
                seg.kind.clone()
            } else {
                format!("{} {}", seg.kind, seg.peer)
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"step\":{},\"peer\":\"{}\"}}}}",
                json_escape(&name),
                json_escape(&seg.kind),
                micros(seg.start_nanos),
                micros(seg.nanos()),
                tid_of(&seg.worker),
                seg.step,
                json_escape(&seg.peer)
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}");
        out
    }

    /// Human-readable timeline section (empty string when no segments).
    pub fn render_text(&self) -> String {
        if self.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        let summaries = self.summarize();
        let _ = writeln!(
            out,
            "== timeline ({} segments, makespan {} ns) ==",
            self.segments.len(),
            self.makespan_nanos()
        );
        for (worker, s) in &summaries {
            let _ = writeln!(
                out,
                "  {worker}: T_exe={} ns, T_comm={} ns (send={} recv-wait={} blocked={}), \
                 compute={} ns, checkpoint={} ns, overlap={:.1}%",
                s.exe_nanos(),
                s.comm_nanos(),
                s.send_nanos,
                s.recv_wait_nanos,
                s.blocked_nanos,
                s.compute_nanos,
                s.checkpoint_nanos,
                100.0 * s.overlap_fraction
            );
        }
        let cp = self.critical_path();
        let _ = writeln!(
            out,
            "critical path: {} segments, length {} ns ({} ns busy)",
            cp.segments.len(),
            cp.length_nanos,
            cp.busy_nanos
        );
        let mut by_kind: BTreeMap<&str, u64> = BTreeMap::new();
        for seg in &cp.segments {
            *by_kind.entry(seg.kind.as_str()).or_default() += seg.nanos();
        }
        for (kind, nanos) in by_kind {
            let _ = writeln!(out, "  on path: {kind} {nanos} ns");
        }
        out
    }
}

/// Merge overlapping `(start, end)` intervals (input order free).
fn merge_intervals(mut iv: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    iv.retain(|&(a, b)| b > a);
    iv.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(iv.len());
    for (a, b) in iv {
        match out.last_mut() {
            Some((_, e)) if a <= *e => *e = (*e).max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// Nanoseconds rendered as microseconds with fixed 3-decimal precision
/// (exact: 1 ns = 0.001 µs), keeping the JSON bytes deterministic.
fn micros(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1000, nanos % 1000)
}

/// Minimal JSON string escaping for worker/kind/peer labels.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmmm_obs::SCHEMA_VERSION;

    fn seg(worker: &str, kind: &str, peer: &str, step: u64, start: u64, end: u64) -> EventRecord {
        EventRecord {
            v: SCHEMA_VERSION,
            ts_nanos: start,
            event: EventKind::ExecSegment {
                worker: worker.into(),
                kind: kind.into(),
                peer: peer.into(),
                step,
                start_nanos: start,
                end_nanos: end,
            },
        }
    }

    /// A tight 3-worker fixture: P sends to R (0–10), R waits for it
    /// (0–10), R computes (10–30), R sends to S (30–35), S waits (20–35),
    /// S computes (35–50). The critical path P.send → R.recv-wait →
    /// R.compute → R.send → S.recv-wait → S.compute spans the whole
    /// makespan.
    fn fixture() -> Timeline {
        Timeline::from_events(&[
            seg("P", "send", "R", 0, 0, 10),
            seg("P", "compute", "", 0, 10, 18),
            seg("R", "recv-wait", "P", 0, 0, 10),
            seg("R", "compute", "", 0, 10, 30),
            seg("R", "send", "S", 1, 30, 35),
            seg("S", "compute", "", 0, 5, 20),
            seg("S", "recv-wait", "R", 1, 20, 35),
            seg("S", "compute", "", 1, 35, 50),
        ])
    }

    #[test]
    fn critical_path_length_equals_makespan() {
        let tl = fixture();
        assert_eq!(tl.makespan_nanos(), 50);
        let cp = tl.critical_path();
        assert_eq!(cp.length_nanos, tl.makespan_nanos());
        let kinds: Vec<&str> = cp.segments.iter().map(|s| s.kind.as_str()).collect();
        assert_eq!(
            kinds,
            [
                "send",
                "recv-wait",
                "compute",
                "send",
                "recv-wait",
                "compute"
            ]
        );
        assert_eq!(cp.busy_nanos, 10 + 10 + 20 + 5 + 15 + 15);
    }

    #[test]
    fn summaries_attribute_time_per_kind() {
        let tl = fixture();
        let sums = tl.summarize();
        let r = &sums["R"];
        assert_eq!(r.compute_nanos, 20);
        assert_eq!(r.recv_wait_nanos, 10);
        assert_eq!(r.send_nanos, 5);
        assert_eq!(r.comm_nanos(), 15);
        assert_eq!(r.exe_nanos(), 35);
        // S computes 5–20 while R waits 0–10 and R sends 30–35: overlap
        // with other workers' comm is 5–10 out of its first compute, so
        // (5 + 0) / (15 + 15).
        let s = &sums["S"];
        assert!((s.overlap_fraction - 5.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn chrome_trace_is_deterministic_and_ordered() {
        let tl = fixture();
        let a = tl.chrome_trace_json();
        let b = fixture().chrome_trace_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"traceEvents\":["));
        assert!(a.ends_with("],\"displayTimeUnit\":\"ns\"}"));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"name\":\"thread_name\""));
        // 1 ns = 0.001 µs, rendered exactly.
        assert!(a.contains("\"ts\":0.000"));
        assert!(a.contains("\"dur\":0.010") || a.contains("\"dur\":0.005"));
    }

    #[test]
    fn trace_json_parses_as_valid_json() {
        let tl = fixture();
        let json = tl.chrome_trace_json();
        let v: serde_json::Value = serde_json::from_str(&json).expect("trace must parse");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        // 8 segments + 3 thread_name metadata records.
        assert_eq!(events.len(), 11);
    }

    #[test]
    fn empty_stream_yields_empty_timeline() {
        let tl = Timeline::from_events(&[]);
        assert!(tl.is_empty());
        assert_eq!(tl.makespan_nanos(), 0);
        assert!(tl.critical_path().segments.is_empty());
        assert_eq!(tl.render_text(), "");
    }

    #[test]
    fn zero_duration_segments_stay_deterministic() {
        // A FakeClock that never advances produces all-zero timestamps;
        // the identity part of the sort key still gives a total order.
        let tl = Timeline::from_events(&[
            seg("R", "compute", "", 1, 0, 0),
            seg("P", "compute", "", 1, 0, 0),
            seg("P", "send", "R", 1, 0, 0),
        ]);
        let workers: Vec<&str> = tl.segments.iter().map(|s| s.worker.as_str()).collect();
        assert_eq!(workers, ["P", "P", "R"]);
        assert_eq!(tl.makespan_nanos(), 0);
        assert!(!tl.chrome_trace_json().is_empty());
    }
}
