//! # hetmmm-report
//!
//! The consumption side of hetmmm observability: everything that *reads*
//! the event/metric/manifest streams `hetmmm-obs` produces.
//!
//! The paper's experimental program is statistical observation over
//! ~10,000 DFA runs per speed ratio (§V–VIII); this crate is the analysis
//! bench for the reproduction's equivalent streams:
//!
//! - [`profile`] — reconstructs `SpanStart`/`SpanEnd` JSONL into a merged
//!   per-thread call tree ([`SpanProfile`]) with call counts, self/total
//!   durations, and folded-stack (flamegraph-compatible) output;
//! - [`analyze`] — renders run reports: the push acceptance funnel by
//!   type×direction, steps-to-convergence and recv-wait summaries with
//!   p50/p95/p99, and per-processor volume breakdowns ([`Analysis`],
//!   [`ManifestSummary`]);
//! - [`perf`] — the perf-gate data model: seeded workload results
//!   ([`BenchSuite`]) and the paired wall-time comparison of a change
//!   against its parent ([`compare`]);
//! - [`timeline`] — per-processor timeline reconstruction from
//!   `ExecSegment` events: Chrome-trace export, critical-path analysis,
//!   and measured T_comm/T_exe/overlap per worker ([`Timeline`]);
//! - [`audit`] — the model-vs-measured prediction audit: calibrates an
//!   effective platform from a measured timeline and reports per-model
//!   relative error for all five cost models ([`audit::audit`]);
//! - [`hb`] — the happens-before protocol checker over parsed executor
//!   event streams, rules H001–H005 over attempt windows ([`hb::check`]);
//! - [`input`] — the workspace's one JSONL reader: a lenient loader for
//!   event and manifest streams that keeps each record's line and each
//!   skipped line's reason ([`EventLog`], [`ManifestLog`]).
//!
//! Every renderer is deterministic: aggregation is keyed by span path /
//! metric name in sorted maps, raw span ids and thread ordinals are never
//! printed, so the same event stream (e.g. a seeded run under `FakeClock`)
//! produces byte-identical output.

pub mod analyze;
pub mod audit;
pub mod hb;
pub mod input;
pub mod perf;
pub mod profile;
pub mod timeline;

pub use analyze::{Analysis, ExactSummary, ManifestSummary, PushFunnel};
pub use audit::{Audit, AuditError, AuditRow};
pub use input::{EventLog, ManifestLog, Skip, SkipReason};
pub use perf::{compare, median, BenchEntry, BenchSuite, Comparison, GateIssue, BENCH_VERSION};
pub use profile::{FoldWeight, SpanNode, SpanProfile};
pub use timeline::{CriticalPath, Segment, Timeline, WorkerSummary};

/// Render the combined text report for one event stream (and optionally a
/// manifest log): analysis sections, manifest summary, the timeline
/// section (when the stream carries `ExecSegment` events), then the
/// span-tree profile. This is what the `obs_report` binary prints; tests
/// call it directly to assert byte-identical output for seeded runs.
pub fn full_report(events: &EventLog, manifests: Option<&ManifestLog>) -> String {
    let mut out = String::new();
    let analysis = Analysis::from_events(events);
    out.push_str(&analysis.render_text());
    if let Some(log) = manifests {
        out.push('\n');
        out.push_str(&ManifestSummary::from_manifests(log).render_text());
    }
    let tl = Timeline::from_events(&events.records);
    if !tl.is_empty() {
        out.push('\n');
        out.push_str(&tl.render_text());
    }
    let profile = SpanProfile::from_events(&events.records);
    out.push('\n');
    out.push_str(&profile.render_text());
    out
}
