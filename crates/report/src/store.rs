//! The unified run store: one indexed, in-memory model over every
//! telemetry artifact the workspace produces.
//!
//! PR after PR the evidence scattered: `results/manifests.jsonl` (one
//! [`RunManifest`](hetmmm_obs::RunManifest) per instrumented run),
//! `results/bench_history.jsonl` (one [`TrendEntry`] per perf-gate run),
//! and ad-hoc event JSONL streams per census or trace job. Each consumer
//! parsed its own slice. The [`RunStore`] joins them: manifests index by
//! `(git_rev, binary, seed)`, history flattens into per-workload series,
//! and event streams register under caller-chosen labels — so the triage
//! engine ([`crate::triage`]) and the dashboard ([`crate::dashboard`])
//! read one coherent object instead of five files.
//!
//! Ingestion is lenient everywhere, like [`crate::trend::parse_history`]:
//! unparsable lines are counted in [`RunStore::skipped_lines`], never
//! fatal — the store must survive truncated streams and foreign schema
//! generations mixed into append-only files.

use crate::input::{EventLog, ManifestLog};
use crate::trend::{parse_history, TrendEntry};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The manifest index key: which build ran which binary with which seed.
///
/// `seed: None` groups runs that recorded no seed (analyzer binaries,
/// unseeded tools) — they still count, they just cannot be replayed.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RunKey {
    /// Git revision the run was built at.
    pub git_rev: String,
    /// Binary name (manifest `bin`).
    pub bin: String,
    /// Seed, when the run recorded one.
    pub seed: Option<u64>,
}

/// Aggregates over every manifest that shares one [`RunKey`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunGroup {
    /// Runs recorded under this key.
    pub runs: u64,
    /// Wall time of each run, in manifest order.
    pub wall_nanos: Vec<u64>,
    /// Events emitted, summed across runs.
    pub events_emitted: u64,
    /// Counters summed across runs.
    pub counters: BTreeMap<String, u64>,
}

/// One history point of a workload's median wall time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeriesPoint {
    /// Git revision of the perf-gate run.
    pub git_rev: String,
    /// Unix timestamp (seconds) of the run; 0 when unavailable.
    pub unix_secs: u64,
    /// Median wall nanoseconds measured for the workload.
    pub median_nanos: u64,
}

/// A workload's full history series, in append order (oldest first).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkloadSeries {
    /// Median wall time per history entry that carried this workload.
    pub points: Vec<SeriesPoint>,
    /// The newest entry's deterministic counters for the workload.
    pub latest_counters: BTreeMap<String, u64>,
}

impl WorkloadSeries {
    /// The newest median, when any point exists.
    pub fn latest_nanos(&self) -> Option<u64> {
        self.points.last().map(|p| p.median_nanos)
    }
}

/// The unified store. Build one with [`RunStore::default`], feed it with
/// the `ingest_*` methods (each is independent and optional), then query.
#[derive(Clone, Debug, Default)]
pub struct RunStore {
    /// Manifest aggregates indexed by `(git_rev, bin, seed)`.
    pub runs: BTreeMap<RunKey, RunGroup>,
    /// Raw trend entries in append order (the triage engine re-analyzes
    /// these with its own window/threshold).
    pub history: Vec<TrendEntry>,
    /// Per-workload median series flattened from `history`.
    pub workloads: BTreeMap<String, WorkloadSeries>,
    /// Labeled event streams (label → parsed log), e.g. `"census"`,
    /// `"baseline"`, `"latest"`.
    pub streams: BTreeMap<String, EventLog>,
    /// Unparsable lines skipped across every ingested input.
    pub skipped_lines: usize,
}

impl RunStore {
    /// Ingest a parsed manifest log into the `(git_rev, bin, seed)` index.
    pub fn ingest_manifests(&mut self, log: &ManifestLog) {
        self.skipped_lines += log.skipped_lines;
        for m in &log.manifests {
            let key = RunKey {
                git_rev: m.git_rev.clone(),
                bin: m.bin.clone(),
                seed: m.seed,
            };
            let group = self.runs.entry(key).or_default();
            group.runs += 1;
            group.wall_nanos.push(m.wall_nanos);
            group.events_emitted += m.events_emitted;
            for (name, v) in &m.metrics.counters {
                *group.counters.entry(name.clone()).or_default() += v;
            }
        }
    }

    /// Ingest manifest JSONL text (lenient).
    pub fn ingest_manifests_str(&mut self, text: &str) {
        self.ingest_manifests(&ManifestLog::parse_str(text));
    }

    /// Ingest bench-history JSONL text (lenient), extending both the raw
    /// entry list and the per-workload series.
    pub fn ingest_history_str(&mut self, text: &str) {
        let (entries, skipped) = parse_history(text);
        self.skipped_lines += skipped;
        for entry in &entries {
            for (name, median) in &entry.medians {
                let series = self.workloads.entry(name.clone()).or_default();
                series.points.push(SeriesPoint {
                    git_rev: entry.git_rev.clone(),
                    unix_secs: entry.unix_secs,
                    median_nanos: *median,
                });
            }
        }
        // The newest entry's counters win per workload.
        if let Some(latest) = entries.last() {
            for (workload, counter, v) in &latest.counters {
                if let Some(series) = self.workloads.get_mut(workload) {
                    series.latest_counters.insert(counter.clone(), *v);
                }
            }
        }
        self.history.extend(entries);
    }

    /// Register a labeled event stream (replacing any previous stream
    /// under the same label).
    pub fn ingest_events(&mut self, label: &str, log: EventLog) {
        self.skipped_lines += log.skipped_lines;
        self.streams.insert(label.to_string(), log);
    }

    /// Look up one workload's series.
    pub fn workload(&self, name: &str) -> Option<&WorkloadSeries> {
        self.workloads.get(name)
    }

    /// Look up a labeled stream.
    pub fn stream(&self, label: &str) -> Option<&EventLog> {
        self.streams.get(label)
    }

    /// The git revision of the newest history entry — the deterministic
    /// "as of" stamp consumers print instead of asking the clock or git.
    pub fn latest_git_rev(&self) -> Option<&str> {
        self.history.last().map(|e| e.git_rev.as_str())
    }

    /// Total manifest runs across every key.
    pub fn total_runs(&self) -> u64 {
        self.runs.values().map(|g| g.runs).sum()
    }

    /// Human-readable inventory: what the store holds, keyed and sorted.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== run store ({} manifest runs, {} history entries, {} streams, {} skipped lines) ==",
            self.total_runs(),
            self.history.len(),
            self.streams.len(),
            self.skipped_lines
        );
        for (key, group) in &self.runs {
            let seed = match key.seed {
                Some(s) => s.to_string(),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "  run {} {} seed={seed}: {} run{}, {} events",
                key.git_rev,
                key.bin,
                group.runs,
                if group.runs == 1 { "" } else { "s" },
                group.events_emitted
            );
        }
        for (name, series) in &self.workloads {
            let _ = writeln!(
                out,
                "  workload {name}: {} point{}, latest {} ns",
                series.points.len(),
                if series.points.len() == 1 { "" } else { "s" },
                series.latest_nanos().unwrap_or(0)
            );
        }
        for (label, log) in &self.streams {
            let _ = writeln!(
                out,
                "  stream {label}: {} records, {} skipped",
                log.records.len(),
                log.skipped_lines
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trend::TREND_VERSION;
    use hetmmm_obs::{MetricsSnapshot, RunManifest, MANIFEST_VERSION};

    fn manifest(bin: &str, seed: Option<u64>, wall: u64) -> String {
        serde_json::to_string(&RunManifest {
            v: MANIFEST_VERSION,
            bin: bin.into(),
            args: vec![],
            seed,
            git_rev: "rev1".into(),
            started_unix_ms: 0,
            wall_nanos: wall,
            events_emitted: 10,
            metrics: MetricsSnapshot::default(),
        })
        .unwrap()
    }

    fn history_line(rev: &str, workload: &str, median: u64, counters: &[(&str, u64)]) -> String {
        serde_json::to_string(&TrendEntry {
            v: TREND_VERSION,
            git_rev: rev.into(),
            unix_secs: 5,
            k: 3,
            medians: vec![(workload.into(), median)],
            counters: counters
                .iter()
                .map(|(c, v)| (workload.to_string(), c.to_string(), *v))
                .collect(),
        })
        .unwrap()
    }

    #[test]
    fn manifests_index_by_rev_bin_seed() {
        let mut store = RunStore::default();
        let text = format!(
            "{}\n{}\n{}\nnot json\n",
            manifest("fig5", Some(1), 100),
            manifest("fig5", Some(1), 120),
            manifest("obs_report", None, 5),
        );
        store.ingest_manifests_str(&text);
        assert_eq!(store.total_runs(), 3);
        assert_eq!(store.skipped_lines, 1);
        let key = RunKey {
            git_rev: "rev1".into(),
            bin: "fig5".into(),
            seed: Some(1),
        };
        let group = &store.runs[&key];
        assert_eq!(group.runs, 2);
        assert_eq!(group.wall_nanos, vec![100, 120]);
        assert_eq!(group.events_emitted, 20);
    }

    #[test]
    fn history_flattens_into_workload_series() {
        let mut store = RunStore::default();
        let text = format!(
            "{}\n{}\ngarbage\n",
            history_line("a", "w", 100, &[("pushes", 4)]),
            history_line("b", "w", 150, &[("pushes", 5)]),
        );
        store.ingest_history_str(&text);
        assert_eq!(store.history.len(), 2);
        assert_eq!(store.skipped_lines, 1);
        assert_eq!(store.latest_git_rev(), Some("b"));
        let series = store.workload("w").expect("series");
        assert_eq!(series.points.len(), 2);
        assert_eq!(series.latest_nanos(), Some(150));
        assert_eq!(series.points[0].git_rev, "a");
        assert_eq!(series.latest_counters["pushes"], 5);
    }

    #[test]
    fn streams_register_by_label_and_render_is_deterministic() {
        let mut store = RunStore::default();
        store.ingest_events("census", EventLog::parse_str("not json\n"));
        assert_eq!(store.skipped_lines, 1);
        assert!(store.stream("census").is_some());
        assert!(store.stream("missing").is_none());
        let a = store.render_text();
        assert_eq!(a, store.render_text());
        assert!(a.contains("stream census: 0 records, 1 skipped"), "{a}");
    }

    #[test]
    fn empty_store_renders_header_only() {
        let store = RunStore::default();
        let text = store.render_text();
        assert!(text.starts_with("== run store (0 manifest runs"), "{text}");
        assert_eq!(text.lines().count(), 1);
        assert_eq!(store.latest_git_rev(), None);
    }
}
