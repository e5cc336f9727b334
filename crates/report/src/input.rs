//! The lenient JSONL loader for event and manifest streams, and the only
//! place in the workspace that reads them.
//!
//! Streams on disk can end mid-line (a run was killed, a sink was never
//! flushed) or mix schema versions across reruns. The loader keeps every
//! record of the current version with its 1-based line, and skips every
//! other line with its reason (blank, unparseable, or a foreign `v`), so
//! reports can state how much of the input they actually saw instead of
//! dying on line 10,000, and validators can cite the line at fault.

use hetmmm_obs::{EventRecord, RunManifest, MANIFEST_VERSION, SCHEMA_VERSION};
use serde::Deserialize;
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::Path;

/// A JSONL record type that carries its schema version in `v`.
pub trait Versioned: Deserialize {
    /// The version this build reads; other versions are skipped.
    const VERSION: u32;
    /// The record's own `v`.
    fn version(&self) -> u32;
}

impl Versioned for EventRecord {
    const VERSION: u32 = SCHEMA_VERSION;
    fn version(&self) -> u32 {
        self.v
    }
}

impl Versioned for RunManifest {
    const VERSION: u32 = MANIFEST_VERSION;
    fn version(&self) -> u32 {
        self.v
    }
}

/// Why the loader skipped a line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SkipReason {
    /// Empty or whitespace only.
    Blank,
    /// Not a record of this type: the parser's message.
    Unparseable(String),
    /// A record of another schema version: its `v`.
    Foreign(u32),
}

/// One skipped line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Skip {
    /// 1-based line in the stream.
    pub line: usize,
    /// Why it was skipped.
    pub reason: SkipReason,
}

/// A parsed JSONL stream: the records of the current version, in stream
/// order, and the lines skipped.
#[derive(Debug, Clone)]
pub struct Jsonl<T> {
    /// Records in stream order.
    pub records: Vec<T>,
    /// Each record's 1-based line (`lines[i]` is `records[i]`'s).
    pub lines: Vec<usize>,
    /// Lines that held no current record, in stream order.
    pub skipped: Vec<Skip>,
}

/// A parsed event stream.
pub type EventLog = Jsonl<EventRecord>;
/// A parsed manifest stream.
pub type ManifestLog = Jsonl<RunManifest>;

impl<T> Default for Jsonl<T> {
    fn default() -> Self {
        Jsonl {
            records: Vec::new(),
            lines: Vec::new(),
            skipped: Vec::new(),
        }
    }
}

impl<T: Versioned> Jsonl<T> {
    /// Parse from in-memory JSONL text.
    pub fn parse_str(text: &str) -> Self {
        let mut log = Self::default();
        for line in text.lines() {
            log.push_line(line);
        }
        log
    }

    /// Load from a JSONL file a line at a time, so the file's text is
    /// never held whole beside its records.
    pub fn read_path(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut log = Self::default();
        for line in BufReader::new(File::open(path)?).lines() {
            log.push_line(&line?);
        }
        Ok(log)
    }

    /// Keep the next line's record, or skip the line with its reason.
    fn push_line(&mut self, line: &str) {
        let number = self.records.len() + self.skipped.len() + 1;
        let reason = if line.trim().is_empty() {
            SkipReason::Blank
        } else {
            match serde_json::from_str::<T>(line) {
                Ok(record) if record.version() == T::VERSION => {
                    self.records.push(record);
                    self.lines.push(number);
                    return;
                }
                Ok(record) => SkipReason::Foreign(record.version()),
                Err(e) => SkipReason::Unparseable(e.to_string()),
            }
        };
        self.skipped.push(Skip {
            line: number,
            reason,
        });
    }

    /// Records with their 1-based lines, in stream order.
    pub fn numbered(&self) -> impl Iterator<Item = (usize, &T)> {
        self.lines.iter().copied().zip(&self.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmmm_obs::{EventKind, MetricsSnapshot};

    fn event_line(name: &str) -> String {
        serde_json::to_string(&EventRecord {
            v: SCHEMA_VERSION,
            ts_nanos: 1,
            event: EventKind::Message {
                target: "t".into(),
                text: name.into(),
            },
        })
        .unwrap()
    }

    #[test]
    fn good_lines_parse_and_bad_lines_are_counted() {
        let old = event_line("c").replace(&format!("\"v\":{SCHEMA_VERSION}"), "\"v\":1");
        let text = format!(
            "{}\n{{\"v\":2,\"ts_nanos\":3,\"event\"\n\n{}\nnot json\n{old}\n",
            event_line("a"),
            event_line("b")
        );
        let log = EventLog::parse_str(&text);
        assert_eq!(log.records.len(), 2);
        let numbered: Vec<usize> = log.numbered().map(|(line, _)| line).collect();
        assert_eq!(numbered, [1, 4]);
        // Truncated, blank, garbage and foreign-schema lines.
        let reasons: Vec<(usize, SkipReason)> = log
            .skipped
            .into_iter()
            .map(|s| (s.line, s.reason))
            .collect();
        assert!(matches!(reasons[0], (2, SkipReason::Unparseable(_))));
        assert_eq!(reasons[1], (3, SkipReason::Blank));
        assert!(matches!(reasons[2], (5, SkipReason::Unparseable(_))));
        assert_eq!(reasons[3], (6, SkipReason::Foreign(1)));
        assert_eq!(reasons.len(), 4);
    }

    #[test]
    fn manifest_log_survives_truncation() {
        let m = RunManifest {
            v: MANIFEST_VERSION,
            bin: "b".into(),
            args: vec![],
            seed: None,
            git_rev: "r".into(),
            started_unix_ms: 0,
            wall_nanos: 0,
            events_emitted: 0,
            metrics: MetricsSnapshot::default(),
        };
        let good = serde_json::to_string(&m).unwrap();
        let text = format!("{good}\n{}\n", &good[..good.len() / 2]);
        let log = ManifestLog::parse_str(&text);
        assert_eq!(log.records.len(), 1);
        assert_eq!(log.skipped.len(), 1);
    }
}
