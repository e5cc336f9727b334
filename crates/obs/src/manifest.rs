//! Run manifests: one JSONL record per experiment-binary invocation.
//!
//! A [`RunManifest`] captures everything needed to interpret (and re-run)
//! an artifact drop: binary name, CLI arguments, seed, git revision, wall
//! time, and a full metrics snapshot. Bench binaries append one line per
//! run to `results/manifests.jsonl` via their session guard (see
//! `hetmmm_bench::BinSession`), which keeps the newest [`MANIFEST_CAP`]
//! records.

use crate::metrics::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use std::io::{self, Write};
use std::path::Path;

/// Schema version of the manifest record (independent of the event schema).
pub const MANIFEST_VERSION: u32 = 2;

/// One experiment run, serialized as one JSONL line.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Always [`MANIFEST_VERSION`] for records produced by this build.
    pub v: u32,
    /// Binary name, e.g. `fig5_archetype_census`.
    pub bin: String,
    /// Parsed CLI flags as sorted `(key, value)` pairs.
    pub args: Vec<(String, String)>,
    /// Base seed of the run, when the binary takes one.
    pub seed: Option<u64>,
    /// Short git revision (or `unknown` outside a work tree).
    pub git_rev: String,
    /// Unix epoch milliseconds at session start.
    pub started_unix_ms: u64,
    /// Wall-clock duration measured on the installed [`crate::Clock`].
    pub wall_nanos: u64,
    /// Events emitted through the facade during the session.
    pub events_emitted: u64,
    /// Full metrics snapshot at session end.
    pub metrics: MetricsSnapshot,
}

/// Best-effort short git revision of the working tree.
///
/// Honors `HETMMM_GIT_REV` (useful in CI and containers without `.git`),
/// then asks `git rev-parse --short HEAD`, then falls back to `unknown`.
pub fn git_rev() -> String {
    if let Ok(rev) = std::env::var("HETMMM_GIT_REV") {
        if !rev.is_empty() {
            return rev;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Append one manifest record to a JSONL file (created if absent).
pub fn append_manifest(path: impl AsRef<Path>, manifest: &RunManifest) -> io::Result<()> {
    let json = serde_json::to_string(manifest)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{json}")
}

/// Most records a bench session keeps in `results/manifests.jsonl`: its
/// [`append_manifest_capped`] call trims the file to the newest ones, so
/// repeated runs cannot grow it without bound.
pub const MANIFEST_CAP: usize = 1024;

/// Append one manifest record, then trim the file to its newest `cap`
/// lines.
///
/// Trimming rewrites the whole file; the cap exists to bound artifact
/// growth across many bench invocations, not to make appends cheap, and
/// manifest files are small (one line per *run*).
pub fn append_manifest_capped(
    path: impl AsRef<Path>,
    manifest: &RunManifest,
    cap: usize,
) -> io::Result<()> {
    let path = path.as_ref();
    append_manifest(path, manifest)?;
    let text = std::fs::read_to_string(path)?;
    let lines: Vec<&str> = text.lines().collect();
    if lines.len() <= cap {
        return Ok(());
    }
    let keep = &lines[lines.len() - cap..];
    let mut out = keep.join("\n");
    out.push('\n');
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        RunManifest {
            v: MANIFEST_VERSION,
            bin: "test_bin".into(),
            args: vec![("n".into(), "40".into()), ("runs".into(), "10".into())],
            seed: Some(7),
            git_rev: "abc1234".into(),
            started_unix_ms: 1_700_000_000_000,
            wall_nanos: 123_456_789,
            events_emitted: 42,
            metrics: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn manifest_round_trips() {
        let m = sample();
        let back: RunManifest = serde_json::from_str(&serde_json::to_string(&m).unwrap()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn append_accumulates_lines() {
        let path =
            std::env::temp_dir().join(format!("hetmmm_manifest_test_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        append_manifest(&path, &sample()).unwrap();
        append_manifest(&path, &sample()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let m: RunManifest = serde_json::from_str(line).unwrap();
            assert_eq!(m.v, MANIFEST_VERSION);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn capped_append_keeps_newest_lines() {
        let path = std::env::temp_dir().join(format!(
            "hetmmm_manifest_cap_test_{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        for i in 0..5u64 {
            let mut m = sample();
            m.seed = Some(i);
            append_manifest_capped(&path, &m, 3).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let seeds: Vec<u64> = text
            .lines()
            .map(|l| {
                serde_json::from_str::<RunManifest>(l)
                    .unwrap()
                    .seed
                    .unwrap()
            })
            .collect();
        assert_eq!(seeds, vec![2, 3, 4], "newest 3 records survive, in order");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn git_rev_env_override_wins() {
        // Can't set process env safely under parallel tests via std in all
        // cases, so just exercise the fallback path: the function must
        // return *something* non-empty.
        assert!(!git_rev().is_empty());
    }
}
