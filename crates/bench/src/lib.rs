//! Shared plumbing for the experiment binaries: minimal CLI parsing and
//! table/CSV emission.
//!
//! Every figure and table of the paper's evaluation has a regenerating
//! binary in `src/bin/` (see DESIGN.md's experiment index).

// The package's binaries are exempt from the workspace's library lints
// (see Cargo.toml); this library half opts back in.
#![warn(
    missing_docs,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::disallowed_methods
)]

use hetmmm_obs as obs;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Tiny `--key value` argument parser (all experiment binaries share the
/// same conventions; no external CLI dependency needed).
#[derive(Debug, Clone)]
pub struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    /// Parse `std::env::args()`.
    pub fn parse() -> Args {
        Self::from_iter(std::env::args().skip(1))
    }

    /// Parse an explicit iterator (testable).
    #[expect(
        clippy::should_implement_trait,
        reason = "not a `FromIterator`: takes owned Strings, never fails"
    )]
    pub fn from_iter(iter: impl IntoIterator<Item = String>) -> Args {
        let mut flags = HashMap::new();
        let mut iter = iter.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(v) if !v.starts_with("--") => {
                        iter.next().unwrap_or_else(|| "true".to_string())
                    }
                    _ => "true".to_string(),
                };
                flags.insert(key.to_string(), value);
            }
        }
        Args { flags }
    }

    /// Fetch a value with a default. A flag that is present but does not
    /// parse is a usage error: the process exits with status 2 and a
    /// message naming the flag and the value.
    #[expect(clippy::print_stderr, reason = "a usage error, before any work")]
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.parsed(key, default).unwrap_or_else(|err| {
            eprintln!("error: {err}");
            std::process::exit(2)
        })
    }

    /// [`Args::get`] without the exit: `Err` names the flag and the value.
    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(value) => value
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {value:?}")),
        }
    }

    /// Fetch an optional string.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// All parsed flags as sorted `(key, value)` pairs (for manifests).
    pub fn entries(&self) -> Vec<(String, String)> {
        let mut entries: Vec<(String, String)> = self
            .flags
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        entries.sort();
        entries
    }
}

/// Directory where experiment binaries drop CSV/PGM artifacts
/// (`results/` at the workspace root; created on demand). When the
/// requested directory cannot be created (read-only checkout, bad
/// `HETMMM_RESULTS`), falls back to a process-scoped directory under the
/// system temp dir rather than aborting the run — artifacts are
/// best-effort, the experiment itself is the product.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("HETMMM_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    if std::fs::create_dir_all(&dir).is_ok() {
        return dir;
    }
    let fallback = std::env::temp_dir().join(format!("hetmmm_results_{}", std::process::id()));
    if std::fs::create_dir_all(&fallback).is_ok() {
        obs::message(
            "bench.results_dir",
            format!(
                "cannot create {}; falling back to {}",
                dir.display(),
                fallback.display()
            ),
        );
        return fallback;
    }
    // Both attempts failed; return the original path and let the write
    // sites surface their own errors.
    dir
}

/// Print a row of fixed-width columns.
///
/// Routed through the tracing facade as a `bench.table` message, so the
/// line lands in every installed sink ([`BinSession::start`] installs a
/// stdout `FmtSink`, keeping tables visible on the terminal as before) and
/// in the JSONL artifact when `HETMMM_OBS_JSONL` is set. Falls back to
/// plain `println!` when no sink is installed.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (cell, width) in cells.iter().zip(widths) {
        line.push_str(&format!("{cell:>width$}  "));
    }
    obs::message_or_stdout("bench.table", line.trim_end().to_string());
}

/// Per-binary observability session: every experiment binary creates one
/// at startup and holds it for the life of `main`.
///
/// On start it installs sinks requested through the environment
/// (`HETMMM_OBS_JSONL`, `HETMMM_OBS_FMT`), installs a stdout [`obs::FmtSink`]
/// so routed table output stays visible, and enables metrics recording. On
/// drop it appends a [`obs::RunManifest`] — binary name, sorted CLI args,
/// seed, git revision, wall time, events emitted, and the full metrics
/// snapshot — to `results/manifests.jsonl`, then uninstalls its sinks.
pub struct BinSession {
    bin: &'static str,
    args: Vec<(String, String)>,
    seed: Option<u64>,
    started_unix_ms: u64,
    start_nanos: u64,
    events_at_start: u64,
    sink_ids: Vec<obs::SinkId>,
}

impl BinSession {
    /// Start a session. Call once at the top of `main`, before any
    /// instrumented work, and keep the value alive (`let _session = ...`).
    pub fn start(bin: &'static str, args: &Args) -> BinSession {
        let mut sink_ids = obs::init_from_env();
        // Messages-only: bench tables stay readable on the terminal even
        // when a JSONL sink is also streaming the full event firehose.
        sink_ids.push(obs::install_sink(Arc::new(
            obs::FmtSink::stdout().messages_only(),
        )));
        obs::metrics().set_enabled(true);
        obs::metrics().reset();
        let seed = args
            .get_str("seed0")
            .or_else(|| args.get_str("seed"))
            .and_then(|s| s.parse().ok());
        #[expect(
            clippy::disallowed_methods,
            reason = "manifests record real wall-clock epoch, not modeled time"
        )]
        let started_unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        BinSession {
            bin,
            args: args.entries(),
            seed,
            started_unix_ms,
            start_nanos: obs::clock().now_nanos(),
            events_at_start: obs::events_emitted(),
            sink_ids,
        }
    }

    /// The manifest this session would write if it ended now.
    pub fn manifest(&self) -> obs::RunManifest {
        obs::RunManifest {
            v: obs::MANIFEST_VERSION,
            bin: self.bin.to_string(),
            args: self.args.clone(),
            seed: self.seed,
            git_rev: obs::git_rev(),
            started_unix_ms: self.started_unix_ms,
            wall_nanos: obs::clock().now_nanos().saturating_sub(self.start_nanos),
            events_emitted: obs::events_emitted().saturating_sub(self.events_at_start),
            metrics: obs::metrics().snapshot(),
        }
    }
}

impl Drop for BinSession {
    fn drop(&mut self) {
        let manifest = self.manifest();
        let path = results_dir().join("manifests.jsonl");
        // Keep the newest MANIFEST_CAP records, so repeated bench runs
        // cannot grow the file without bound.
        #[expect(
            clippy::print_stderr,
            reason = "in Drop mid-teardown; sinks are being uninstalled"
        )]
        if let Err(err) = obs::append_manifest_capped(&path, &manifest, obs::MANIFEST_CAP) {
            eprintln!("hetmmm-bench: cannot write {}: {err}", path.display());
        }
        obs::flush_sinks();
        for id in self.sink_ids.drain(..) {
            obs::uninstall_sink(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_key_values() {
        let args = Args::from_iter(
            ["--n", "100", "--runs", "50", "--verbose"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(args.get("n", 0usize), 100);
        assert_eq!(args.get("runs", 0u64), 50);
        assert_eq!(args.get_str("verbose"), Some("true"));
        assert_eq!(args.get("missing", 7i32), 7);
    }

    #[test]
    fn args_bad_value_names_the_flag() {
        let args = Args::from_iter(["--n", "abc"].iter().map(|s| s.to_string()));
        let err = args.parsed("n", 42usize).unwrap_err();
        assert!(err.contains("--n") && err.contains("abc"), "{err}");
    }
}
