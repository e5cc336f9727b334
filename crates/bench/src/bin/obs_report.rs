//! **Observability analyzer** — render reports over event JSONL streams
//! and `results/manifests.jsonl`.
//!
//! Produces the push acceptance funnel (type × direction), convergence /
//! recv-wait summaries with p50/p95/p99, per-processor volume breakdowns,
//! and the span-tree profile with optional folded-stack (flamegraph)
//! output. All output is deterministic for a fixed input stream: a seeded
//! run captured under `FakeClock` reports byte-identically every time.
//!
//! ```text
//! cargo run --release -p hetmmm-bench --bin obs_report -- \
//!     --events results/fig5_events.jsonl [--manifests results/manifests.jsonl] \
//!     [--folded results/profile.folded] [--fold-weight nanos|calls] \
//!     [--csv-dir results/report] [--trace results/trace.json] \
//!     [--audit [--n 64] [--ratio 2:1:1] [--seed 7]]
//! ```
//!
//! `--trace` exports the stream's `ExecSegment` timeline as Chrome
//! trace-event JSON (open in Perfetto / `chrome://tracing`). `--audit`
//! joins the measured timeline against all five cost models' predictions:
//! `--n/--ratio/--seed` must match the run that produced the stream so the
//! partition can be reconstructed (defaults mirror the perf-gate executor
//! workload).
//!
//! Deliberately does **not** open a `BinSession`: the analyzer reads
//! `manifests.jsonl` and must never grow the file it is reporting on.

use hetmmm::prelude::*;
use hetmmm_bench::Args;
use hetmmm_report::{
    audit::audit, full_report, Analysis, EventLog, FoldWeight, ManifestLog, SpanProfile, Timeline,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = Args::parse();
    let events_path = args.get_str("events");
    let manifests_path = args.get_str("manifests");
    if events_path.is_none() && manifests_path.is_none() {
        eprintln!(
            "usage: obs_report --events <events.jsonl> [--manifests <manifests.jsonl>] \
             [--folded <out>] [--fold-weight nanos|calls] [--csv-dir <dir>] \
             [--trace <trace.json>] [--audit [--n 64] [--ratio 2:1:1] [--seed 7]]"
        );
        return ExitCode::FAILURE;
    }
    let fold_weight = match args.get_str("fold-weight").unwrap_or("nanos") {
        "nanos" => FoldWeight::SelfNanos,
        "calls" => FoldWeight::Calls,
        other => {
            eprintln!("obs_report: --fold-weight {other}: expected nanos or calls");
            return ExitCode::FAILURE;
        }
    };

    let events = match events_path {
        Some(path) => match EventLog::read_path(path) {
            Ok(log) => Some(log),
            Err(err) => {
                eprintln!("obs_report: {path}: {err}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let manifests = match manifests_path {
        Some(path) => match ManifestLog::read_path(path) {
            Ok(log) => Some(log),
            Err(err) => {
                eprintln!("obs_report: {path}: {err}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let empty_events = EventLog::default();
    let event_log = events.as_ref().unwrap_or(&empty_events);
    print!("{}", full_report(event_log, manifests.as_ref()));

    if args.get_str("trace").is_some() || args.get_str("audit").is_some() {
        let timeline = Timeline::from_events(&event_log.records);
        if let Some(path) = args.get_str("trace") {
            if let Err(err) = std::fs::write(path, timeline.chrome_trace_json()) {
                eprintln!("obs_report: cannot write {path}: {err}");
                return ExitCode::FAILURE;
            }
            println!("chrome trace -> {path}");
        }
        if args.get_str("audit").is_some() {
            let n = args.get("n", 64usize);
            let seed = args.get("seed", 7u64);
            let ratio = match args.get_str("ratio").unwrap_or("2:1:1").parse::<Ratio>() {
                Ok(ratio) => ratio,
                Err(err) => {
                    eprintln!("obs_report: --ratio: {err}");
                    return ExitCode::FAILURE;
                }
            };
            // Reconstruct the partition the instrumented run used: the
            // executor workloads draw it as the *first* sample from a
            // seeded rng, so (n, ratio, seed) pins it exactly.
            let mut rng = StdRng::seed_from_u64(seed);
            let part = random_partition(n, ratio, &mut rng);
            match audit(&timeline, &part, ratio) {
                Ok(report) => {
                    println!();
                    print!("{}", report.render_text());
                }
                Err(err) => {
                    eprintln!("obs_report: audit: {err}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    let profile = SpanProfile::from_events(&event_log.records);
    if let Some(path) = args.get_str("folded") {
        if let Err(err) = std::fs::write(path, profile.folded(fold_weight)) {
            eprintln!("obs_report: cannot write {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!("folded stacks -> {path}");
    }

    if let Some(dir) = args.get_str("csv-dir") {
        let dir = std::path::Path::new(dir);
        if let Err(err) = std::fs::create_dir_all(dir) {
            eprintln!("obs_report: cannot create {}: {err}", dir.display());
            return ExitCode::FAILURE;
        }
        let mut files: Vec<(String, String)> = Analysis::from_events(event_log).csv_sections();
        files.push(("profile".to_string(), profile.csv()));
        if let Some(log) = manifests.as_ref() {
            files.push((
                "manifest_summary".to_string(),
                hetmmm_report::ManifestSummary::from_manifests(log).csv(),
            ));
        }
        for (name, content) in files {
            let path = dir.join(format!("{name}.csv"));
            if let Err(err) = std::fs::write(&path, content) {
                eprintln!("obs_report: cannot write {}: {err}", path.display());
                return ExitCode::FAILURE;
            }
            println!("csv -> {}", path.display());
        }
    }
    ExitCode::SUCCESS
}
