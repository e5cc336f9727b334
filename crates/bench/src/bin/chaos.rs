//! **Chaos harness for the multi-fault recovery engine.**
//!
//! Drives hundreds of seeded randomized fault schedules
//! ([`FaultPlan::random_schedule`]: 1–3 faults over crash / drop / stall /
//! delay, with delays straddling the receive timeout) through the
//! threaded executor and asserts the recovery contract on every run:
//! the product either matches `kij_serial` to `1e-10`, or the run reports
//! a *typed* degraded outcome — never a panic, a hang, or a silent wrong
//! answer.
//!
//! Each schedule also draws its block of pivot steps per message from
//! {1, 4, N}, so the sweep covers the per-step exchange, blocks that end
//! mid-multiply and a single block. Every schedule is recorded as one JSONL
//! line (plan and block included), so any failing schedule can be replayed
//! exactly with `--replay`:
//!
//! ```text
//! cargo run --release -p hetmmm-bench --bin chaos -- \
//!     [--seed 42] [--schedules 200] [--n 16] [--quick] \
//!     [--out results/chaos_schedules.jsonl] [--replay <file.jsonl>]
//! ```
//!
//! `--quick` shrinks the matrix (N = 10) for CI smoke runs. Exit status is
//! nonzero iff any schedule violated the contract.

use hetmmm::mmm::{
    kij_serial, multiply_partitioned_with, ExecConfig, ExecStats, FaultPlan, Matrix,
};
use hetmmm::prelude::*;
use hetmmm_bench::{print_row, results_dir, Args, BinSession};
use hetmmm_obs::{self as obs, FakeClock};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

/// Receive timeout the chaos schedules are drawn against (delays straddle
/// this value).
const TIMEOUT_MILLIS: u64 = 25;

/// One schedule's outcome, one JSONL line in the artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ChaosRecord {
    /// Schedule index within the sweep.
    i: u64,
    /// Per-schedule RNG seed (`--seed` + `i`).
    seed: u64,
    /// Matrix dimension.
    n: usize,
    /// Pivot steps per message and per bank (`ExecConfig::block`).
    block: usize,
    /// The fault plan that ran (replayable).
    plan: FaultPlan,
    /// `clean` | `absorbed` | `recovered` | `degraded` | `mismatch` | `error`.
    outcome: String,
    /// Worst element error against the serial reference (NaN-free runs).
    max_abs_err: f64,
    /// Full recovery counters for the funnel.
    recovery: hetmmm::mmm::RecoveryStats,
}

/// One schedule to run: index, seed, N, block and fault plan.
type Schedule = (u64, u64, usize, usize, FaultPlan);

fn chaos_config(plan: FaultPlan, block: usize) -> ExecConfig {
    ExecConfig::default()
        .with_recv_timeout(Duration::from_millis(TIMEOUT_MILLIS))
        .with_retry_attempts(1)
        .with_backoff(Duration::from_millis(10), Duration::from_millis(40))
        .with_block(block)
        .with_recovery_deadline(Duration::from_secs(5))
        .with_clock(Arc::new(FakeClock::new()))
        .with_fault_plan(plan)
}

/// Run one schedule and classify it. The classification order matters:
/// contract violations first, then the recovery funnel stages from most
/// to least degraded.
fn run_schedule(i: u64, seed: u64, n: usize, block: usize, plan: FaultPlan) -> ChaosRecord {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Matrix::random(n, &mut rng);
    let b = Matrix::random(n, &mut rng);
    let config = chaos_config(plan.clone(), block);
    let (outcome, max_abs_err, recovery) =
        match multiply_partitioned_with(&a, &b, &part_for(n), &config) {
            Err(err) => {
                obs::message("chaos.error", format!("schedule {i}: {err}"));
                ("error".to_string(), f64::NAN, Default::default())
            }
            Ok((c, stats)) => {
                let err = c.max_abs_diff(&kij_serial(&a, &b));
                let outcome = classify(err, &stats, &plan);
                (outcome, err, stats.recovery)
            }
        };
    ChaosRecord {
        i,
        seed,
        n,
        block,
        plan,
        outcome,
        max_abs_err,
        recovery,
    }
}

/// The partition every schedule runs on: three horizontal strips, so all
/// three workers exchange values at every block and any victim's silence
/// is observable.
fn part_for(n: usize) -> Partition {
    Partition::from_fn(n, |i, _| {
        if i < n / 3 {
            Proc::R
        } else if i < 2 * n / 3 {
            Proc::S
        } else {
            Proc::P
        }
    })
}

fn classify(err: f64, stats: &ExecStats, plan: &FaultPlan) -> String {
    let r = &stats.recovery;
    // NaN must land in "mismatch" too, hence the explicit check.
    if err.is_nan() || err >= 1e-10 {
        "mismatch"
    } else if r.degraded_mode {
        "degraded"
    } else if r.faults_detected > 0 {
        "recovered"
    } else if r.recv_retries > 0 || r.attempt_retries > 0 {
        "absorbed"
    } else if plan.is_empty() {
        "clean"
    } else {
        // A scheduled fault that left no trace at all: an under-timeout
        // delay that fit inside the base receive window, or a drop/stall
        // at a step past another victim's earlier conviction. Count it as
        // absorbed — the contract (correct result, no error) held.
        "absorbed"
    }
    .to_string()
}

fn is_failure(outcome: &str) -> bool {
    matches!(outcome, "mismatch" | "error")
}

fn bump(counter: obs::CounterId) {
    if obs::metrics_enabled() {
        obs::metrics().counter(counter).inc();
    }
}

fn run(args: &Args) -> i32 {
    let quick = args.get_str("quick").is_some();
    let seed = args.get("seed", 42u64);
    let schedules = args.get("schedules", 200u64);
    let n = args.get("n", if quick { 10usize } else { 16 });
    let default_out = results_dir().join("chaos_schedules.jsonl");
    let out_path = args
        .get_str("out")
        .map(std::path::PathBuf::from)
        .unwrap_or(default_out);

    // Build the worklist: either replayed plans from a prior artifact, or
    // freshly drawn seeded schedules (~10% run fault-free as controls),
    // each with its block drawn after its plan.
    let worklist: Vec<Schedule> = if let Some(path) = args.get_str("replay") {
        let body = match std::fs::read_to_string(path) {
            Ok(body) => body,
            Err(err) => {
                obs::message("chaos.error", format!("cannot read {path}: {err}"));
                return 2;
            }
        };
        // A line that does not parse (an artifact written before
        // schedules carried their block, say) fails the replay instead
        // of silently shrinking it.
        let parsed: Result<Vec<ChaosRecord>, _> = body
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(serde_json::from_str::<ChaosRecord>)
            .collect();
        match parsed {
            Ok(records) => records
                .into_iter()
                .map(|r| (r.i, r.seed, r.n, r.block, r.plan))
                .collect(),
            Err(err) => {
                obs::message("chaos.error", format!("cannot parse {path}: {err}"));
                return 2;
            }
        }
    } else {
        (0..schedules)
            .map(|i| {
                let s = seed.wrapping_add(i);
                let mut rng = StdRng::seed_from_u64(s);
                let plan = if rng.random_range(0..10u32) == 0 {
                    FaultPlan::new()
                } else {
                    FaultPlan::random_schedule(n, TIMEOUT_MILLIS, &mut rng)
                };
                let block = [1, 4, n][rng.random_range(0..3usize)];
                (i, s, n, block, plan)
            })
            .collect()
    };

    println!(
        "chaos — {} schedules, N = {n}, seed {seed}, timeout {TIMEOUT_MILLIS}ms\n",
        worklist.len()
    );

    let mut records = Vec::with_capacity(worklist.len());
    let mut counts: Vec<(&str, u64)> = [
        "clean",
        "absorbed",
        "recovered",
        "degraded",
        "mismatch",
        "error",
    ]
    .iter()
    .map(|&k| (k, 0u64))
    .collect();
    for (i, s, sched_n, block, plan) in worklist {
        let record = run_schedule(i, s, sched_n, block, plan);
        bump(obs::metrics::names::CHAOS_SCHEDULES);
        match record.outcome.as_str() {
            "absorbed" => bump(obs::metrics::names::CHAOS_ABSORBED),
            "recovered" => bump(obs::metrics::names::CHAOS_RECOVERED),
            "degraded" => bump(obs::metrics::names::CHAOS_DEGRADED),
            _ => {}
        }
        if let Some(slot) = counts.iter_mut().find(|(k, _)| *k == record.outcome) {
            slot.1 += 1;
        }
        if is_failure(&record.outcome) {
            obs::message(
                "chaos.failure",
                format!(
                    "schedule {} (seed {}) {}: err {:e}, block {}, plan {}",
                    record.i,
                    record.seed,
                    record.outcome,
                    record.max_abs_err,
                    record.block,
                    serde_json::to_string(&record.plan).unwrap_or_default()
                ),
            );
        }
        records.push(record);
    }

    // Artifact: one JSONL line per schedule, replayable via --replay.
    match std::fs::File::create(&out_path) {
        Ok(mut file) => {
            let mut write_err = None;
            for record in &records {
                if let Ok(line) = serde_json::to_string(record) {
                    if let Err(err) = writeln!(file, "{line}") {
                        write_err = Some(err);
                        break;
                    }
                }
            }
            match write_err {
                None => println!(
                    "wrote {} schedules to {}",
                    records.len(),
                    out_path.display()
                ),
                Some(err) => {
                    obs::message(
                        "chaos.error",
                        format!("write {}: {err}", out_path.display()),
                    );
                }
            }
        }
        Err(err) => {
            obs::message(
                "chaos.error",
                format!("cannot create {}: {err}", out_path.display()),
            );
        }
    }

    let widths = [10, 8];
    print_row(&["outcome".into(), "runs".into()], &widths);
    for (name, count) in &counts {
        print_row(&[name.to_string(), count.to_string()], &widths);
    }
    let failures: u64 = counts
        .iter()
        .filter(|(k, _)| is_failure(k))
        .map(|(_, c)| c)
        .sum();
    println!("\n{} schedules, {} failures", records.len(), failures);
    if failures > 0 {
        1
    } else {
        0
    }
}

fn main() {
    let args = Args::parse();
    let code = {
        let _session = BinSession::start("chaos", &args);
        run(&args)
    };
    std::process::exit(code);
}
