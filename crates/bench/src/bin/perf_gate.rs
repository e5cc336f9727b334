//! **Perf gate** — a seeded workload suite, timed against the parent
//! commit in alternating pairs.
//!
//! Runs five fixed workloads (a fig5 census slice, a threaded executor
//! multiply, a probe-heavy fixed-point check, a DFA batch with its
//! residual probes and the serial kij kernel) plus the `obs_overhead`
//! pair, and records median-of-k wall times and seeded-deterministic
//! counters into `BENCH_current.json`. The counters are pure functions of
//! the seed; the CLI tests pin them as literals.
//!
//! Two gates:
//!
//! - `obs_overhead`: the same seeded DFA batch measured with sinks
//!   delivering (a counting `NullSink`, fine spans on) and with sinks
//!   suspended, gated on the median of within-run, pair-by-pair on/off
//!   ratios (`--overhead-threshold`, default 2.5) — "measure the observer";
//! - wall time, when `--baseline` names the `perf_gate` executable built
//!   at the commit the change branched from: `--k` pairs of one-pass runs
//!   of that binary and of this one, alternating which goes first, each
//!   workload gated on its median per-pair change/parent ratio
//!   (`--threshold`, default 1.8). Without `--baseline` the wall gate is
//!   skipped.
//!
//! ```text
//! cargo run --release -p hetmmm-bench --bin perf_gate -- \
//!     [--baseline <parent perf_gate>] [--current BENCH_current.json] \
//!     [--k 5] [--threshold 1.8] [--overhead-threshold 2.5] \
//!     [--quick] [--slowdown-nanos 0]
//! ```
//!
//! Each paired child runs as `<bin> --k 1 --current <temp file>
//! --overhead-threshold inf` in a temporary directory, with `--quick`
//! passed to both sides and `--slowdown-nanos` to this binary's side only.
//! `--quick` shrinks every workload for the CLI self-test;
//! `--slowdown-nanos` injects a synthetic sleep into each timed repetition
//! so tests can demonstrate the gate failing.
//!
//! Deliberately does **not** open a `BinSession`: the gate measures the
//! uninstrumented fast path (no sinks installed → spans are inert), and
//! must not append to `results/manifests.jsonl`.

use hetmmm::mmm::{kij_serial, multiply_partitioned, Matrix};
use hetmmm::prelude::*;
use hetmmm::{census, CensusConfig};
use hetmmm_bench::Args;
use hetmmm_obs as obs;
use hetmmm_report::{compare, median, BenchEntry, BenchSuite, BENCH_VERSION};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

struct Workload {
    name: &'static str,
    /// Counter-name prefixes that are deterministic for this workload.
    counter_prefixes: &'static [&'static str],
    run: Box<dyn Fn()>,
}

fn workloads(quick: bool) -> Vec<Workload> {
    let (census_n, census_runs) = if quick { (16, 4) } else { (48, 60) };
    let exec_n = if quick { 16 } else { 64 };
    let kernel_n = if quick { 24 } else { 256 };
    let (probe_n, probe_parts, probe_reps) = if quick { (16, 2, 3) } else { (96, 4, 80) };
    let (cache_n, cache_runs) = if quick { (16, 2u64) } else { (40, 12u64) };
    vec![
        Workload {
            name: "fig5_census_slice",
            counter_prefixes: &["dfa.push."],
            run: Box::new(move || {
                let report = census(
                    &CensusConfig::new(census_n, Ratio::new(2, 1, 1))
                        .with_runs(census_runs)
                        .with_seed0(1),
                );
                assert_eq!(report.unconverged, 0, "census must converge");
            }),
        },
        Workload {
            name: "exec_threaded_multiply",
            counter_prefixes: &["exec.updates.", "exec.elems_sent.", "exec.recoveries"],
            run: Box::new(move || {
                let mut rng = StdRng::seed_from_u64(7);
                let part = random_partition(exec_n, Ratio::new(2, 1, 1), &mut rng);
                let a = Matrix::random(exec_n, &mut rng);
                let b = Matrix::random(exec_n, &mut rng);
                let (_, stats) = multiply_partitioned(&a, &b, &part).expect("multiply");
                assert_eq!(stats.recovery.faults_detected, 0);
            }),
        },
        Workload {
            name: "push_probe_fixed_point",
            counter_prefixes: &["push.probe"],
            run: Box::new(move || {
                // Probe-heavy fixed-point checking: condense a handful of
                // seeded random partitions, then hammer the 8-pair
                // end-condition probe (`is_condensed`) on each fixed point.
                // This is the hot shape of census post-processing — every
                // probe answers "would any push apply?" without mutating.
                //
                // `push.probe.cache_hits` is 0 here *by design*: no DFA
                // run ends here, so no verdict is known in advance and
                // every evaluation pays full kernel cost (4 partitions ×
                // 80 repetitions × 8 pairs = 2,560). The DFA's residual
                // check is measured by `dfa_probe_cache` below.
                let mut checks = 0usize;
                for s in 0..probe_parts {
                    let mut rng = StdRng::seed_from_u64(900 + s);
                    let mut part = random_partition(probe_n, Ratio::new(3, 2, 1), &mut rng);
                    beautify(&mut part);
                    for _ in 0..probe_reps {
                        assert!(is_condensed(&part), "beautify must condense");
                        checks += 1;
                    }
                }
                assert!(checks > 0);
            }),
        },
        Workload {
            name: "dfa_probe_cache",
            counter_prefixes: &["push.probe"],
            run: Box::new(move || {
                // The DFA's residual check: after a fixed point only the
                // off-plan pairs are probed (the final round ruled out the
                // plan's), after any other termination all 8. The pinned
                // counters split the 12 × 8 verdicts into
                // `push.probe.evals` and `push.probe.cache_hits`, so a
                // change to the rule shows there before it shows as wall
                // time. The name, from a retired verdict cache, is kept so
                // the paired gate finds the workload at the merge base.
                let runner = DfaRunner::new(DfaConfig::new(cache_n, Ratio::new(2, 1, 1)));
                for seed in 0..cache_runs {
                    let outcome = runner.run_seed(500 + seed);
                    assert!(outcome.steps > 0 || outcome.converged);
                }
            }),
        },
        Workload {
            name: "mmm_kernel_serial",
            counter_prefixes: &[],
            run: Box::new(move || {
                let mut rng = StdRng::seed_from_u64(11);
                let a = Matrix::random(kernel_n, &mut rng);
                let b = Matrix::random(kernel_n, &mut rng);
                let c = kij_serial(&a, &b);
                assert!(c.get(0, 0).is_finite());
            }),
        },
    ]
}

/// The `obs_overhead` workload: the same seeded DFA batch measured with
/// sinks delivering (a counting [`obs::NullSink`] plus fine spans) and with
/// sinks suspended ([`obs::suspend_sinks`], the uninstrumented fast path)
/// — so the gate "measures the observer" itself. Returns the two suite
/// entries (`obs_overhead_on`, `obs_overhead_off`) plus the ratio gated by
/// `--overhead-threshold`.
///
/// The two arms are timed in interleaved pairs (on, then off) and the
/// gated ratio is the median of the per-pair on/off ratios: a burst of
/// machine load lands on both passes of a pair instead of on one arm, so
/// it cannot masquerade as instrumentation cost.
///
/// The `events_per_pass` counter on the instrumented arm is a pure
/// function of the seed (every event the facade emits reaches the
/// `NullSink`), so the pinned counters catch changes in instrumentation
/// *volume* even when wall time hides them.
fn measure_overhead(k: u64, quick: bool, slowdown_nanos: u64) -> (BenchEntry, BenchEntry, f64) {
    let (n, runs) = if quick { (16, 2u64) } else { (40, 8u64) };
    let body = move || {
        let runner = DfaRunner::new(DfaConfig::new(n, Ratio::new(2, 1, 1)));
        for seed in 0..runs {
            let outcome = runner.run_seed(300 + seed);
            assert!(outcome.steps > 0 || outcome.converged);
        }
    };
    let timed = || -> u64 {
        let start = Instant::now();
        body();
        if slowdown_nanos > 0 {
            std::thread::sleep(std::time::Duration::from_nanos(slowdown_nanos));
        }
        start.elapsed().as_nanos().min(u64::MAX as u128) as u64
    };

    // Instrumented arm: a counting sink receives every event, fine spans
    // included — the full enabled path minus backend I/O.
    let sink = obs::NullSink::new();
    let id = obs::install_sink(sink.clone());
    obs::set_fine_spans(true);
    let before = sink.seen();
    body();
    let events_per_pass = sink.seen() - before;

    let mut on_wall = Vec::with_capacity(k as usize);
    let mut off_wall = Vec::with_capacity(k as usize);
    for _ in 0..k {
        on_wall.push(timed());
        // Uninstrumented arm: suspend delivery without uninstalling — the
        // facade's `enabled()` gate must read false and spans go inert.
        let was_active = obs::suspend_sinks();
        assert!(was_active, "overhead arm installed a sink");
        assert!(!obs::enabled(), "suspend must close the emit gate");
        off_wall.push(timed());
        obs::resume_sinks();
    }
    obs::set_fine_spans(false);
    obs::uninstall_sink(id);

    let mut ratios: Vec<f64> = on_wall
        .iter()
        .zip(&off_wall)
        .map(|(&on, &off)| on as f64 / off.max(1) as f64)
        .collect();
    ratios.sort_unstable_by(f64::total_cmp);
    let ratio = ratios[(ratios.len() - 1) / 2];

    let on = BenchEntry {
        name: "obs_overhead_on".to_string(),
        median_wall_nanos: median(&on_wall),
        wall_nanos: on_wall,
        counters: vec![("events_per_pass".to_string(), events_per_pass)],
    };
    let off = BenchEntry {
        name: "obs_overhead_off".to_string(),
        median_wall_nanos: median(&off_wall),
        wall_nanos: off_wall,
        counters: vec![],
    };
    (on, off, ratio)
}

fn measure(workload: &Workload, k: u64, slowdown_nanos: u64) -> BenchEntry {
    // Counter pass (untimed): metrics on, capture the deterministic
    // subset. Histograms and timing-dependent metrics (recv waits) are
    // excluded by the prefix filter.
    obs::metrics().set_enabled(true);
    obs::metrics().reset();
    (workload.run)();
    let snapshot = obs::metrics().snapshot();
    obs::metrics().set_enabled(false);
    let counters: Vec<(String, u64)> = snapshot
        .counters
        .into_iter()
        .filter(|(name, _)| {
            workload
                .counter_prefixes
                .iter()
                .any(|prefix| name.starts_with(prefix))
        })
        .collect();

    // Timed passes: metrics off, spans inert (no sinks) — the gate
    // measures the uninstrumented fast path.
    let mut wall_nanos = Vec::with_capacity(k as usize);
    for _ in 0..k {
        let start = Instant::now();
        (workload.run)();
        if slowdown_nanos > 0 {
            std::thread::sleep(std::time::Duration::from_nanos(slowdown_nanos));
        }
        wall_nanos.push(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }
    BenchEntry {
        name: workload.name.to_string(),
        median_wall_nanos: median(&wall_nanos),
        wall_nanos,
        counters,
    }
}

/// Run one child suite: `bin --k 1` writing to a fresh file in `dir`.
fn run_child(
    bin: &Path,
    dir: &Path,
    quick: bool,
    slowdown_nanos: u64,
) -> Result<BenchSuite, String> {
    let suite_path = dir.join("suite.json");
    let _ = std::fs::remove_file(&suite_path);
    let mut cmd = Command::new(bin);
    cmd.current_dir(dir)
        .args(["--k", "1", "--current"])
        .arg(&suite_path)
        .args(["--overhead-threshold", "inf"]);
    if quick {
        cmd.arg("--quick");
    }
    if slowdown_nanos > 0 {
        cmd.args(["--slowdown-nanos", &slowdown_nanos.to_string()]);
    }
    let bin = bin.display();
    let out = cmd
        .output()
        .map_err(|err| format!("{bin}: cannot run: {err}"))?;
    if !out.status.success() {
        return Err(format!(
            "{bin}: {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let text = std::fs::read_to_string(&suite_path)
        .map_err(|err| format!("{bin}: left no suite: {err}"))?;
    serde_json::from_str(&text).map_err(|err| format!("{bin}: unparseable suite: {err}"))
}

/// Time `k` `(parent, change)` pairs of one-pass suites, alternating which
/// side goes first. The children run in a temporary directory of their
/// own, so neither side reads or writes files in the caller's.
fn run_pairs(
    parent: &Path,
    k: u64,
    quick: bool,
    slowdown_nanos: u64,
) -> Result<Vec<(BenchSuite, BenchSuite)>, String> {
    let own = std::env::current_exe().map_err(|err| format!("cannot locate perf_gate: {err}"))?;
    let dir = std::env::temp_dir().join(format!("hetmmm_perf_gate_pairs_{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|err| format!("{}: {err}", dir.display()))?;
    let pairs = (0..k)
        .map(|pair| {
            if pair % 2 == 0 {
                let p = run_child(parent, &dir, quick, 0)?;
                Ok((p, run_child(&own, &dir, quick, slowdown_nanos)?))
            } else {
                let c = run_child(&own, &dir, quick, slowdown_nanos)?;
                Ok((run_child(parent, &dir, quick, 0)?, c))
            }
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    pairs
}

fn main() -> ExitCode {
    let args = Args::parse();
    let current_path = args.get_str("current").unwrap_or("BENCH_current.json");
    let k = args.get("k", 5u64).max(1);
    let threshold = args.get("threshold", 1.8f64);
    let quick = args.get_str("quick").is_some();
    let slowdown_nanos = args.get("slowdown-nanos", 0u64);
    let overhead_threshold = args.get("overhead-threshold", 2.5f64);
    // Resolve the parent's binary up front: a wrong path fails before
    // anything is measured, and the children run in another directory.
    let baseline = match args.get_str("baseline") {
        None => None,
        Some(path) => match std::fs::canonicalize(path) {
            Ok(path) => Some(path),
            Err(err) => {
                eprintln!("perf_gate: --baseline {path}: {err}");
                return ExitCode::FAILURE;
            }
        },
    };

    let mut entries: Vec<BenchEntry> = workloads(quick)
        .iter()
        .map(|w| {
            let entry = measure(w, k, slowdown_nanos);
            println!(
                "{:<24} median {:>12} ns  ({} counters)",
                entry.name,
                entry.median_wall_nanos,
                entry.counters.len()
            );
            entry
        })
        .collect();

    // The observer-of-the-observer workload: instrumented vs suspended,
    // gated on its own ratio within this run.
    let (on, off, overhead_ratio) = measure_overhead(k, quick, slowdown_nanos);
    println!(
        "{:<24} median {:>12} ns  ({} counters)",
        on.name,
        on.median_wall_nanos,
        on.counters.len()
    );
    println!(
        "{:<24} median {:>12} ns  ({} counters)",
        off.name,
        off.median_wall_nanos,
        off.counters.len()
    );
    println!(
        "obs overhead: {overhead_ratio:.3}x instrumented/suspended, median of {k} \
         interleaved pairs (limit {overhead_threshold:.2}x)"
    );
    let overhead_ok = overhead_ratio <= overhead_threshold;
    entries.push(on);
    entries.push(off);

    let suite = BenchSuite {
        v: BENCH_VERSION,
        git_rev: obs::git_rev(),
        k,
        entries,
    };

    let json = serde_json::to_string(&suite).expect("serialize suite");
    if let Err(err) = std::fs::write(current_path, &json) {
        eprintln!("perf_gate: cannot write {current_path}: {err}");
        return ExitCode::FAILURE;
    }
    println!("current -> {current_path}");
    if !overhead_ok {
        eprintln!(
            "perf gate FAIL: instrumentation overhead {overhead_ratio:.3}x exceeds \
             {overhead_threshold:.2}x (sinks enabled vs suspended)"
        );
    }

    let Some(baseline) = baseline else {
        println!("perf_gate: no --baseline binary, wall gate skipped");
        return if overhead_ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    };
    let pairs = match run_pairs(&baseline, k, quick, slowdown_nanos) {
        Ok(pairs) => pairs,
        Err(err) => {
            eprintln!("perf gate FAIL: {err}");
            return ExitCode::FAILURE;
        }
    };
    let comparison = compare(&pairs, threshold);
    for (name, ratio) in &comparison.ratios {
        println!("{name:<24} change/parent {ratio:>6.3}x  (median of {k} pairs)");
    }
    if !comparison.issues.is_empty() {
        eprintln!("perf gate FAIL against {}:", baseline.display());
        for issue in &comparison.issues {
            eprintln!("  {issue}");
        }
    }
    if comparison.issues.is_empty() && overhead_ok {
        println!(
            "perf gate PASS against {} ({k} pairs, threshold {threshold:.2}x, \
             overhead {overhead_ratio:.3}x <= {overhead_threshold:.2}x)",
            baseline.display()
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
