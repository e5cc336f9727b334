//! **Perf gate** — seeded workload suite with a committed baseline.
//!
//! Runs three fixed workloads (a fig5 census slice, a threaded executor
//! multiply, the serial kij kernel), records median-of-k wall times plus
//! seeded-deterministic counters into `BENCH_current.json`, and compares
//! against the committed `BENCH_baseline.json`:
//!
//! - wall times gate on a *ratio* (`--threshold`, default 1.8) — generous
//!   because CI machines are noisy and heterogeneous;
//! - counters (push totals, executor update/element counts) are pure
//!   functions of the seed and gate on **exact equality**, catching quiet
//!   behavioral drift even when it is fast.
//!
//! Plus the `obs_overhead` pair: the same seeded DFA batch measured with
//! sinks delivering (a counting `NullSink`, fine spans on) and with sinks
//! suspended, gating the instrumentation's own cost to the median of
//! within-run, pair-by-pair on/off ratios (`--overhead-threshold`,
//! default 2.5) — "measure the observer".
//!
//! ```text
//! cargo run --release -p hetmmm-bench --bin perf_gate -- \
//!     [--baseline BENCH_baseline.json] [--current BENCH_current.json] \
//!     [--k 5] [--threshold 1.8] [--overhead-threshold 2.5] \
//!     [--write-baseline] [--quick] [--slowdown-nanos 0]
//! ```
//!
//! `--write-baseline` records the suite as the new baseline (see DESIGN.md
//! §9 for the update procedure). `--quick` shrinks every workload for the
//! CLI self-test; `--slowdown-nanos` injects a synthetic sleep into each
//! timed repetition so tests can demonstrate the gate failing.
//!
//! Every gate run (not `--write-baseline`) also appends one flattened
//! [`TrendEntry`] to the bench-history store (`results/bench_history.jsonl`
//! by default, `--history <path>` / `--no-history` to override), which the
//! `bench_trend` binary analyzes for slow drift the single-baseline ratio
//! gate cannot see.
//!
//! Deliberately does **not** open a `BinSession`: the gate measures the
//! uninstrumented fast path (no sinks installed → spans are inert), and
//! must not append to `results/manifests.jsonl`.

use hetmmm::mmm::{kij_serial, multiply_partitioned, Matrix};
use hetmmm::prelude::*;
use hetmmm::{census, CensusConfig};
use hetmmm_bench::{results_dir, Args};
use hetmmm_obs as obs;
use hetmmm_report::{
    append_history_capped, compare, history_cap, median, BenchEntry, BenchSuite, TrendEntry,
    BENCH_VERSION,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
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
                // seeded random partitions, then hammer the 12-pair
                // end-condition probe (`is_condensed`) on each fixed point.
                // This is the hot shape of census post-processing — every
                // probe answers "would any push apply?" without mutating.
                //
                // `push.probe.cache_hits` is 0 here *by design*: this
                // workload gates the cold probe path (`is_condensed` calls
                // `push_feasible` directly, no `ProbeCache` in front), so
                // every evaluation pays full kernel cost. The warm cached
                // path is gated separately by `dfa_probe_cache` below.
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
                // Warm probe path: seeded DFA runs answer repeat
                // (proc, dir) rejections from the hash-verified
                // `ProbeCache`, so this workload pins down both counters —
                // `push.probe.evals` (misses that paid the kernel) and
                // `push.probe.cache_hits` (verdicts served from a slot).
                // A cache regression shows up as hits collapsing to 0
                // (exact-equality gate) before it shows up as wall time.
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
/// `NullSink`), so the baseline's exact-equality gate catches changes in
/// instrumentation *volume* even when wall time hides them.
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

fn main() -> ExitCode {
    let args = Args::parse();
    let baseline_path = args.get_str("baseline").unwrap_or("BENCH_baseline.json");
    let current_path = args.get_str("current").unwrap_or("BENCH_current.json");
    let k = args.get("k", 5u64).max(1);
    let threshold = args.get("threshold", 1.8f64);
    let write_baseline = args.get_str("write-baseline").is_some();
    let quick = args.get_str("quick").is_some();
    let slowdown_nanos = args.get("slowdown-nanos", 0u64);
    let overhead_threshold = args.get("overhead-threshold", 2.5f64);

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
    // gated on its own ratio within this run (machine-relative, so it is
    // robust where a cross-machine wall baseline would not be).
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
    if write_baseline {
        if let Err(err) = std::fs::write(baseline_path, &json) {
            eprintln!("perf_gate: cannot write {baseline_path}: {err}");
            return ExitCode::FAILURE;
        }
        println!("baseline -> {baseline_path}");
        return ExitCode::SUCCESS;
    }
    if let Err(err) = std::fs::write(current_path, &json) {
        eprintln!("perf_gate: cannot write {current_path}: {err}");
        return ExitCode::FAILURE;
    }
    println!("current -> {current_path}");

    // Append this run to the bench-history trend store (best-effort: a
    // read-only checkout must not fail the gate).
    if args.get_str("no-history").is_none() {
        let history_path = args
            .get_str("history")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| results_dir().join("bench_history.jsonl"));
        // The trend store records real wall-clock epoch, not modeled time.
        let unix_secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let entry = TrendEntry::from_suite(&suite, unix_secs);
        match append_history_capped(&history_path, &entry, history_cap()) {
            Ok(()) => println!("history -> {}", history_path.display()),
            Err(err) => {
                eprintln!(
                    "perf_gate: cannot append {}: {err} (continuing)",
                    history_path.display()
                );
            }
        }
    }

    let baseline_text = match std::fs::read_to_string(baseline_path) {
        Ok(text) => text,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
            println!(
                "perf_gate: no baseline at {baseline_path} — nothing to gate against \
                 (run with --write-baseline to record one)"
            );
            // The overhead gate is within-run: it needs no baseline and
            // still applies.
            if !overhead_ok {
                eprintln!(
                    "perf gate FAIL: instrumentation overhead {overhead_ratio:.3}x exceeds \
                     {overhead_threshold:.2}x (sinks enabled vs suspended)"
                );
                return ExitCode::FAILURE;
            }
            return ExitCode::SUCCESS;
        }
        Err(err) => {
            eprintln!("perf_gate: cannot read {baseline_path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let baseline: BenchSuite = match serde_json::from_str(&baseline_text) {
        Ok(suite) => suite,
        Err(err) => {
            eprintln!("perf_gate: {baseline_path}: unparseable baseline: {err}");
            return ExitCode::FAILURE;
        }
    };

    let issues = compare(&baseline, &suite, threshold);
    if !overhead_ok {
        eprintln!(
            "perf gate FAIL: instrumentation overhead {overhead_ratio:.3}x exceeds \
             {overhead_threshold:.2}x (sinks enabled vs suspended)"
        );
    }
    if issues.is_empty() && overhead_ok {
        println!(
            "perf gate PASS against {baseline_path} (rev {}, threshold {threshold:.2}x, \
             overhead {overhead_ratio:.3}x <= {overhead_threshold:.2}x)",
            baseline.git_rev
        );
        ExitCode::SUCCESS
    } else {
        if !issues.is_empty() {
            eprintln!("perf gate FAIL against {baseline_path}:");
            for issue in &issues {
                eprintln!("  {issue}");
            }
        }
        ExitCode::FAILURE
    }
}
