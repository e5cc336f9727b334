//! Measurement plumbing: the metric catalog and its JSON rendering,
//! nearest-rank quantiles, seed mixing, and the `/proc` readers for
//! memory and CPU time.

use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("throughput_ops_s", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// metric of a layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("push.dfa_run_ms_p50", "ms/call"),
    ("push.dfa_run_ms_p90", "ms/call"),
    ("push.us_per_step", "us/step"),
    ("push.steps_per_run", "count/run"),
    ("push.probe_evals_per_run", "count/run"),
    ("push.probe_hit_rate", "frac"),
    ("push.beautify_ms_p50", "ms/call"),
    ("partition.random_start_ms_p50", "ms/call"),
    ("partition.popcount_words_per_op", "count/op"),
    ("partition.shrink_word_scans_per_op", "count/op"),
    ("shapes.classify_ms_p50", "ms/call"),
    ("shapes.construct_ms_p50", "ms/call"),
    ("cost.evaluate_ms_p50", "ms/call"),
    ("sim.simulate_ms_p50", "ms/call"),
    ("nproc.run_ms_p50", "ms/call"),
    ("nproc.us_per_step", "us/step"),
    ("nproc.steps_per_run", "count/run"),
    ("core.cpu_util", "frac"),
    ("mmm.kernel_ms", "ms/call"),
    ("mmm.kernel_gflops", "GFLOP/s"),
    ("mmm.exec_overhead_x", "x"),
    ("mmm.compute_ms", "ms/op"),
    ("mmm.send_ms", "ms/op"),
    ("mmm.recv_wait_ms", "ms/op"),
    ("mmm.blocked_ms", "ms/op"),
    ("mmm.checkpoint_ms", "ms/op"),
    ("mmm.elems_sent_per_op", "count/op"),
    ("mmm.messages_per_op", "count/op"),
    ("mmm.checkpoints_per_op", "count/op"),
    ("mmm.replayed_steps_per_op", "count/op"),
    ("bench.layer_coverage", "frac"),
    ("bench.trace_overhead_frac", "frac"),
];

/// One run's metric values, in catalog order. Every catalog entry is
/// present (0 until set), so a run prints exactly the declared names.
#[derive(Debug, Clone)]
pub struct Metrics {
    catalog: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Metrics {
    /// All-zero values for `catalog`.
    pub fn new(catalog: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics {
            catalog,
            values: vec![0.0; catalog.len()],
        }
    }

    /// Set a declared metric. Panics on an undeclared name: that is a bug
    /// in this benchmark, not a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        let idx = self
            .catalog
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        self.values[idx] = if value.is_finite() { value } else { 0.0 };
    }

    /// `(name, value, unit)` in catalog order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.catalog
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), &value)| (name, value, unit))
    }

    /// The summary line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    /// Values keep every digit (`{}` prints the shortest exact form).
    pub fn summary_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (k, (name, value, unit)) in self.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Nearest-rank quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// SplitMix64 finalizer over two words: derives independent sub-seeds
/// from the workload seed, and folds per-call digests in order.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// User plus system CPU time of every thread of this process, in
/// seconds (`/proc/self/stat` fields 14 and 15, in 1/100 s ticks).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |idx: usize| fields.get(idx).and_then(|f| f.parse::<u64>().ok());
    match (tick(11), tick(12)) {
        (Some(utime), Some(stime)) => Ok((utime + stime) as f64 / 100.0),
        _ => Err("malformed /proc/self/stat".to_string()),
    }
}

/// Cores the program's own fan-out uses (`available_parallelism`).
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}
