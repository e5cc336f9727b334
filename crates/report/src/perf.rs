//! The perf-gate data model: seeded workload measurements and the
//! paired wall-time comparison.
//!
//! The `perf_gate` binary runs a fixed, seeded workload suite and records
//! a [`BenchSuite`] (`BENCH_current.json`). Given the parent commit's
//! `perf_gate`, it then times one-pass suites of the parent and of itself
//! in alternating pairs, and [`compare`] gates each workload's median
//! per-pair change/parent wall ratio. A pair shares the machine's state at
//! the moment it runs, so load that slows one side slows the other too;
//! no wall time is ever compared with one recorded elsewhere. The
//! suite's counters are pure functions of the seed and are pinned as
//! literals by the `perf_gate` CLI tests, not gated here.

use serde::{Deserialize, Serialize};

/// Schema version of the bench-suite JSON.
pub const BENCH_VERSION: u32 = 1;

/// One measured workload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Workload name, e.g. `fig5_census_slice`.
    pub name: String,
    /// Median of [`BenchEntry::wall_nanos`].
    pub median_wall_nanos: u64,
    /// Raw wall time of each repetition, in run order.
    pub wall_nanos: Vec<u64>,
    /// Deterministic counters recorded during an untimed pass, sorted by
    /// name. Only counters that are pure functions of the seed belong
    /// here.
    pub counters: Vec<(String, u64)>,
}

/// A full suite measurement, serialized to `BENCH_*.json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchSuite {
    /// Always [`BENCH_VERSION`] for suites produced by this build.
    pub v: u32,
    /// Git revision the suite was measured at.
    pub git_rev: String,
    /// Repetitions per workload.
    pub k: u64,
    /// Measured workloads, in suite order.
    pub entries: Vec<BenchEntry>,
}

impl BenchSuite {
    /// Look up an entry by workload name.
    pub fn entry(&self, name: &str) -> Option<&BenchEntry> {
        self.entries.iter().find(|e| e.name == name)
    }
}

/// One reason the gate fails.
#[derive(Clone, Debug, PartialEq)]
pub enum GateIssue {
    /// A parent workload is missing from a change-side suite.
    MissingEntry {
        /// Workload name.
        name: String,
    },
    /// The median per-pair change/parent wall ratio exceeds the threshold.
    WallRegression {
        /// Workload name.
        name: String,
        /// Median over the pairs of change wall time / parent wall time.
        ratio: f64,
        /// The configured limit the ratio exceeded.
        threshold: f64,
    },
}

impl std::fmt::Display for GateIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateIssue::MissingEntry { name } => {
                write!(f, "{name}: missing from the change's suite")
            }
            GateIssue::WallRegression {
                name,
                ratio,
                threshold,
            } => write!(
                f,
                "{name}: wall regression {ratio:.2}x > {threshold:.2}x limit \
                 (median per-pair change/parent ratio)"
            ),
        }
    }
}

/// The outcome of [`compare`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Comparison {
    /// Each parent workload's median per-pair change/parent wall ratio,
    /// in suite order. A workload whose parent time was zero in every pair
    /// (a `FakeClock` measurement) has no ratio and is left out.
    pub ratios: Vec<(String, f64)>,
    /// Every violation found; empty means the gate passes.
    pub issues: Vec<GateIssue>,
}

/// Median of a value set (lower-of-two-middles for even counts; 0 when
/// empty).
pub fn median(values: &[u64]) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    sorted[(sorted.len() - 1) / 2]
}

/// Median of per-pair ratios: the middle value for an odd count, the mean
/// of the two middles for an even one, `None` when empty.
fn median_ratio(mut ratios: Vec<f64>) -> Option<f64> {
    ratios.sort_unstable_by(f64::total_cmp);
    let len = ratios.len();
    (len > 0).then(|| (ratios[(len - 1) / 2] + ratios[len / 2]) / 2.0)
}

/// Compare `(parent, change)` suite pairs, each side one timed pass, run
/// back to back.
///
/// For every workload of the first parent suite, each pair contributes
/// the ratio of the change's wall time to the parent's, and the workload
/// fails when the median of those ratios exceeds `threshold`. A pair whose
/// parent time is zero contributes nothing, so a zero never divides.
/// Speed-ups never fail. A workload missing from any change-side suite is
/// reported; workloads only the change measures are new, not failures.
pub fn compare(pairs: &[(BenchSuite, BenchSuite)], threshold: f64) -> Comparison {
    let mut out = Comparison::default();
    let Some((first, _)) = pairs.first() else {
        return out;
    };
    for workload in &first.entries {
        let name = &workload.name;
        let mut ratios = Vec::with_capacity(pairs.len());
        let mut missing = false;
        for (parent, change) in pairs {
            let parent_nanos = parent.entry(name).map_or(0, |e| e.median_wall_nanos);
            match change.entry(name) {
                None => missing = true,
                Some(cur) if parent_nanos > 0 => {
                    ratios.push(cur.median_wall_nanos as f64 / parent_nanos as f64);
                }
                Some(_) => {}
            }
        }
        if missing {
            out.issues
                .push(GateIssue::MissingEntry { name: name.clone() });
            continue;
        }
        let Some(ratio) = median_ratio(ratios) else {
            continue;
        };
        if ratio > threshold {
            out.issues.push(GateIssue::WallRegression {
                name: name.clone(),
                ratio,
                threshold,
            });
        }
        out.ratios.push((name.clone(), ratio));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, nanos: u64) -> BenchEntry {
        BenchEntry {
            name: name.into(),
            median_wall_nanos: nanos,
            wall_nanos: vec![nanos],
            counters: vec![],
        }
    }

    fn suite(entries: Vec<BenchEntry>) -> BenchSuite {
        BenchSuite {
            v: BENCH_VERSION,
            git_rev: "test".into(),
            k: 1,
            entries,
        }
    }

    /// One pair per `(parent, change)` wall time of workload `a`.
    fn pairs(times: &[(u64, u64)]) -> Vec<(BenchSuite, BenchSuite)> {
        times
            .iter()
            .map(|&(p, c)| (suite(vec![entry("a", p)]), suite(vec![entry("a", c)])))
            .collect()
    }

    #[test]
    fn identical_suites_pass() {
        let cmp = compare(&pairs(&[(1000, 1000), (2000, 2000), (900, 900)]), 1.8);
        assert!(cmp.issues.is_empty());
        assert_eq!(cmp.ratios, vec![("a".to_string(), 1.0)]);
    }

    #[test]
    fn slowdown_within_threshold_passes_beyond_fails() {
        let ok = compare(&pairs(&[(1000, 1700), (1000, 1700), (1000, 1700)]), 1.8);
        assert!(ok.issues.is_empty());
        let slow = compare(&pairs(&[(1000, 5000), (1000, 5000), (1000, 5000)]), 1.8);
        assert_eq!(slow.issues.len(), 1);
        assert!(matches!(
            &slow.issues[0],
            GateIssue::WallRegression { name, ratio, .. } if name == "a" && (*ratio - 5.0).abs() < 1e-9
        ));
        assert!(slow.issues[0].to_string().contains("wall regression 5.00x"));
    }

    #[test]
    fn median_over_odd_and_even_pair_counts() {
        // Odd k: the middle ratio, so one loaded pair cannot fail the gate.
        let odd = compare(&pairs(&[(100, 100), (100, 900), (100, 150)]), 1.8);
        assert_eq!(odd.ratios, vec![("a".to_string(), 1.5)]);
        assert!(odd.issues.is_empty());
        // Even k: the mean of the two middle ratios (1.5 and 2.5).
        let even = compare(
            &pairs(&[(100, 100), (100, 250), (100, 150), (100, 900)]),
            1.8,
        );
        assert_eq!(even.ratios, vec![("a".to_string(), 2.0)]);
        assert_eq!(even.issues.len(), 1);
    }

    #[test]
    fn speedups_never_fail() {
        let cmp = compare(&pairs(&[(10_000, 10), (10_000, 10), (10_000, 10)]), 1.8);
        assert!(cmp.issues.is_empty());
    }

    #[test]
    fn missing_entry_is_reported_but_new_entries_are_not() {
        let pair = (
            suite(vec![entry("gone", 1000)]),
            suite(vec![entry("brand_new", 1000)]),
        );
        let cmp = compare(&[pair.clone(), pair], 1.8);
        assert_eq!(
            cmp.issues,
            vec![GateIssue::MissingEntry {
                name: "gone".into()
            }]
        );
        assert!(cmp.ratios.is_empty());
    }

    #[test]
    fn median_handles_odd_even_empty() {
        assert_eq!(median(&[]), 0);
        assert_eq!(median(&[5]), 5);
        assert_eq!(median(&[3, 1, 2]), 2);
        assert_eq!(median(&[4, 1, 3, 2]), 2, "lower of two middles");
    }

    #[test]
    fn suite_round_trips_through_json() {
        let mut s = suite(vec![entry("a", 1000)]);
        s.entries[0].counters = vec![("c".into(), 7)];
        let back: BenchSuite = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn zero_baseline_median_never_divides() {
        // A FakeClock-measured parent (all zeros) must not gate on an
        // infinite ratio; a pair with a real parent time still counts.
        let all_zero = compare(&pairs(&[(0, 1_000_000), (0, 1_000_000)]), 1.8);
        assert_eq!(all_zero, Comparison::default());
        let one_real = compare(&pairs(&[(0, 1_000_000), (1000, 1000)]), 1.8);
        assert_eq!(one_real.ratios, vec![("a".to_string(), 1.0)]);
        assert!(one_real.issues.is_empty());
    }
}
