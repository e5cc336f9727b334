//! The metrics registry: counters, gauges, and fixed-bucket histograms.
//!
//! All instruments are lock-free atomics; the registry maps `&'static str`
//! names to shared instrument handles so hot paths can cache the `Arc` and
//! skip the name lookup entirely. Recording is globally gated by an
//! `AtomicBool` ([`MetricsRegistry::is_enabled`]) so the uninstrumented
//! cost is one relaxed load per call site.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Registry of every metric name the workspace records.
///
/// One module holds the entire metric surface of a run, so dashboards and
/// `obs_report` consumers have a single place to look names up. Library
/// code hands `.counter(..)` / `.gauge(..)` / `.histogram(..)` one of these
/// constants, never a literal, so a misspelt name fails to compile. Keep
/// the names unique: two constants with one name share one instrument.
pub mod names {
    /// Per-processor count of C-element updates, indexed by `Proc::idx()`.
    pub const EXEC_UPDATES: [&str; 3] = ["exec.updates.R", "exec.updates.S", "exec.updates.P"];
    /// Per-processor count of matrix elements sent, indexed by `Proc::idx()`.
    pub const EXEC_ELEMS_SENT: [&str; 3] = [
        "exec.elems_sent.R",
        "exec.elems_sent.S",
        "exec.elems_sent.P",
    ];
    /// Total faults the parallel executor detected and survived.
    pub const EXEC_RECOVERIES: &str = "exec.recoveries";
    /// Nanoseconds a worker spent blocked in `recv` during one step.
    pub const EXEC_RECV_WAIT_NANOS: &str = "exec.recv_wait_nanos";
    /// Worker-level receive re-waits (timeouts absorbed without blame).
    pub const EXEC_RECV_RETRIES: &str = "exec.recv_retries";
    /// Supervisor-level attempt retries before any conviction.
    pub const EXEC_ATTEMPT_RETRIES: &str = "exec.attempt_retries";
    /// Nanoseconds spent in supervisor backoff between attempts.
    pub const EXEC_BACKOFF_NANOS: &str = "exec.backoff_nanos";
    /// Step-checkpoint snapshots workers banked with the supervisor.
    pub const EXEC_CHECKPOINTS: &str = "exec.checkpoints";
    /// Pivot steps recovery skipped thanks to checkpointed resume.
    pub const EXEC_RESUMED_STEPS: &str = "exec.resumed_steps";
    /// Pivot steps recovery re-ran past the resume point (worst cell).
    pub const EXEC_REPLAYED_STEPS: &str = "exec.replayed_steps";
    /// Runs that finished in degraded mode (serial fallback).
    pub const EXEC_DEGRADED_RUNS: &str = "exec.degraded_runs";
    /// Fault schedules the chaos harness drove to completion.
    pub const CHAOS_SCHEDULES: &str = "chaos.schedules";
    /// Chaos runs whose faults were absorbed without any conviction.
    pub const CHAOS_ABSORBED: &str = "chaos.absorbed";
    /// Chaos runs that convicted at least one worker and still matched.
    pub const CHAOS_RECOVERED: &str = "chaos.recovered";
    /// Chaos runs that ended in the typed degraded-mode outcome.
    pub const CHAOS_DEGRADED: &str = "chaos.degraded";
    /// Steps the 3-processor push DFA took to reach its final shape.
    pub const DFA_STEPS_TO_CONVERGENCE: &str = "dfa.steps_to_convergence";
    /// Accepted pushes by the 3-processor DFA, indexed
    /// `[push type - 1][direction]` with directions ordered
    /// down, up, left, right.
    pub const DFA_PUSH: [[&str; 4]; 6] = [
        [
            "dfa.push.type1.down",
            "dfa.push.type1.up",
            "dfa.push.type1.left",
            "dfa.push.type1.right",
        ],
        [
            "dfa.push.type2.down",
            "dfa.push.type2.up",
            "dfa.push.type2.left",
            "dfa.push.type2.right",
        ],
        [
            "dfa.push.type3.down",
            "dfa.push.type3.up",
            "dfa.push.type3.left",
            "dfa.push.type3.right",
        ],
        [
            "dfa.push.type4.down",
            "dfa.push.type4.up",
            "dfa.push.type4.left",
            "dfa.push.type4.right",
        ],
        [
            "dfa.push.type5.down",
            "dfa.push.type5.up",
            "dfa.push.type5.left",
            "dfa.push.type5.right",
        ],
        [
            "dfa.push.type6.down",
            "dfa.push.type6.up",
            "dfa.push.type6.left",
            "dfa.push.type6.right",
        ],
    ];
    /// Steps the n-processor column DFA took to reach its final shape.
    pub const NPROC_STEPS: &str = "nproc.steps";
    /// `u64` plane words popcounted by the bit-plane occupancy reads
    /// (`rows_occupied` / `cols_occupied`).
    pub const GRID_POPCOUNT_WORDS: &str = "grid.popcount.words";
    /// Occupied-line mask words examined by the enclosing-rect boundary
    /// shrink sweeps in `Partition::set` / `NPartition::set`.
    pub const GRID_SHRINK_WORD_SCANS: &str = "grid.shrink.word_scans";
    /// Push-feasibility probes actually evaluated.
    pub const PUSH_PROBES: &str = "push.probe.evals";
    /// Residual verdicts known from the final failed round: the plan's
    /// pairs, which a DFA run that ends at a fixed point skips in its
    /// residual check instead of probing them.
    pub const PUSH_PROBE_CACHE_HITS: &str = "push.probe.cache_hits";
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram over `u64` observations.
///
/// `bounds` are strictly increasing upper bounds; observation `v` lands in
/// the first bucket with `v <= bound`, or in the implicit overflow bucket
/// past the last bound (so there are `bounds.len() + 1` buckets).
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// Build from explicit bounds (must be strictly increasing, non-empty).
    pub fn new(bounds: Vec<u64>) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Geometric bounds `start, start*factor, start*factor², …` (`len`
    /// bounds, saturating at `u64::MAX`).
    pub fn exponential(start: u64, factor: u64, len: usize) -> Histogram {
        assert!(start > 0 && factor > 1 && len > 0);
        let mut bounds = Vec::with_capacity(len);
        let mut b = start;
        for _ in 0..len {
            if bounds.last() == Some(&b) {
                break; // saturated
            }
            bounds.push(b);
            b = b.saturating_mul(factor);
        }
        Histogram::new(bounds)
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let idx = self.bounds.partition_point(|&b| v > b);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Immutable copy of the current state, tagged with `name`.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            bounds: self.bounds.clone(),
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// Serialized state of one histogram.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Registry name.
    pub name: String,
    /// Bucket upper bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket counts (`bounds.len() + 1` entries; last is overflow).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Bucket-interpolated quantile estimate (`0.0 <= q <= 1.0`).
    ///
    /// Finds the bucket containing the `q`-th observation and interpolates
    /// linearly within it, taking the bucket's value range as
    /// `(previous bound, bound]` (0 below the first bound). Returns `None`
    /// when the histogram is empty. Observations in the overflow bucket
    /// have no upper bound, so quantiles landing there are clamped to the
    /// last bound — the estimate is then a lower bound on the true value.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based; q = 0 maps to the first
        // observation, q = 1 to the last.
        let target = (q * self.count as f64).max(1.0);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c;
            if (next as f64) >= target {
                let lo = if idx == 0 {
                    0.0
                } else {
                    self.bounds[idx - 1] as f64
                };
                if idx >= self.bounds.len() {
                    // Overflow bucket: unbounded above; clamp to its floor.
                    return Some(lo);
                }
                let hi = self.bounds[idx] as f64;
                let frac = (target - cum as f64) / c as f64;
                return Some(lo + (hi - lo) * frac);
            }
            cum = next;
        }
        // count > 0 guarantees some bucket is non-empty, so we only get
        // here if count disagrees with the bucket sum; fall back to the
        // last bound rather than panicking on a corrupt snapshot.
        self.bounds.last().map(|&b| b as f64)
    }
}

/// Serialized state of a whole registry, embedded in run manifests.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram states, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

/// Name → instrument registry with a global recording gate.
///
/// Use [`crate::metrics`] for the process-wide instance. Instruments are
/// created on first touch and live for the life of the process; `reset`
/// zeroes values but keeps identities, so cached `Arc` handles stay valid.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    enabled: AtomicBool,
    counters: RwLock<BTreeMap<&'static str, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<&'static str, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<&'static str, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// A fresh registry (recording disabled).
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Turn recording on or off. Call sites are expected to check
    /// [`MetricsRegistry::is_enabled`] before doing any per-event work.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Is recording on? One relaxed atomic load.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Fetch-or-create a counter.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        if let Some(c) = self
            .counters
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .get(name)
        {
            return Arc::clone(c);
        }
        Arc::clone(
            self.counters
                .write()
                .unwrap_or_else(|p| p.into_inner())
                .entry(name)
                .or_default(),
        )
    }

    /// Fetch-or-create a gauge.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        if let Some(g) = self
            .gauges
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .get(name)
        {
            return Arc::clone(g);
        }
        Arc::clone(
            self.gauges
                .write()
                .unwrap_or_else(|p| p.into_inner())
                .entry(name)
                .or_default(),
        )
    }

    /// Fetch-or-create a histogram; `make` supplies the instance (and its
    /// bucket bounds) on first touch only.
    pub fn histogram(
        &self,
        name: &'static str,
        make: impl FnOnce() -> Histogram,
    ) -> Arc<Histogram> {
        if let Some(h) = self
            .histograms
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .get(name)
        {
            return Arc::clone(h);
        }
        Arc::clone(
            self.histograms
                .write()
                .unwrap_or_else(|p| p.into_inner())
                .entry(name)
                .or_insert_with(|| Arc::new(make())),
        )
    }

    /// Snapshot every instrument (sorted by name — deterministic).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .unwrap_or_else(|p| p.into_inner())
                .iter()
                .map(|(name, c)| (name.to_string(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .unwrap_or_else(|p| p.into_inner())
                .iter()
                .map(|(name, g)| (name.to_string(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .unwrap_or_else(|p| p.into_inner())
                .iter()
                .map(|(name, h)| h.snapshot(name))
                .collect(),
        }
    }

    /// Zero every instrument, keeping identities (cached handles survive).
    pub fn reset(&self) {
        for c in self
            .counters
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .values()
        {
            c.value.store(0, Ordering::Relaxed);
        }
        for g in self
            .gauges
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .values()
        {
            g.value.store(0, Ordering::Relaxed);
        }
        for h in self
            .histograms
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .values()
        {
            h.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucketing_lands_on_boundaries_correctly() {
        let h = Histogram::new(vec![10, 100, 1000]);
        h.observe(0); // bucket 0 (<= 10)
        h.observe(10); // bucket 0 (boundary is inclusive)
        h.observe(11); // bucket 1
        h.observe(100); // bucket 1
        h.observe(101); // bucket 2
        h.observe(1000); // bucket 2
        h.observe(1001); // overflow bucket
        h.observe(u64::MAX); // overflow bucket
        let snap = h.snapshot("t");
        assert_eq!(snap.counts, vec![2, 2, 2, 2]);
        assert_eq!(snap.count, 8);
    }

    #[test]
    fn exponential_bounds_saturate_instead_of_overflowing() {
        let h = Histogram::exponential(1, 2, 80);
        let snap = h.snapshot("t");
        assert!(snap.bounds.len() < 80, "must stop at u64::MAX");
        assert!(snap.bounds.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*snap.bounds.last().unwrap(), u64::MAX);
    }

    #[test]
    fn registry_returns_shared_instruments() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("test.shared");
        let b = reg.counter("test.shared");
        a.add(3);
        b.inc();
        assert_eq!(reg.counter("test.shared").get(), 4);
    }

    #[test]
    fn reset_keeps_cached_handles_valid() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("test.reset");
        c.add(9);
        reg.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(reg.counter("test.reset").get(), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_round_trips() {
        let reg = MetricsRegistry::new();
        reg.counter("zz").inc();
        reg.counter("aa").add(2);
        reg.gauge("mid").set(-5);
        reg.histogram("h", || Histogram::new(vec![1, 2])).observe(2);
        let snap = reg.snapshot();
        assert_eq!(snap.counters[0].0, "aa");
        assert_eq!(snap.gauges[0].1, -5);
        let back: MetricsSnapshot =
            serde_json::from_str(&serde_json::to_string(&snap).unwrap()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_rejected() {
        let _ = Histogram::new(vec![5, 5]);
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        let snap = Histogram::new(vec![10, 100]).snapshot("t");
        assert_eq!(snap.quantile(0.5), None);
        assert_eq!(snap.quantile(0.0), None);
        assert_eq!(snap.quantile(1.0), None);
    }

    #[test]
    fn quantile_interpolates_within_a_single_bucket() {
        let h = Histogram::new(vec![10]);
        for _ in 0..4 {
            h.observe(5);
        }
        let snap = h.snapshot("t");
        // All 4 observations in (0, 10]: p50 targets rank 2 of 4 → 5.0,
        // p100 targets rank 4 → 10.0.
        assert_eq!(snap.quantile(0.5), Some(5.0));
        assert_eq!(snap.quantile(1.0), Some(10.0));
        // q = 0 maps to rank 1 → first quarter of the bucket.
        assert_eq!(snap.quantile(0.0), Some(2.5));
    }

    #[test]
    fn quantile_walks_across_buckets() {
        let h = Histogram::new(vec![10, 20, 40]);
        for v in [5, 15, 15, 30] {
            h.observe(v);
        }
        let snap = h.snapshot("t");
        // Rank 2 of 4 lands in the (10, 20] bucket (rank 1 within it, of
        // 2) → 10 + 10 * 1/2 = 15.
        assert_eq!(snap.quantile(0.5), Some(15.0));
        // Rank 4 lands in (20, 40] → 40.
        assert_eq!(snap.quantile(1.0), Some(40.0));
    }

    #[test]
    fn quantile_clamps_in_the_overflow_bucket() {
        let h = Histogram::new(vec![10]);
        h.observe(3);
        h.observe(7);
        h.observe(10_000); // overflow: > last bound
        h.observe(10_000);
        let snap = h.snapshot("t");
        // p99 lands in the unbounded overflow bucket → clamped to the last
        // bound, a lower bound on the true value.
        assert_eq!(snap.quantile(0.99), Some(10.0));
        // p25 targets rank 1 of 4: rank 1 of 2 within (0, 10] → 5.0.
        assert_eq!(snap.quantile(0.25), Some(5.0));
    }

    #[test]
    fn quantile_clamps_q_outside_unit_interval() {
        let h = Histogram::new(vec![100]);
        h.observe(50);
        let snap = h.snapshot("t");
        assert_eq!(snap.quantile(-3.0), snap.quantile(0.0));
        assert_eq!(snap.quantile(7.0), snap.quantile(1.0));
    }
}
