//! The metrics registry: counters and fixed-bucket histograms, declared
//! once in the [`names`] table.
//!
//! A table row is a `Copy` handle ([`CounterId`], [`HistogramId`], or an
//! array of them), its wire name and, for a histogram, its bounds. The
//! registry holds one fixed array of atomics per kind, indexed by handle,
//! and the process-wide one ([`crate::metrics`]) is a plain `static`: no
//! lock, map or allocation on the recording path, and a metric missing
//! from the table does not compile. Recording is gated by an `AtomicBool`
//! ([`MetricsRegistry::is_enabled`]), one relaxed load per call site.
//! Names appear only at the edge, in [`MetricsRegistry::snapshot`].

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Declare every metric once, as the [`names`] module: a row is a
/// constant (a handle, or an array of handles for per-processor and
/// per-(type, direction) counts) with its wire name(s) and, for a
/// histogram, its geometric bucket bounds. The rows are consumed one at a
/// time while `[$c]` collects the counter names and `[$h]` the histogram
/// rows; once no row is left, both lists are emitted in table order (with
/// the empty histograms), and a handle is its name's position in its list.
macro_rules! table {
    ($(#[$doc:meta])* pub mod names; $($rows:tt)*) => {
        $(#[$doc])*
        pub mod names {
            use super::{position, CounterId, HistogramId};
            table!(@rows [] [] $($rows)*);
        }
    };
    (@rows [$($c:tt)*] [$(($hname:literal, $start:literal, $factor:literal, $len:literal))*]) => {
        /// Counter wire names, indexed by handle.
        pub(super) const COUNTER_NAMES: &[&str] = &[$($c),*];
        /// Histogram wire names, indexed by handle.
        pub(super) const HISTOGRAM_NAMES: &[&str] = &[$($hname),*];
        /// The histograms, empty, indexed by handle.
        pub(super) const fn histograms() -> [super::Histogram; HISTOGRAM_NAMES.len()] {
            [$(super::Histogram::with_bounds(&super::exponential::<$len>($start, $factor))),*]
        }
    };
    (@rows [$($c:tt)*] [$($h:tt)*]
        $(#[$doc:meta])* $name:ident: CounterId = $wire:literal; $($rest:tt)*
    ) => {
        $(#[$doc])*
        pub const $name: CounterId = CounterId(position(COUNTER_NAMES, $wire));
        table!(@rows [$($c)* $wire] [$($h)*] $($rest)*);
    };
    (@rows [$($c:tt)*] [$($h:tt)*]
        $(#[$doc:meta])* $name:ident: [CounterId; $n:literal] = [$($wire:literal),+];
        $($rest:tt)*
    ) => {
        $(#[$doc])*
        pub const $name: [CounterId; $n] = [$(CounterId(position(COUNTER_NAMES, $wire))),+];
        table!(@rows [$($c)* $($wire)+] [$($h)*] $($rest)*);
    };
    (@rows [$($c:tt)*] [$($h:tt)*]
        $(#[$doc:meta])* $name:ident: [[CounterId; $m:literal]; $n:literal] =
            [$([$($wire:literal),+]),+ $(,)?];
        $($rest:tt)*
    ) => {
        $(#[$doc])*
        pub const $name: [[CounterId; $m]; $n] =
            [$([$(CounterId(position(COUNTER_NAMES, $wire))),+]),+];
        table!(@rows [$($c)* $($($wire)+)+] [$($h)*] $($rest)*);
    };
    (@rows [$($c:tt)*] [$($h:tt)*]
        $(#[$doc:meta])* $name:ident: HistogramId = $wire:literal,
            exponential($start:literal, $factor:literal, $len:literal);
        $($rest:tt)*
    ) => {
        $(#[$doc])*
        pub const $name: HistogramId = HistogramId(position(HISTOGRAM_NAMES, $wire));
        table!(@rows [$($c)*] [$($h)* ($wire, $start, $factor, $len)] $($rest)*);
    };
    (@rows $($malformed:tt)*) => { compile_error!("malformed metric row"); };
}

table! {
    /// Every metric the workspace records, one row each.
    ///
    /// One module holds the entire metric surface of a run, so `obs_report`
    /// consumers have a single place to look names up. Library code hands
    /// [`MetricsRegistry::counter`] / [`MetricsRegistry::histogram`] one of
    /// these handles; a misspelt one fails to compile. Wire names are
    /// unique (a unit test checks it).
    pub mod names;

    /// Per-processor count of C-element updates, indexed by `Proc::idx()`.
    EXEC_UPDATES: [CounterId; 3] = ["exec.updates.R", "exec.updates.S", "exec.updates.P"];
    /// Per-processor count of matrix elements sent, indexed by `Proc::idx()`.
    EXEC_ELEMS_SENT: [CounterId; 3] =
        ["exec.elems_sent.R", "exec.elems_sent.S", "exec.elems_sent.P"];
    /// Total faults the parallel executor detected and survived.
    EXEC_RECOVERIES: CounterId = "exec.recoveries";
    /// Nanoseconds a worker spent blocked in `recv` during one step.
    EXEC_RECV_WAIT_NANOS: HistogramId = "exec.recv_wait_nanos", exponential(1000, 4, 12);
    /// Worker-level receive re-waits (timeouts absorbed without blame).
    EXEC_RECV_RETRIES: CounterId = "exec.recv_retries";
    /// Supervisor-level attempt retries before any conviction.
    EXEC_ATTEMPT_RETRIES: CounterId = "exec.attempt_retries";
    /// Nanoseconds spent in supervisor backoff between attempts.
    EXEC_BACKOFF_NANOS: CounterId = "exec.backoff_nanos";
    /// Step-checkpoint snapshots workers banked with the supervisor.
    EXEC_CHECKPOINTS: CounterId = "exec.checkpoints";
    /// Pivot steps recovery skipped thanks to checkpointed resume.
    EXEC_RESUMED_STEPS: CounterId = "exec.resumed_steps";
    /// Pivot steps recovery re-ran past the resume point (worst cell).
    EXEC_REPLAYED_STEPS: CounterId = "exec.replayed_steps";
    /// Runs that finished in degraded mode (serial fallback).
    EXEC_DEGRADED_RUNS: CounterId = "exec.degraded_runs";
    /// Fault schedules the chaos harness drove to completion.
    CHAOS_SCHEDULES: CounterId = "chaos.schedules";
    /// Chaos runs whose faults were absorbed without any conviction.
    CHAOS_ABSORBED: CounterId = "chaos.absorbed";
    /// Chaos runs that convicted at least one worker and still matched.
    CHAOS_RECOVERED: CounterId = "chaos.recovered";
    /// Chaos runs that ended in the typed degraded-mode outcome.
    CHAOS_DEGRADED: CounterId = "chaos.degraded";
    /// Steps the 3-processor push DFA took to reach its final shape.
    DFA_STEPS_TO_CONVERGENCE: HistogramId = "dfa.steps_to_convergence", exponential(1, 2, 16);
    /// Accepted pushes by the 3-processor DFA, indexed
    /// `[push type - 1][direction]` with directions ordered
    /// down, up, left, right.
    DFA_PUSH: [[CounterId; 4]; 6] = [
        ["dfa.push.type1.down", "dfa.push.type1.up", "dfa.push.type1.left", "dfa.push.type1.right"],
        ["dfa.push.type2.down", "dfa.push.type2.up", "dfa.push.type2.left", "dfa.push.type2.right"],
        ["dfa.push.type3.down", "dfa.push.type3.up", "dfa.push.type3.left", "dfa.push.type3.right"],
        ["dfa.push.type4.down", "dfa.push.type4.up", "dfa.push.type4.left", "dfa.push.type4.right"],
        ["dfa.push.type5.down", "dfa.push.type5.up", "dfa.push.type5.left", "dfa.push.type5.right"],
        ["dfa.push.type6.down", "dfa.push.type6.up", "dfa.push.type6.left", "dfa.push.type6.right"],
    ];
    /// Steps the n-processor column DFA took to reach its final shape.
    NPROC_STEPS: HistogramId = "nproc.steps", exponential(1, 2, 16);
    /// `u64` plane words popcounted by the bit-plane occupancy reads
    /// (`rows_occupied` / `cols_occupied`).
    GRID_POPCOUNT_WORDS: CounterId = "grid.popcount.words";
    /// Occupied-line mask words examined by the enclosing-rect boundary
    /// shrink sweeps in `Partition::set` / `NPartition::set`.
    GRID_SHRINK_WORD_SCANS: CounterId = "grid.shrink.word_scans";
    /// Push-feasibility probes actually evaluated.
    PUSH_PROBES: CounterId = "push.probe.evals";
    /// Residual verdicts known from the final failed round: the plan's
    /// pairs, which a DFA run that ends at a fixed point skips in its
    /// residual check instead of probing them.
    PUSH_PROBE_CACHE_HITS: CounterId = "push.probe.cache_hits";
}

/// A counter's handle: its row in the [`names`] table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// A histogram's handle: its row in the [`names`] table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramId(usize);

/// Where `wire` is in `names`: a handle's row, found at compile time (a
/// name the table lacks fails the build).
const fn position(names: &[&str], wire: &str) -> usize {
    let mut at = 0;
    loop {
        let (name, wire) = (names[at].as_bytes(), wire.as_bytes());
        let mut i = 0;
        while i < name.len() && i < wire.len() && name[i] == wire[i] {
            i += 1;
        }
        if i == name.len() && i == wire.len() {
            return at;
        }
        at += 1;
    }
}

/// Mark an instrument as touched, so snapshots list it. A load first: the
/// flag is set once and then only read, so concurrent callers share its
/// cache line instead of writing it on every call.
fn touch(touched: &AtomicBool) {
    if !touched.load(Ordering::Relaxed) {
        touched.store(true, Ordering::Relaxed);
    }
}

/// A monotonically increasing counter.
#[derive(Debug)]
pub struct Counter {
    touched: AtomicBool,
    value: AtomicU64,
}

impl Counter {
    const fn new() -> Counter {
        Counter {
            touched: AtomicBool::new(false),
            value: AtomicU64::new(0),
        }
    }

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

/// `LEN` geometric bucket bounds `start, start·factor, start·factor², …`.
/// The table evaluates it at compile time, so an overflow fails the build.
const fn exponential<const LEN: usize>(start: u64, factor: u64) -> [u64; LEN] {
    let mut bounds = [start; LEN];
    let mut i = 1;
    while i < LEN {
        bounds[i] = bounds[i - 1] * factor;
        i += 1;
    }
    bounds
}

/// Most bucket bounds one histogram holds (the table's longest).
const MAX_BOUNDS: usize = 16;

/// A fixed-bucket histogram over `u64` observations.
///
/// `bounds` are strictly increasing upper bounds; observation `v` lands in
/// the first bucket with `v <= bound`, or in the implicit overflow bucket
/// past the last bound (so there are `bounds.len() + 1` buckets).
#[derive(Debug)]
pub struct Histogram {
    touched: AtomicBool,
    len: usize,
    bounds: [u64; MAX_BOUNDS],
    buckets: [AtomicU64; MAX_BOUNDS + 1],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// An empty histogram over `bounds` (at most [`MAX_BOUNDS`], strictly
    /// increasing).
    const fn with_bounds(bounds: &[u64]) -> Histogram {
        let mut at = [0; MAX_BOUNDS];
        let mut i = 0;
        while i < bounds.len() {
            assert!(
                i == 0 || bounds[i - 1] < bounds[i],
                "histogram bounds must be strictly increasing"
            );
            at[i] = bounds[i];
            i += 1;
        }
        Histogram {
            touched: AtomicBool::new(false),
            len: bounds.len(),
            bounds: at,
            buckets: [const { AtomicU64::new(0) }; MAX_BOUNDS + 1],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// A histogram outside the table, for the bucketing tests.
    #[cfg(test)]
    fn new(bounds: Vec<u64>) -> Histogram {
        Histogram::with_bounds(&bounds)
    }

    /// Bucket upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds[..self.len]
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let idx = self.bounds().partition_point(|&b| v > b);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Immutable copy of the current state, tagged with `name`.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            bounds: self.bounds().to_vec(),
            counts: self.buckets[..=self.len]
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
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
    /// Histogram states, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

/// Every metric of the [`names`] table, with a global recording gate.
///
/// Use [`crate::metrics`] for the process-wide instance. Instruments live
/// as long as the registry; a snapshot lists the ones touched so far, and
/// `reset` zeroes values but keeps that set.
#[derive(Debug)]
pub struct MetricsRegistry {
    enabled: AtomicBool,
    counters: [Counter; names::COUNTER_NAMES.len()],
    histograms: [Histogram; names::HISTOGRAM_NAMES.len()],
}

impl MetricsRegistry {
    /// A fresh registry: recording off, nothing touched.
    pub(crate) const fn new() -> MetricsRegistry {
        MetricsRegistry {
            enabled: AtomicBool::new(false),
            counters: [const { Counter::new() }; names::COUNTER_NAMES.len()],
            histograms: names::histograms(),
        }
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

    /// The counter `id`, touched.
    pub fn counter(&self, id: CounterId) -> &Counter {
        let counter = &self.counters[id.0];
        touch(&counter.touched);
        counter
    }

    /// The histogram `id`, touched.
    pub fn histogram(&self, id: HistogramId) -> &Histogram {
        let histogram = &self.histograms[id.0];
        touch(&histogram.touched);
        histogram
    }

    /// Snapshot every touched instrument (sorted by name — deterministic).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<(String, u64)> = names::COUNTER_NAMES
            .iter()
            .zip(&self.counters)
            .filter(|(_, c)| c.touched.load(Ordering::Relaxed))
            .map(|(name, c)| (name.to_string(), c.get()))
            .collect();
        counters.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut histograms: Vec<HistogramSnapshot> = names::HISTOGRAM_NAMES
            .iter()
            .zip(&self.histograms)
            .filter(|(_, h)| h.touched.load(Ordering::Relaxed))
            .map(|(name, h)| h.snapshot(name))
            .collect();
        histograms.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot {
            counters,
            histograms,
        }
    }

    /// Zero every instrument, keeping the touched set.
    pub fn reset(&self) {
        for c in &self.counters {
            c.value.store(0, Ordering::Relaxed);
        }
        for h in &self.histograms {
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
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_rejected() {
        let _ = Histogram::new(vec![5, 5]);
    }

    #[test]
    fn wire_names_are_unique() {
        let mut all = [names::COUNTER_NAMES, names::HISTOGRAM_NAMES].concat();
        let len = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), len, "two rows share a wire name");
    }

    #[test]
    fn histogram_bounds_are_the_geometric_series() {
        let reg = MetricsRegistry::new();
        let bounds = |id| reg.histogram(id).bounds().to_vec();
        let series = |start: u64, factor: u64, len| -> Vec<u64> {
            (0..len).map(|i| start * factor.pow(i)).collect()
        };
        assert_eq!(bounds(names::EXEC_RECV_WAIT_NANOS), series(1000, 4, 12));
        assert_eq!(bounds(names::DFA_STEPS_TO_CONVERGENCE), series(1, 2, 16));
        assert_eq!(bounds(names::NPROC_STEPS), series(1, 2, 16));
    }

    #[test]
    fn snapshot_lists_touched_instruments_sorted_and_reset_keeps_them() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.snapshot(), MetricsSnapshot::default());
        reg.counter(names::PUSH_PROBES).add(3);
        reg.counter(names::EXEC_UPDATES[0]).inc();
        let _ = reg.counter(names::CHAOS_SCHEDULES);
        reg.histogram(names::NPROC_STEPS).observe(5);
        reg.histogram(names::DFA_STEPS_TO_CONVERGENCE).observe(2);
        // Names and values in snapshot order; the table order differs.
        let listed = |snap: MetricsSnapshot| -> Vec<(String, u64)> {
            let histograms = snap.histograms.into_iter().map(|h| (h.name, h.sum));
            snap.counters.into_iter().chain(histograms).collect()
        };
        let expect = |values: [u64; 5]| -> Vec<(String, u64)> {
            let names = ["chaos.schedules", "exec.updates.R", "push.probe.evals"]
                .into_iter()
                .chain(["dfa.steps_to_convergence", "nproc.steps"]);
            names.map(String::from).zip(values).collect()
        };
        let snap = reg.snapshot();
        let back: MetricsSnapshot =
            serde_json::from_str(&serde_json::to_string(&snap).unwrap()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(listed(snap), expect([0, 1, 3, 2, 5]));
        reg.reset();
        let after = reg.snapshot();
        assert!(after.histograms.iter().all(|h| h.count == 0
            && h.counts.len() == h.bounds.len() + 1
            && h.counts.iter().all(|&c| c == 0)));
        assert_eq!(listed(after), expect([0; 5]), "reset keeps the touched set");
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
