//! The traced run's bookkeeping. Layer calls are timed from outside the
//! program; census and nproc calls are re-run through a mirror of the
//! library's fan-out so each run can be timed; the executor's phase times
//! come from its existing `ExecSegment` events, summed by a sink.

use crate::measure::{quantile, threads, Metrics, PER_LAYER};
use hetmmm::prelude::obs::{self, EventKind, EventRecord, Sink};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Samples and totals of one traced run.
#[derive(Debug, Default)]
pub struct Trace {
    /// Wall time of each timed call, in ms, keyed by layer function.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Counts and sums, keyed by name.
    totals: BTreeMap<&'static str, f64>,
    /// Layer time of the current call on its busiest thread, in ns.
    pub call_layer_ns: f64,
}

impl Trace {
    /// Time one call into a layer.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as f64;
        self.sample(layer, ns / 1e6);
        self.call_layer_ns += ns;
        out
    }

    /// Record one sample in ms.
    pub fn sample(&mut self, key: &'static str, ms: f64) {
        self.samples.entry(key).or_default().push(ms);
    }

    /// Add to a total.
    pub fn add(&mut self, key: &'static str, value: f64) {
        *self.totals.entry(key).or_default() += value;
    }

    /// The samples under `key` (empty when none).
    pub fn samples(&self, key: &str) -> &[f64] {
        self.samples.get(key).map_or(&[], Vec::as_slice)
    }

    /// The total under `key` (0 when none).
    pub fn total(&self, key: &str) -> f64 {
        self.totals.get(key).copied().unwrap_or(0.0)
    }

    fn merge(&mut self, other: Trace) {
        for (key, values) in other.samples {
            self.samples.entry(key).or_default().extend(values);
        }
        for (key, value) in other.totals {
            self.add(key, value);
        }
    }
}

/// Map `f` over `items` in the shape `census()` and `run_many` fan out
/// with: contiguous chunks, one scoped thread per available core, outputs
/// in input order. The call's layer time is its busiest thread's.
pub fn fan_out<T: Sync, O: Send>(
    items: &[T],
    trace: &mut Trace,
    f: impl Fn(&T, &mut Trace) -> O + Sync,
) -> Vec<O> {
    let chunk_len = items.len().div_ceil(threads().min(items.len()).max(1));
    let f = &f;
    let parts: Vec<(Vec<O>, Trace)> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len.max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    let mut local = Trace::default();
                    let out = chunk.iter().map(|item| f(item, &mut local)).collect();
                    (out, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced worker thread panicked"))
            .collect()
    });
    let mut busiest = 0.0f64;
    let mut outs = Vec::with_capacity(items.len());
    for (out, local) in parts {
        busiest = busiest.max(local.call_layer_ns);
        outs.extend(out);
        trace.merge(local);
    }
    trace.call_layer_ns += busiest;
    outs
}

/// Executor phases, as `ExecSegment::kind` spells them, with their keys.
const SEGMENTS: [(&str, &str); 5] = [
    ("compute", "mmm.compute"),
    ("send", "mmm.send"),
    ("recv-wait", "mmm.recv_wait"),
    ("blocked", "mmm.blocked"),
    ("checkpoint", "mmm.checkpoint"),
];
const WORKERS: [&str; 3] = ["P", "R", "S"];

/// Sums `ExecSegment` nanos per worker and phase.
#[derive(Default)]
struct SegmentSink {
    nanos: Mutex<[[u64; SEGMENTS.len()]; WORKERS.len()]>,
}

impl Sink for SegmentSink {
    fn on_event(&self, record: &EventRecord) {
        if let EventKind::ExecSegment {
            worker,
            kind,
            start_nanos,
            end_nanos,
            ..
        } = &record.event
        {
            let w = WORKERS.iter().position(|p| p == worker);
            let k = SEGMENTS.iter().position(|(s, _)| s == kind);
            if let (Some(w), Some(k)) = (w, k) {
                // One addition per event: the array is valid after any panic.
                self.nanos.lock().unwrap_or_else(PoisonError::into_inner)[w][k] +=
                    end_nanos.saturating_sub(*start_nanos);
            }
        }
    }
}

/// Run one executor call with a segment sink installed. Records each
/// phase summed over workers (ms per op); the call's layer time is its
/// busiest worker's attributed time.
pub fn with_segments<T>(trace: &mut Trace, f: impl FnOnce() -> T) -> T {
    let sink = Arc::new(SegmentSink::default());
    obs::resume_sinks();
    let id = obs::install_sink(sink.clone());
    let out = f();
    obs::uninstall_sink(id);
    obs::suspend_sinks();
    let nanos = *sink.nanos.lock().unwrap_or_else(PoisonError::into_inner);
    for (k, (_, key)) in SEGMENTS.iter().enumerate() {
        let sum: u64 = nanos.iter().map(|w| w[k]).sum();
        trace.sample(key, sum as f64 / 1e6);
    }
    let busiest = nanos.iter().map(|w| w.iter().sum::<u64>()).max();
    trace.call_layer_ns += busiest.unwrap_or(0) as f64;
    out
}

/// The per-layer metrics of a finished traced run.
pub fn per_layer(trace: &Trace) -> Metrics {
    let mut m = Metrics::new(&PER_LAYER);
    let p50 = |key: &str| quantile(trace.samples(key), 0.5);
    let sum = |key: &str| trace.samples(key).iter().sum::<f64>();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let ops = trace.total("bench.ops");

    m.set("push.dfa_run_ms_p50", p50("push.dfa_run"));
    m.set(
        "push.dfa_run_ms_p90",
        quantile(trace.samples("push.dfa_run"), 0.9),
    );
    m.set(
        "push.us_per_step",
        ratio(sum("push.dfa_run") * 1e3, trace.total("push.steps")),
    );
    m.set("push.steps_per_run", ratio(trace.total("push.steps"), ops));
    let evals = trace.total("push.probe_evals");
    m.set("push.probe_evals_per_run", ratio(evals, ops));
    let hits = trace.total("push.probe_hits");
    m.set("push.probe_hit_rate", ratio(hits, hits + evals));
    m.set("push.beautify_ms_p50", p50("push.beautify"));
    m.set(
        "partition.random_start_ms_p50",
        p50("partition.random_start"),
    );
    m.set(
        "partition.popcount_words_per_op",
        ratio(trace.total("grid.popcount_words"), ops),
    );
    m.set(
        "partition.shrink_word_scans_per_op",
        ratio(trace.total("grid.shrink_word_scans"), ops),
    );
    m.set("shapes.classify_ms_p50", p50("shapes.classify"));
    m.set("shapes.construct_ms_p50", p50("shapes.construct"));
    m.set("cost.evaluate_ms_p50", p50("cost.evaluate"));
    m.set("sim.simulate_ms_p50", p50("sim.simulate"));
    m.set("nproc.run_ms_p50", p50("nproc.run"));
    m.set(
        "nproc.us_per_step",
        ratio(sum("nproc.run") * 1e3, trace.total("nproc.steps")),
    );
    m.set(
        "nproc.steps_per_run",
        ratio(trace.total("nproc.steps"), ops),
    );
    m.set(
        "core.cpu_util",
        ratio(trace.total("core.cpu_s"), trace.total("core.core_s")),
    );

    let kernel_ms = p50("mmm.kernel");
    m.set("mmm.kernel_ms", kernel_ms);
    m.set(
        "mmm.kernel_gflops",
        ratio(trace.total("mmm.kernel_flops"), kernel_ms * 1e6),
    );
    m.set("mmm.exec_overhead_x", ratio(p50("op.untraced"), kernel_ms));
    for (_, key) in SEGMENTS {
        let name = format!("{key}_ms");
        m.set(&name, p50(key));
    }
    m.set(
        "mmm.elems_sent_per_op",
        ratio(trace.total("mmm.elems_sent"), ops),
    );
    m.set(
        "mmm.messages_per_op",
        ratio(trace.total("mmm.messages"), ops),
    );
    m.set(
        "mmm.checkpoints_per_op",
        ratio(trace.total("mmm.checkpoints"), ops),
    );
    m.set(
        "mmm.replayed_steps_per_op",
        ratio(trace.total("mmm.replayed_steps"), ops),
    );

    m.set(
        "bench.layer_coverage",
        ratio(
            trace.total("bench.covered_ns"),
            trace.total("bench.traced_ns"),
        ),
    );
    m.set(
        "bench.trace_overhead_frac",
        ratio(p50("op.traced"), p50("op.untraced")) - 1.0,
    );
    m
}
