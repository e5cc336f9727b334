//! # hetmmm-obs
//!
//! Zero-dependency structured tracing, metrics, and run-manifest layer for
//! the hetmmm workspace.
//!
//! The paper's experimental program (Sections V–VIII) rests on
//! instrumenting ~10,000 DFA runs per speed-ratio configuration and
//! classifying every fixed point; this crate is the reproduction's
//! equivalent: a process-wide facade that the DFA search engine, the
//! threaded executor, and the simulator emit typed events into, plus a
//! metrics registry (push counts, convergence-step histograms, channel
//! wait times, recovery activity) and a [`RunManifest`] artifact written
//! by every experiment binary.
//!
//! ## Cost model
//!
//! With no sink installed, every instrumented call site pays exactly one
//! relaxed atomic load ([`enabled`]) and skips all argument construction;
//! metrics call sites likewise gate on one relaxed load
//! ([`metrics_enabled`]). Hot paths therefore run at pre-instrumentation
//! speed until somebody subscribes.
//!
//! ## Quick start
//!
//! ```
//! use hetmmm_obs as obs;
//! use std::sync::Arc;
//!
//! // Attach a machine-readable sink and run instrumented code.
//! let buf = obs::SharedBuf::new();
//! let id = obs::install_sink(Arc::new(obs::JsonlSink::to_writer(Box::new(buf.clone()))));
//! obs::emit(obs::EventKind::Message { target: "demo".into(), text: "hi".into() });
//! obs::uninstall_sink(id);
//!
//! let line = String::from_utf8(buf.contents()).unwrap();
//! let record: obs::EventRecord = serde_json::from_str(line.trim()).unwrap();
//! assert_eq!(record.v, obs::SCHEMA_VERSION);
//! ```

pub mod clock;
pub mod event;
pub mod manifest;
pub mod metrics;
pub mod sink;

pub use clock::{Clock, FakeClock, MonotonicClock};
pub use event::{EventKind, EventRecord, SCHEMA_VERSION};
pub use manifest::{
    append_manifest, append_manifest_capped, git_rev, RunManifest, MANIFEST_CAP, MANIFEST_VERSION,
};
pub use metrics::{
    Counter, CounterId, Histogram, HistogramId, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use sink::{CollectSink, FmtSink, JsonlSink, NullSink, SharedBuf, Sink, SinkId};

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Fast-path gate: number of installed sinks, forced to 0 while the
/// registry is suspended (see [`suspend_sinks`]) so [`enabled`] stays a
/// single relaxed load.
static SINK_COUNT: AtomicUsize = AtomicUsize::new(0);
/// Cold-path flag consulted only by install/uninstall/resume to decide
/// what to publish into [`SINK_COUNT`].
static SINKS_SUSPENDED: AtomicBool = AtomicBool::new(false);
/// Events emitted through the facade since process start.
static EVENTS_EMITTED: AtomicU64 = AtomicU64::new(0);
/// Span and sink id allocators.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_SINK_ID: AtomicU64 = AtomicU64::new(1);
/// Thread ordinal allocator (see [`thread_ordinal`]).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ORDINAL: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// A small, stable ordinal for the calling thread, assigned on first use.
///
/// Stamped into span events so the profiler can reconstruct per-thread
/// call trees from an interleaved stream. Ordinals are process-local and
/// reflect first-touch order, not spawn order — treat them as opaque keys.
pub fn thread_ordinal() -> u64 {
    THREAD_ORDINAL.with(|t| *t)
}

type SinkRegistry = RwLock<Vec<(SinkId, Arc<dyn Sink>)>>;

fn sink_registry() -> &'static SinkRegistry {
    static SINKS: OnceLock<SinkRegistry> = OnceLock::new();
    SINKS.get_or_init(|| RwLock::new(Vec::new()))
}

fn clock_slot() -> &'static RwLock<Arc<dyn Clock>> {
    static CLOCK: OnceLock<RwLock<Arc<dyn Clock>>> = OnceLock::new();
    CLOCK.get_or_init(|| RwLock::new(Arc::new(MonotonicClock)))
}

/// The process-wide metrics registry.
pub fn metrics() -> &'static MetricsRegistry {
    static METRICS: MetricsRegistry = MetricsRegistry::new();
    &METRICS
}

/// Is metrics recording on? One relaxed atomic load — check this before
/// doing any per-event metric work on a hot path.
#[inline]
pub fn metrics_enabled() -> bool {
    metrics().is_enabled()
}

/// Is at least one sink installed? One relaxed atomic load — check this
/// before constructing event arguments on a hot path.
#[inline]
pub fn enabled() -> bool {
    SINK_COUNT.load(Ordering::Relaxed) > 0
}

/// Fine-grained span gate. `0` = unset (read the environment on first
/// check), `1` = off, `2` = on.
static FINE_SPANS: AtomicUsize = AtomicUsize::new(0);

/// Turn the fine-grained span tier on or off (overrides the environment).
pub fn set_fine_spans(on: bool) {
    FINE_SPANS.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Is the fine-grained span tier on *and* a sink installed?
///
/// The hottest call sites (per-push occupancy scans, per-attempt cleaning,
/// per-call kernel loops) sit behind this second gate so that a default
/// event stream stays at per-run granularity; set `HETMMM_OBS_FINE_SPANS=1`
/// (or call [`set_fine_spans`]) to capture full profiles.
#[inline]
pub fn fine_spans_enabled() -> bool {
    if !enabled() {
        return false;
    }
    match FINE_SPANS.load(Ordering::Relaxed) {
        0 => {
            let on = matches!(
                std::env::var("HETMMM_OBS_FINE_SPANS").as_deref(),
                Ok("1") | Ok("true") | Ok("on")
            );
            FINE_SPANS.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
        2 => true,
        _ => false,
    }
}

/// The installed clock (shared handle).
pub fn clock() -> Arc<dyn Clock> {
    Arc::clone(&clock_slot().read().unwrap_or_else(|p| p.into_inner()))
}

/// Replace the process clock (tests install a [`FakeClock`] for
/// deterministic timestamps and span durations).
pub fn set_clock(clock: Arc<dyn Clock>) {
    *clock_slot().write().unwrap_or_else(|p| p.into_inner()) = clock;
}

/// Restore the default [`MonotonicClock`].
pub fn reset_clock() {
    set_clock(Arc::new(MonotonicClock));
}

/// Publish the effective sink count: the registry length, or 0 while
/// suspended. Callers must hold the registry write lock (or have just
/// released it with `len` still authoritative).
fn publish_sink_count(len: usize) {
    let effective = if SINKS_SUSPENDED.load(Ordering::Relaxed) {
        0
    } else {
        len
    };
    SINK_COUNT.store(effective, Ordering::Relaxed);
}

/// Install a sink; it receives every subsequent event from every thread.
/// Returns a handle for [`uninstall_sink`].
pub fn install_sink(sink: Arc<dyn Sink>) -> SinkId {
    let id = SinkId(NEXT_SINK_ID.fetch_add(1, Ordering::Relaxed));
    let mut sinks = sink_registry().write().unwrap_or_else(|p| p.into_inner());
    sinks.push((id, sink));
    publish_sink_count(sinks.len());
    id
}

/// Temporarily disable delivery to every installed sink *without*
/// uninstalling anything: [`enabled`] flips to `false` (still one relaxed
/// load on the hot path), so instrumented call sites skip argument
/// construction exactly as if no sink were installed.
///
/// This is the disable hook the `obs_overhead` perf-gate workload toggles
/// to A/B the same run with and without instrumentation; it is not meant
/// for steady-state use. Returns whether delivery was previously active.
pub fn suspend_sinks() -> bool {
    let sinks = sink_registry().write().unwrap_or_else(|p| p.into_inner());
    let was = !SINKS_SUSPENDED.swap(true, Ordering::Relaxed);
    publish_sink_count(sinks.len());
    was
}

/// Undo [`suspend_sinks`]: installed sinks receive events again.
pub fn resume_sinks() {
    let sinks = sink_registry().write().unwrap_or_else(|p| p.into_inner());
    SINKS_SUSPENDED.store(false, Ordering::Relaxed);
    publish_sink_count(sinks.len());
}

/// Is delivery currently suspended (see [`suspend_sinks`])?
pub fn sinks_suspended() -> bool {
    SINKS_SUSPENDED.load(Ordering::Relaxed)
}

/// Remove a previously installed sink (flushing it). Returns whether the
/// handle was found.
pub fn uninstall_sink(id: SinkId) -> bool {
    let removed = {
        let mut sinks = sink_registry().write().unwrap_or_else(|p| p.into_inner());
        let before = sinks.len();
        let mut removed_sink = None;
        sinks.retain(|(sid, sink)| {
            if *sid == id {
                removed_sink = Some(Arc::clone(sink));
                false
            } else {
                true
            }
        });
        publish_sink_count(sinks.len());
        debug_assert!(before >= sinks.len());
        removed_sink
    };
    match removed {
        Some(sink) => {
            sink.flush();
            true
        }
        None => false,
    }
}

/// Remove every installed sink (test hygiene).
pub fn uninstall_all_sinks() {
    let drained: Vec<(SinkId, Arc<dyn Sink>)> = {
        let mut sinks = sink_registry().write().unwrap_or_else(|p| p.into_inner());
        let drained = std::mem::take(&mut *sinks);
        SINK_COUNT.store(0, Ordering::Relaxed);
        drained
    };
    for (_, sink) in drained {
        sink.flush();
    }
}

/// Flush every installed sink.
pub fn flush_sinks() {
    for (_, sink) in sink_registry()
        .read()
        .unwrap_or_else(|p| p.into_inner())
        .iter()
    {
        sink.flush();
    }
}

/// Events emitted through the facade since process start.
pub fn events_emitted() -> u64 {
    EVENTS_EMITTED.load(Ordering::Relaxed)
}

/// Emit one event to every installed sink. No-op (after one atomic load)
/// when nothing is installed; callers on hot paths should additionally
/// guard argument construction with [`enabled`].
pub fn emit(kind: EventKind) {
    if !enabled() {
        return;
    }
    let record = EventRecord {
        v: SCHEMA_VERSION,
        ts_nanos: clock().now_nanos(),
        event: kind,
    };
    EVENTS_EMITTED.fetch_add(1, Ordering::Relaxed);
    for (_, sink) in sink_registry()
        .read()
        .unwrap_or_else(|p| p.into_inner())
        .iter()
    {
        sink.on_event(&record);
    }
}

/// Route a line of library output through the facade: emitted as a
/// [`EventKind::Message`] when a sink is installed, silently dropped
/// otherwise. This is the replacement for `println!`/`eprintln!` in
/// non-binary code — libraries are silent by default.
pub fn message(target: &str, text: impl Into<String>) {
    if enabled() {
        emit(EventKind::Message {
            target: target.to_string(),
            text: text.into(),
        });
    }
}

/// Like [`message`], but falls back to standard output when no sink is
/// installed. For output that is the *product* of a binary-adjacent
/// library (e.g. the bench binaries' result tables) and must stay visible
/// without setup.
#[expect(
    clippy::print_stdout,
    reason = "this is the documented stdout fallback itself"
)]
pub fn message_or_stdout(target: &str, text: impl Into<String>) {
    if enabled() {
        message(target, text);
    } else {
        println!("{}", text.into());
    }
}

/// RAII span: emits [`EventKind::SpanStart`] on creation and
/// [`EventKind::SpanEnd`] (with the clock-measured duration) on drop.
/// Inert when no sink was installed at creation time.
#[derive(Debug)]
pub struct SpanGuard {
    id: u64,
    name: &'static str,
    start_nanos: u64,
    tid: u64,
    active: bool,
}

impl SpanGuard {
    /// The span id (0 for an inert guard).
    pub fn id(&self) -> u64 {
        if self.active {
            self.id
        } else {
            0
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.active {
            let nanos = clock().now_nanos().saturating_sub(self.start_nanos);
            emit(EventKind::SpanEnd {
                span: self.id,
                name: self.name.to_string(),
                nanos,
                tid: self.tid,
            });
        }
    }
}

/// Open a span with no argument payload.
pub fn span(name: &'static str) -> SpanGuard {
    span_arg(name, 0)
}

/// Open a span carrying a `u64` payload (seed, pivot step, …).
pub fn span_arg(name: &'static str, arg: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            id: 0,
            name,
            start_nanos: 0,
            tid: 0,
            active: false,
        };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let start_nanos = clock().now_nanos();
    let tid = thread_ordinal();
    emit(EventKind::SpanStart {
        span: id,
        name: name.to_string(),
        arg,
        tid,
    });
    SpanGuard {
        id,
        name,
        start_nanos,
        tid,
        active: true,
    }
}

/// Open a fine-tier span with no payload: inert unless
/// [`fine_spans_enabled`] — use on call sites hot enough that even their
/// event volume (not cost) would swamp a default stream.
pub fn fine_span(name: &'static str) -> SpanGuard {
    fine_span_arg(name, 0)
}

/// Open a fine-tier span carrying a `u64` payload.
pub fn fine_span_arg(name: &'static str, arg: u64) -> SpanGuard {
    if fine_spans_enabled() {
        span_arg(name, arg)
    } else {
        SpanGuard {
            id: 0,
            name,
            start_nanos: 0,
            tid: 0,
            active: false,
        }
    }
}

/// Install sinks from the environment:
///
/// - `HETMMM_OBS_JSONL=<path>` — install a [`JsonlSink`] writing there;
/// - `HETMMM_OBS_FMT=stdout|stderr` — install a [`FmtSink`].
///
/// Enables metrics recording when anything was installed. Returns the
/// installed handles (empty when the environment asks for nothing).
pub fn init_from_env() -> Vec<SinkId> {
    let mut ids = Vec::new();
    if let Ok(path) = std::env::var("HETMMM_OBS_JSONL") {
        if !path.is_empty() {
            match JsonlSink::create(&path) {
                Ok(sink) => ids.push(install_sink(Arc::new(sink))),
                #[expect(
                    clippy::print_stderr,
                    reason = "sink setup failed, so no sink can carry this warning"
                )]
                Err(err) => eprintln!("hetmmm-obs: cannot open {path}: {err}"),
            }
        }
    }
    match std::env::var("HETMMM_OBS_FMT").as_deref() {
        Ok("stdout") => ids.push(install_sink(Arc::new(FmtSink::stdout()))),
        Ok("stderr") => ids.push(install_sink(Arc::new(FmtSink::stderr()))),
        _ => {}
    }
    if !ids.is_empty() {
        metrics().set_enabled(true);
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The facade is process-global; serialize the tests that touch it.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    #[test]
    fn emit_is_noop_without_sinks() {
        let _guard = test_lock();
        uninstall_all_sinks();
        assert!(!enabled());
        let before = events_emitted();
        emit(EventKind::Message {
            target: "t".into(),
            text: "dropped".into(),
        });
        assert_eq!(events_emitted(), before);
    }

    #[test]
    fn install_emit_uninstall_round_trip() {
        let _guard = test_lock();
        uninstall_all_sinks();
        let sink = CollectSink::new();
        let id = install_sink(sink.clone());
        assert!(enabled());
        message("test", "one");
        assert!(uninstall_sink(id));
        assert!(!uninstall_sink(id), "double uninstall is a no-op");
        message("test", "after uninstall — dropped");
        let events = sink.take();
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn spans_pair_and_measure_on_the_fake_clock() {
        let _guard = test_lock();
        uninstall_all_sinks();
        let fake = Arc::new(FakeClock::new());
        set_clock(fake.clone());
        let sink = CollectSink::new();
        let id = install_sink(sink.clone());
        {
            let _span = span_arg("test.span", 42);
            fake.advance(1000);
        }
        uninstall_sink(id);
        reset_clock();
        let events = sink.take();
        assert_eq!(events.len(), 2);
        let (start_id, end_id) = match (&events[0].event, &events[1].event) {
            (
                EventKind::SpanStart { span: s, arg, .. },
                EventKind::SpanEnd { span: e, nanos, .. },
            ) => {
                assert_eq!(*arg, 42);
                assert_eq!(*nanos, 1000);
                (*s, *e)
            }
            other => panic!("unexpected events {other:?}"),
        };
        assert_eq!(start_id, end_id);
    }

    #[test]
    fn suspend_and_resume_gate_delivery_without_uninstalling() {
        let _guard = test_lock();
        uninstall_all_sinks();
        resume_sinks();
        let sink = CollectSink::new();
        let id = install_sink(sink.clone());
        assert!(enabled());

        assert!(suspend_sinks(), "was active before suspension");
        assert!(sinks_suspended());
        assert!(!enabled(), "hot-path gate reads closed while suspended");
        message("test", "dropped while suspended");
        // Installing while suspended must not re-open the gate.
        let id2 = install_sink(CollectSink::new());
        assert!(!enabled());
        assert!(!suspend_sinks(), "double suspend reports already-off");

        resume_sinks();
        assert!(!sinks_suspended());
        assert!(enabled());
        message("test", "delivered after resume");
        uninstall_sink(id);
        uninstall_sink(id2);
        let texts: Vec<String> = sink
            .take()
            .into_iter()
            .filter_map(|r| match r.event {
                EventKind::Message { text, .. } => Some(text),
                _ => None,
            })
            .collect();
        assert_eq!(texts, ["delivered after resume"]);
    }

    #[test]
    fn install_uninstall_race_with_concurrent_emitters() {
        let _guard = test_lock();
        uninstall_all_sinks();
        // Hammer install/uninstall from one set of threads while others
        // emit; the registry must never panic, deadlock, or deliver to a
        // freed sink (Arc makes the latter impossible by construction —
        // this asserts liveness and internal-consistency under contention).
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..200 {
                        let id = install_sink(CollectSink::new());
                        std::hint::spin_loop();
                        assert!(uninstall_sink(id));
                    }
                });
            }
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..500u64 {
                        emit(EventKind::Message {
                            target: "race".into(),
                            text: i.to_string(),
                        });
                    }
                });
            }
        });
        assert!(!enabled(), "all sinks uninstalled after the race");
    }

    #[test]
    fn message_or_stdout_routes_when_sink_installed() {
        let _guard = test_lock();
        uninstall_all_sinks();
        let sink = CollectSink::new();
        let id = install_sink(sink.clone());
        message_or_stdout("t", "captured");
        uninstall_sink(id);
        let events = sink.take();
        assert_eq!(events.len(), 1);
        match &events[0].event {
            EventKind::Message { text, .. } => assert_eq!(text, "captured"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
