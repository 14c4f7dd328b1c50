//! # Structured tracing and metrics for the Propeller pipeline
//!
//! Every headline claim of the paper is an observability artifact:
//! Table 5's phase times, Fig. 4/5's peak-RSS curves, Fig. 9's
//! optimization run time. This crate is the single instrumentation
//! source those numbers flow through:
//!
//! * nested **spans** ([`Span`]) carrying real wall time, cost-model
//!   *simulated* time, and peak bytes (the modeled memory of the
//!   structures a stage builds, or an action's declared peak RSS),
//!   collected into per-thread shards and merged when the trace is
//!   drained;
//! * a **metrics registry**: named monotonic counters, gauges, and
//!   fixed-bucket histograms whose merge is associative (so shard
//!   merging is order-independent);
//! * **exporters**: [`chrome::to_chrome_trace`] writes Chrome Trace
//!   Event Format JSON loadable in `chrome://tracing` / Perfetto, and
//!   [`report::render_text`] prints a human-readable span tree plus
//!   metrics table.
//!
//! The [`Telemetry`] handle is explicit — there are no globals. A
//! `Telemetry::default()` (or [`Telemetry::disabled`]) handle is
//! inert: every call on it is a branch on an `Option` and returns
//! immediately, so un-instrumented runs pay nothing measurable.
//!
//! ```
//! use propeller_telemetry::Telemetry;
//!
//! let tel = Telemetry::enabled();
//! {
//!     let mut phase = tel.span("phase1.compile");
//!     phase.set_sim_secs(12.5);
//!     let _child = tel.span("action:compile m0"); // nests under phase1
//! }
//! tel.counter_add("cache.obj.hits", 9);
//! let trace = tel.drain();
//! assert_eq!(trace.roots().len(), 1);
//! assert_eq!(trace.children(trace.roots()[0].id).len(), 1);
//! assert_eq!(trace.metrics.counters["cache.obj.hits"], 9);
//! ```

mod metrics;
mod span;

pub mod chrome;
pub mod json;
pub mod report;
pub mod timeseries;

pub use chrome::TENANT_LANE_BASE;
pub use json::{JsonError, JsonValue, Reader, SchemaError};
pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot, HISTOGRAM_BUCKETS};
pub use span::{Span, SpanId, SpanRecord};
pub use timeseries::{Point, Series, SeriesKind, TimeSeries};

use parking_lot::Mutex;
use span::{current_parent, current_worker, pop_current, push_current, set_current_worker};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of shards span records and metrics are scattered over; spans
/// recorded by different threads usually land in different shards, so
/// the hot path takes an uncontended lock.
const SHARDS: usize = 16;

struct Shard {
    spans: Mutex<Vec<SpanRecord>>,
    metrics: Mutex<MetricsRegistry>,
}

pub(crate) struct Inner {
    epoch: Instant,
    next_id: AtomicU64,
    shards: Vec<Shard>,
    /// Dense thread ids for the trace output, assigned on first use.
    threads: Mutex<HashMap<std::thread::ThreadId, u64>>,
}

impl Inner {
    fn new() -> Self {
        Inner {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            shards: (0..SHARDS)
                .map(|_| Shard {
                    spans: Mutex::new(Vec::new()),
                    metrics: Mutex::new(MetricsRegistry::default()),
                })
                .collect(),
            threads: Mutex::new(HashMap::new()),
        }
    }

    pub(crate) fn micros_since_epoch(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn thread_index(&self) -> u64 {
        let mut map = self.threads.lock();
        let next = map.len() as u64;
        *map.entry(std::thread::current().id()).or_insert(next)
    }

    fn shard(&self) -> &Shard {
        // Shard by thread so concurrent recorders rarely collide.
        let mut h = std::hash::DefaultHasher::new();
        std::hash::Hash::hash(&std::thread::current().id(), &mut h);
        let idx = std::hash::Hasher::finish(&h) as usize % SHARDS;
        &self.shards[idx]
    }

    pub(crate) fn record(&self, rec: SpanRecord) {
        self.shard().spans.lock().push(rec);
    }
}

/// The explicit tracing + metrics handle threaded through the
/// pipeline. Cheap to clone (an `Arc` inside); a default handle is
/// disabled and records nothing.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// An active handle that collects spans and metrics.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner::new())),
        }
    }

    /// An inert handle (same as `Telemetry::default()`): every
    /// recording call returns after one branch.
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span named `name`, nested under the innermost open span
    /// this thread created through the same handle (or a root span if
    /// there is none). The span closes — and its wall time is recorded
    /// — when the returned guard drops.
    pub fn span(&self, name: impl Into<Cow<'static, str>>) -> Span {
        let parent = self.inner.as_deref().and_then(current_parent);
        self.span_impl(name.into(), parent)
    }

    /// Opens a span under an explicit parent, for work handed to other
    /// threads (worker-pool actions whose logical parent is the phase
    /// span on the dispatching thread). `parent: None` opens a root
    /// span.
    pub fn span_under(&self, name: impl Into<Cow<'static, str>>, parent: Option<SpanId>) -> Span {
        self.span_impl(name.into(), parent)
    }

    fn span_impl(&self, name: Cow<'static, str>, parent: Option<SpanId>) -> Span {
        let Some(inner) = &self.inner else {
            return Span::inert();
        };
        let id = SpanId(inner.next_id.fetch_add(1, Ordering::Relaxed));
        push_current(inner, id);
        Span::live(
            inner.clone(),
            id,
            parent,
            name,
            inner.micros_since_epoch(),
            inner.thread_index(),
        )
    }

    /// Records a zero-wall-duration span carrying only simulated time
    /// and peak bytes — the shape of a *modeled* distributed build
    /// action, which consumes no local wall clock but has cost-model
    /// time and a declared peak RSS.
    pub fn emit_span(
        &self,
        name: impl Into<Cow<'static, str>>,
        parent: Option<SpanId>,
        sim_secs: f64,
        peak_bytes: u64,
    ) -> Option<SpanId> {
        let inner = self.inner.as_deref()?;
        let id = SpanId(inner.next_id.fetch_add(1, Ordering::Relaxed));
        inner.record(SpanRecord {
            id,
            parent,
            name: name.into().into_owned(),
            thread: inner.thread_index(),
            start_us: inner.micros_since_epoch(),
            dur_us: 0,
            sim_secs,
            peak_bytes,
            worker: current_worker(),
        });
        Some(id)
    }

    /// Runs `f` with this thread's worker-pool lane set to `worker`:
    /// every span recorded inside (via any handle) carries the lane id,
    /// so Chrome traces show which pool slot did the work. The previous
    /// lane (usually none) is restored on exit. Works on disabled
    /// handles too — the stamp is thread-local, not handle state.
    pub fn with_worker<R>(&self, worker: u64, f: impl FnOnce() -> R) -> R {
        let prev = set_current_worker(Some(worker));
        let r = f();
        set_current_worker(prev);
        r
    }

    /// Adds `n` to the monotonic counter `name`.
    pub fn counter_add(&self, name: &str, n: u64) {
        if let Some(inner) = &self.inner {
            inner.shard().metrics.lock().counter_add(name, n);
        }
    }

    /// Sets the gauge `name` to `v` (last write wins across one shard;
    /// the merged snapshot keeps the largest shard value, so gauges are
    /// best used for high-water marks).
    pub fn gauge_set(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            inner.shard().metrics.lock().gauge_set(name, v);
        }
    }

    /// Raises the gauge `name` to at least `v`.
    pub fn gauge_max(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            inner.shard().metrics.lock().gauge_max(name, v);
        }
    }

    /// Records one observation of `v` into the fixed-bucket histogram
    /// `name`.
    pub fn observe(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            inner.shard().metrics.lock().observe(name, v);
        }
    }

    /// Merges every shard and returns the collected trace. Spans are
    /// sorted by start time (ties by id); open spans are not included —
    /// drain after the work being traced has finished. The handle keeps
    /// recording afterwards; draining does not clear it.
    pub fn drain(&self) -> TraceData {
        let Some(inner) = &self.inner else {
            return TraceData::default();
        };
        let mut spans: Vec<SpanRecord> = Vec::new();
        let mut metrics = MetricsSnapshot::default();
        for shard in &inner.shards {
            spans.extend(shard.spans.lock().iter().cloned());
            metrics.merge(&shard.metrics.lock().snapshot());
        }
        spans.sort_by_key(|s| (s.start_us, s.id.0));
        TraceData { spans, metrics }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(live) = self.take_live() else {
            return;
        };
        pop_current(&live.inner, live.id);
        let end = live.inner.micros_since_epoch();
        live.inner.record(SpanRecord {
            id: live.id,
            parent: live.parent,
            name: live.name.into_owned(),
            thread: live.thread,
            start_us: live.start_us,
            dur_us: end.saturating_sub(live.start_us),
            sim_secs: live.sim_secs,
            peak_bytes: live.peak_bytes,
            worker: live.worker,
        });
    }
}

/// The merged output of one [`Telemetry::drain`]: every closed span
/// plus the merged metrics snapshot.
#[derive(Clone, Debug, Default)]
pub struct TraceData {
    /// All closed spans, sorted by start time.
    pub spans: Vec<SpanRecord>,
    /// Counters, gauges and histograms merged across shards.
    pub metrics: MetricsSnapshot,
}

impl TraceData {
    /// Spans with no parent, in start order.
    pub fn roots(&self) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent.is_none()).collect()
    }

    /// Direct children of `id`, in start order.
    pub fn children(&self, id: SpanId) -> Vec<&SpanRecord> {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .collect()
    }

    /// The first span named `name`, if any.
    pub fn find(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Total simulated seconds across root spans (children are assumed
    /// to be attributed within their parents).
    pub fn total_sim_secs(&self) -> f64 {
        self.roots().iter().map(|s| s.sim_secs).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let tel = Telemetry::disabled();
        {
            let mut s = tel.span("x");
            s.set_sim_secs(1.0);
            assert_eq!(s.id(), None);
        }
        tel.counter_add("c", 5);
        tel.observe("h", 2.0);
        let t = tel.drain();
        assert!(t.spans.is_empty());
        assert!(t.metrics.counters.is_empty());
        assert!(!tel.is_enabled());
    }

    #[test]
    fn spans_nest_by_thread_stack() {
        let tel = Telemetry::enabled();
        {
            let _a = tel.span("a");
            {
                let _b = tel.span("b");
                let _c = tel.span("c");
            }
            let _d = tel.span("d");
        }
        let t = tel.drain();
        assert_eq!(t.spans.len(), 4);
        let a = t.find("a").unwrap();
        let b = t.find("b").unwrap();
        let c = t.find("c").unwrap();
        let d = t.find("d").unwrap();
        assert_eq!(a.parent, None);
        assert_eq!(b.parent, Some(a.id));
        assert_eq!(c.parent, Some(b.id));
        assert_eq!(d.parent, Some(a.id));
        assert_eq!(t.roots().len(), 1);
        assert_eq!(t.children(a.id).len(), 2);
    }

    #[test]
    fn emit_span_attaches_to_explicit_parent() {
        let tel = Telemetry::enabled();
        let parent_id = {
            let p = tel.span("phase");
            let pid = p.id().unwrap();
            tel.emit_span("action:x", Some(pid), 3.5, 1024);
            pid
        };
        let t = tel.drain();
        let kids = t.children(parent_id);
        assert_eq!(kids.len(), 1);
        assert_eq!(kids[0].name, "action:x");
        assert_eq!(kids[0].dur_us, 0);
        assert!((kids[0].sim_secs - 3.5).abs() < 1e-12);
        assert_eq!(kids[0].peak_bytes, 1024);
    }

    #[test]
    fn cross_thread_spans_with_explicit_parent() {
        let tel = Telemetry::enabled();
        let mut phase = tel.span("phase");
        phase.set_peak_bytes(7);
        let pid = phase.id();
        std::thread::scope(|s| {
            for i in 0..4 {
                let tel = tel.clone();
                s.spawn(move || {
                    let _w = tel.span_under(format!("worker {i}"), pid);
                });
            }
        });
        drop(phase);
        let t = tel.drain();
        assert_eq!(t.children(pid.unwrap()).len(), 4);
        assert_eq!(t.find("phase").unwrap().peak_bytes, 7);
    }

    #[test]
    fn metrics_merge_across_threads() {
        let tel = Telemetry::enabled();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let tel = tel.clone();
                s.spawn(move || {
                    tel.counter_add("n", 3);
                    tel.observe("h", 4.0);
                    tel.gauge_max("g", 2.0);
                });
            }
        });
        tel.gauge_max("g", 1.0);
        let m = tel.drain().metrics;
        assert_eq!(m.counters["n"], 24);
        assert_eq!(m.histograms["h"].count(), 8);
        assert!((m.gauges["g"] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn with_worker_stamps_spans_and_restores() {
        let tel = Telemetry::enabled();
        tel.with_worker(3, || {
            let _s = tel.span("pooled");
            tel.emit_span("pooled action", None, 1.0, 0);
        });
        let _outside = tel.span("unpooled");
        drop(_outside);
        let t = tel.drain();
        assert_eq!(t.find("pooled").unwrap().worker, Some(3));
        assert_eq!(t.find("pooled action").unwrap().worker, Some(3));
        assert_eq!(t.find("unpooled").unwrap().worker, None);
    }

    #[test]
    fn two_handles_do_not_interfere() {
        let t1 = Telemetry::enabled();
        let t2 = Telemetry::enabled();
        let _a = t1.span("a");
        {
            // b opens on t2 while a is open on t1: b must be a root of
            // t2, not a child of t1's a.
            let _b = t2.span("b");
        }
        drop(_a);
        assert_eq!(t2.drain().find("b").unwrap().parent, None);
        assert_eq!(t1.drain().spans.len(), 1);
    }
}
