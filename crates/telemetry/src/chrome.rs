//! Chrome Trace Event Format exporter.
//!
//! Produces the JSON object form (`{"traceEvents": [...]}`) loadable
//! in `chrome://tracing` and [Perfetto](https://ui.perfetto.dev):
//! every span becomes a complete (`"ph": "X"`) event with its wall
//! duration, and simulated time / peak bytes / span ids ride along in
//! `args`; every counter and gauge becomes a counter (`"ph": "C"`)
//! event so they plot as tracks.
//!
//! Every event is one [`crate::json`] object written compactly, one
//! event per line.

use crate::json::{obj, JsonValue};
use crate::timeseries::TimeSeries;
use crate::{SpanRecord, TraceData};

/// Lane offset for worker-pool spans: worker `w` renders on tid
/// `WORKER_LANE_BASE + w`, separating pool lanes from plain thread
/// lanes even when the OS reuses threads across phases.
const WORKER_LANE_BASE: u64 = 1000;

/// Worker-id offset reserving a tid band for service *tenant* lanes.
/// The relink service stamps tenant `t`'s spans with worker id
/// `TENANT_LANE_BASE + t`, so tenant lanes land on tids starting at
/// `WORKER_LANE_BASE + TENANT_LANE_BASE` — disjoint from buildsys
/// worker lanes (`WORKER_LANE_BASE + w`) for any pool below a million
/// workers, where the two bands used to collide (tenant `t` rendered
/// on the same tid as worker `t + 1`). Lane metadata names ids in this
/// band "tenant N" instead of "worker N".
pub const TENANT_LANE_BASE: u64 = 1_000_000;

/// Human name for a worker-id lane: tenant ids (at or past
/// [`TENANT_LANE_BASE`]) are named after their tenant, pool workers
/// after their slot.
fn lane_name(w: u64) -> String {
    if w >= TENANT_LANE_BASE {
        format!("tenant {}", w - TENANT_LANE_BASE)
    } else {
        format!("worker {w}")
    }
}

fn span_event(s: &SpanRecord) -> JsonValue {
    let args = obj([
        ("span_id", s.id.0.into()),
        ("parent_id", s.parent.map(|p| p.0).into()),
        ("sim_secs", s.sim_secs.into()),
        ("peak_bytes", s.peak_bytes.into()),
        ("worker", s.worker.into()),
    ]);
    obj([
        ("name", s.name.as_str().into()),
        ("cat", if s.dur_us == 0 { "action" } else { "span" }.into()),
        ("ph", "X".into()),
        ("ts", s.start_us.into()),
        // chrome://tracing hides true zero-width events; give modeled
        // actions a 1us sliver so they stay visible.
        ("dur", s.dur_us.max(1).into()),
        ("pid", 1u32.into()),
        ("tid", s.worker.map_or(s.thread, |w| WORKER_LANE_BASE + w).into()),
        ("args", args),
    ])
}

/// A counter (`"ph": "C"`) event: `name` reads `value` at `ts`.
fn counter_event(name: &str, ts: u64, value: JsonValue) -> JsonValue {
    obj([
        ("name", name.into()),
        ("ph", "C".into()),
        ("ts", ts.into()),
        ("pid", 1u32.into()),
        ("args", obj([("value", value)])),
    ])
}

/// A metadata (`"ph": "M"`) event naming the process, or lane `tid`.
fn name_event(what: &str, tid: Option<u64>, name: &str) -> JsonValue {
    obj([("name", what.into()), ("ph", "M".into()), ("pid", 1u32.into())])
        .with("tid", tid.map(Into::into))
        .with("args", Some(obj([("name", name.into())])))
}

/// Renders a drained trace as a Chrome Trace Event Format JSON
/// document.
pub fn to_chrome_trace(trace: &TraceData) -> String {
    render_trace(trace_events(trace))
}

/// Renders a drained trace plus a modeled-clock [`TimeSeries`]: every
/// series point becomes a counter (`"ph": "C"`) event at its
/// sim-microsecond timestamp, so queue depths, slot occupancy and
/// rejection totals plot as tracks alongside the span lanes. Point
/// order is the series' canonical order, so the document is
/// byte-stable for byte-stable inputs.
pub fn to_chrome_trace_with_series(trace: &TraceData, series: &TimeSeries) -> String {
    let mut events = trace_events(trace);
    for (name, s) in series.iter() {
        events.extend(s.ordered().iter().map(|p| counter_event(name, p.t_us, p.value.into())));
    }
    render_trace(events)
}

fn render_trace(events: Vec<JsonValue>) -> String {
    let lines: Vec<String> = events.iter().map(JsonValue::to_string_compact).collect();
    format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n", lines.join(",\n"))
}

fn trace_events(trace: &TraceData) -> Vec<JsonValue> {
    let mut events = Vec::with_capacity(trace.spans.len() + 8);
    events.push(name_event("process_name", None, "propeller"));
    let mut workers: Vec<u64> = trace.spans.iter().filter_map(|s| s.worker).collect();
    workers.sort_unstable();
    workers.dedup();
    for w in workers {
        events.push(name_event("thread_name", Some(WORKER_LANE_BASE + w), &lane_name(w)));
    }
    events.extend(trace.spans.iter().map(span_event));
    let ts = trace.spans.iter().map(|s| s.start_us + s.dur_us).max().unwrap_or(0);
    for (name, v) in &trace.metrics.counters {
        events.push(counter_event(name, ts, v.into()));
    }
    for (name, v) in &trace.metrics.gauges {
        events.push(counter_event(name, ts, v.into()));
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    #[test]
    fn exports_valid_json_with_all_event_kinds() {
        let tel = Telemetry::enabled();
        {
            let mut phase = tel.span("phase \"1\"\nweird\tname");
            phase.set_sim_secs(1.25);
            phase.set_peak_bytes(4096);
            tel.emit_span("action:compile", phase.id(), 0.5, 64 << 20);
        }
        tel.counter_add("cache.hits", 3);
        tel.gauge_max("rss", 1.5e9);
        let json = to_chrome_trace(&tel.drain());
        JsonValue::parse(&json).expect("valid JSON");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("action:compile"));
        assert!(json.contains("cache.hits"));
        assert!(json.contains("\\\"1\\\""));
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = to_chrome_trace(&Telemetry::enabled().drain());
        JsonValue::parse(&json).expect("valid JSON");
    }

    /// Regression test for the tenant/worker lane collision: serve
    /// used to stamp tenant `t` as worker `t + 1`, so tenant 1 and
    /// pool worker 2 rendered on the same tid. Tenant lanes now live
    /// in their own tid band and carry "tenant N" metadata.
    #[test]
    fn tenant_lanes_do_not_collide_with_worker_lanes() {
        let tel = Telemetry::enabled();
        tel.with_worker(2, || {
            let _s = tel.span("pool work");
        });
        tel.with_worker(TENANT_LANE_BASE + 1, || {
            let _s = tel.span("tenant job");
        });
        let json = to_chrome_trace(&tel.drain());
        JsonValue::parse(&json).expect("valid JSON");
        assert!(json.contains("\"name\":\"worker 2\""));
        assert!(json.contains("\"name\":\"tenant 1\""));
        // Worker 2 keeps its historical tid; tenant 1 must NOT share
        // it (the pre-fix behaviour), landing in the tenant band.
        assert!(json.contains("\"tid\":1002"));
        assert!(json.contains(&format!("\"tid\":{}", WORKER_LANE_BASE + TENANT_LANE_BASE + 1)));
        let tenant_on_worker_lane = json
            .match_indices("\"tid\":1002")
            .count();
        assert_eq!(tenant_on_worker_lane, 2, "worker 2's lane: metadata + its one span");
    }

    #[test]
    fn series_points_export_as_counter_events() {
        use crate::timeseries::TimeSeries;
        let tel = Telemetry::enabled();
        {
            let _s = tel.span("run");
        }
        let mut ts = TimeSeries::new();
        ts.gauge("queue_depth.t0", 1_500_000, 3.0);
        ts.counter_add("rejected.t0", 2_000_000, 1.0);
        let json = to_chrome_trace_with_series(&tel.drain(), &ts);
        JsonValue::parse(&json).expect("valid JSON");
        assert!(json.contains("\"name\":\"queue_depth.t0\",\"ph\":\"C\",\"ts\":1500000"));
        assert!(json.contains("\"name\":\"rejected.t0\",\"ph\":\"C\",\"ts\":2000000"));
        // Byte-stable for identical inputs.
        let again = to_chrome_trace_with_series(&Telemetry::enabled().drain(), &ts);
        let counters: Vec<&str> =
            json.lines().filter(|l| l.contains("\"ph\":\"C\"")).collect();
        let counters2: Vec<&str> =
            again.lines().filter(|l| l.contains("\"ph\":\"C\"")).collect();
        assert_eq!(counters, counters2);
    }

    #[test]
    fn worker_spans_land_on_named_lanes() {
        let tel = Telemetry::enabled();
        tel.with_worker(2, || {
            let _s = tel.span("pooled work");
        });
        let json = to_chrome_trace(&tel.drain());
        JsonValue::parse(&json).expect("valid JSON");
        assert!(json.contains("\"tid\":1002"));
        assert!(json.contains("worker 2"));
        assert!(json.contains("\"worker\":2"));
    }

    /// The document for a hand-made trace, byte for byte: member order
    /// and number formatting are what `trace.json` consumers and the
    /// CI artifact diff see.
    #[test]
    fn document_bytes_are_pinned() {
        use crate::span::SpanId;
        let span = |id, parent, name: &str, dur_us, sim_secs, worker| SpanRecord {
            id: SpanId(id),
            parent,
            name: name.to_string(),
            thread: 3,
            start_us: 10 * id,
            dur_us,
            sim_secs,
            peak_bytes: 36 << 30,
            worker,
        };
        let mut trace = TraceData {
            spans: vec![
                span(1, None, "phase \"2\"", 250, 1.5, None),
                span(2, Some(SpanId(1)), "action:link app.pm", 0, 0.1 + 0.2, Some(1)),
            ],
            ..TraceData::default()
        };
        trace.metrics.counters.insert("cache.obj.hits".into(), 40);
        trace.metrics.gauges.insert("faults.retry_backoff_secs".into(), 2.25);
        let mut series = TimeSeries::new();
        series.gauge("queue_depth.t0", 1_500_000, 3.0);
        assert_eq!(
            to_chrome_trace_with_series(&trace, &series),
            concat!(
                "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n",
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"propeller\"}},\n",
                "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1001,\"args\":{\"name\":\"worker 1\"}},\n",
                "{\"name\":\"phase \\\"2\\\"\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":10,\"dur\":250,\"pid\":1,\"tid\":3,\
                 \"args\":{\"span_id\":1,\"parent_id\":null,\"sim_secs\":1.5,\"peak_bytes\":38654705664,\"worker\":null}},\n",
                "{\"name\":\"action:link app.pm\",\"cat\":\"action\",\"ph\":\"X\",\"ts\":20,\"dur\":1,\"pid\":1,\"tid\":1001,\
                 \"args\":{\"span_id\":2,\"parent_id\":1,\"sim_secs\":0.30000000000000004,\"peak_bytes\":38654705664,\"worker\":1}},\n",
                "{\"name\":\"cache.obj.hits\",\"ph\":\"C\",\"ts\":260,\"pid\":1,\"args\":{\"value\":40}},\n",
                "{\"name\":\"faults.retry_backoff_secs\",\"ph\":\"C\",\"ts\":260,\"pid\":1,\"args\":{\"value\":2.25}},\n",
                "{\"name\":\"queue_depth.t0\",\"ph\":\"C\",\"ts\":1500000,\"pid\":1,\"args\":{\"value\":3}}\n",
                "]}\n",
            )
        );
    }
}
