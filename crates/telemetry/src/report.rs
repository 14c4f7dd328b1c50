//! Human-readable rendering: span tree + metrics table.

use crate::{Histogram, SpanId, SpanRecord, TraceData};
use std::fmt::Write as _;

fn human_bytes(b: u64) -> String {
    const KIB: u64 = 1 << 10;
    const MIB: u64 = 1 << 20;
    const GIB: u64 = 1 << 30;
    if b >= GIB {
        format!("{:.2} GiB", b as f64 / GIB as f64)
    } else if b >= MIB {
        format!("{:.2} MiB", b as f64 / MIB as f64)
    } else if b >= KIB {
        format!("{:.2} KiB", b as f64 / KIB as f64)
    } else {
        format!("{b} B")
    }
}

fn write_span(
    out: &mut String,
    trace: &TraceData,
    span: &SpanRecord,
    depth: usize,
    max_children: usize,
) {
    let mut line = format!(
        "{:indent$}{}  wall {:.3} ms",
        "",
        span.name,
        span.dur_us as f64 / 1e3,
        indent = depth * 2
    );
    if span.sim_secs > 0.0 {
        let _ = write!(line, "  sim {:.3} s", span.sim_secs);
    }
    if span.peak_bytes > 0 {
        let _ = write!(line, "  peak {}", human_bytes(span.peak_bytes));
    }
    out.push_str(&line);
    out.push('\n');
    let children = trace.children(span.id);
    for (i, c) in children.iter().enumerate() {
        if i == max_children && children.len() > max_children + 1 {
            let rest = &children[i..];
            let sim: f64 = rest.iter().map(|s| s.sim_secs).sum();
            let wall: u64 = rest.iter().map(|s| s.dur_us).sum();
            let _ = writeln!(
                out,
                "{:indent$}… {} more spans  wall {:.3} ms  sim {:.3} s",
                "",
                rest.len(),
                wall as f64 / 1e3,
                sim,
                indent = (depth + 1) * 2
            );
            break;
        }
        write_span(out, trace, c, depth + 1, max_children);
    }
}

/// Renders the span tree (eliding beyond `max_children` children per
/// span) followed by the metrics table.
pub fn render_text(trace: &TraceData, max_children: usize) -> String {
    let mut out = String::new();
    out.push_str("== span tree ==\n");
    if trace.spans.is_empty() {
        out.push_str("(no spans recorded)\n");
    }
    for root in trace.roots() {
        write_span(&mut out, trace, root, 0, max_children);
    }

    if !trace.metrics.counters.is_empty() {
        out.push_str("\n== counters ==\n");
        let width = trace
            .metrics
            .counters
            .keys()
            .map(|k| k.len())
            .max()
            .unwrap_or(0);
        for (name, v) in &trace.metrics.counters {
            let _ = writeln!(out, "{name:<width$}  {v}");
        }
    }
    if !trace.metrics.gauges.is_empty() {
        out.push_str("\n== gauges ==\n");
        let width = trace
            .metrics
            .gauges
            .keys()
            .map(|k| k.len())
            .max()
            .unwrap_or(0);
        for (name, v) in &trace.metrics.gauges {
            let _ = writeln!(out, "{name:<width$}  {v:.3}");
        }
    }
    if !trace.metrics.histograms.is_empty() {
        out.push_str("\n== histograms ==\n");
        for (name, h) in &trace.metrics.histograms {
            let _ = writeln!(
                out,
                "{name}: n={} mean={:.4} min={:.4} max={:.4}",
                h.count(),
                h.mean(),
                h.min().unwrap_or(0.0),
                h.max().unwrap_or(0.0),
            );
            out.push_str(&sparkline(h));
        }
    }
    out
}

/// A one-line bucket sparkline for non-empty histogram ranges.
fn sparkline(h: &Histogram) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let buckets = h.buckets();
    let Some(first) = buckets.iter().position(|&c| c > 0) else {
        return String::new();
    };
    let last = buckets.iter().rposition(|&c| c > 0).unwrap_or(first);
    let max = buckets[first..=last].iter().copied().max().unwrap_or(1);
    let mut line = String::from("  [");
    for &c in &buckets[first..=last] {
        if c == 0 {
            line.push(' ');
        } else {
            let g = ((c as f64 / max as f64) * (GLYPHS.len() - 1) as f64).round() as usize;
            line.push(GLYPHS[g]);
        }
    }
    let _ = writeln!(
        line,
        "]  bounds ≤{:.3} … ≤{}",
        Histogram::bucket_bound(first),
        if Histogram::bucket_bound(last).is_infinite() {
            "inf".to_string()
        } else {
            format!("{:.3}", Histogram::bucket_bound(last))
        }
    );
    line
}

/// Sums `sim_secs` over a span and all its descendants.
pub fn subtree_sim_secs(trace: &TraceData, id: SpanId) -> f64 {
    let span_sim = trace
        .spans
        .iter()
        .find(|s| s.id == id)
        .map(|s| s.sim_secs)
        .unwrap_or(0.0);
    span_sim
        + trace
            .children(id)
            .iter()
            .map(|c| subtree_sim_secs(trace, c.id))
            .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    #[test]
    fn renders_tree_and_metrics() {
        let tel = Telemetry::enabled();
        {
            let mut p = tel.span("phase1");
            p.set_sim_secs(2.0);
            p.set_peak_bytes(3 << 30);
            tel.emit_span("action:a", p.id(), 1.0, 1 << 20);
        }
        tel.counter_add("cache.hits", 12);
        tel.gauge_max("peak", 5.0);
        tel.observe("gain", 3.0);
        let text = render_text(&tel.drain(), 16);
        assert!(text.contains("phase1"));
        assert!(text.contains("action:a"));
        assert!(text.contains("sim 2.000 s"));
        assert!(text.contains("3.00 GiB"));
        assert!(text.contains("cache.hits"));
        assert!(text.contains("gain: n=1"));
    }

    #[test]
    fn elides_long_child_lists() {
        let tel = Telemetry::enabled();
        {
            let p = tel.span("phase");
            for i in 0..40 {
                tel.emit_span(format!("action:{i}"), p.id(), 0.1, 0);
            }
        }
        let text = render_text(&tel.drain(), 4);
        assert!(text.contains("… 36 more spans"));
        assert!(!text.contains("action:39"));
    }

    #[test]
    fn subtree_sim_sums_descendants() {
        let tel = Telemetry::enabled();
        let pid = {
            let mut p = tel.span("p");
            p.set_sim_secs(1.0);
            let id = p.id();
            tel.emit_span("c1", id, 2.0, 0);
            tel.emit_span("c2", id, 3.0, 0);
            id.unwrap()
        };
        let trace = tel.drain();
        assert!((subtree_sim_secs(&trace, pid) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(12), "12 B");
        assert_eq!(human_bytes(2048), "2.00 KiB");
        assert_eq!(human_bytes(12 << 30), "12.00 GiB");
    }

    #[test]
    fn empty_trace_renders() {
        let text = render_text(&Telemetry::enabled().drain(), 16);
        assert!(text.contains("(no spans recorded)"));
    }
}
