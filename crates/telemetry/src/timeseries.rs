//! Deterministic time series on the modeled clock.
//!
//! Every other observability artifact in this repo — ledgers, run
//! reports, provenance documents — is a *summary*: what the run looked
//! like when it finished. This module records what the system looked
//! like *over modeled time*: queue depths at t=3.2 sim-seconds, slot
//! occupancy through a burst, the cumulative rejection count as
//! admission control pushed back. It is the substrate the SLO engine
//! (`propeller_doctor::slo`) evaluates objectives and burn rates over.
//!
//! Determinism is the design constraint, not an afterthought:
//!
//! * points are keyed by **sim-microseconds** (the discrete-event
//!   scheduler's clock), never wall time;
//! * recording order is the scheduler's event order, which is a pure
//!   function of the traffic and the seed — each point also carries a
//!   monotone sequence number so same-instant points serialize in a
//!   stable order even when a recorder stamps future timestamps (a job
//!   publishing at `start + modeled duration`);
//! * serialization is canonical: series in lexicographic name order,
//!   points in `(t_us, seq)` order, floats formatted by the same
//!   writer the JSON artifacts use.
//!
//! A `TimeSeries` recorded by a run at `--jobs 8` is byte-identical to
//! one recorded at `--jobs 1` and to any replay of the same seed — CI
//! `cmp`s the CSVs.

use crate::json::json_f64;
use crate::metrics::Histogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How a series' points are meant to be read.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SeriesKind {
    /// An instantaneous level (queue depth, slots in use): the value
    /// *at* each instant, last-value-carried-forward between points.
    Gauge,
    /// A monotone cumulative total (admissions, rejections): each
    /// point is the running total after an increment.
    Counter,
    /// Individual observations (per-job latency): each point is one
    /// sample, also folded into a log2 [`Histogram`] under the same
    /// name for percentile queries.
    Event,
}

impl SeriesKind {
    /// Stable label used in the CSV serialization.
    pub fn label(self) -> &'static str {
        match self {
            SeriesKind::Gauge => "gauge",
            SeriesKind::Counter => "counter",
            SeriesKind::Event => "event",
        }
    }
}

/// One recorded point: a sim-microsecond timestamp and a value. `seq`
/// is the recorder-global insertion index, the deterministic tie-break
/// for same-instant points.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct Point {
    /// Modeled time in microseconds.
    pub t_us: u64,
    /// Global insertion order (recorded by a deterministic scheduler,
    /// so itself deterministic).
    pub seq: u64,
    /// The recorded value.
    pub value: f64,
}

/// One named series: its kind plus every recorded point.
#[derive(Clone, PartialEq, Debug)]
pub struct Series {
    kind: SeriesKind,
    points: Vec<Point>,
}

impl Series {
    fn new(kind: SeriesKind) -> Self {
        Series {
            kind,
            points: Vec::new(),
        }
    }

    /// The series kind.
    pub fn kind(&self) -> SeriesKind {
        self.kind
    }

    /// Points in canonical `(t_us, seq)` order. Recorders may stamp
    /// future timestamps (publish instants), so insertion order is not
    /// necessarily time order.
    pub fn ordered(&self) -> Vec<Point> {
        let mut pts = self.points.clone();
        pts.sort_by_key(|p| (p.t_us, p.seq));
        pts
    }

    /// Number of recorded points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no point was recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Largest recorded value (`None` when empty).
    pub fn max_value(&self) -> Option<f64> {
        self.points.iter().map(|p| p.value).max_by(f64::total_cmp)
    }

    /// Largest point timestamp (`None` when empty).
    pub fn end_us(&self) -> Option<u64> {
        self.points.iter().map(|p| p.t_us).max()
    }

    /// Points with `from_us <= t_us < to_us`, in canonical order — the
    /// slice a sliding-window burn-rate computation reads.
    pub fn window(&self, from_us: u64, to_us: u64) -> Vec<Point> {
        self.ordered()
            .into_iter()
            .filter(|p| p.t_us >= from_us && p.t_us < to_us)
            .collect()
    }

    /// The fixed-interval sampler: the series resampled onto the grid
    /// `0, interval_us, 2*interval_us, ..` up to and including the
    /// first tick at or past `until_us`, last-value-carried-forward.
    /// Ticks before the first point are omitted (the level does not
    /// exist yet). `interval_us` of 0 is treated as 1.
    pub fn sample(&self, interval_us: u64, until_us: u64) -> Vec<(u64, f64)> {
        let step = interval_us.max(1);
        let pts = self.ordered();
        let mut out = Vec::new();
        let mut idx = 0usize;
        let mut last: Option<f64> = None;
        let mut t = 0u64;
        loop {
            while idx < pts.len() && pts[idx].t_us <= t {
                last = Some(pts[idx].value);
                idx += 1;
            }
            if let Some(v) = last {
                out.push((t, v));
            }
            if t >= until_us {
                break;
            }
            t = t.saturating_add(step);
        }
        out
    }
}

/// The deterministic time-series recorder. See the module docs for the
/// determinism contract.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct TimeSeries {
    series: BTreeMap<String, Series>,
    hists: BTreeMap<String, Histogram>,
    next_seq: u64,
}

impl TimeSeries {
    /// An empty recorder.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    fn push(&mut self, name: &str, kind: SeriesKind, t_us: u64, value: f64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.series
            .entry(name.to_string())
            .or_insert_with(|| Series::new(kind))
            .points
            .push(Point { t_us, seq, value });
    }

    /// Records an instantaneous level at `t_us`.
    pub fn gauge(&mut self, name: &str, t_us: u64, value: f64) {
        self.push(name, SeriesKind::Gauge, t_us, value);
    }

    /// Adds `delta` to the cumulative counter `name` at `t_us` and
    /// records the new running total as a point.
    pub fn counter_add(&mut self, name: &str, t_us: u64, delta: f64) {
        let total = self
            .series
            .get(name)
            .and_then(|s| s.points.last())
            .map_or(0.0, |p| p.value)
            + delta;
        self.push(name, SeriesKind::Counter, t_us, total);
    }

    /// Records one observation at `t_us`: a point in the event series
    /// *and* an observation in the log2 histogram of the same name.
    pub fn event(&mut self, name: &str, t_us: u64, value: f64) {
        self.push(name, SeriesKind::Event, t_us, value);
        self.hists
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// The named series, if any point was recorded under `name`.
    pub fn get(&self, name: &str) -> Option<&Series> {
        self.series.get(name)
    }

    /// The log2 histogram accumulated by [`TimeSeries::event`] calls
    /// under `name`.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// All series in lexicographic name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Series)> {
        self.series.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Series names in lexicographic order.
    pub fn names(&self) -> Vec<&str> {
        self.series.keys().map(String::as_str).collect()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// The latest timestamp across all series (0 when empty).
    pub fn end_us(&self) -> u64 {
        self.series
            .values()
            .filter_map(Series::end_us)
            .max()
            .unwrap_or(0)
    }

    /// The canonical CSV serialization: header, then one row per point
    /// — series in name order, points in `(t_us, seq)` order, values
    /// written by the same float formatter as the JSON artifacts. Two
    /// recorders that observed the same modeled history produce
    /// byte-identical documents; CI `cmp`s them across `--jobs` counts
    /// and replays.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,kind,t_us,value\n");
        for (name, series) in &self.series {
            for p in series.ordered() {
                let _ = writeln!(
                    out,
                    "{},{},{},{}",
                    name,
                    series.kind.label(),
                    p.t_us,
                    json_f64(p.value)
                );
            }
        }
        out
    }

    /// The fixed-interval view as CSV: every gauge and counter series
    /// resampled onto a shared `interval_us` grid (events are raw
    /// observations, not levels, and are excluded). Same canonical
    /// ordering guarantees as [`TimeSeries::to_csv`].
    pub fn sampled_csv(&self, interval_us: u64) -> String {
        let until = self.end_us();
        let mut out = String::from("series,t_us,value\n");
        for (name, series) in &self.series {
            if series.kind == SeriesKind::Event {
                continue;
            }
            for (t, v) in series.sample(interval_us, until) {
                let _ = writeln!(out, "{},{},{}", name, t, json_f64(v));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_is_canonical() {
        let mut ts = TimeSeries::new();
        ts.gauge("z.depth", 5, 2.0);
        ts.counter_add("a.rejected", 10, 1.0);
        ts.counter_add("a.rejected", 30, 2.0);
        ts.event("lat", 20, 1.5);
        // A point stamped in the future, inserted before an earlier
        // one: canonical order must still be by time.
        ts.gauge("z.depth", 50, 0.0);
        ts.gauge("z.depth", 40, 1.0);
        let csv = ts.to_csv();
        assert_eq!(
            csv,
            "series,kind,t_us,value\n\
             a.rejected,counter,10,1\n\
             a.rejected,counter,30,3\n\
             lat,event,20,1.5\n\
             z.depth,gauge,5,2\n\
             z.depth,gauge,40,1\n\
             z.depth,gauge,50,0\n"
        );
    }

    #[test]
    fn counter_accumulates_and_samples_carry_forward() {
        let mut ts = TimeSeries::new();
        ts.counter_add("n", 10, 1.0);
        ts.counter_add("n", 20, 1.0);
        ts.counter_add("n", 20, 3.0);
        let s = ts.get("n").unwrap();
        let totals: Vec<f64> = s.ordered().iter().map(|p| p.value).collect();
        assert_eq!(totals, [1.0, 2.0, 5.0]);
        assert_eq!(
            s.sample(5, 25),
            [(10, 1.0), (15, 1.0), (20, 5.0), (25, 5.0)]
        );
    }

    #[test]
    fn fixed_interval_sampler_carries_last_value() {
        let mut ts = TimeSeries::new();
        ts.gauge("g", 150, 2.0);
        ts.gauge("g", 420, 5.0);
        let grid = ts.get("g").unwrap().sample(100, 500);
        // No level before the first point: the t=0 and t=100 ticks are
        // omitted.
        assert_eq!(grid, vec![(200, 2.0), (300, 2.0), (400, 2.0), (500, 5.0)]);
    }

    #[test]
    fn window_selects_half_open_range() {
        let mut ts = TimeSeries::new();
        for (t, v) in [(10, 1.0), (20, 2.0), (30, 3.0)] {
            ts.event("e", t, v);
        }
        let w = ts.get("e").unwrap().window(10, 30);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].value, 1.0);
        assert_eq!(w[1].value, 2.0);
        assert_eq!(ts.get("e").unwrap().max_value(), Some(3.0));
        assert_eq!(ts.end_us(), 30);
    }

    #[test]
    fn events_feed_the_histogram() {
        let mut ts = TimeSeries::new();
        for v in [1.0, 2.0, 3.0, 10.0] {
            ts.event("lat", 0, v);
        }
        let h = ts.histogram("lat").unwrap();
        assert_eq!(h.count(), 4);
        assert_eq!(h.quantile(1.0), Some(10.0));
        assert!(ts.histogram("missing").is_none());
    }
}
