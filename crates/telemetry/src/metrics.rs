//! The metrics registry: counters, gauges, fixed-bucket histograms.
//!
//! Everything here merges associatively and commutatively — counter
//! merge is addition, gauge merge is max, histogram merge is
//! element-wise bucket addition — so per-thread shards can be combined
//! in any order and grouping without changing the result (property
//! tested in `tests/metrics_props.rs`).

use crate::json::{arr, num_entries, obj, read_doc, JsonValue, Reader, SchemaError};
use std::collections::BTreeMap;

/// Number of histogram buckets. Bucket `i < HISTOGRAM_BUCKETS - 1`
/// counts observations `v` with `v <= 2^(i - UNIT_BUCKET)`; the last
/// bucket is the overflow.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// Index of the bucket whose upper bound is `2^0 = 1`; buckets below
/// it cover sub-unit observations down to `2^-8`.
const UNIT_BUCKET: i32 = 8;

/// A fixed-bucket histogram over power-of-two bucket bounds, with
/// exact count/sum/min/max sidecars.
#[derive(Clone, PartialEq, Debug)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// The bucket an observation falls into.
    fn bucket_of(v: f64) -> usize {
        if v.is_nan() || v <= 0.0 {
            // Zero, negative and NaN all land in the first bucket.
            return 0;
        }
        let idx = v.log2().ceil() as i64 + UNIT_BUCKET as i64;
        idx.clamp(0, HISTOGRAM_BUCKETS as i64 - 1) as usize
    }

    /// Upper bound of bucket `i` (`f64::INFINITY` for the overflow
    /// bucket).
    pub fn bucket_bound(i: usize) -> f64 {
        if i + 1 >= HISTOGRAM_BUCKETS {
            f64::INFINITY
        } else {
            2f64.powi(i as i32 - UNIT_BUCKET)
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merges another histogram in. Associative and commutative.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Estimates the `q`-quantile (`q` clamped into `[0, 1]`); `None`
    /// when the histogram is empty.
    ///
    /// The estimator walks the cumulative bucket counts to the bucket
    /// holding the rank-`ceil(q * count)` observation and returns that
    /// bucket's upper bound, clamped into `[min, max]` using the exact
    /// sidecars.
    ///
    /// ## Error bound
    ///
    /// The estimate `e` always lies inside the bucket containing the
    /// true quantile `x`, at or above it: `x <= e <= upper(x)` where
    /// `upper(x)` is the power-of-two bound of `x`'s bucket. For
    /// `x > 2^-8` (the first bucket's bound) buckets span exactly one
    /// octave, so `e < 2x` — a one-sided relative error strictly below
    /// 2×; the estimate never *understates* a latency quantile, which
    /// is the safe direction for SLO gating. True quantiles at or
    /// below `2^-8` share the catch-all first bucket and are only
    /// bounded by it. The min/max clamp makes single-valued and
    /// extreme-rank queries exact.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = if q.is_nan() { 1.0 } else { q.clamp(0.0, 1.0) };
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut acc = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            acc += n;
            if acc >= rank {
                return Some(Self::bucket_bound(i).clamp(self.min, self.max));
            }
        }
        // Unreachable when `is_consistent()` holds; fall back to the
        // exact maximum rather than panicking on a corrupt histogram.
        Some(self.max)
    }

    /// The count invariant every merge preserves: bucket counts sum to
    /// `count()`.
    pub fn is_consistent(&self) -> bool {
        self.buckets.iter().sum::<u64>() == self.count
    }
}

/// One shard's mutable metric state.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Adds to a monotonic counter.
    pub fn counter_add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Sets a gauge.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Raises a gauge to at least `v`.
    pub fn gauge_max(&mut self, name: &str, v: f64) {
        let g = self.gauges.entry(name.to_string()).or_insert(v);
        *g = g.max(v);
    }

    /// Records one histogram observation.
    pub fn observe(&mut self, name: &str, v: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(v);
    }

    /// An immutable copy of the current state.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
        }
    }
}

/// Merged, immutable metric state — what a drained trace carries.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name (merge keeps the max).
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Merges `other` in: counters add, gauges max, histograms merge
    /// bucket-wise. Associative and commutative, so shard order never
    /// matters.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let g = self.gauges.entry(k.clone()).or_insert(*v);
            *g = g.max(*v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// A counter's value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Serializes the snapshot as a [`JsonValue`] object with
    /// `counters`, `gauges` and `histograms` members, so one artifact
    /// (e.g. the doctor's `RunReport`) can embed the full registry.
    pub fn to_json(&self) -> JsonValue {
        let histogram = |h: &Histogram| {
            // An empty histogram's extremes are ±infinity, which JSON
            // cannot say, so they are left out.
            obj([
                ("count", h.count.into()),
                ("sum", h.sum.into()),
                ("buckets", arr(&h.buckets, JsonValue::from)),
            ])
            .with("min", (h.count > 0).then(|| h.min.into()))
            .with("max", (h.count > 0).then(|| h.max.into()))
        };
        obj([
            ("counters", num_entries(&self.counters)),
            ("gauges", num_entries(&self.gauges)),
            (
                "histograms",
                obj(self.histograms.iter().map(|(k, h)| (k, histogram(h)))),
            ),
        ])
    }

    /// Reads back what [`MetricsSnapshot::to_json`] wrote.
    ///
    /// # Errors
    ///
    /// Names the first member that is absent or holds the wrong thing
    /// (a negative counter, a histogram with the wrong bucket count).
    pub fn read(r: Reader<'_>) -> Result<MetricsSnapshot, SchemaError> {
        let histogram = |h: Reader<'_>| {
            let count = h.u64("count")?;
            let buckets = h.arr("buckets", Reader::to_u64)?;
            let extreme = |key, empty| if count > 0 { h.f64(key) } else { Ok(empty) };
            Ok(Histogram {
                buckets: buckets.try_into().map_err(|_| SchemaError::Expected {
                    what: format!("{HISTOGRAM_BUCKETS} bucket counts"),
                    path: "buckets".to_string(),
                })?,
                count,
                sum: h.f64("sum")?,
                min: extreme("min", f64::INFINITY)?,
                max: extreme("max", f64::NEG_INFINITY)?,
            })
        };
        Ok(MetricsSnapshot {
            counters: r.get("counters", |c| c.to_map(Reader::to_u64))?,
            gauges: r.num_entries("gauges")?,
            histograms: r.get("histograms", |h| h.to_map(histogram))?,
        })
    }

    /// Parses a serialized snapshot.
    ///
    /// # Errors
    ///
    /// Reports both JSON syntax errors and schema mismatches.
    pub fn parse(text: &str) -> Result<MetricsSnapshot, SchemaError> {
        read_doc("metrics", text, MetricsSnapshot::read)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_observations() {
        let mut h = Histogram::default();
        for v in [0.0, 0.5, 1.0, 3.0, 1e9] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!(h.is_consistent());
        assert_eq!(h.min(), Some(0.0));
        assert_eq!(h.max(), Some(1e9));
        assert!((h.mean() - (0.5 + 1.0 + 3.0 + 1e9) / 5.0).abs() < 1e-3);
    }

    #[test]
    fn bucket_bounds_are_monotone() {
        for i in 1..HISTOGRAM_BUCKETS {
            assert!(Histogram::bucket_bound(i) > Histogram::bucket_bound(i - 1));
        }
        assert_eq!(Histogram::bucket_bound(HISTOGRAM_BUCKETS - 1), f64::INFINITY);
    }

    #[test]
    fn observation_lands_at_or_below_its_bound() {
        for v in [0.001, 0.25, 1.0, 7.0, 1024.0, 1e12] {
            let b = Histogram::bucket_of(v);
            assert!(v <= Histogram::bucket_bound(b), "{v} in bucket {b}");
            if b > 0 && b < HISTOGRAM_BUCKETS - 1 {
                assert!(v > Histogram::bucket_bound(b - 1), "{v} in bucket {b}");
            }
        }
    }

    #[test]
    fn quantile_is_bucket_accurate() {
        let mut h = Histogram::default();
        for v in [1.0, 2.0, 3.0, 10.0, 100.0, 1000.0] {
            h.observe(v);
        }
        // Rank math: q=0.5 over 6 observations targets rank 3 (3.0,
        // bucket bound 4.0).
        assert_eq!(h.quantile(0.5), Some(4.0));
        // Extremes clamp to the exact sidecars.
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(1000.0));
        // The p99 of a 6-sample histogram is its maximum.
        assert_eq!(h.quantile(0.99), Some(1000.0));
    }

    #[test]
    fn quantile_edge_cases() {
        assert_eq!(Histogram::default().quantile(0.5), None);
        let mut zeros = Histogram::default();
        zeros.observe(0.0);
        zeros.observe(0.0);
        // Bucket 0's bound clamps down to the exact max of 0.
        assert_eq!(zeros.quantile(0.99), Some(0.0));
        let mut one = Histogram::default();
        one.observe(7.0);
        // A single observation is every quantile, exactly (the bucket
        // bound 8.0 clamps to max == min == 7.0).
        assert_eq!(one.quantile(0.0), Some(7.0));
        assert_eq!(one.quantile(0.5), Some(7.0));
        assert_eq!(one.quantile(1.0), Some(7.0));
    }

    #[test]
    fn quantile_never_understates() {
        let mut h = Histogram::default();
        let obs = [0.3, 0.9, 1.5, 6.0, 6.1, 40.0, 41.5, 300.0];
        for v in obs {
            h.observe(v);
        }
        for (i, q) in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99].iter().enumerate() {
            let est = h.quantile(*q).unwrap();
            let mut sorted = obs.to_vec();
            sorted.sort_by(f64::total_cmp);
            let rank = ((q * obs.len() as f64).ceil() as usize).clamp(1, obs.len());
            let truth = sorted[rank - 1];
            assert!(est >= truth, "case {i}: {est} < true quantile {truth}");
            assert!(est < 2.0 * truth, "case {i}: {est} >= 2x true {truth}");
        }
    }

    #[test]
    fn snapshot_json_round_trips() {
        let mut reg = MetricsRegistry::default();
        reg.counter_add("mapper.unmapped_addrs", 17);
        reg.counter_add("wpa.hot_functions", 4);
        reg.gauge_set("wpa.peak_gb", 1.25);
        reg.observe("exttsp.merge_gain", 3.0);
        reg.observe("exttsp.merge_gain", 700.5);
        let snap = reg.snapshot();
        let back = MetricsSnapshot::parse(&snap.to_json().to_string_pretty()).unwrap();
        assert_eq!(back, snap);
        assert!(back.histograms["exttsp.merge_gain"].is_consistent());
    }

    #[test]
    fn snapshot_json_rejects_malformed_histograms() {
        let err = MetricsSnapshot::parse(
            r#"{"counters": {}, "gauges": {},
                "histograms": {"h": {"count": 1, "sum": 2.0, "buckets": [0, 1]}}}"#,
        )
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "expected 40 bucket counts at `metrics.histograms.h.buckets`"
        );
        // A snapshot always carries all three registries.
        let err = MetricsSnapshot::parse(r#"{"counters": {}, "histograms": {}}"#).unwrap_err();
        assert_eq!(err.to_string(), "missing `metrics.gauges`");
        // Counters are counts: what `as u64` used to truncate is refused.
        for bad in ["1.9", "-1", "1e30", "\"7\""] {
            let text = format!(r#"{{"counters": {{"c": {bad}}}, "gauges": {{}}, "histograms": {{}}}}"#);
            let err = MetricsSnapshot::parse(&text).unwrap_err().to_string();
            assert!(err.contains("integer") && err.ends_with("`metrics.counters.c`"), "{err}");
        }
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = MetricsSnapshot::default();
        let text = snap.to_json().to_string_compact();
        assert_eq!(MetricsSnapshot::parse(&text), Ok(snap));
    }

    #[test]
    fn snapshot_merge_adds_counters_and_maxes_gauges() {
        let mut a = MetricsRegistry::default();
        a.counter_add("c", 2);
        a.gauge_max("g", 5.0);
        let mut b = MetricsRegistry::default();
        b.counter_add("c", 3);
        b.counter_add("only_b", 1);
        b.gauge_max("g", 4.0);
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.counter("c"), 5);
        assert_eq!(snap.counter("only_b"), 1);
        assert_eq!(snap.counter("absent"), 0);
        assert!((snap.gauges["g"] - 5.0).abs() < 1e-12);
    }
}
