//! The machine-readable `RunReport`: one JSON artifact per pipeline
//! run, carrying deterministic metrics (the regression-gate surface),
//! modeled wall times (informational), full layout provenance, and an
//! optional embedded telemetry snapshot.
//!
//! `metrics` and `wall` are deliberately separate maps: everything in
//! `metrics` is a pure function of (program, seed, options) and safe to
//! gate CI on; `wall` figures come from the cost model's scheduling and
//! are reported but never treated as regressions by [`crate::diff`].

use crate::audit::ProfileAudit;
use crate::perf::AttributionSection;
use crate::records::{unique_rows, Field};
use propeller::{EvalReport, Propeller, PropellerReport};
use propeller_faults::DegradationLedger;
use propeller_telemetry::json::{num_entries, obj, read_doc, Reader, SchemaError};
use propeller_telemetry::{JsonValue, MetricsSnapshot};
use propeller_wpa::LayoutProvenance;
use std::collections::BTreeMap;

/// One run's machine-readable report.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct RunReport {
    /// Benchmark name.
    pub benchmark: String,
    /// Scale the benchmark was generated at.
    pub scale: f64,
    /// Workload seed.
    pub seed: u64,
    /// Deterministic metrics by name — the diffable, gateable surface.
    pub metrics: BTreeMap<String, f64>,
    /// Modeled wall-clock figures by name (informational only).
    pub wall: BTreeMap<String, f64>,
    /// Per-hot-function layout decisions.
    pub layout: LayoutProvenance,
    /// Canonical fault-plan spec string the run executed under (empty
    /// when no faults were scheduled). Two reports are only
    /// gate-comparable on degradation at equal plans.
    pub fault_plan: String,
    /// Exact account of every degradation the run performed under
    /// fault injection (all-zero on clean runs).
    pub degradation: DegradationLedger,
    /// Embedded metrics-registry snapshot, when telemetry was on.
    pub telemetry: Option<MetricsSnapshot>,
    /// Top-N symbol-attributed counters of the optimized binary's
    /// evaluation run, when attribution was collected. Callers set
    /// this after [`RunReport::collect`]; `None` keeps the JSON
    /// bit-identical to pre-attribution reports.
    pub attribution: Option<AttributionSection>,
}

/// Declares the keys [`RunReport::collect`] writes to `metrics`, each
/// with the [`Direction`] the bench gate reads it in.
macro_rules! metrics {
    ($($name:ident = $key:literal, $direction:ident;)*) => {
        /// The keys [`RunReport::collect`] writes to `metrics`: the one
        /// list that `collect`, the doctor's findings and [`crate::diff`]
        /// read them from.
        pub mod metric {
            use crate::diff::Direction;
            $(#[doc = concat!("`", $key, "`")] pub const $name: &str = $key;)*
            /// Every key with its gate direction.
            pub const ALL: &[(&str, Direction)] = &[$(($key, Direction::$direction)),*];
        }
    };
}

metrics! {
    WPA_FUNCTIONS_SEEN = "wpa.functions_seen", Informational;
    WPA_HOT_FUNCTIONS = "wpa.hot_functions", Informational;
    WPA_HOT_BLOCKS = "wpa.hot_blocks", Informational;
    WPA_DCFG_EDGES = "wpa.dcfg_edges", Informational;
    WPA_PROFILE_BYTES = "wpa.profile_bytes", Informational;
    WPA_MODELED_PEAK_MEMORY = "wpa.modeled_peak_memory", Informational;
    MAPPER_SKIPPED_FUNCS = "mapper.skipped_funcs", LowerBetter;
    MAPPER_ADDR_LOOKUPS = "mapper.addr_lookups", Informational;
    MAPPER_UNMAPPED_ADDRS = "mapper.unmapped_addrs", LowerBetter;
    CACHE_IR_HIT_RATE = "cache.ir_hit_rate", HigherBetter;
    CACHE_OBJ_HIT_RATE = "cache.obj_hit_rate", HigherBetter;
    HOT_MODULE_FRACTION = "hot_module_fraction", Informational;
    RELAX_DELETED_JUMPS = "relax.deleted_jumps", Informational;
    RELAX_SHRUNK_BRANCHES = "relax.shrunk_branches", Informational;
    EVAL_SPEEDUP_PCT = "eval.speedup_pct", HigherBetter;
    EVAL_BASE_CYCLES = "eval.base_cycles", Informational;
    EVAL_OPT_CYCLES = "eval.opt_cycles", LowerBetter;
    EVAL_BASE_IPC = "eval.base_ipc", HigherBetter;
    EVAL_OPT_IPC = "eval.opt_ipc", HigherBetter;
    EVAL_L1I_MISS_DELTA_PCT = "eval.l1i_miss_delta_pct", LowerBetter;
    EVAL_ITLB_MISS_DELTA_PCT = "eval.itlb_miss_delta_pct", LowerBetter;
    EVAL_BACLEARS_DELTA_PCT = "eval.baclears_delta_pct", LowerBetter;
    DOCTOR_SAMPLE_COVERAGE = "doctor.sample_coverage", HigherBetter;
    DOCTOR_UNMAPPED_RATE = "doctor.unmapped_rate", LowerBetter;
    DOCTOR_FALLTHROUGH_CONFIDENCE = "doctor.fallthrough_confidence", HigherBetter;
    DOCTOR_SAMPLE_CAPTURE_RATIO = "doctor.sample_capture_ratio", HigherBetter;
    DOCTOR_SKEW = "doctor.skew", LowerBetter;
}

impl RunReport {
    /// Assembles a report from a completed pipeline.
    ///
    /// `eval`, `audit` and `telemetry` are optional: each adds its
    /// metric family when present (`eval.*`, `doctor.*`, and the
    /// embedded snapshot respectively).
    #[allow(clippy::too_many_arguments)]
    pub fn collect(
        benchmark: &str,
        scale: f64,
        seed: u64,
        pipeline: &Propeller,
        summary: &PropellerReport,
        eval: Option<&EvalReport>,
        audit: Option<&ProfileAudit>,
        telemetry: Option<MetricsSnapshot>,
    ) -> RunReport {
        use metric::*;
        let mut m = BTreeMap::new();
        let mut put = |key: &str, v: f64| m.insert(key.to_string(), v);
        let w = &summary.wpa;
        put(WPA_FUNCTIONS_SEEN, w.functions_seen as f64);
        put(WPA_HOT_FUNCTIONS, w.hot_functions as f64);
        put(WPA_HOT_BLOCKS, w.hot_blocks as f64);
        put(WPA_DCFG_EDGES, w.dcfg_edges as f64);
        put(WPA_PROFILE_BYTES, w.profile_bytes as f64);
        put(WPA_MODELED_PEAK_MEMORY, w.modeled_peak_memory as f64);
        put(MAPPER_SKIPPED_FUNCS, w.skipped_funcs as f64);
        put(MAPPER_ADDR_LOOKUPS, w.addr_lookups as f64);
        put(MAPPER_UNMAPPED_ADDRS, w.addr_unmapped as f64);
        put(
            CACHE_IR_HIT_RATE,
            hit_rate(summary.ir_cache.hits, summary.ir_cache.lookups),
        );
        put(
            CACHE_OBJ_HIT_RATE,
            hit_rate(summary.object_cache.hits, summary.object_cache.lookups),
        );
        put(HOT_MODULE_FRACTION, summary.hot_module_fraction);
        put(RELAX_DELETED_JUMPS, summary.deleted_jumps as f64);
        put(RELAX_SHRUNK_BRANCHES, summary.shrunk_branches as f64);
        if let Some(e) = eval {
            put(EVAL_SPEEDUP_PCT, e.speedup_pct());
            let (base, opt) = (&e.baseline, &e.optimized);
            put(EVAL_BASE_CYCLES, base.cycles as f64);
            put(EVAL_OPT_CYCLES, opt.cycles as f64);
            put(EVAL_BASE_IPC, base.ipc());
            put(EVAL_OPT_IPC, opt.ipc());
            put(
                EVAL_L1I_MISS_DELTA_PCT,
                opt.delta_pct(base, |c| c.l1i_misses),
            );
            put(
                EVAL_ITLB_MISS_DELTA_PCT,
                opt.delta_pct(base, |c| c.itlb_misses),
            );
            put(EVAL_BACLEARS_DELTA_PCT, opt.delta_pct(base, |c| c.baclears));
        }
        if let Some(a) = audit {
            put(DOCTOR_SAMPLE_COVERAGE, a.sample_coverage);
            put(DOCTOR_UNMAPPED_RATE, a.unmapped_rate);
            put(DOCTOR_FALLTHROUGH_CONFIDENCE, a.fallthrough_confidence);
            put(DOCTOR_SAMPLE_CAPTURE_RATIO, a.sample_capture_ratio);
            if let Some(skew) = a.skew {
                put(DOCTOR_SKEW, skew);
            }
        }

        let mut wall = BTreeMap::new();
        let t = &summary.times;
        wall.insert("phase1.wall_secs".into(), t.phase1.wall_secs);
        wall.insert("phase2.wall_secs".into(), t.phase2.wall_secs);
        wall.insert("phase3.wall_secs".into(), t.phase3.wall_secs);
        wall.insert("phase4.wall_secs".into(), t.phase4.wall_secs);
        wall.insert("total.wall_secs".into(), t.total_wall_secs());

        // Provenance-collection counters stay visible in the Chrome
        // trace but are scrubbed from the embedded snapshot: arming
        // provenance must leave run_report.json bit-identical to an
        // unarmed run (the bench-gate baseline is unarmed).
        let telemetry = telemetry.map(|mut snap| {
            snap.counters
                .retain(|k, _| !k.starts_with("wpa.provenance."));
            snap
        });
        RunReport {
            benchmark: benchmark.to_string(),
            scale,
            seed,
            metrics: m,
            wall,
            layout: pipeline
                .wpa_output()
                .map(|w| w.provenance.clone())
                .unwrap_or_default(),
            fault_plan: pipeline.options().faults.to_spec_string(),
            degradation: summary.degradation.clone(),
            telemetry,
            attribution: None,
        }
    }

    /// Serializes the report as a [`JsonValue`].
    ///
    /// The last four members are omitted when empty, clean or absent:
    /// a fault-free, unarmed run serializes bit-identically to reports
    /// written before the fault layer, telemetry embedding and
    /// attribution existed (the bench-gate baseline relies on this).
    pub fn to_json(&self) -> JsonValue {
        obj([
            ("benchmark", self.benchmark.as_str().into()),
            ("scale", self.scale.into()),
            ("seed", self.seed.into()),
            ("metrics", num_entries(&self.metrics)),
            ("wall", num_entries(&self.wall)),
            ("layout", self.layout.functions.write()),
        ])
        .with(
            "fault_plan",
            (!self.fault_plan.is_empty()).then(|| self.fault_plan.as_str().into()),
        )
        .with("degradation", self.degradation.to_json())
        .with(
            "telemetry",
            self.telemetry.as_ref().map(MetricsSnapshot::to_json),
        )
        .with(
            "attribution",
            self.attribution
                .as_ref()
                .filter(|attr| !attr.is_empty())
                .map(AttributionSection::to_json),
        )
    }

    /// The pretty-printed JSON document.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    fn read(r: Reader<'_>) -> Result<RunReport, SchemaError> {
        Ok(RunReport {
            benchmark: r.get("benchmark")?,
            scale: r.get("scale")?,
            seed: r.get("seed")?,
            metrics: r.get("metrics")?,
            wall: r.get("wall")?,
            layout: LayoutProvenance {
                functions: unique_rows(r, "layout", "func")?,
            },
            fault_plan: r.opt("fault_plan")?.unwrap_or_default(),
            degradation: r.opt("degradation")?.unwrap_or_default(),
            telemetry: r.opt("telemetry")?,
            attribution: r.opt("attribution")?,
        })
    }

    /// Parses a serialized report.
    ///
    /// # Errors
    ///
    /// Reports JSON syntax errors and the first member that is absent
    /// or holds the wrong thing, by path.
    pub fn parse(text: &str) -> Result<RunReport, SchemaError> {
        read_doc("run_report", text, RunReport::read)
    }
}

fn hit_rate(hits: u64, lookups: u64) -> f64 {
    if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_wpa::{ClusterProvenance, FunctionProvenance};

    pub(crate) fn sample_report() -> RunReport {
        let mut r = RunReport {
            benchmark: "clang".into(),
            scale: 0.01,
            seed: 7,
            ..RunReport::default()
        };
        r.metrics.insert("eval.speedup_pct".into(), 6.25);
        r.metrics.insert("doctor.sample_coverage".into(), 0.97);
        r.wall.insert("total.wall_secs".into(), 123.5);
        r.layout.functions.push(FunctionProvenance {
            func_symbol: "hot_a".into(),
            total_samples: 400,
            hot_blocks: 3,
            cold_blocks: 1,
            merge_gains: vec![12.0, 3.5],
            layout_score: 390.0,
            input_score: 205.5,
            used_input_order: false,
            clusters: vec![
                ClusterProvenance {
                    symbol: "hot_a".into(),
                    blocks: vec![0, 2, 1],
                    weight: 400,
                    size: 96,
                    cold: false,
                    symbol_order_pos: Some(0),
                },
                ClusterProvenance {
                    symbol: "hot_a.cold".into(),
                    blocks: vec![3],
                    weight: 0,
                    size: 16,
                    cold: true,
                    symbol_order_pos: None,
                },
            ],
        });
        r
    }

    #[test]
    fn round_trips_through_json() {
        let r = sample_report();
        let back = RunReport::parse(&r.to_json_string()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn round_trips_with_telemetry() {
        let mut r = sample_report();
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("mapper.unmapped_addrs".into(), 9);
        r.telemetry = Some(snap);
        let back = RunReport::parse(&r.to_json_string()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.telemetry.unwrap().counter("mapper.unmapped_addrs"), 9);
    }

    #[test]
    fn round_trips_fault_plan_and_degradation() {
        let mut r = sample_report();
        r.fault_plan = "transient=0.5,corrupt-cache=1:2".into();
        r.degradation.action_retries = 4;
        r.degradation.retry_backoff_secs = 3.25;
        r.degradation.layout_mode = propeller_faults::LayoutMode::IdentityFallback;
        let json = r.to_json_string();
        assert!(json.contains("fault_plan"));
        assert!(json.contains("action_retries"));
        let back = RunReport::parse(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn clean_reports_omit_fault_members() {
        // Bit-identity with pre-fault-layer baselines: a clean run's
        // JSON must not even mention the fault machinery, and parsing
        // such a document yields empty plan + clean ledger.
        let r = sample_report();
        let json = r.to_json_string();
        assert!(!json.contains("fault_plan"));
        assert!(!json.contains("degradation"));
        let back = RunReport::parse(&json).unwrap();
        assert!(back.fault_plan.is_empty());
        assert!(back.degradation.is_clean());
    }

    #[test]
    fn round_trips_attribution_and_omits_when_absent() {
        use crate::perf::SymbolCounters;
        // Absent (the default): the JSON must not mention attribution,
        // preserving bit-identity with pre-attribution baselines.
        let clean = sample_report();
        assert!(!clean.to_json_string().contains("attribution"));

        let mut r = sample_report();
        r.attribution = Some(AttributionSection {
            symbols: vec![SymbolCounters {
                symbol: "hot_a".into(),
                counters: propeller_sim::CounterSet {
                    cycles: 1234,
                    insts: 900,
                    l1i_misses: 17,
                    ..propeller_sim::CounterSet::default()
                },
            }],
        });
        let json = r.to_json_string();
        assert!(json.contains("attribution"));
        let back = RunReport::parse(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn rejects_schema_violations() {
        let err = |text| RunReport::parse(text).unwrap_err().to_string();
        assert_eq!(err("{}"), "missing `run_report.benchmark`");
        assert!(err("not json").starts_with("JSON error at byte 0"));
        let missing_metrics =
            r#"{"benchmark": "x", "scale": 1, "seed": 0, "wall": {}, "layout": []}"#;
        assert_eq!(err(missing_metrics), "missing `run_report.metrics`");
        let bad_metric = r#"{"benchmark": "x", "scale": 1, "seed": 0,
            "metrics": {"m": "not a number"}, "wall": {}, "layout": []}"#;
        assert_eq!(
            err(bad_metric),
            "expected a number at `run_report.metrics.m`"
        );
        // Present but ill-typed is not "missing".
        let ill_typed = r#"{"benchmark": 3, "scale": 1, "seed": 0,
            "metrics": {}, "wall": {}, "layout": []}"#;
        assert_eq!(
            err(ill_typed),
            "expected a string at `run_report.benchmark`"
        );
    }

    #[test]
    fn narrowing_reads_are_errors_with_a_path() {
        let text = sample_report().to_json_string();
        let err = |from: &str, to: &str| {
            assert!(text.contains(from), "{from} not in {text}");
            RunReport::parse(&text.replacen(from, to, 1))
                .unwrap_err()
                .to_string()
        };
        // `1.9` used to read as 1, `1e30` as u64::MAX, and a block id
        // of 2^32 wrapped to 0.
        assert_eq!(
            err("\"seed\": 7", "\"seed\": 1.9"),
            "expected an integer in 0..=18446744073709551615 at `run_report.seed`"
        );
        assert_eq!(
            err("\"weight\": 400", "\"weight\": 1e30"),
            "expected an integer in 0..=18446744073709551615 at \
             `run_report.layout[0].clusters[0].weight`"
        );
        assert_eq!(
            err(
                "\"blocks\": [\n            0,",
                "\"blocks\": [\n            4294967296,"
            ),
            "expected an integer in 0..=4294967295 at `run_report.layout[0].clusters[0].blocks[0]`"
        );
        assert_eq!(
            err("\"cold\": true", "\"cold\": 1"),
            "expected a boolean at `run_report.layout[0].clusters[1].cold`"
        );
        assert_eq!(
            err("\"order_pos\": 0", "\"order_pos\": -1"),
            format!(
                "expected an integer in 0..={} at `run_report.layout[0].clusters[0].order_pos`",
                usize::MAX
            )
        );
    }
}
