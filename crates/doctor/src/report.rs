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
use propeller::{EvalReport, Propeller, PropellerReport};
use propeller_faults::DegradationLedger;
use propeller_telemetry::json::{arr, num_entries, obj, read_doc, Reader, SchemaError};
use propeller_telemetry::{JsonValue, MetricsSnapshot};
use propeller_wpa::{ClusterProvenance, FunctionProvenance, LayoutProvenance};
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
        let mut m = BTreeMap::new();
        let w = &summary.wpa;
        m.insert("wpa.functions_seen".into(), w.functions_seen as f64);
        m.insert("wpa.hot_functions".into(), w.hot_functions as f64);
        m.insert("wpa.hot_blocks".into(), w.hot_blocks as f64);
        m.insert("wpa.dcfg_edges".into(), w.dcfg_edges as f64);
        m.insert("wpa.profile_bytes".into(), w.profile_bytes as f64);
        m.insert(
            "wpa.modeled_peak_memory".into(),
            w.modeled_peak_memory as f64,
        );
        m.insert("mapper.skipped_funcs".into(), w.skipped_funcs as f64);
        m.insert("mapper.addr_lookups".into(), w.addr_lookups as f64);
        m.insert("mapper.unmapped_addrs".into(), w.addr_unmapped as f64);
        m.insert(
            "cache.ir_hit_rate".into(),
            hit_rate(summary.ir_cache.hits, summary.ir_cache.lookups),
        );
        m.insert(
            "cache.obj_hit_rate".into(),
            hit_rate(summary.object_cache.hits, summary.object_cache.lookups),
        );
        m.insert(
            "hot_module_fraction".into(),
            summary.hot_module_fraction,
        );
        m.insert("relax.deleted_jumps".into(), summary.deleted_jumps as f64);
        m.insert(
            "relax.shrunk_branches".into(),
            summary.shrunk_branches as f64,
        );
        if let Some(e) = eval {
            m.insert("eval.speedup_pct".into(), e.speedup_pct());
            m.insert("eval.base_cycles".into(), e.baseline.cycles as f64);
            m.insert("eval.opt_cycles".into(), e.optimized.cycles as f64);
            m.insert("eval.base_ipc".into(), e.baseline.ipc());
            m.insert("eval.opt_ipc".into(), e.optimized.ipc());
            m.insert(
                "eval.l1i_miss_delta_pct".into(),
                e.optimized.delta_pct(&e.baseline, |c| c.l1i_misses),
            );
            m.insert(
                "eval.itlb_miss_delta_pct".into(),
                e.optimized.delta_pct(&e.baseline, |c| c.itlb_misses),
            );
            m.insert(
                "eval.baclears_delta_pct".into(),
                e.optimized.delta_pct(&e.baseline, |c| c.baclears),
            );
        }
        if let Some(a) = audit {
            m.insert("doctor.sample_coverage".into(), a.sample_coverage);
            m.insert("doctor.unmapped_rate".into(), a.unmapped_rate);
            m.insert(
                "doctor.fallthrough_confidence".into(),
                a.fallthrough_confidence,
            );
            m.insert(
                "doctor.sample_capture_ratio".into(),
                a.sample_capture_ratio,
            );
            if let Some(skew) = a.skew {
                m.insert("doctor.skew".into(), skew);
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
            snap.counters.retain(|k, _| !k.starts_with("wpa.provenance."));
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
            ("layout", arr(&self.layout.functions, function_to_json)),
        ])
        .with(
            "fault_plan",
            (!self.fault_plan.is_empty()).then(|| self.fault_plan.as_str().into()),
        )
        .with("degradation", self.degradation.to_json())
        .with("telemetry", self.telemetry.as_ref().map(MetricsSnapshot::to_json))
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
            benchmark: r.str("benchmark")?.to_string(),
            scale: r.f64("scale")?,
            seed: r.u64("seed")?,
            metrics: r.num_entries("metrics")?,
            wall: r.num_entries("wall")?,
            layout: LayoutProvenance {
                functions: r.arr("layout", read_function)?,
            },
            fault_plan: r.opt("fault_plan", Reader::to_str)?.unwrap_or("").to_string(),
            degradation: r.opt("degradation", DegradationLedger::read)?.unwrap_or_default(),
            telemetry: r.opt("telemetry", MetricsSnapshot::read)?,
            attribution: r.opt("attribution", AttributionSection::read)?,
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

fn function_to_json(f: &FunctionProvenance) -> JsonValue {
    obj([
        ("func", f.func_symbol.as_str().into()),
        ("total_samples", f.total_samples.into()),
        ("hot_blocks", f.hot_blocks.into()),
        ("cold_blocks", f.cold_blocks.into()),
        ("merge_gains", arr(&f.merge_gains, JsonValue::from)),
        ("layout_score", f.layout_score.into()),
        ("input_score", f.input_score.into()),
        ("used_input_order", f.used_input_order.into()),
        ("clusters", arr(&f.clusters, cluster_to_json)),
    ])
}

fn cluster_to_json(c: &ClusterProvenance) -> JsonValue {
    obj([
        ("symbol", c.symbol.as_str().into()),
        ("blocks", arr(&c.blocks, JsonValue::from)),
        ("weight", c.weight.into()),
        ("size", c.size.into()),
        ("cold", c.cold.into()),
        ("order_pos", c.symbol_order_pos.into()),
    ])
}

fn read_function(r: Reader<'_>) -> Result<FunctionProvenance, SchemaError> {
    Ok(FunctionProvenance {
        func_symbol: r.str("func")?.to_string(),
        total_samples: r.u64("total_samples")?,
        hot_blocks: r.usize("hot_blocks")?,
        cold_blocks: r.usize("cold_blocks")?,
        merge_gains: r.arr("merge_gains", Reader::to_f64)?,
        layout_score: r.f64("layout_score")?,
        input_score: r.f64("input_score")?,
        used_input_order: r.bool("used_input_order")?,
        clusters: r.arr("clusters", read_cluster)?,
    })
}

fn read_cluster(r: Reader<'_>) -> Result<ClusterProvenance, SchemaError> {
    Ok(ClusterProvenance {
        symbol: r.str("symbol")?.to_string(),
        blocks: r.arr("blocks", Reader::to_u32)?,
        weight: r.u64("weight")?,
        size: r.u64("size")?,
        cold: r.bool("cold")?,
        symbol_order_pos: r.opt("order_pos", Reader::to_usize)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(err(bad_metric), "expected a number at `run_report.metrics.m`");
        // Present but ill-typed is not "missing".
        let ill_typed = r#"{"benchmark": 3, "scale": 1, "seed": 0,
            "metrics": {}, "wall": {}, "layout": []}"#;
        assert_eq!(err(ill_typed), "expected a string at `run_report.benchmark`");
    }

    #[test]
    fn narrowing_reads_are_errors_with_a_path() {
        let text = sample_report().to_json_string();
        let err = |from: &str, to: &str| {
            assert!(text.contains(from), "{from} not in {text}");
            RunReport::parse(&text.replacen(from, to, 1)).unwrap_err().to_string()
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
            err("\"blocks\": [\n            0,", "\"blocks\": [\n            4294967296,"),
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
