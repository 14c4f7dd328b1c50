//! Pinned bytes of every JSON artifact this crate writes (and the
//! telemetry snapshot it embeds) — the in-tree twin of CI's `cmp`s
//! against `ci/bench_baseline.json` and across `--jobs` counts.
//!
//! The constants were recorded from the commit *before* the codecs
//! moved onto the shared `telemetry::json` writer/reader, by running
//! this file against that commit's code. They cover member order, the
//! omission rules for optional members (clean ledger, no fault plan, no
//! telemetry, no attribution, no merge sources), `null` spellings and
//! number formatting, so a codec change that would break a determinism
//! gate shows up here without running the pipeline.

use propeller_doctor::{
    AttributionSection, Finding, ProvenanceDoc, ProvenanceFunction, RunReport, Severity, SloReport,
    SymbolCounters,
};
use propeller_faults::LayoutMode;
use propeller_linker::SymbolPlacement;
use propeller_profile::{MergeProvenance, SourceContribution};
use propeller_sim::CounterSet;
use propeller_telemetry::{Histogram, MetricsRegistry, MetricsSnapshot};
use propeller_wpa::exttsp::{Edge, MergeStep, Node, RejectedAlt};
use propeller_wpa::{ClusterProvenance, EdgeFunding, EdgeKind, FunctionProvenance, FundingRecord};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[track_caller]
fn pin(name: &str, text: &str, golden: u64) {
    let got = fnv1a(text.as_bytes());
    assert_eq!(
        got, golden,
        "{name}: digest {got:#018x} != golden {golden:#018x}; bytes now:\n{text}"
    );
}

fn clean_report() -> RunReport {
    let mut r = RunReport {
        benchmark: "clang \"pm\"".into(),
        scale: 0.004,
        seed: 77,
        ..RunReport::default()
    };
    r.metrics.insert("eval.speedup_pct".into(), 6.25);
    r.metrics.insert("eval.opt_cycles".into(), 123_456_789.0);
    r.metrics.insert("doctor.sample_coverage".into(), 0.97);
    r.metrics.insert("eval.l1i_miss_delta_pct".into(), -31.5);
    r.wall.insert("phase1.wall_secs".into(), 12.0);
    r.wall.insert("total.wall_secs".into(), 1e-7);
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
    r.layout.functions.push(FunctionProvenance {
        func_symbol: "flat_b".into(),
        total_samples: 9,
        hot_blocks: 1,
        cold_blocks: 0,
        merge_gains: vec![],
        layout_score: 0.0,
        input_score: 0.0,
        used_input_order: true,
        clusters: vec![],
    });
    r
}

fn metrics(with_observations: bool) -> MetricsSnapshot {
    let mut reg = MetricsRegistry::default();
    reg.counter_add("mapper.unmapped_addrs", 17);
    reg.counter_add("cache.obj.hits", 1 << 40);
    reg.gauge_set("wpa.peak_gb", 1.25);
    if with_observations {
        for v in [0.0, 0.5, 3.0, 700.5, 1e15] {
            reg.observe("exttsp.merge_gain", v);
        }
    }
    let mut snap = reg.snapshot();
    snap.histograms
        .insert("never.observed".into(), Histogram::default());
    snap
}

#[test]
fn run_report_bytes() {
    let clean = clean_report();
    pin("clean", &clean.to_json_string(), 0x6cc6_40ae_28a6_2ce4);

    let mut faulted = clean_report();
    faulted.fault_plan = "transient=0.5,corrupt-cache=1:2".into();
    faulted.degradation.action_retries = 4;
    faulted.degradation.retry_backoff_secs = 3.25;
    faulted.degradation.cache_rebuilds = 2;
    faulted.degradation.layout_mode = LayoutMode::IdentityFallback;
    pin("faulted", &faulted.to_json_string(), 0xfd62_524b_96b1_481f);

    let mut with_telemetry = clean_report();
    with_telemetry.telemetry = Some(metrics(true));
    pin(
        "telemetry",
        &with_telemetry.to_json_string(),
        0x1d61_2df6_d604_e1c5,
    );

    let mut attributed = clean_report();
    attributed.attribution = Some(AttributionSection {
        symbols: vec![
            SymbolCounters {
                symbol: "hot_a".into(),
                counters: CounterSet {
                    cycles: 1234,
                    insts: 900,
                    blocks: 77,
                    taken_branches: 12,
                    fallthroughs: 65,
                    l1i_misses: 17,
                    l2_code_misses: 5,
                    l3_code_misses: 1,
                    itlb_misses: 3,
                    stlb_walks: 2,
                    baclears: 4,
                    dsb_misses: 6,
                    prefetches: 8,
                },
            },
            SymbolCounters {
                symbol: "flat_b".into(),
                counters: CounterSet::default(),
            },
        ],
    });
    pin(
        "attributed",
        &attributed.to_json_string(),
        0x4f98_96fb_c64f_de50,
    );

    // An empty attribution section is omitted like an absent one.
    let mut empty_attr = clean_report();
    empty_attr.attribution = Some(AttributionSection::default());
    assert_eq!(empty_attr.to_json_string(), clean.to_json_string());
}

fn provenance_doc() -> ProvenanceDoc {
    ProvenanceDoc {
        benchmark: "clang".into(),
        scale: 0.01,
        seed: 7,
        functions: vec![
            ProvenanceFunction {
                func_symbol: "hot_a".into(),
                func_index: 3,
                nodes: vec![
                    Node {
                        id: 0,
                        size: 16,
                        count: 100,
                    },
                    Node {
                        id: 1,
                        size: 8,
                        count: 40,
                    },
                    Node {
                        id: 2,
                        size: 24,
                        count: 90,
                    },
                ],
                edges: vec![
                    Edge {
                        src: 0,
                        dst: 2,
                        weight: 90,
                    },
                    Edge {
                        src: 2,
                        dst: 1,
                        weight: 40,
                    },
                ],
                steps: vec![
                    MergeStep {
                        x: 0,
                        y: 2,
                        gain: 90.0,
                        split: None,
                        rejected: Some(RejectedAlt {
                            x: 2,
                            y: 1,
                            gain: 40.0,
                            split: Some(1),
                        }),
                    },
                    MergeStep {
                        x: 0,
                        y: 1,
                        gain: 38.5,
                        split: Some(2),
                        rejected: None,
                    },
                ],
                evaluations: 5,
                used_input_order: false,
                final_score: 128.5,
                input_score: 61.25,
                order: vec![0, 2, 1],
            },
            ProvenanceFunction {
                func_symbol: "lone_b".into(),
                func_index: 9,
                nodes: vec![Node {
                    id: 4,
                    size: 32,
                    count: 1,
                }],
                edges: vec![],
                steps: vec![],
                evaluations: 0,
                used_input_order: true,
                final_score: 0.0,
                input_score: 0.0,
                order: vec![4],
            },
        ],
        funding: EdgeFunding {
            records: vec![
                FundingRecord {
                    func: 3,
                    src: 0,
                    dst: 2,
                    kind: EdgeKind::Branch,
                    from: 0x40_1000,
                    to: 0x40_1040,
                    weight: 100,
                },
                FundingRecord {
                    func: 3,
                    src: 2,
                    dst: 1,
                    kind: EdgeKind::Fallthrough,
                    from: 0x40_1058,
                    to: 0x40_1058,
                    weight: 40,
                },
            ],
        },
        placements: vec![SymbolPlacement {
            symbol: "hot_a".into(),
            order: 0,
            addr: 0x40_0000,
            input_size: 64,
            final_size: 58,
            deleted_jumps: 2,
            shrunk_branches: 1,
        }],
        merge_sources: None,
        attribution: Vec::new(),
    }
}

#[test]
fn provenance_doc_bytes() {
    let bare = provenance_doc();
    pin("bare", &bare.to_json_string(), 0x34a6_c16d_6621_9235);

    let mut full = provenance_doc();
    full.merge_sources = Some(MergeProvenance {
        max_age: 5,
        decay_num: 1,
        decay_den: 2,
        sources: vec![
            SourceContribution {
                index: 0,
                weight: 17,
                age: 2,
                effective: 68,
                branch_total: 1234,
            },
            SourceContribution {
                index: 1,
                weight: 3,
                age: 0,
                effective: 1 << 70,
                branch_total: 0,
            },
        ],
    });
    full.attribution = vec![("hot_a".into(), 9000), ("lone_b".into(), 0)];
    pin("full", &full.to_json_string(), 0x1560_62ad_e365_0670);
}

#[test]
fn slo_report_bytes() {
    let report = SloReport {
        findings: vec![
            Finding {
                severity: Severity::Ok,
                metric: "p99_latency_ms[t0]".into(),
                value: 812.5,
                message: "within 1000".into(),
            },
            Finding {
                severity: Severity::Warn,
                metric: "rejection_rate[*]".into(),
                value: 0.0625,
                message: "above warn bound 0.05\n(burn 1.25x)".into(),
            },
            Finding {
                severity: Severity::Fail,
                metric: "cache_hit_rate[t2]".into(),
                value: 0.0,
                message: "no data".into(),
            },
        ],
    };
    pin("slo", &report.to_json_string(), 0x8f77_9449_3adb_9ddc);
    pin(
        "slo-empty",
        &SloReport { findings: vec![] }.to_json_string(),
        0xb3f5_db60_39aa_1c4a,
    );
}

#[test]
fn metrics_snapshot_bytes() {
    pin(
        "observed",
        &metrics(true).to_json().to_string_pretty(),
        0x50c4_26b2_5a47_afd9,
    );
    pin(
        "unobserved",
        &metrics(false).to_json().to_string_pretty(),
        0xc222_6395_8015_929f,
    );
    pin(
        "empty",
        &MetricsSnapshot::default().to_json().to_string_pretty(),
        0x3fcd_afe8_ee69_ada5,
    );
}
