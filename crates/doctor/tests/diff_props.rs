//! Property tests for the run-diff regression gate: a report diffed
//! against itself is always empty at zero tolerance (the CI gate must
//! never fail a no-change build), serialization does not perturb that,
//! and gating honors metric direction.
//!
//! The second half holds the four readable artifacts (run report,
//! provenance document, attribution section, metrics snapshot) to their
//! codec contract: what is written parses back to
//! the same value, and a damaged document — cut short, a member
//! deleted, a number swapped for something else — is a typed error or
//! a sane value, never a panic and never a silently defaulted member.

use propeller_doctor::{
    diff_reports, AttributionSection, ProvenanceDoc, ProvenanceFunction, RunReport, SymbolCounters,
};
use propeller_faults::{splitmix64, DegradationLedger, LayoutMode};
use propeller_linker::SymbolPlacement;
use propeller_profile::{MergeProvenance, SourceContribution};
use propeller_sim::CounterSet;
use propeller_telemetry::json::{read_doc, FromJson};
use propeller_telemetry::{JsonValue, MetricsRegistry, MetricsSnapshot, SchemaError};
use propeller_wpa::exttsp::{Edge, MergeStep, Node, RejectedAlt};
use propeller_wpa::{ClusterProvenance, EdgeFunding, EdgeKind, FunctionProvenance, FundingRecord};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// A pool mixing direction-mapped keys with unknown (informational)
/// ones, so self-diff is exercised across every gating path.
const KEYS: [&str; 8] = [
    "eval.speedup_pct",
    "eval.opt_cycles",
    "doctor.sample_coverage",
    "doctor.unmapped_rate",
    "cache.ir_hit_rate",
    "wpa.hot_functions",
    "custom.metric_a",
    "custom.metric_b",
];

/// Builds a report from drawn raw material. Metric values span
/// negatives, zero, and large magnitudes; unit-interval draws from the
/// vendored `any::<f64>()` are rescaled to cover them.
fn report_of(metrics: &[(u8, f64)], wall: &[(u8, f64)], funcs: &[(u8, u8, bool)]) -> RunReport {
    let mut r = RunReport {
        benchmark: "prop".into(),
        scale: 0.5,
        seed: 7,
        ..RunReport::default()
    };
    for (k, v) in metrics {
        let key = KEYS[*k as usize % KEYS.len()];
        r.metrics.insert(key.to_string(), (v - 0.5) * 2e6);
    }
    for (k, v) in wall {
        r.wall.insert(format!("phase{}.wall_secs", k % 5), v * 1e3);
    }
    for (i, (blocks, order, cold)) in funcs.iter().enumerate() {
        let symbol = format!("fn{i}");
        let n = (*blocks % 6) as u32 + 1;
        r.layout.functions.push(FunctionProvenance {
            func_symbol: symbol.clone(),
            total_samples: n as u64 * 10,
            hot_blocks: n as usize,
            cold_blocks: (*blocks % 3) as usize,
            merge_gains: (0..n).map(|g| g as f64 * 1.5).collect(),
            layout_score: n as f64 * 7.0,
            input_score: n as f64 * 5.0,
            used_input_order: *cold,
            clusters: vec![ClusterProvenance {
                symbol,
                blocks: (0..n).collect(),
                weight: n as u64 * 10,
                size: n as u64 * 16,
                cold: *cold,
                symbol_order_pos: if *cold { None } else { Some(*order as usize) },
            }],
        });
    }
    r
}

proptest! {
    #[test]
    fn self_diff_is_empty_at_zero_tolerance(
        metrics in proptest::collection::vec((any::<u8>(), any::<f64>()), 0..12),
        wall in proptest::collection::vec((any::<u8>(), any::<f64>()), 0..6),
        funcs in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..8),
    ) {
        let r = report_of(&metrics, &wall, &funcs);
        let d = diff_reports(&r, &r, 0.0);
        prop_assert!(d.is_empty(), "self-diff produced {:?}", d.deltas);
        prop_assert!(!d.has_regression());
        prop_assert!(d.render().contains("identical"));
    }

    #[test]
    fn json_roundtrip_does_not_perturb_self_diff(
        metrics in proptest::collection::vec((any::<u8>(), any::<f64>()), 0..12),
        funcs in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..6),
    ) {
        let r = report_of(&metrics, &[], &funcs);
        let back = RunReport::parse(&r.to_json_string()).unwrap();
        prop_assert_eq!(&back, &r);
        prop_assert!(diff_reports(&r, &back, 0.0).is_empty());
    }

    #[test]
    fn gating_honors_metric_direction(
        base in any::<f64>(),
        bump in any::<f64>(),
    ) {
        // eval.opt_cycles is lower-better: raising it past the
        // tolerance must regress; lowering it never may.
        let cycles = base * 1e6 + 1000.0;
        let growth = 1.0 + bump; // 1x..2x
        let mut a = RunReport::default();
        a.metrics.insert("eval.opt_cycles".into(), cycles);
        let mut worse = a.clone();
        worse.metrics.insert("eval.opt_cycles".into(), cycles * (1.0 + growth));
        let mut better = a.clone();
        better.metrics.insert("eval.opt_cycles".into(), cycles / (1.0 + growth));
        prop_assert!(diff_reports(&a, &worse, 50.0).has_regression());
        prop_assert!(!diff_reports(&a, &better, 0.0).has_regression());
        // The same move on an unknown key stays informational.
        let mut ia = RunReport::default();
        ia.metrics.insert("custom.metric_a".into(), cycles);
        let mut ib = ia.clone();
        ib.metrics.insert("custom.metric_a".into(), cycles * (1.0 + growth));
        prop_assert!(!diff_reports(&ia, &ib, 0.0).has_regression());
    }
}

// ---------------------------------------------------------------------
// Artifact codecs: round trip and hostile input
// ---------------------------------------------------------------------

/// A deterministic stream of draws from one proptest-drawn seed.
struct Dice(u64);

impl Dice {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn len(&mut self) -> usize {
        self.below(4) as usize
    }

    fn flag(&mut self) -> bool {
        self.below(2) == 1
    }

    /// Counts stay below 2^53, where JSON numbers hold them exactly.
    fn count(&mut self) -> u64 {
        let bits = self.below(54);
        self.next() & ((1u64 << bits) - 1)
    }

    fn small(&mut self) -> u32 {
        self.below(1 << 20) as u32
    }

    /// Finite, signed, fractional and integral alike.
    fn real(&mut self) -> f64 {
        let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        match self.below(4) {
            0 => (self.below(2001) as f64) - 1000.0,
            1 => unit,
            2 => (unit - 0.5) * 1e12,
            _ => unit * 1e-9,
        }
    }

    fn name(&mut self) -> String {
        const POOL: [&str; 8] = [
            "hot_a",
            "clang_fn92.cold",
            "t0",
            "tenant \"b\"",
            "µ-kernel\n",
            "a\\b",
            "",
            "x.y[3]",
        ];
        format!("{}{}", POOL[self.below(8) as usize], self.below(3))
    }

    fn vec<T>(&mut self, mut f: impl FnMut(&mut Dice) -> T) -> Vec<T> {
        (0..self.len()).map(|_| f(self)).collect()
    }

    /// [`Dice::vec`] without the rows whose `name` an earlier row has:
    /// the readers reject a repeated function or symbol name.
    fn rows<T>(&mut self, f: impl FnMut(&mut Dice) -> T, name: fn(&T) -> &str) -> Vec<T> {
        let mut seen = std::collections::HashSet::new();
        let mut rows = self.vec(f);
        rows.retain(|row| seen.insert(name(row).to_string()));
        rows
    }
}

fn degradation(d: &mut Dice) -> DegradationLedger {
    if d.flag() {
        return DegradationLedger::default();
    }
    DegradationLedger {
        action_retries: d.count(),
        retry_backoff_secs: d.real().abs(),
        cache_rebuilds: d.count(),
        lbr_records_dropped: d.count(),
        objects_fallen_back: d.count(),
        layout_mode: if d.flag() {
            LayoutMode::IdentityFallback
        } else {
            LayoutMode::Optimized
        },
        ..DegradationLedger::default()
    }
}

fn metrics(d: &mut Dice) -> MetricsSnapshot {
    let mut reg = MetricsRegistry::default();
    for _ in 0..d.len() {
        reg.counter_add(&d.name(), d.count());
        reg.gauge_set(&d.name(), d.real());
        let histogram = d.name();
        for _ in 0..d.len() {
            reg.observe(&histogram, d.real().abs());
        }
    }
    let mut snap = reg.snapshot();
    if d.flag() {
        snap.histograms
            .insert("never.observed".into(), Default::default());
    }
    snap
}

fn attribution(d: &mut Dice) -> AttributionSection {
    AttributionSection {
        symbols: d.vec(|d| SymbolCounters {
            symbol: d.name(),
            counters: CounterSet {
                cycles: d.count(),
                insts: d.count(),
                blocks: d.count(),
                taken_branches: d.count(),
                fallthroughs: d.count(),
                l1i_misses: d.count(),
                l2_code_misses: d.count(),
                l3_code_misses: d.count(),
                itlb_misses: d.count(),
                stlb_walks: d.count(),
                baclears: d.count(),
                dsb_misses: d.count(),
                prefetches: d.count(),
            },
        }),
    }
}

fn run_report(d: &mut Dice) -> RunReport {
    let mut r = RunReport {
        benchmark: d.name(),
        scale: d.real(),
        seed: d.count(),
        fault_plan: if d.flag() {
            String::new()
        } else {
            "transient=0.5".into()
        },
        degradation: degradation(d),
        telemetry: d.flag().then(|| metrics(d)),
        // An empty section is written as an absent one.
        attribution: Some(attribution(d)).filter(|a| !a.is_empty()),
        ..RunReport::default()
    };
    for _ in 0..d.len() {
        r.metrics.insert(d.name(), d.real());
        r.wall.insert(d.name(), d.real());
    }
    r.layout.functions = d.rows(
        |d| FunctionProvenance {
            func_symbol: d.name(),
            total_samples: d.count(),
            hot_blocks: d.small() as usize,
            cold_blocks: d.small() as usize,
            merge_gains: d.vec(Dice::real),
            layout_score: d.real(),
            input_score: d.real(),
            used_input_order: d.flag(),
            clusters: d.vec(|d| ClusterProvenance {
                symbol: d.name(),
                blocks: d.vec(Dice::small),
                weight: d.count(),
                size: d.count(),
                cold: d.flag(),
                symbol_order_pos: d.flag().then(|| d.small() as usize),
            }),
        },
        |f| &f.func_symbol,
    );
    r
}

fn provenance_doc(d: &mut Dice) -> ProvenanceDoc {
    let split = |d: &mut Dice| d.flag().then(|| d.small() as usize);
    ProvenanceDoc {
        benchmark: d.name(),
        scale: d.real(),
        seed: d.count(),
        functions: d.rows(
            |d| ProvenanceFunction {
                func_symbol: d.name(),
                func_index: d.small(),
                nodes: d.vec(|d| Node {
                    id: d.small(),
                    size: d.small(),
                    count: d.count(),
                }),
                edges: d.vec(|d| Edge {
                    src: d.small(),
                    dst: d.small(),
                    weight: d.count(),
                }),
                steps: d.vec(|d| MergeStep {
                    x: d.small() as usize,
                    y: d.small() as usize,
                    gain: d.real(),
                    split: split(d),
                    rejected: d.flag().then(|| RejectedAlt {
                        x: d.small() as usize,
                        y: d.small() as usize,
                        gain: d.real(),
                        split: split(d),
                    }),
                }),
                evaluations: d.count(),
                used_input_order: d.flag(),
                final_score: d.real(),
                input_score: d.real(),
                order: d.vec(Dice::small),
            },
            |f| &f.func_symbol,
        ),
        funding: EdgeFunding {
            records: d.vec(|d| FundingRecord {
                func: d.small(),
                src: d.small(),
                dst: d.small(),
                kind: if d.flag() {
                    EdgeKind::Branch
                } else {
                    EdgeKind::Fallthrough
                },
                from: d.count(),
                to: d.count(),
                weight: d.count(),
            }),
        },
        placements: d.rows(
            |d| SymbolPlacement {
                symbol: d.name().into(),
                order: d.small(),
                addr: d.count(),
                input_size: d.count(),
                final_size: d.count(),
                deleted_jumps: d.small(),
                shrunk_branches: d.small(),
            },
            |p| &p.symbol,
        ),
        merge_sources: d.flag().then(|| MergeProvenance {
            max_age: d.small(),
            decay_num: d.small(),
            decay_den: d.small(),
            sources: d.vec(|d| SourceContribution {
                index: d.small() as usize,
                weight: d.count(),
                age: d.small(),
                // A u128: beyond 2^53 only powers of two stay exact.
                effective: if d.flag() {
                    u128::from(d.count())
                } else {
                    1 << d.below(120)
                },
                branch_total: d.count(),
            }),
        }),
        attribution: d.vec(|d| (d.name(), d.count())),
    }
}

/// The attribution section and the metrics snapshot travel inside a
/// run report; standalone, they are read the way `RunReport::parse`
/// reads its members.
fn attribution_doc(text: &str) -> Result<AttributionSection, SchemaError> {
    read_doc("attribution", text, AttributionSection::from_json)
}

fn metrics_doc(text: &str) -> Result<MetricsSnapshot, SchemaError> {
    read_doc("metrics", text, MetricsSnapshot::from_json)
}

/// One readable artifact: a serialized value and its type's parser,
/// returning the parsed value's own serialization.
struct Artifact {
    name: &'static str,
    text: String,
    reparse: fn(&str) -> Result<String, SchemaError>,
}

fn artifacts(seed: u64) -> [Artifact; 4] {
    let d = &mut Dice(seed);
    let pretty = |v: JsonValue| v.to_string_pretty();
    [
        Artifact {
            name: "run_report",
            text: run_report(d).to_json_string(),
            reparse: |t| RunReport::parse(t).map(|v| v.to_json_string()),
        },
        Artifact {
            name: "layout_provenance",
            text: provenance_doc(d).to_json_string(),
            reparse: |t| ProvenanceDoc::parse(t).map(|v| v.to_json_string()),
        },
        Artifact {
            name: "attribution",
            text: pretty(attribution(d).to_json()),
            reparse: |t| attribution_doc(t).map(|v| v.to_json().to_string_pretty()),
        },
        Artifact {
            name: "metrics",
            text: pretty(metrics(d).to_json()),
            reparse: |t| metrics_doc(t).map(|v| v.to_json().to_string_pretty()),
        },
    ]
}

#[derive(Clone, Debug)]
enum Seg {
    Key(String),
    Idx(usize),
}

/// Paths of every object member (`members`) or every number (`!members`).
fn paths(v: &JsonValue, members: bool, at: &mut Vec<Seg>, out: &mut Vec<Vec<Seg>>) {
    let mut visit = |seg: Seg, child: &JsonValue, is_member: bool| {
        at.push(seg);
        if members == is_member && (members || matches!(child, JsonValue::Num(_))) {
            out.push(at.clone());
        }
        paths(child, members, at, out);
        at.pop();
    };
    match v {
        JsonValue::Obj(m) => m
            .iter()
            .for_each(|(k, c)| visit(Seg::Key(k.clone()), c, true)),
        JsonValue::Arr(a) => a
            .iter()
            .enumerate()
            .for_each(|(i, c)| visit(Seg::Idx(i), c, false)),
        _ => {}
    }
}

/// The value at `path`; with `remove`, that member is taken out of its
/// object and `None` comes back.
fn at_mut<'a>(v: &'a mut JsonValue, path: &[Seg], remove: bool) -> Option<&'a mut JsonValue> {
    let Some((seg, rest)) = path.split_first() else {
        return Some(v);
    };
    match (v, seg) {
        (JsonValue::Obj(m), Seg::Key(k)) => {
            let i = m.iter().position(|(name, _)| name == k)?;
            if remove && rest.is_empty() {
                m.remove(i);
                return None;
            }
            at_mut(&mut m[i].1, rest, remove)
        }
        (JsonValue::Arr(a), Seg::Idx(i)) => at_mut(&mut a[*i], rest, remove),
        _ => None,
    }
}

fn keys(path: &[Seg]) -> Vec<&str> {
    path.iter()
        .filter_map(|s| match s {
            Seg::Key(k) => Some(k.as_str()),
            Seg::Idx(_) => None,
        })
        .collect()
}

/// Whether a reader must notice that the member at `path` is gone:
/// everything its writer always emits. Not required are members that
/// are omitted when empty or `null` when absent, and entries of
/// name-keyed maps.
fn required(path: &[Seg]) -> bool {
    const OMITTABLE: [&str; 10] = [
        "fault_plan",
        "degradation",
        "telemetry",
        "attribution",
        "merge_sources",
        "min",
        "max",
        "split",
        "rejected",
        "order_pos",
    ];
    const NAME_KEYED: [&str; 5] = ["metrics", "wall", "counters", "gauges", "histograms"];
    let keys = keys(path);
    let (last, outer) = keys.split_last().expect("a member path ends in a key");
    !OMITTABLE.contains(last) && !outer.last().is_some_and(|map| NAME_KEYED.contains(map))
}

/// A damaged document must come back as an error, or as a value that
/// itself serializes to well-formed JSON.
fn survives(a: &Artifact, damaged: &str) -> Result<bool, TestCaseError> {
    match (a.reparse)(damaged) {
        Err(_) => Ok(false),
        Ok(text) => {
            prop_assert!(
                JsonValue::parse(&text).is_ok(),
                "{}: reserialized {text}",
                a.name
            );
            Ok(true)
        }
    }
}

proptest! {
    // Each case damages one member and one number per artifact, so it
    // takes a few hundred to visit most of every schema.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_readable_artifact_round_trips(seed in any::<u64>()) {
        for a in artifacts(seed) {
            // Equal serializations of equal types: the parsed value is
            // the written one (`ci/bench_baseline.json` relies on it).
            let back = (a.reparse)(&a.text);
            prop_assert_eq!(back.as_ref(), Ok(&a.text), "{}", a.name);
        }
        let d = &mut Dice(seed);
        let (r, p) = (run_report(d), provenance_doc(d));
        prop_assert_eq!(RunReport::parse(&r.to_json_string()), Ok(r));
        prop_assert_eq!(ProvenanceDoc::parse(&p.to_json_string()), Ok(p));
        let (m, a) = (metrics(d), attribution(d));
        prop_assert_eq!(metrics_doc(&m.to_json().to_string_compact()), Ok(m));
        prop_assert_eq!(attribution_doc(&a.to_json().to_string_compact()), Ok(a));
    }

    #[test]
    fn damaged_artifacts_are_errors_or_sane_values(seed in any::<u64>(), pick in any::<u64>()) {
        for a in artifacts(seed) {
            let d = &mut Dice(pick);
            let tree = JsonValue::parse(&a.text).expect("writers emit JSON");

            // Cut short at any byte (backed up to a character boundary).
            let mut cut = d.below(a.text.len() as u64) as usize;
            while !a.text.is_char_boundary(cut) {
                cut -= 1;
            }
            let parsed = survives(&a, &a.text[..cut])?;
            // Only the trailing newline can go unnoticed.
            prop_assert!(!parsed || cut + 1 == a.text.len(), "{} cut at {cut} parsed", a.name);

            // One member deleted, anywhere in the tree.
            let mut members = Vec::new();
            paths(&tree, true, &mut Vec::new(), &mut members);
            if !members.is_empty() {
                let path = &members[d.below(members.len() as u64) as usize];
                let mut damaged = tree.clone();
                at_mut(&mut damaged, path, true);
                let parsed = survives(&a, &damaged.to_string_pretty())?;
                prop_assert!(
                    !(parsed && required(path)),
                    "{}: dropping {path:?} went unnoticed", a.name
                );
                if required(path) {
                    let err = (a.reparse)(&damaged.to_string_compact()).unwrap_err().to_string();
                    let last = keys(path).pop().unwrap_or_default().to_string();
                    prop_assert!(
                        err.starts_with("missing `") && err.ends_with(&format!("{last}`")),
                        "{}: dropping {path:?} reported as {err}", a.name
                    );
                }
            }

            // One number replaced by something a reader must not narrow.
            let mut numbers = Vec::new();
            paths(&tree, false, &mut Vec::new(), &mut numbers);
            if !numbers.is_empty() {
                let path = &numbers[d.below(numbers.len() as u64) as usize];
                for hostile in [
                    JsonValue::Str("7".into()),
                    JsonValue::Num(-3.0),
                    JsonValue::Num(4_294_967_296.0),
                    JsonValue::Num(0.5),
                ] {
                    let mut damaged = tree.clone();
                    *at_mut(&mut damaged, path, false).expect("path of a number") = hostile.clone();
                    let parsed = survives(&a, &damaged.to_string_pretty())?;
                    // Every number a reader reads is type-checked.
                    prop_assert!(
                        !parsed || hostile.as_f64().is_some(),
                        "{}: a string at {path:?} parsed", a.name
                    );
                }
            }
        }
    }
}
