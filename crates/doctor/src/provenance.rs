//! The end-to-end layout provenance document: samples → edge weights →
//! merge decisions → placed bytes.
//!
//! A [`ProvenanceDoc`] joins everything the armed pipeline collected
//! about *why* the final layout looks the way it does:
//!
//! * Phase 3's sample-to-edge **funding ledger** — which profile
//!   address pairs, at what weight, funded each dynamic CFG edge;
//! * the **replayable Ext-TSP record** per hot function — the exact
//!   node/edge problem the optimizer was handed, every committed merge
//!   with its gain and the best rejected alternative, and the emitted
//!   hot-block order;
//! * the linker's **placement record** — where each ordered symbol
//!   landed, at what address, and what relaxation did to its bytes;
//! * under fleet merges, which [`ProfileSource`]s contributed at what
//!   decayed weight ([`propeller_profile::MergeProvenance`]).
//!
//! The document serializes to `layout_provenance.json` in a fixed
//! member order and contains nothing run-environment-dependent (no
//! wall clock, no job counts), so armed runs are byte-identical across
//! repetitions and `--jobs` values. It is written *beside*
//! `run_report.json`, never inside it: the default report surface is
//! bit-identical whether or not provenance was armed.

use crate::doctor::{Finding, Severity};
use crate::records::{field, unique_rows, Field};
use propeller::Propeller;
use propeller_linker::SymbolPlacement;
use propeller_profile::MergeProvenance;
use propeller_sim::SymbolAttribution;
use propeller_telemetry::json::{arr, obj, read_doc, JsonValue, Reader, SchemaError};
use propeller_wpa::exttsp::{replay_merges, ChainReplay, MergeStep};
use propeller_wpa::{EdgeFunding, FundingRecord, LayoutProvenance};
use std::collections::HashMap;
use std::fmt::Write as _;

/// One hot function's full decision record inside a [`ProvenanceDoc`]
/// — the record WPA wrote, as it wrote it: the Ext-TSP problem, the
/// committed merge steps, and the emitted hot-block order the steps
/// reconstruct.
pub use propeller_wpa::RichFunctionRecord as ProvenanceFunction;

/// The `layout_provenance.json` document.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ProvenanceDoc {
    /// Benchmark name.
    pub benchmark: String,
    /// Generation scale.
    pub scale: f64,
    /// Workload seed.
    pub seed: u64,
    /// One record per hot function, in address-map order.
    pub functions: Vec<ProvenanceFunction>,
    /// Which profile address pairs funded each CFG edge weight.
    pub funding: EdgeFunding,
    /// Final placement of every text symbol, in text order.
    pub placements: Vec<SymbolPlacement>,
    /// Fleet profile-merge contributions, when the profile that fed
    /// WPA was merged from several sources. Omitted from the JSON when
    /// absent.
    pub merge_sources: Option<MergeProvenance>,
    /// Per-symbol attributed cycles of the optimized binary's
    /// evaluation run, when attribution was collected. Omitted from
    /// the JSON when empty. `layout-diff` ranks moved symbols by this.
    pub attribution: Vec<(String, u64)>,
}

impl ProvenanceDoc {
    /// Gathers the document from a pipeline that ran with
    /// [`propeller::PropellerOptions::provenance`] armed: Phase 3's
    /// decision records and funding ledger, Phase 4's final text order.
    /// Whatever the pipeline does not hold (it was not armed, or a
    /// phase has not run) is empty, and the document still well-formed.
    pub fn collect(
        benchmark: &str,
        scale: f64,
        seed: u64,
        pipeline: &Propeller,
        merge_sources: Option<MergeProvenance>,
    ) -> ProvenanceDoc {
        let rich = pipeline.wpa_output().and_then(|w| w.rich.clone()).unwrap_or_default();
        ProvenanceDoc {
            benchmark: benchmark.to_string(),
            scale,
            seed,
            functions: rich.functions,
            funding: rich.funding,
            placements: pipeline.po_binary().map(|b| b.placements.clone()).unwrap_or_default(),
            merge_sources,
            attribution: Vec::new(),
        }
    }

    /// Replays every function's recorded merge steps and checks that
    /// the result is exactly the emitted order (and a duplicate-free
    /// permutation of the function's hot nodes).
    ///
    /// # Errors
    ///
    /// Returns a description of the first function whose record does
    /// not reconstruct its emitted order.
    pub fn validate_replay(&self) -> Result<(), String> {
        for f in &self.functions {
            let mut seen: Vec<u32> = f.order.clone();
            seen.sort_unstable();
            seen.dedup();
            if seen.len() != f.nodes.len() {
                return Err(format!(
                    "{}: emitted order is not a permutation of the {} hot nodes",
                    f.func_symbol,
                    f.nodes.len()
                ));
            }
            let replayed = if f.used_input_order {
                f.nodes.iter().map(|n| n.id).collect::<Vec<u32>>()
            } else {
                replay_merges(&f.nodes, 0, &f.steps)
                    .map_err(|e| format!("{}: replay failed: {e}", f.func_symbol))?
            };
            if replayed != f.order {
                return Err(format!(
                    "{}: replaying {} steps produced {:?}, but the emitted order is {:?}",
                    f.func_symbol,
                    f.steps.len(),
                    replayed,
                    f.order
                ));
            }
        }
        Ok(())
    }

    /// Looks up a function record by symbol.
    pub fn function(&self, symbol: &str) -> Option<&ProvenanceFunction> {
        self.functions.iter().find(|f| f.func_symbol == symbol)
    }

    /// Serializes the document as a [`JsonValue`] with a fixed member
    /// order. `merge_sources` and `attribution` are omitted when
    /// absent or empty.
    pub fn to_json(&self) -> JsonValue {
        obj([
            ("benchmark", self.benchmark.as_str().into()),
            ("scale", self.scale.into()),
            ("seed", self.seed.into()),
            ("functions", self.functions.write()),
            ("funding", self.funding.records.write()),
            ("placements", self.placements.write()),
        ])
        .with("merge_sources", self.merge_sources.as_ref().map(Field::write))
        .with(
            "attribution",
            (!self.attribution.is_empty()).then(|| {
                arr(&self.attribution, |(symbol, cycles)| {
                    obj([("symbol", symbol.as_str().into()), ("cycles", cycles.into())])
                })
            }),
        )
    }

    /// The pretty-printed JSON document.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    fn read(r: Reader<'_>) -> Result<ProvenanceDoc, SchemaError> {
        Ok(ProvenanceDoc {
            benchmark: r.get("benchmark")?,
            scale: r.get("scale")?,
            seed: r.get("seed")?,
            functions: unique_rows(r, "functions", "func")?,
            funding: EdgeFunding {
                records: field(r, "funding")?,
            },
            placements: unique_rows(r, "placements", "symbol")?,
            merge_sources: field(r, "merge_sources")?,
            attribution: r.member("attribution", Some(Vec::new()), |a| {
                a.to_arr(|row| Ok((row.get("symbol")?, row.get("cycles")?)))
            })?,
        })
    }

    /// Parses a serialized document.
    ///
    /// # Errors
    ///
    /// Reports JSON syntax errors and the first member that is absent
    /// or holds the wrong thing, by path.
    pub fn parse(text: &str) -> Result<ProvenanceDoc, SchemaError> {
        read_doc("layout_provenance", text, ProvenanceDoc::read)
    }
}

// ---------------------------------------------------------------------
// layout-diff
// ---------------------------------------------------------------------

/// One symbol whose final placement differs between two documents.
#[derive(Clone, PartialEq, Debug)]
pub struct MovedSymbol {
    /// The symbol.
    pub symbol: String,
    /// Text-order position in A / B.
    pub order_a: u32,
    /// Text-order position in B.
    pub order_b: u32,
    /// Final address in A.
    pub addr_a: u64,
    /// Final address in B.
    pub addr_b: u64,
    /// Attributed cycles in A, when A carried attribution.
    pub cycles_a: Option<u64>,
    /// Attributed cycles in B, when B carried attribution.
    pub cycles_b: Option<u64>,
}

impl MovedSymbol {
    /// Absolute attributed-cycle delta, when both sides have counters.
    pub fn cycle_delta(&self) -> Option<i64> {
        match (self.cycles_a, self.cycles_b) {
            (Some(a), Some(b)) => Some(b as i64 - a as i64),
            _ => None,
        }
    }
}

/// The structural difference between two provenance documents.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ProvenanceDiff {
    /// Symbols placed at a different text-order position, ranked by
    /// absolute attributed cycle delta (position delta when either
    /// side lacks attribution), largest first.
    pub moved: Vec<MovedSymbol>,
    /// Symbols placed only in A.
    pub only_a: Vec<String>,
    /// Symbols placed only in B.
    pub only_b: Vec<String>,
    /// The first merge decision that diverges between the two runs,
    /// named (function, step, both decisions) — `None` when every
    /// recorded decision matches.
    pub first_divergence: Option<String>,
}

impl ProvenanceDiff {
    /// True when the two documents describe the same layout decisions
    /// and placements.
    pub fn is_empty(&self) -> bool {
        self.moved.is_empty()
            && self.only_a.is_empty()
            && self.only_b.is_empty()
            && self.first_divergence.is_none()
    }
}

fn describe_step(s: &MergeStep) -> String {
    let split = match s.split {
        Some(p) => format!(" split@{p}"),
        None => String::new(),
    };
    format!("merge {}<-{}{split} gain {:.3}", s.x, s.y, s.gain)
}

/// Computes the structural diff between two provenance documents.
pub fn diff_docs(a: &ProvenanceDoc, b: &ProvenanceDoc) -> ProvenanceDiff {
    let mut d = ProvenanceDiff::default();

    // First diverging merge decision, scanning functions in A's order.
    'outer: for fa in &a.functions {
        let Some(fb) = b.function(&fa.func_symbol) else {
            d.first_divergence = Some(format!(
                "function {}: has a decision record only in A",
                fa.func_symbol
            ));
            break;
        };
        let n = fa.steps.len().min(fb.steps.len());
        for i in 0..n {
            let (sa, sb) = (&fa.steps[i], &fb.steps[i]);
            if sa.x != sb.x || sa.y != sb.y || sa.split != sb.split || sa.gain != sb.gain {
                d.first_divergence = Some(format!(
                    "function {}: step {}: A {} vs B {}",
                    fa.func_symbol,
                    i,
                    describe_step(sa),
                    describe_step(sb)
                ));
                break 'outer;
            }
        }
        if fa.steps.len() != fb.steps.len() {
            d.first_divergence = Some(format!(
                "function {}: A committed {} merges, B {}",
                fa.func_symbol,
                fa.steps.len(),
                fb.steps.len()
            ));
            break;
        }
    }
    if d.first_divergence.is_none() {
        if let Some(fb) = b
            .functions
            .iter()
            .find(|fb| a.function(&fb.func_symbol).is_none())
        {
            d.first_divergence = Some(format!(
                "function {}: has a decision record only in B",
                fb.func_symbol
            ));
        }
    }

    // Placement moves.
    let place_b: HashMap<&str, &SymbolPlacement> =
        b.placements.iter().map(|p| (&*p.symbol, p)).collect();
    let place_a: HashMap<&str, &SymbolPlacement> =
        a.placements.iter().map(|p| (&*p.symbol, p)).collect();
    let cycles_of = |doc: &ProvenanceDoc, sym: &str| -> Option<u64> {
        doc.attribution
            .iter()
            .find(|(s, _)| s == sym)
            .map(|&(_, c)| c)
    };
    for pa in &a.placements {
        match place_b.get(&*pa.symbol) {
            None => d.only_a.push(pa.symbol.to_string()),
            Some(pb) if pa.order != pb.order || pa.addr != pb.addr => {
                d.moved.push(MovedSymbol {
                    symbol: pa.symbol.to_string(),
                    order_a: pa.order,
                    order_b: pb.order,
                    addr_a: pa.addr,
                    addr_b: pb.addr,
                    cycles_a: cycles_of(a, &pa.symbol),
                    cycles_b: cycles_of(b, &pa.symbol),
                });
            }
            Some(_) => {}
        }
    }
    for pb in &b.placements {
        if !place_a.contains_key(&*pb.symbol) {
            d.only_b.push(pb.symbol.to_string());
        }
    }
    // Rank: attributed cycle delta when available, position delta
    // otherwise; symbol name breaks ties deterministically.
    d.moved.sort_by(|x, y| {
        let key = |m: &MovedSymbol| -> u64 {
            match m.cycle_delta() {
                Some(c) => c.unsigned_abs(),
                None => (m.order_a as i64 - m.order_b as i64).unsigned_abs(),
            }
        };
        key(y).cmp(&key(x)).then_with(|| x.symbol.cmp(&y.symbol))
    });
    d
}

/// Renders a `layout-diff` report.
pub fn render_layout_diff(name_a: &str, name_b: &str, d: &ProvenanceDiff) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "layout-diff {name_a} -> {name_b}");
    if d.is_empty() {
        let _ = writeln!(out, "  identical: no moved symbols, no diverging decisions");
        return out;
    }
    match &d.first_divergence {
        Some(div) => {
            let _ = writeln!(out, "  first diverging decision: {div}");
        }
        None => {
            let _ = writeln!(out, "  no diverging merge decisions");
        }
    }
    let _ = writeln!(out, "  moved symbols: {}", d.moved.len());
    for m in &d.moved {
        let cycles = match (m.cycles_a, m.cycles_b) {
            (Some(ca), Some(cb)) => {
                format!("  cycles {ca} -> {cb} ({:+})", cb as i64 - ca as i64)
            }
            _ => String::new(),
        };
        let _ = writeln!(
            out,
            "    {:<30} order {:>4} -> {:<4} addr {:#x} -> {:#x}{cycles}",
            m.symbol, m.order_a, m.order_b, m.addr_a, m.addr_b
        );
    }
    for s in &d.only_a {
        let _ = writeln!(out, "    {s:<30} only in {name_a}");
    }
    for s in &d.only_b {
        let _ = writeln!(out, "    {s:<30} only in {name_b}");
    }
    out
}

// ---------------------------------------------------------------------
// explain
// ---------------------------------------------------------------------

/// Renders the end-to-end decision trail for one function (optionally
/// narrowed to one block): sample mass → funded edge weights → merge
/// steps with gains and best rejected alternatives → final layout slot
/// and address, joined against attributed µarch counters when the
/// caller collected them.
///
/// # Errors
///
/// Returns a message when `func` has no decision record in `doc`.
pub fn render_explain(
    doc: &ProvenanceDoc,
    func: &str,
    block: Option<u32>,
    attr: Option<&SymbolAttribution>,
) -> Result<String, String> {
    let f = doc.function(func).ok_or_else(|| {
        format!(
            "no provenance record for `{func}` in {} (hot functions: {})",
            doc.benchmark,
            doc.functions.len()
        )
    })?;
    let mut out = String::new();
    let target = match block {
        Some(b) => format!("{func}:{b}"),
        None => func.to_string(),
    };
    let _ = writeln!(
        out,
        "explain {}/{target} (scale {}, seed {})",
        doc.benchmark, doc.scale, doc.seed
    );

    // 1. Sample mass.
    let mass: u64 = f.nodes.iter().map(|n| n.count).sum();
    let _ = writeln!(
        out,
        "  sample mass: {} block-weight across {} hot blocks",
        mass,
        f.nodes.len()
    );
    if let Some(b) = block {
        match f.nodes.iter().find(|n| n.id == b) {
            Some(n) => {
                let _ = writeln!(
                    out,
                    "  block {b}: weight {}, size {} bytes",
                    n.count, n.size
                );
            }
            None => {
                let _ = writeln!(out, "  block {b}: not hot (no decision record)");
            }
        }
    }
    if let Some(m) = &doc.merge_sources {
        let _ = writeln!(
            out,
            "  profile merged from {} sources (decay {}/{} per release of age):",
            m.sources.len(),
            m.decay_num,
            m.decay_den
        );
        for s in &m.sources {
            let _ = writeln!(
                out,
                "    source {}: weight {} age {} -> effective {} ({} branch events)",
                s.index, s.weight, s.age, s.effective, s.branch_total
            );
        }
    }

    // 2. Edge weights and the profile records that funded them.
    let records = doc.funding.for_func(f.func_index);
    let relevant: Vec<&FundingRecord> = records
        .iter()
        .copied()
        .filter(|r| block.is_none_or(|b| r.src == b || r.dst == b))
        .collect();
    let _ = writeln!(
        out,
        "  edge funding ({} profile records{}):",
        relevant.len(),
        if block.is_some() { " touching the block" } else { "" }
    );
    for r in &relevant {
        let _ = writeln!(
            out,
            "    {} -> {} {:<11} weight {:>8}  from {:#x}..{:#x}",
            r.src,
            r.dst,
            r.kind.label(),
            r.weight,
            r.from,
            r.to
        );
    }

    // 3. Merge decisions. Replaying the chains tells us which steps
    //    involved the selected block.
    let block_idx = block.and_then(|b| f.nodes.iter().position(|n| n.id == b));
    let mut replay = ChainReplay::new(f.nodes.len());
    let _ = writeln!(
        out,
        "  merge decisions: {} committed of {} evaluated",
        f.steps.len(),
        f.evaluations
    );
    for (i, s) in f.steps.iter().enumerate() {
        // A step involved the block when the chain it built holds it.
        let merged = replay.apply(s);
        let involved = block_idx.is_none_or(|bi| merged.is_ok_and(|m| m.contains(&bi)));
        if !involved {
            continue;
        }
        let split = match s.split {
            Some(p) => format!(" split@{p}"),
            None => String::new(),
        };
        let rejected = match &s.rejected {
            Some(r) => {
                let rsplit = match r.split {
                    Some(p) => format!(" split@{p}"),
                    None => String::new(),
                };
                format!(
                    " | best rejected: {}<-{}{rsplit} gain {:.3}",
                    r.x, r.y, r.gain
                )
            }
            None => " | no other positive-gain candidate queued".to_string(),
        };
        let _ = writeln!(
            out,
            "    step {i:>3}: chain {}<-{}{split} gain {:>10.3}{rejected}",
            s.x, s.y, s.gain
        );
    }
    let order = f
        .order
        .iter()
        .map(|b| b.to_string())
        .collect::<Vec<_>>()
        .join(" ");
    let _ = writeln!(
        out,
        "  emitted hot order: [{order}]{}",
        if f.used_input_order {
            " (input order kept: optimizer scored below it)"
        } else {
            ""
        }
    );
    let _ = writeln!(
        out,
        "  ext-tsp score: input {:.3} -> final {:.3}",
        f.input_score, f.final_score
    );

    // 4. Final placement.
    let fragment_prefix = format!("{func}.");
    let mut placed = false;
    for p in doc
        .placements
        .iter()
        .filter(|p| &*p.symbol == func || p.symbol.starts_with(&fragment_prefix))
    {
        placed = true;
        let _ = writeln!(
            out,
            "  placed: {:<30} order #{:<4} addr {:#x}  {} -> {} bytes \
             ({} jumps deleted, {} branches shrunk)",
            p.symbol,
            p.order,
            p.addr,
            p.input_size,
            p.final_size,
            p.deleted_jumps,
            p.shrunk_branches
        );
    }
    if !placed {
        let _ = writeln!(out, "  placed: (no placement record for {func})");
    }

    // 5. Attributed counters, when the caller simulated with
    //    attribution.
    if let Some(sym) = attr {
        let c = &sym.total;
        let _ = writeln!(
            out,
            "  counters: {} cycles, {} insts, {} l1i misses, {} itlb misses, {} baclears",
            c.cycles, c.insts, c.l1i_misses, c.itlb_misses, c.baclears
        );
        if let Some(b) = block {
            if let Some(ba) = sym.blocks.get(b as usize) {
                let _ = writeln!(
                    out,
                    "  block {b} counters: addr {:#x}, {} bytes, {} cycles, {} l1i misses",
                    ba.addr, ba.size, ba.counters.cycles, ba.counters.l1i_misses
                );
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// doctor findings
// ---------------------------------------------------------------------

/// Provenance coverage (hot functions with a full decision record /
/// hot functions) below this warns.
const COVERAGE_WARN: f64 = 0.95;

/// Grades provenance coverage: every hot-classified function in the
/// run's layout should carry a full decision record in the armed
/// document. Returns a single OK finding at full coverage.
pub fn provenance_findings(layout: &LayoutProvenance, doc: &ProvenanceDoc) -> Vec<Finding> {
    let hot = layout.functions.len();
    if hot == 0 {
        return vec![Finding {
            severity: Severity::Ok,
            metric: "provenance.coverage".into(),
            value: 1.0,
            message: "no hot functions; nothing to record".into(),
        }];
    }
    let covered = layout
        .functions
        .iter()
        .filter(|f| doc.function(&f.func_symbol).is_some())
        .count();
    let ratio = covered as f64 / hot as f64;
    let mut out = vec![Finding {
        severity: if ratio < COVERAGE_WARN {
            Severity::Warn
        } else {
            Severity::Ok
        },
        metric: "provenance.coverage".into(),
        value: ratio,
        message: format!("{covered} of {hot} hot functions carry a full decision record"),
    }];
    if let Err(e) = doc.validate_replay() {
        out.push(Finding {
            severity: Severity::Warn,
            metric: "provenance.replay".into(),
            value: 0.0,
            message: format!("recorded merge steps do not replay: {e}"),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_wpa::exttsp::{Edge, Node, RejectedAlt};
    use propeller_wpa::EdgeKind;

    fn sample_doc() -> ProvenanceDoc {
        ProvenanceDoc {
            benchmark: "clang".into(),
            scale: 0.004,
            seed: 77,
            functions: vec![ProvenanceFunction {
                func_symbol: "hot_a".into(),
                func_index: 3,
                nodes: vec![
                    Node { id: 0, size: 16, count: 100 },
                    Node { id: 1, size: 16, count: 90 },
                    Node { id: 2, size: 16, count: 80 },
                ],
                edges: vec![
                    Edge { src: 0, dst: 2, weight: 100 },
                    Edge { src: 2, dst: 1, weight: 90 },
                ],
                steps: vec![
                    MergeStep {
                        x: 0,
                        y: 2,
                        gain: 120.0,
                        split: None,
                        rejected: Some(RejectedAlt {
                            x: 1,
                            y: 2,
                            gain: 40.0,
                            split: Some(1),
                        }),
                    },
                    MergeStep { x: 0, y: 1, gain: 80.0, split: None, rejected: None },
                ],
                evaluations: 9,
                used_input_order: false,
                final_score: 1800.0,
                input_score: 177.0,
                order: vec![0, 2, 1],
            }],
            funding: EdgeFunding {
                records: vec![FundingRecord {
                    func: 3,
                    src: 0,
                    dst: 2,
                    kind: EdgeKind::Branch,
                    from: 0x40_1000,
                    to: 0x40_1040,
                    weight: 100,
                }],
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
    fn round_trips_through_json() {
        let doc = sample_doc();
        let back = ProvenanceDoc::parse(&doc.to_json_string()).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn round_trips_optional_members() {
        let mut doc = sample_doc();
        assert!(!doc.to_json_string().contains("merge_sources"));
        assert!(!doc.to_json_string().contains("attribution"));
        doc.merge_sources = Some(MergeProvenance {
            max_age: 5,
            decay_num: 1,
            decay_den: 2,
            sources: vec![propeller_profile::SourceContribution {
                index: 0,
                weight: 17,
                age: 2,
                effective: 68,
                branch_total: 1234,
            }],
        });
        doc.attribution.push(("hot_a".into(), 9000));
        let json = doc.to_json_string();
        assert!(json.contains("merge_sources"));
        assert!(json.contains("attribution"));
        let back = ProvenanceDoc::parse(&json).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn narrowing_reads_are_errors_with_a_path() {
        let text = sample_doc().to_json_string();
        let err = |from: &str, to: &str| {
            assert!(text.contains(from), "{from} not in {text}");
            ProvenanceDoc::parse(&text.replacen(from, to, 1)).unwrap_err().to_string()
        };
        // Used to wrap to function 0 through `as u32`.
        assert_eq!(
            err("\"func_index\": 3", "\"func_index\": 4294967296"),
            "expected an integer in 0..=4294967295 at `layout_provenance.functions[0].func_index`"
        );
        assert_eq!(
            err("\"kind\": \"branch\"", "\"kind\": \"call\""),
            "expected `branch` or `fallthrough` at `layout_provenance.funding[0].kind`"
        );
        assert_eq!(
            err("\"addr\": 4194304", "\"addr\": \"0x400000\""),
            "expected an integer in 0..=18446744073709551615 at \
             `layout_provenance.placements[0].addr`"
        );
        assert_eq!(err("\"placements\"", "\"placed\""), "missing `layout_provenance.placements`");
    }

    #[test]
    fn replay_validation_accepts_the_truth_and_rejects_lies() {
        let doc = sample_doc();
        doc.validate_replay().unwrap();
        let mut bad = doc.clone();
        bad.functions[0].order = vec![0, 1, 2];
        assert!(bad.validate_replay().is_err());
        let mut not_perm = doc;
        not_perm.functions[0].order = vec![0, 2, 2];
        assert!(not_perm.validate_replay().unwrap_err().contains("permutation"));
    }

    #[test]
    fn self_diff_is_structurally_empty() {
        let doc = sample_doc();
        let d = diff_docs(&doc, &doc);
        assert!(d.is_empty());
        assert!(render_layout_diff("a", "b", &d).contains("identical"));
    }

    #[test]
    fn diff_names_the_first_diverging_decision_and_ranks_moves() {
        let a = sample_doc();
        let mut b = sample_doc();
        b.functions[0].steps[1] =
            MergeStep { x: 0, y: 1, gain: 75.0, split: Some(2), rejected: None };
        b.placements[0].order = 4;
        b.placements[0].addr = 0x40_2000;
        b.placements.push(SymbolPlacement {
            symbol: "new_sym".into(),
            order: 5,
            addr: 0x40_3000,
            input_size: 10,
            final_size: 10,
            deleted_jumps: 0,
            shrunk_branches: 0,
        });
        let d = diff_docs(&a, &b);
        let div = d.first_divergence.as_deref().unwrap();
        assert!(div.contains("hot_a"), "{div}");
        assert!(div.contains("step 1"), "{div}");
        assert!(div.contains("gain 80.000") && div.contains("gain 75.000"), "{div}");
        assert_eq!(d.moved.len(), 1);
        assert_eq!(d.moved[0].symbol, "hot_a");
        assert_eq!(d.only_b, vec!["new_sym".to_string()]);
        let rendered = render_layout_diff("A.json", "B.json", &d);
        assert!(rendered.contains("first diverging decision"));
        assert!(rendered.contains("hot_a"));
    }

    #[test]
    fn diff_ranks_by_attributed_cycle_delta_when_present() {
        let mut a = sample_doc();
        let mut b = sample_doc();
        for doc in [&mut a, &mut b] {
            doc.placements.push(SymbolPlacement {
                symbol: "hot_b".into(),
                order: 1,
                addr: 0x40_0100,
                input_size: 32,
                final_size: 32,
                deleted_jumps: 0,
                shrunk_branches: 0,
            });
        }
        // Both symbols move one slot; hot_b's cycle delta is larger.
        b.placements[0].order = 2;
        b.placements[1].order = 3;
        a.attribution = vec![("hot_a".into(), 1000), ("hot_b".into(), 1000)];
        b.attribution = vec![("hot_a".into(), 1100), ("hot_b".into(), 5000)];
        let d = diff_docs(&a, &b);
        assert_eq!(d.moved[0].symbol, "hot_b");
        assert_eq!(d.moved[0].cycle_delta(), Some(4000));
        assert_eq!(d.moved[1].symbol, "hot_a");
    }

    #[test]
    fn explain_names_mass_merges_rejections_and_address() {
        let doc = sample_doc();
        let text = render_explain(&doc, "hot_a", None, None).unwrap();
        assert!(text.contains("sample mass: 270"), "{text}");
        assert!(text.contains("gain    120.000"), "{text}");
        assert!(text.contains("best rejected: 1<-2 split@1 gain 40.000"), "{text}");
        assert!(text.contains("no other positive-gain candidate queued"), "{text}");
        assert!(text.contains("0x400000"), "{text}");
        assert!(text.contains("emitted hot order: [0 2 1]"), "{text}");
        assert!(text.contains("2 jumps deleted, 1 branches shrunk"), "{text}");
        assert!(render_explain(&doc, "absent", None, None).is_err());
    }

    #[test]
    fn explain_narrows_to_a_block() {
        let doc = sample_doc();
        let text = render_explain(&doc, "hot_a", Some(1), None).unwrap();
        assert!(text.contains("block 1: weight 90"), "{text}");
        // Step 0 merges chains 0 and 2; block 1's chain is untouched
        // until step 1, so only step 1 is listed.
        assert!(!text.contains("step   0"), "{text}");
        assert!(text.contains("step   1"), "{text}");
        // The funding ledger only holds the 0->2 record, which does
        // not touch block 1.
        assert!(text.contains("0 profile records touching the block"), "{text}");
    }

    #[test]
    fn findings_warn_on_missing_records() {
        let doc = sample_doc();
        let mut layout = LayoutProvenance::default();
        let hot = |sym: &str| propeller_wpa::FunctionProvenance {
            func_symbol: sym.into(),
            total_samples: 100,
            hot_blocks: 3,
            cold_blocks: 0,
            merge_gains: Vec::new(),
            layout_score: 0.0,
            input_score: 0.0,
            used_input_order: false,
            clusters: Vec::new(),
        };
        layout.functions.push(hot("hot_a"));
        let ok = provenance_findings(&layout, &doc);
        assert_eq!(ok[0].severity, Severity::Ok);
        assert!((ok[0].value - 1.0).abs() < 1e-9);
        layout.functions.push(hot("hot_b"));
        let warn = provenance_findings(&layout, &doc);
        assert_eq!(warn[0].severity, Severity::Warn);
        assert!((warn[0].value - 0.5).abs() < 1e-9);
        assert!(warn[0].message.contains("1 of 2"));
    }
}
