//! Dynamic control flow graphs, built incrementally from samples
//! (§3.3): "The graph is built incrementally, defining edges as samples
//! are processed. Reconstructing the control flow does not require
//! disassembly."

use crate::mapper::AddressMapper;
use propeller_profile::AggregatedProfile;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// How a dynamic edge was observed.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum EdgeKind {
    /// A taken branch between blocks of one function.
    Branch,
    /// Straight-line execution between adjacent blocks.
    Fallthrough,
}

impl EdgeKind {
    /// Stable short label, used by the provenance document.
    pub fn label(self) -> &'static str {
        match self {
            EdgeKind::Branch => "branch",
            EdgeKind::Fallthrough => "fallthrough",
        }
    }
}

/// One aggregated profile observation that funded an intra-function CFG
/// edge weight: the raw address pair the hardware reported, and the
/// block edge it mapped to.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct FundingRecord {
    /// Mapper function index of the funded edge.
    pub func: u32,
    /// Source block id of the funded edge.
    pub src: u32,
    /// Destination block id of the funded edge.
    pub dst: u32,
    /// Observation kind of the funded edge.
    pub kind: EdgeKind,
    /// Raw profile `from` address (branch source, or fall-through range
    /// start).
    pub from: u64,
    /// Raw profile `to` address (branch target, or fall-through range
    /// end).
    pub to: u64,
    /// Aggregated sample weight this observation contributed.
    pub weight: u64,
}

/// The sample-mass-to-edge-weight ledger [`Dcfg::build_logged`] fills
/// when armed: every intra-function edge weight, attributed back to the
/// aggregated profile address pairs that funded it. Records are sorted
/// by `(func, src, dst, kind, from, to)` so the ledger is byte-stable
/// regardless of profile hash-map iteration order.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct EdgeFunding {
    /// All funding observations, in the fixed sort order.
    pub records: Vec<FundingRecord>,
}

impl EdgeFunding {
    /// The records funding any edge of one function.
    pub fn for_func(&self, func: u32) -> Vec<&FundingRecord> {
        self.records.iter().filter(|r| r.func == func).collect()
    }
}

/// The dynamic CFG of one function: only blocks and edges that actually
/// appeared in samples exist here.
#[derive(Clone, Debug, Default)]
pub struct DcfgFunction {
    /// Sample-derived execution counts per block id.
    pub block_counts: HashMap<u32, u64>,
    /// Edge weights keyed by `(src, dst, kind)`.
    pub edges: HashMap<(u32, u32, EdgeKind), u64>,
}

impl DcfgFunction {
    /// Total dynamic weight of the function.
    pub fn total_count(&self) -> u64 {
        self.block_counts
            .values()
            .fold(0, |s, &c| s.saturating_add(c))
    }
}

/// Adds `w` to a weight, pinning it at `u64::MAX` like the aggregated
/// profile's own counts: a saturated-hot edge must stay hot, never wrap
/// to cold.
pub(crate) fn saturating_add<K>(entry: Entry<'_, K, u64>, w: u64) {
    let c = entry.or_insert(0);
    *c = c.saturating_add(w);
}

/// The whole-program dynamic CFG.
#[derive(Clone, Debug, Default)]
pub struct Dcfg {
    /// Per-function graphs, indexed like the mapper's function indices.
    pub functions: Vec<DcfgFunction>,
    /// Inter-function call weights `(caller function, call-site block,
    /// callee function)` — transfers whose destination is a function
    /// entry block. The call-site block is kept so inter-procedural
    /// layout can place callees near their call sites (§4.7).
    pub calls: HashMap<(u32, u32, u32), u64>,
    /// Inter-function return weights `(returnee, returner)`.
    pub returns: HashMap<(u32, u32), u64>,
    /// Address resolutions attempted while building, weighted by sample
    /// weight (each aggregated branch endpoint / fall-through landing
    /// counts once per observed sample).
    pub addr_lookups: u64,
    /// Of [`Dcfg::addr_lookups`], how many missed every mapped block
    /// (kernel addresses, stripped functions, dropped cold maps).
    /// Samples behind these are silently absent from the graph — the
    /// doctor's unmapped-address rate is `addr_unmapped/addr_lookups`.
    pub addr_unmapped: u64,
}

impl Dcfg {
    /// Builds the DCFG from an aggregated profile.
    ///
    /// Samples that do not map to any known block (kernel addresses,
    /// stripped functions) are skipped, as in the real tool.
    pub fn build(mapper: &AddressMapper, profile: &AggregatedProfile) -> Self {
        Self::build_logged(mapper, profile, None)
    }

    /// [`Dcfg::build`], additionally filling `funding` (when given)
    /// with the profile-address-to-edge attribution ledger. The built
    /// graph is identical either way; arming only records *why* each
    /// intra-function edge got its weight.
    pub fn build_logged(
        mapper: &AddressMapper,
        profile: &AggregatedProfile,
        mut funding: Option<&mut EdgeFunding>,
    ) -> Self {
        let mut dcfg = Dcfg {
            functions: vec![DcfgFunction::default(); mapper.num_functions()],
            ..Dcfg::default()
        };
        for (&(from, to), &w) in &profile.branches {
            let src = mapper.lookup_idx(from);
            let dst = mapper.lookup_idx(to);
            // Weights are u64 sample counts under the profile's
            // control; saturate rather than wrap on adversarial input
            // (a wrapped counter would silently report a clean profile).
            dcfg.addr_lookups = dcfg.addr_lookups.saturating_add(w.saturating_mul(2));
            dcfg.addr_unmapped = dcfg
                .addr_unmapped
                .saturating_add(w.saturating_mul(src.is_none() as u64 + dst.is_none() as u64));
            let (Some((sf, sb)), Some((df, db))) = (src, dst) else {
                continue;
            };
            if sf == df {
                saturating_add(
                    dcfg.functions[sf as usize]
                        .edges
                        .entry((sb, db, EdgeKind::Branch)),
                    w,
                );
                if let Some(funding) = funding.as_deref_mut() {
                    funding.records.push(FundingRecord {
                        func: sf,
                        src: sb,
                        dst: db,
                        kind: EdgeKind::Branch,
                        from,
                        to,
                        weight: w,
                    });
                }
            } else if db == 0 {
                saturating_add(dcfg.calls.entry((sf, sb, df)), w);
            } else {
                saturating_add(dcfg.returns.entry((df, sf)), w);
            }
        }
        for (&(lo, hi), &w) in &profile.fallthroughs {
            if hi < lo {
                continue;
            }
            // Credit every block whose start lies in the executed
            // range, and the fall-through edges between consecutive
            // same-function blocks.
            let mut prev: Option<(u32, u32)> = None;
            // The block containing `lo` (a return may land mid-block).
            dcfg.addr_lookups = dcfg.addr_lookups.saturating_add(w);
            if let Some((f, b)) = mapper.lookup_idx(lo) {
                saturating_add(dcfg.functions[f as usize].block_counts.entry(b), w);
                prev = Some((f, b));
            } else {
                dcfg.addr_unmapped = dcfg.addr_unmapped.saturating_add(w);
            }
            for (f, b) in mapper.blocks_starting_in(lo, hi) {
                if prev == Some((f, b)) {
                    continue; // `lo` was exactly the block start
                }
                saturating_add(dcfg.functions[f as usize].block_counts.entry(b), w);
                if let Some((pf, pb)) = prev {
                    if pf == f {
                        saturating_add(
                            dcfg.functions[f as usize]
                                .edges
                                .entry((pb, b, EdgeKind::Fallthrough)),
                            w,
                        );
                        if let Some(funding) = funding.as_deref_mut() {
                            funding.records.push(FundingRecord {
                                func: f,
                                src: pb,
                                dst: b,
                                kind: EdgeKind::Fallthrough,
                                from: lo,
                                to: hi,
                                weight: w,
                            });
                        }
                    }
                }
                prev = Some((f, b));
            }
        }
        // Branch endpoints also prove execution: make sure branch
        // sources and targets have nonzero counts even if no
        // fall-through range covered them.
        for fi in 0..dcfg.functions.len() {
            let keys: Vec<(u32, u32, EdgeKind)> =
                dcfg.functions[fi].edges.keys().copied().collect();
            for (src, dst, kind) in keys {
                let w = dcfg.functions[fi].edges[&(src, dst, kind)];
                for b in [src, dst] {
                    let c = dcfg.functions[fi].block_counts.entry(b).or_insert(0);
                    *c = (*c).max(w);
                }
            }
        }
        // The profile maps iterate in hash order; fix the ledger order
        // so provenance serialization is byte-stable.
        if let Some(funding) = funding {
            funding
                .records
                .sort_unstable_by_key(|r| (r.func, r.src, r.dst, r.kind, r.from, r.to));
        }
        dcfg
    }

    /// Total number of distinct edges (intra + calls + returns).
    pub fn num_edges(&self) -> usize {
        self.functions.iter().map(|f| f.edges.len()).sum::<usize>()
            + self.calls.len()
            + self.returns.len()
    }

    /// Number of distinct blocks observed hot.
    pub fn num_hot_blocks(&self) -> usize {
        self.functions.iter().map(|f| f.block_counts.len()).sum()
    }

    /// Modeled memory: ~40 bytes per node, ~48 per edge — the
    /// "in-memory DCFG" of §5.1 whose size Phase 3's peak memory is
    /// attributed to. Counts widen to u64 *before* multiplying, so the
    /// product cannot wrap usize on 32-bit hosts.
    pub fn modeled_memory_bytes(&self) -> u64 {
        self.num_hot_blocks() as u64 * 40 + self.num_edges() as u64 * 48
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_codegen::{codegen_module, CodegenOptions};
    use propeller_ir::Program;
    use propeller_ir::{BlockId, FunctionBuilder, Inst, ProgramBuilder, Terminator};
    use propeller_linker::{link, LinkInput, LinkOptions, LinkedBinary};
    use propeller_profile::{HardwareProfile, LbrRecord, LbrSample};

    fn binary() -> LinkedBinary {
        link_program(&program())
    }

    /// alpha: bb0(9B) -> bb1; beta: bb0 -> ret.
    fn program() -> Program {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m.cc");
        let mut f = FunctionBuilder::new("alpha");
        f.add_block(
            vec![Inst::Alu; 3],
            Terminator::CondBr {
                taken: BlockId(1),
                fallthrough: BlockId(2),
                prob_taken: 0.5,
            },
        );
        f.add_block(vec![Inst::Load], Terminator::Ret);
        f.add_block(vec![Inst::Load], Terminator::Ret);
        pb.add_function(m, f);
        let mut g = FunctionBuilder::new("beta");
        g.add_block(vec![Inst::Store; 2], Terminator::Ret);
        pb.add_function(m, g);
        pb.finish().unwrap()
    }

    fn link_program(p: &Program) -> LinkedBinary {
        let r = codegen_module(&p.modules()[0], p, &CodegenOptions::with_labels()).unwrap();
        link(
            &[LinkInput::new(r.object, r.debug_layout)],
            &LinkOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn branch_samples_become_intra_edges() {
        let bin = binary();
        let mapper = AddressMapper::from_binary(&bin);
        let alpha = bin.symbol("alpha").unwrap();
        let mut prof = HardwareProfile::new("t");
        // bb0 ends at 9+6=15 (alu*3 + long-ish branch); branch "from"
        // anywhere inside bb0, target bb1.
        let alpha_layout = bin
            .layout
            .functions
            .iter()
            .find(|f| &*f.func_symbol == "alpha")
            .unwrap();
        let bb1 = alpha_layout
            .blocks
            .iter()
            .find(|b| b.block == BlockId(1))
            .unwrap();
        prof.samples.push(LbrSample::new(vec![
            LbrRecord {
                from: alpha + 2,
                to: bb1.addr,
            };
            3
        ]));
        let agg = AggregatedProfile::from_profile(&prof);
        let dcfg = Dcfg::build(&mapper, &agg);
        let af = &dcfg.functions[0];
        assert_eq!(af.edges[&(0, 1, EdgeKind::Branch)], 3);
        assert!(af.block_counts[&0] >= 3);
        assert!(af.block_counts[&1] >= 3);
    }

    #[test]
    fn cross_function_entry_transfer_is_a_call() {
        let bin = binary();
        let mapper = AddressMapper::from_binary(&bin);
        let alpha = bin.symbol("alpha").unwrap();
        let beta = bin.symbol("beta").unwrap();
        let mut prof = HardwareProfile::new("t");
        prof.samples.push(LbrSample::new(vec![LbrRecord {
            from: alpha + 1,
            to: beta,
        }]));
        let agg = AggregatedProfile::from_profile(&prof);
        let dcfg = Dcfg::build(&mapper, &agg);
        assert_eq!(dcfg.calls.len(), 1);
        assert_eq!(dcfg.calls.values().sum::<u64>(), 1);
        assert!(dcfg.returns.is_empty());
    }

    #[test]
    fn fallthrough_ranges_credit_covered_blocks() {
        let bin = binary();
        let mapper = AddressMapper::from_binary(&bin);
        let alpha = bin.symbol("alpha").unwrap();
        let alpha_layout = bin
            .layout
            .functions
            .iter()
            .find(|f| &*f.func_symbol == "alpha")
            .unwrap();
        let bb1 = alpha_layout
            .blocks
            .iter()
            .find(|b| b.block == BlockId(1))
            .unwrap();
        let mut prof = HardwareProfile::new("t");
        // Two records whose gap covers bb0 and bb1: landed at alpha,
        // next branch fired from inside bb1.
        prof.samples.push(LbrSample::new(vec![
            LbrRecord {
                from: alpha + 100,
                to: alpha,
            },
            LbrRecord {
                from: bb1.addr + 1,
                to: alpha,
            },
        ]));
        let agg = AggregatedProfile::from_profile(&prof);
        let dcfg = Dcfg::build(&mapper, &agg);
        let af = &dcfg.functions[0];
        assert!(af.block_counts[&0] >= 1);
        assert!(af.block_counts[&1] >= 1);
        assert_eq!(af.edges[&(0, 1, EdgeKind::Fallthrough)], 1);
    }

    #[test]
    fn armed_build_attributes_edge_weights_to_profile_addresses() {
        let bin = binary();
        let mapper = AddressMapper::from_binary(&bin);
        let alpha = bin.symbol("alpha").unwrap();
        let alpha_layout = bin
            .layout
            .functions
            .iter()
            .find(|f| &*f.func_symbol == "alpha")
            .unwrap();
        let bb1 = alpha_layout
            .blocks
            .iter()
            .find(|b| b.block == BlockId(1))
            .unwrap();
        let mut prof = HardwareProfile::new("t");
        prof.samples.push(LbrSample::new(vec![
            LbrRecord {
                from: alpha + 2,
                to: bb1.addr,
            };
            3
        ]));
        let agg = AggregatedProfile::from_profile(&prof);
        let plain = Dcfg::build(&mapper, &agg);
        let mut funding = EdgeFunding::default();
        let armed = Dcfg::build_logged(&mapper, &agg, Some(&mut funding));
        // Arming must not change the graph itself.
        assert_eq!(armed.num_edges(), plain.num_edges());
        assert_eq!(
            armed.functions[0].edges[&(0, 1, EdgeKind::Branch)],
            plain.functions[0].edges[&(0, 1, EdgeKind::Branch)]
        );
        // The edge weight traces back to the exact raw address pair.
        let recs: Vec<&FundingRecord> = funding
            .records
            .iter()
            .filter(|r| (r.func, r.src, r.dst) == (0, 0, 1))
            .collect();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].from, alpha + 2);
        assert_eq!(recs[0].to, bb1.addr);
        assert_eq!(recs[0].weight, 3);
        assert_eq!(recs[0].kind, EdgeKind::Branch);
        // Funded weights sum to the edge weight.
        let total: u64 = recs.iter().map(|r| r.weight).sum();
        assert_eq!(total, armed.functions[0].edges[&(0, 1, EdgeKind::Branch)]);
        assert_eq!(funding.for_func(0).len(), funding.records.len());
    }

    #[test]
    fn saturated_weights_stay_saturated_through_interprocedural_wpa() {
        // The aggregated profile pins its counts at u64::MAX, so every
        // sum of them must pin too; wrapped, the hottest edge turns
        // cold. Two records from different addresses in alpha's bb0 to
        // bb1 sum past u64::MAX, as do two fall-through ranges over
        // bb0 → bb1. A light bb1 → bb2 branch makes all three blocks
        // hot, so the inter-procedural split gives each its own section
        // and the two saturated edges join the same pair of sections.
        let p = program();
        let bin = link_program(&p);
        let alpha = bin.symbol("alpha").unwrap();
        let block = |id: u32| {
            let f = bin
                .layout
                .functions
                .iter()
                .find(|f| &*f.func_symbol == "alpha");
            f.unwrap()
                .blocks
                .iter()
                .find(|b| b.block == BlockId(id))
                .unwrap()
                .addr
        };
        let half = u64::MAX / 2 + 1;
        let mut agg = AggregatedProfile::default();
        agg.branches.insert((alpha + 1, block(1)), half);
        agg.branches.insert((alpha + 2, block(1)), half);
        agg.branches.insert((block(1), block(2)), 7);
        agg.fallthroughs.insert((alpha, block(1)), half);
        agg.fallthroughs.insert((alpha, block(1) + 1), half);

        let dcfg = Dcfg::build(&AddressMapper::from_binary(&bin), &agg);
        let af = &dcfg.functions[0];
        assert_eq!(af.edges[&(0, 1, EdgeKind::Branch)], u64::MAX);
        assert_eq!(af.edges[&(0, 1, EdgeKind::Fallthrough)], u64::MAX);
        assert_eq!(af.block_counts[&0], u64::MAX);
        assert_eq!(af.total_count(), u64::MAX);

        let out = crate::run_wpa_agg_traced(
            &p,
            &bin,
            &agg,
            0,
            &crate::WpaOptions::interprocedural(),
            &propeller_telemetry::Telemetry::disabled(),
            None,
        );
        assert_eq!(out.stats.hot_functions, 1);
        let prov = &out.provenance.functions[0];
        assert_eq!(prov.total_samples, u64::MAX);
        let weights: Vec<(&str, u64)> = prov
            .clusters
            .iter()
            .map(|c| (c.symbol.as_str(), c.weight))
            .collect();
        assert_eq!(
            weights,
            [("alpha", u64::MAX), ("alpha.1", u64::MAX), ("alpha.2", 7)]
        );
        let names: Vec<&str> = out.symbol_order.names().iter().map(|n| &**n).collect();
        assert_eq!(names, ["alpha.1", "alpha", "alpha.2"]);
    }

    #[test]
    fn unmappable_samples_skipped() {
        let bin = binary();
        let mapper = AddressMapper::from_binary(&bin);
        let mut prof = HardwareProfile::new("t");
        prof.samples.push(LbrSample::new(vec![LbrRecord {
            from: 0xdead,
            to: 0xbeef,
        }]));
        let agg = AggregatedProfile::from_profile(&prof);
        let dcfg = Dcfg::build(&mapper, &agg);
        assert_eq!(dcfg.num_edges(), 0);
        assert_eq!(dcfg.num_hot_blocks(), 0);
        assert_eq!(dcfg.modeled_memory_bytes(), 0);
        // Both endpoints of the bogus branch missed the mapper.
        assert_eq!(dcfg.addr_lookups, 2);
        assert_eq!(dcfg.addr_unmapped, 2);
    }

    #[test]
    fn mapped_samples_count_lookups_without_misses() {
        let bin = binary();
        let mapper = AddressMapper::from_binary(&bin);
        let alpha = bin.symbol("alpha").unwrap();
        let beta = bin.symbol("beta").unwrap();
        let mut prof = HardwareProfile::new("t");
        prof.samples.push(LbrSample::new(vec![LbrRecord {
            from: alpha + 1,
            to: beta,
        }]));
        let agg = AggregatedProfile::from_profile(&prof);
        let dcfg = Dcfg::build(&mapper, &agg);
        assert!(dcfg.addr_lookups >= 2);
        assert_eq!(dcfg.addr_unmapped, 0);
    }
}
