//! The `llvm-bolt` + `perf2bolt` driver.

use crate::cfg::{reconstruct, RecCfg, BYTES_PER_BLOCK_RECORD};
use crate::disasm::{disassemble, discover_functions, DiscoveredFunction, BYTES_PER_INST_RECORD};
use crate::error::BoltError;
use crate::hfsort::{hfsort_order, FuncInfo};
use crate::rewrite::{rewrite, FunctionPlan};
use propeller_linker::{FinalLayout, LinkedBinary};
use propeller_obj::SizeBreakdown;
use propeller_profile::{AggregatedProfile, HardwareProfile};
use propeller_wpa::exttsp::{order_nodes, Edge, ExtTspParams, Node};
use std::collections::HashMap;

/// Configuration of the comparator. The paper's command line (§5,
/// Methodology) is fixed: `-reorder-blocks=cache+` (Ext-TSP block
/// reordering), `-split-functions` / `-split-all-cold` and
/// `-reorder-functions=hfsort` always run, in Table 3's `-lite=0`
/// configuration (every function carried through the optimization
/// stage), with the new text aligned to 2 MiB for hugepages (§5.3).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct BoltOptions {
    /// The input contains restartable sequences or FIPS-140-2
    /// integrity-checked modules that naive rewriting corrupts (§5.8).
    pub input_has_integrity_checks: bool,
}

/// Work and memory measures of one BOLT run.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct BoltStats {
    /// Functions discovered from the symbol table.
    pub functions_discovered: usize,
    /// Functions that disassembled cleanly.
    pub simple_functions: usize,
    /// Instructions decoded (everything; conversion needs it all).
    pub insts_decoded: u64,
    /// Blocks reconstructed.
    pub blocks_reconstructed: u64,
    /// Functions actually rewritten.
    pub optimized_functions: usize,
    /// Input text bytes.
    pub text_bytes: u64,
    /// Newly emitted text bytes.
    pub new_text_bytes: u64,
    /// Padding inserted to reach the new segment's alignment.
    pub alignment_padding: u64,
    /// Modeled peak memory of profile conversion (`perf2bolt`): full
    /// linear disassembly plus profile maps (Figure 4's right-hand
    /// bars).
    pub profile_conversion_peak_memory: u64,
    /// Modeled peak memory of the optimization + rewrite stage
    /// (Figure 5's right-hand bars).
    pub optimize_peak_memory: u64,
}

/// The comparator's output.
#[derive(Clone, Debug)]
pub struct BoltOutput {
    /// Post-rewrite block layout (for the simulator).
    pub layout: FinalLayout,
    /// Output file size accounting.
    pub size_breakdown: SizeBreakdown,
    /// Whether the rewritten binary crashes at startup (§5.8).
    pub crash_on_startup: bool,
    /// Statistics.
    pub stats: BoltStats,
}

/// Profile data mapped onto reconstructed CFGs.
struct CfgProfile {
    /// Per function: block index -> count.
    counts: Vec<HashMap<usize, u64>>,
    /// Per function: (src block, dst block) -> weight.
    edges: Vec<HashMap<(usize, usize), u64>>,
    /// (caller func idx, callee func idx) -> weight.
    calls: HashMap<(u32, u32), u64>,
}

fn func_at(funcs: &[DiscoveredFunction], addr: u64) -> Option<usize> {
    let i = funcs.partition_point(|f| f.addr <= addr);
    let fi = i.checked_sub(1)?;
    (addr < funcs[fi].addr + funcs[fi].size).then_some(fi)
}

fn convert_profile(
    funcs: &[DiscoveredFunction],
    cfgs: &[Option<RecCfg>],
    agg: &AggregatedProfile,
) -> CfgProfile {
    let mut prof = CfgProfile {
        counts: vec![HashMap::new(); funcs.len()],
        edges: vec![HashMap::new(); funcs.len()],
        calls: HashMap::new(),
    };
    for (&(from, to), &w) in &agg.branches {
        let (Some(sf), Some(df)) = (func_at(funcs, from), func_at(funcs, to)) else {
            continue;
        };
        if sf == df {
            let Some(cfg) = &cfgs[sf] else { continue };
            let (Some(sb), Some(db)) = (cfg.block_at(from), cfg.block_at(to)) else {
                continue;
            };
            *prof.edges[sf].entry((sb, db)).or_insert(0) += w;
            for b in [sb, db] {
                let c = prof.counts[sf].entry(b).or_insert(0);
                *c = (*c).max(w);
            }
        } else if to == funcs[df].addr {
            *prof.calls.entry((sf as u32, df as u32)).or_insert(0) += w;
        }
    }
    for (&(lo, hi), &w) in &agg.fallthroughs {
        let Some(fi) = func_at(funcs, lo) else { continue };
        let Some(cfg) = &cfgs[fi] else { continue };
        let Some(mut b) = cfg.block_at(lo) else { continue };
        let mut prev: Option<usize> = None;
        while b < cfg.blocks.len() && cfg.blocks[b].addr <= hi {
            *prof.counts[fi].entry(b).or_insert(0) += w;
            if let Some(p) = prev {
                *prof.edges[fi].entry((p, b)).or_insert(0) += w;
            }
            prev = Some(b);
            b += 1;
        }
    }
    prof
}

/// Runs the monolithic post-link optimizer over a linked binary. Its
/// input must keep its static relocations, as a link with
/// `--emit-relocs` does: [`LinkedBinary::with_static_relocs`] of the
/// plain link ("BM", §5.3).
///
/// # Errors
///
/// Returns [`BoltError::MissingRelocations`] if the binary keeps no
/// static relocations (its `size_breakdown.relocs` is 0), or
/// [`BoltError::NoFunctions`] if function discovery found nothing.
pub fn run_bolt(
    binary: &LinkedBinary,
    profile: &HardwareProfile,
    opts: &BoltOptions,
) -> Result<BoltOutput, BoltError> {
    if binary.size_breakdown.relocs == 0 {
        return Err(BoltError::MissingRelocations);
    }
    let funcs = discover_functions(binary);
    if funcs.is_empty() {
        return Err(BoltError::NoFunctions);
    }

    // Linear disassembly of every discovered function (conversion
    // requires full coverage).
    let mut cfgs: Vec<Option<RecCfg>> = Vec::with_capacity(funcs.len());
    let mut stats = BoltStats {
        functions_discovered: funcs.len(),
        text_bytes: binary.text_end - binary.text_start,
        ..BoltStats::default()
    };
    for f in &funcs {
        let d = disassemble(binary, f);
        stats.insts_decoded += d.insts.len() as u64;
        if d.simple {
            stats.simple_functions += 1;
        }
        let cfg = reconstruct(&d);
        if let Some(c) = &cfg {
            stats.blocks_reconstructed += c.blocks.len() as u64;
        }
        cfgs.push(cfg);
    }

    // perf2bolt.
    let agg = AggregatedProfile::from_profile(profile);
    let prof = convert_profile(&funcs, &cfgs, &agg);
    stats.profile_conversion_peak_memory = stats.insts_decoded * BYTES_PER_INST_RECORD
        + agg.modeled_memory_bytes()
        + profile.raw_size_bytes();

    // Plan per-function layouts.
    let mut plans: Vec<FunctionPlan> = Vec::new();
    for (fi, cfg) in cfgs.iter().enumerate() {
        let Some(cfg) = cfg else { continue };
        let total: u64 = prof.counts[fi].values().sum();
        if total == 0 {
            continue;
        }
        let count = |b: usize| prof.counts[fi].get(&b).copied().unwrap_or(0);
        let mut hot: Vec<usize> = (0..cfg.blocks.len()).filter(|&b| count(b) > 0).collect();
        if !hot.contains(&0) {
            hot.insert(0, 0);
        }
        let nodes: Vec<Node> = hot
            .iter()
            .map(|&b| Node {
                id: b as u32,
                size: cfg.blocks[b].size as u32,
                count: count(b),
            })
            .collect();
        let mut edges: Vec<Edge> = prof.edges[fi]
            .iter()
            .filter(|(&(s, d), _)| hot.contains(&s) && hot.contains(&d))
            .map(|(&(s, d), &w)| Edge {
                src: s as u32,
                dst: d as u32,
                weight: w,
            })
            .collect();
        edges.sort_unstable_by_key(|e| (e.src, e.dst));
        let params = ExtTspParams::default();
        let hot_order = order_nodes(&nodes, &edges, 0, &params, &Default::default(), None);
        let hot_order: Vec<usize> = hot_order.into_iter().map(|b| b as usize).collect();
        let cold: Vec<usize> = (0..cfg.blocks.len()).filter(|b| !hot.contains(b)).collect();
        plans.push(FunctionPlan {
            func_idx: fi,
            hot_order,
            cold,
        });
    }

    // hfsort over the optimized functions.
    let infos: Vec<FuncInfo> = plans
        .iter()
        .map(|p| FuncInfo {
            id: p.func_idx as u32,
            size: funcs[p.func_idx].size,
            samples: prof.counts[p.func_idx].values().sum(),
        })
        .collect();
    let func_order: Vec<usize> = hfsort_order(&infos, &prof.calls)
        .into_iter()
        .map(|id| id as usize)
        .collect();

    let (layout, rstats) = rewrite(binary, &cfgs, &plans, &func_order);
    stats.optimized_functions = rstats.optimized_functions;
    stats.new_text_bytes = rstats.new_text_bytes;
    stats.alignment_padding = rstats.alignment_padding;

    // `-lite=0`: the optimization stage holds every decoded instruction.
    stats.optimize_peak_memory = stats.insts_decoded * BYTES_PER_INST_RECORD
        + stats.blocks_reconstructed * BYTES_PER_BLOCK_RECORD
        + 2 * stats.text_bytes;

    let mut size_breakdown = binary.size_breakdown;
    size_breakdown.text += (rstats.alignment_padding + rstats.new_text_bytes) as usize;
    size_breakdown.eh_frame += rstats.fragments * 40;

    Ok(BoltOutput {
        layout,
        size_breakdown,
        crash_on_startup: opts.input_has_integrity_checks,
        stats,
    })
}
