//! The WPA driver: from profile to `cc_prof` + `ld_prof`.

use crate::dcfg::{saturating_add, Dcfg, DcfgFunction, EdgeFunding, EdgeKind};
use crate::exttsp::{order_nodes, Edge, MergeLog, MergeStep, Node};
use crate::mapper::AddressMapper;
use crate::options::{GlobalOrder, IntraOrder, WpaOptions};
use propeller_codegen::{Cluster, ClusterMap, ClusterName, FunctionClusters};
use propeller_ir::{BlockId, FunctionId, Program};
use propeller_linker::{LinkedBinary, SymbolOrdering};
use propeller_profile::{AggregatedProfile, HardwareProfile};
use propeller_telemetry::{SpanId, Telemetry};
use std::collections::HashMap;
use std::sync::Arc;

/// Statistics of one WPA run.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct WpaStats {
    /// Functions present in the metadata binary's address map.
    pub functions_seen: usize,
    /// Functions with at least one hot block (these get directives).
    pub hot_functions: usize,
    /// Hot blocks across all functions.
    pub hot_blocks: usize,
    /// Dynamic CFG edges processed.
    pub dcfg_edges: usize,
    /// Raw profile bytes read.
    pub profile_bytes: u64,
    /// Modeled peak memory: max(profile reading, address map + DCFG) —
    /// §5.1: "the peak memory usage is attributed to the maximum of
    /// reading profiles and the in-memory DCFG".
    pub modeled_peak_memory: u64,
    /// Address-map functions the mapper dropped because none of their
    /// range symbols resolved.
    pub skipped_funcs: usize,
    /// Sample-weighted address resolutions attempted while building the
    /// DCFG.
    pub addr_lookups: u64,
    /// Of [`WpaStats::addr_lookups`], how many found no mapped block.
    pub addr_unmapped: u64,
}

/// One planned cluster's provenance record.
#[derive(Clone, PartialEq, Debug)]
pub struct ClusterProvenance {
    /// The cluster's section symbol (e.g. `foo`, `foo.1`, `foo.cold`).
    pub symbol: String,
    /// Block ids in layout order.
    pub blocks: Vec<u32>,
    /// Total dynamic weight of the cluster's blocks.
    pub weight: u64,
    /// Total size in bytes.
    pub size: u64,
    /// Whether this is the function's cold cluster.
    pub cold: bool,
    /// Final position in the global symbol order, if listed.
    pub symbol_order_pos: Option<usize>,
}

/// Why one hot function's layout came out the way it did.
#[derive(Clone, PartialEq, Debug)]
pub struct FunctionProvenance {
    /// The function's primary symbol.
    pub func_symbol: String,
    /// Total dynamic weight observed for the function.
    pub total_samples: u64,
    /// Blocks classified hot / cold.
    pub hot_blocks: usize,
    /// Blocks classified cold.
    pub cold_blocks: usize,
    /// Ext-TSP chain merges committed while ordering the hot blocks
    /// (empty when the intra order was not Ext-TSP).
    pub merge_gains: Vec<f64>,
    /// Ext-TSP score of the emitted hot-block order.
    pub layout_score: f64,
    /// Ext-TSP score of the compiler's input order.
    pub input_score: f64,
    /// Whether the optimizer fell back to the input order.
    pub used_input_order: bool,
    /// The clusters emitted for this function.
    pub clusters: Vec<ClusterProvenance>,
}

/// Machine-readable record of every layout decision of one WPA run.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct LayoutProvenance {
    /// One record per hot function, in address-map order.
    pub functions: Vec<FunctionProvenance>,
}

/// The full, replayable decision record of one hot function — the
/// exact Ext-TSP problem it was given (hot nodes in dense order, the
/// sorted hot-to-hot edge list) and every merge step committed, with
/// the best rejected alternative at each step.
#[derive(Clone, PartialEq, Debug)]
pub struct RichFunctionRecord {
    /// The function's primary symbol.
    pub func_symbol: String,
    /// Mapper function index — joins [`EdgeFunding`] records.
    pub func_index: u32,
    /// Hot nodes exactly as handed to the optimizer (dense order).
    pub nodes: Vec<Node>,
    /// Hot-to-hot edges exactly as handed to the optimizer (sorted by
    /// `(src, dst, weight)`).
    pub edges: Vec<Edge>,
    /// Committed merge steps in commit order; replaying them over
    /// `nodes` reconstructs the emitted hot-block order.
    pub steps: Vec<MergeStep>,
    /// Total candidate merge evaluations the optimizer performed.
    pub evaluations: u64,
    /// Whether the optimizer fell back to the input order (in which
    /// case the emitted order is `nodes` order, not the replay result).
    pub used_input_order: bool,
    /// Ext-TSP score of the emitted order.
    pub final_score: f64,
    /// Ext-TSP score of the input order.
    pub input_score: f64,
    /// The emitted hot-block order (the function's non-cold clusters
    /// concatenated, in cluster order). When `used_input_order` is
    /// false, replaying `steps` over `nodes` reconstructs exactly this
    /// sequence.
    pub order: Vec<u32>,
}

/// Everything [`run_wpa_agg_traced`] collects when
/// [`WpaOptions::provenance`] is armed: the per-function replayable
/// merge records plus the sample-to-edge funding ledger. Deliberately
/// kept out of [`LayoutProvenance`] (and therefore out of
/// `run_report.json`) so armed runs stay bit-identical on the default
/// report surface.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct RichProvenance {
    /// One record per hot function, in address-map order.
    pub functions: Vec<RichFunctionRecord>,
    /// Which profile address pairs funded each CFG edge weight.
    pub funding: EdgeFunding,
}

/// The two Phase 3 outputs plus statistics.
#[derive(Clone, Debug)]
pub struct WpaOutput {
    /// Per-function cluster directives (`cc_prof`).
    pub cluster_map: ClusterMap,
    /// Global section order (`ld_prof`).
    pub symbol_order: SymbolOrdering,
    /// Run statistics.
    pub stats: WpaStats,
    /// Per-hot-function layout decisions (clusters, merge gains,
    /// symbol-order positions) for the doctor's `RunReport`.
    pub provenance: LayoutProvenance,
    /// Full decision provenance, present only when
    /// [`WpaOptions::provenance`] was armed. Never serialized into the
    /// run report — it feeds `layout_provenance.json`.
    pub rich: Option<RichProvenance>,
}

impl WpaOutput {
    /// The identity-layout fallback: no cluster directives and an
    /// empty symbol order, so Phase 4 emits every function exactly as
    /// the metadata build did and the relink keeps input section
    /// order. This is the degradation target when the profile that
    /// survived salvage is too thin to trust ("WPA input unusable"):
    /// the result is always a correct, baseline-equivalent binary.
    ///
    /// `stats` should carry the analysis counts actually observed
    /// (profile bytes read, DCFG edges, …) so build-time accounting
    /// still reflects the work done, but the hot classification is
    /// zeroed — nothing is hot when the layout is discarded.
    pub fn identity_fallback(stats: WpaStats) -> WpaOutput {
        WpaOutput {
            cluster_map: ClusterMap::new(),
            symbol_order: SymbolOrdering::default(),
            stats: WpaStats {
                hot_functions: 0,
                hot_blocks: 0,
                ..stats
            },
            provenance: LayoutProvenance::default(),
            rich: None,
        }
    }
}

/// One planned cluster, before serialization into the outputs.
struct PlannedCluster {
    symbol: Arc<str>,
    weight: u64,
    size: u64,
    cold: bool,
}

/// Runs whole-program analysis.
///
/// `program` is used only to translate function symbols into
/// [`FunctionId`]s for the cluster map (the textual `cc_prof.txt` of
/// the real tool does the same by name); all layout inputs come from
/// the binary's address map and the profile.
pub fn run_wpa(
    program: &Program,
    binary: &LinkedBinary,
    profile: &HardwareProfile,
    opts: &WpaOptions,
) -> WpaOutput {
    let agg = AggregatedProfile::from_profile(profile);
    run_wpa_agg_traced(
        program,
        binary,
        &agg,
        profile.raw_size_bytes(),
        opts,
        &Telemetry::disabled(),
        None,
    )
}

/// [`run_wpa`] over an already-aggregated profile, plus telemetry: a
/// `wpa` span under `parent` (peak bytes = the run's modeled peak
/// memory) with stage children for address mapping, dynamic-CFG
/// construction, intra- and inter-procedural layout, and counters for
/// hot functions/blocks, DCFG edges and Ext-TSP merges.
///
/// The fleet lifecycle merges many machines' samples (with weights and
/// age decay) before analysis, so the raw [`HardwareProfile`] no longer
/// exists by the time WPA runs; this entry point accepts the merged
/// counts directly. `profile_bytes` is the modeled raw size of the
/// samples that fed the aggregation, carried into [`WpaStats`] for the
/// memory model.
pub fn run_wpa_agg_traced(
    program: &Program,
    binary: &LinkedBinary,
    agg: &AggregatedProfile,
    profile_bytes: u64,
    opts: &WpaOptions,
    tel: &Telemetry,
    parent: Option<SpanId>,
) -> WpaOutput {
    let mut wpa_span = tel.span_under("wpa", parent);
    let wpa_id = wpa_span.id();
    let mapper = {
        let _s = tel.span_under("wpa.address_mapping", wpa_id);
        AddressMapper::from_binary(binary)
    };
    let armed = opts.provenance;
    let mut funding = if armed {
        Some(EdgeFunding::default())
    } else {
        None
    };
    let dcfg = {
        let mut s = tel.span_under("wpa.dynamic_cfg", wpa_id);
        let dcfg = Dcfg::build_logged(&mapper, agg, funding.as_mut());
        s.set_peak_bytes(mapper.modeled_memory_bytes() + dcfg.modeled_memory_bytes());
        dcfg
    };

    let name_to_id: HashMap<&str, FunctionId> =
        program.functions().map(|f| (&*f.name, f.id)).collect();
    let mapper_idx: HashMap<&str, u32> = (0..mapper.num_functions() as u32)
        .map(|i| (mapper.func_symbol(i), i))
        .collect();

    let mut cluster_map = ClusterMap::new();
    let mut planned: Vec<PlannedCluster> = Vec::new();
    // (mapper function idx, bb id) -> planned cluster index, for
    // inter-procedural edge mapping.
    let mut cluster_of_block: HashMap<(u32, u32), usize> = HashMap::new();
    let mut cold_clusters: Vec<PlannedCluster> = Vec::new();
    let mut stats = WpaStats {
        functions_seen: binary.bb_addr_map.functions().len(),
        dcfg_edges: dcfg.num_edges(),
        profile_bytes,
        skipped_funcs: mapper.num_skipped_functions(),
        addr_lookups: dcfg.addr_lookups,
        addr_unmapped: dcfg.addr_unmapped,
        ..WpaStats::default()
    };
    let mut provenance = LayoutProvenance::default();
    let mut rich_functions: Vec<RichFunctionRecord> = Vec::new();

    let intra_span = tel.span_under("wpa.intra_layout", wpa_id);
    let map = &binary.bb_addr_map;
    for fmap in map.functions() {
        let Some(&fi) = mapper_idx.get(&*fmap.symbol) else {
            continue;
        };
        let Some(&fid) = name_to_id.get(&*fmap.symbol) else {
            continue;
        };
        let dc: &DcfgFunction = &dcfg.functions[fi as usize];
        if !opts.function_is_hot(dc.total_count()) {
            continue;
        }
        stats.hot_functions += 1;

        // The complete block list with sizes, ascending by block id;
        // every per-block lookup below is a binary search in it.
        let mut blocks: Vec<(u32, u32)> = map
            .ranges_of(fmap)
            .iter()
            .flat_map(|r| map.entries_of(r).iter().map(|e| (e.bb_id, e.size)))
            .collect();
        blocks.sort_unstable();
        let size_of = |b: u32| -> u32 {
            blocks
                .binary_search_by_key(&b, |&(id, _)| id)
                .map_or(0, |i| blocks[i].1)
        };

        let count = |b: u32| dc.block_counts.get(&b).copied().unwrap_or(0);
        // Hot/cold classification: hardware samples by default; the
        // stale compile-time PGO frequencies for the §4.6 comparison.
        let pgo_hot: Option<Vec<bool>> = match opts.cold_source {
            crate::options::ColdSource::HardwareSamples => None,
            crate::options::ColdSource::PgoFrequencies => program
                .function(fid)
                .map(|f| f.blocks.iter().map(|b| b.freq > 0).collect::<Vec<bool>>()),
        };
        let is_hot = |b: u32| -> bool {
            match &pgo_hot {
                Some(flags) => b == 0 || flags.get(b as usize).copied().unwrap_or(false),
                None => opts.block_is_sampled_hot(b, count(b)),
            }
        };
        // The entry is hot either way, so the primary cluster starts
        // with it. Both lists stay ascending.
        let (mut hot, cold): (Vec<u32>, Vec<u32>) =
            blocks.iter().map(|&(b, _)| b).partition(|&b| is_hot(b));
        if hot.first() != Some(&0) {
            hot.insert(0, 0);
        }
        stats.hot_blocks += hot.len();

        // Intra-function order. The Ext-TSP problem (nodes + edges) is
        // also what the rich provenance record snapshots, so it is
        // built whenever either consumer needs it.
        let mut merge_log = if armed {
            MergeLog::with_detail()
        } else {
            MergeLog::default()
        };
        let needs_graph = armed || matches!(opts.intra, IntraOrder::ExtTsp);
        let (nodes, edges) = if needs_graph {
            let nodes: Vec<Node> = hot
                .iter()
                .map(|&b| Node {
                    id: b,
                    size: size_of(b),
                    count: count(b),
                })
                .collect();
            let mut edges: Vec<Edge> = dc
                .edges
                .iter()
                .filter(|(&(s, d, _), _)| {
                    hot.binary_search(&s).is_ok() && hot.binary_search(&d).is_ok()
                })
                .map(|(&(s, d, _), &w)| Edge {
                    src: s,
                    dst: d,
                    weight: w,
                })
                .collect();
            edges.sort_unstable_by_key(|e| (e.src, e.dst, e.weight));
            (nodes, edges)
        } else {
            (Vec::new(), Vec::new())
        };
        let hot_order: Vec<u32> = match opts.intra {
            IntraOrder::Original => {
                merge_log.used_input_order = true;
                hot.clone()
            }
            IntraOrder::ExtTsp => {
                order_nodes(&nodes, &edges, 0, &opts.exttsp, tel, Some(&mut merge_log))
            }
        };

        // Optionally cut the hot chain for inter-procedural layout.
        let segments: Vec<Vec<u32>> = if opts.interproc_split > 0 && hot_order.len() > 2 {
            cut_chain(&hot_order, dc, opts.interproc_split)
        } else {
            vec![hot_order.clone()]
        };

        let mut clusters: Vec<Cluster> = Vec::new();
        let mut fn_cold = cold.clone();
        if !opts.split {
            // No splitting: single cluster, hot order then cold blocks.
            let mut blocks = hot_order.clone();
            blocks.extend(&cold);
            fn_cold.clear();
            clusters.push(Cluster {
                name: ClusterName::Primary,
                blocks: blocks.into_iter().map(BlockId).collect(),
            });
        } else {
            for (i, seg) in segments.iter().enumerate() {
                let name = if i == 0 {
                    ClusterName::Primary
                } else {
                    // Lossless: a function has at most one segment per
                    // basic block, and block ids are themselves u32.
                    ClusterName::Numbered(i as u32)
                };
                clusters.push(Cluster {
                    name,
                    blocks: seg.iter().copied().map(BlockId).collect(),
                });
            }
            if !fn_cold.is_empty() {
                clusters.push(Cluster {
                    name: ClusterName::Cold,
                    blocks: fn_cold.iter().copied().map(BlockId).collect(),
                });
            }
        }

        // Plan global ordering entries.
        let mut fn_prov = FunctionProvenance {
            func_symbol: fmap.symbol.to_string(),
            total_samples: dc.total_count(),
            hot_blocks: hot.len(),
            cold_blocks: cold.len(),
            merge_gains: merge_log.merges.iter().map(|m| m.gain).collect(),
            layout_score: merge_log.final_score,
            input_score: merge_log.input_score,
            used_input_order: merge_log.used_input_order,
            clusters: Vec::with_capacity(clusters.len()),
        };
        for c in &clusters {
            let symbol = c.name.symbol(&fmap.symbol);
            let weight = c
                .blocks
                .iter()
                .fold(0u64, |s, b| s.saturating_add(count(b.0)));
            let size: u64 = c.blocks.iter().map(|b| size_of(b.0) as u64).sum();
            let is_cold = matches!(c.name, ClusterName::Cold);
            fn_prov.clusters.push(ClusterProvenance {
                symbol: symbol.to_string(),
                blocks: c.blocks.iter().map(|b| b.0).collect(),
                weight,
                size: size.max(1),
                cold: is_cold,
                symbol_order_pos: None,
            });
            let plan = PlannedCluster {
                symbol,
                weight,
                size: size.max(1),
                cold: is_cold,
            };
            if is_cold {
                cold_clusters.push(plan);
            } else {
                let idx = planned.len();
                for b in &c.blocks {
                    cluster_of_block.insert((fi, b.0), idx);
                }
                planned.push(plan);
            }
        }
        provenance.functions.push(fn_prov);
        if armed {
            let detail = merge_log.detail.take().unwrap_or_default();
            rich_functions.push(RichFunctionRecord {
                func_symbol: fmap.symbol.to_string(),
                func_index: fi,
                nodes,
                edges,
                steps: detail.steps,
                evaluations: detail.evaluations,
                used_input_order: merge_log.used_input_order,
                final_score: merge_log.final_score,
                input_score: merge_log.input_score,
                order: clusters
                    .iter()
                    .filter(|c| !matches!(c.name, ClusterName::Cold))
                    .flat_map(|c| c.blocks.iter().map(|b| b.0))
                    .collect(),
            });
        }

        cluster_map.insert(fid, FunctionClusters { clusters });
    }
    drop(intra_span);

    // Global order.
    let global_span = tel.span_under("wpa.global_order", wpa_id);
    let hot_symbols: Vec<Arc<str>> = match opts.global {
        GlobalOrder::HotFirst => {
            let mut idx: Vec<usize> = (0..planned.len()).collect();
            idx.sort_by(|&a, &b| {
                let da = planned[a].weight as f64 / planned[a].size as f64;
                let db = planned[b].weight as f64 / planned[b].size as f64;
                db.total_cmp(&da).then(a.cmp(&b))
            });
            idx.into_iter().map(|i| planned[i].symbol.clone()).collect()
        }
        GlobalOrder::ExtTspInterproc => {
            if planned.is_empty() {
                Vec::new()
            } else {
                // Dense cluster indices become u32 Ext-TSP node ids
                // (and u32 edge endpoints below); check the width once
                // so every later narrowing is lossless. Sizes clamp to
                // u32::MAX explicitly — a >4 GiB section saturates
                // instead of silently wrapping its distance math.
                assert!(
                    u32::try_from(planned.len()).is_ok(),
                    "too many sections ({}) for u32 cluster ids",
                    planned.len()
                );
                let nodes: Vec<Node> = planned
                    .iter()
                    .enumerate()
                    .map(|(i, p)| Node {
                        id: i as u32,
                        size: p.size.min(u32::MAX as u64) as u32,
                        count: p.weight,
                    })
                    .collect();
                let mut edge_w: HashMap<(u32, u32), u64> = HashMap::new();
                for (&(cf, cb, df), &w) in &dcfg.calls {
                    let (Some(&src), Some(&dst)) = (
                        cluster_of_block.get(&(cf, cb)),
                        cluster_of_block.get(&(df, 0)),
                    ) else {
                        continue;
                    };
                    if src != dst {
                        saturating_add(edge_w.entry((src as u32, dst as u32)), w);
                    }
                }
                // Intra-function edges crossing clusters also connect
                // sections.
                for (fi, dc) in dcfg.functions.iter().enumerate() {
                    for (&(s, d, _), &w) in &dc.edges {
                        let (Some(&src), Some(&dst)) = (
                            cluster_of_block.get(&(fi as u32, s)),
                            cluster_of_block.get(&(fi as u32, d)),
                        ) else {
                            continue;
                        };
                        if src != dst {
                            saturating_add(edge_w.entry((src as u32, dst as u32)), w);
                        }
                    }
                }
                let mut edges: Vec<Edge> = edge_w
                    .into_iter()
                    .map(|((src, dst), weight)| Edge { src, dst, weight })
                    .collect();
                edges.sort_unstable_by_key(|e| (e.src, e.dst));
                let entry = nodes
                    .iter()
                    .max_by(|a, b| {
                        let da = a.count as f64 / a.size.max(1) as f64;
                        let db = b.count as f64 / b.size.max(1) as f64;
                        da.total_cmp(&db)
                    })
                    .map(|n| n.id)
                    .unwrap_or(0);
                let mut params = opts.exttsp;
                // Section-level locality windows are page-scale.
                params.forward_window = 4096;
                params.backward_window = 4096;
                order_nodes(&nodes, &edges, entry, &params, tel, None)
                    .into_iter()
                    .map(|i| planned[i as usize].symbol.clone())
                    .collect()
            }
        }
    };
    let mut symbol_order = SymbolOrdering::new(hot_symbols);
    for c in &cold_clusters {
        debug_assert!(c.cold);
        symbol_order.push(c.symbol.clone());
    }
    drop(global_span);

    // Now that the global order is final, resolve each cluster's
    // position in it.
    for f in &mut provenance.functions {
        for c in &mut f.clusters {
            c.symbol_order_pos = symbol_order.rank(&c.symbol);
        }
    }

    // Assemble the rich provenance under its own span so collection
    // cost is visible in the Chrome trace.
    let rich = if armed {
        let _s = tel.span_under("wpa.provenance", wpa_id);
        let funding = funding.take().unwrap_or_default();
        let steps_total: u64 = rich_functions.iter().map(|r| r.steps.len() as u64).sum();
        let evals_total: u64 = rich_functions.iter().map(|r| r.evaluations).sum();
        if tel.is_enabled() {
            tel.counter_add(
                "wpa.provenance.records",
                rich_functions.len() as u64 + steps_total + funding.records.len() as u64,
            );
            tel.counter_add(
                "wpa.provenance.rejected_candidates",
                evals_total.saturating_sub(steps_total),
            );
        }
        Some(RichProvenance {
            functions: rich_functions,
            funding,
        })
    } else {
        None
    };

    let analysis_mem = mapper.modeled_memory_bytes() + dcfg.modeled_memory_bytes();
    stats.modeled_peak_memory = stats.profile_bytes.max(analysis_mem);
    if tel.is_enabled() {
        tel.counter_add("wpa.hot_functions", stats.hot_functions as u64);
        tel.counter_add("wpa.hot_blocks", stats.hot_blocks as u64);
        tel.counter_add("wpa.dcfg_edges", stats.dcfg_edges as u64);
        tel.counter_add("mapper.skipped_funcs", stats.skipped_funcs as u64);
        tel.counter_add("mapper.addr_lookups", stats.addr_lookups);
        tel.counter_add("mapper.unmapped_addrs", stats.addr_unmapped);
        wpa_span.set_peak_bytes(stats.modeled_peak_memory);
    }

    WpaOutput {
        cluster_map,
        symbol_order,
        stats,
        provenance,
        rich,
    }
}

/// Cuts a hot chain at its `k` coldest internal edges, yielding up to
/// `k + 1` segments (never cutting before the entry block).
fn cut_chain(order: &[u32], dc: &DcfgFunction, k: usize) -> Vec<Vec<u32>> {
    let edge_weight = |a: u32, b: u32| -> u64 {
        [EdgeKind::Branch, EdgeKind::Fallthrough]
            .iter()
            .filter_map(|&kind| dc.edges.get(&(a, b, kind)))
            .fold(0, |s, &w| s.saturating_add(w))
    };
    // Candidate cut positions 1..len, ranked by the weight of the edge
    // they would break.
    let mut cuts: Vec<(u64, usize)> = (1..order.len())
        .map(|i| (edge_weight(order[i - 1], order[i]), i))
        .collect();
    cuts.sort();
    let mut chosen: Vec<usize> = cuts.iter().take(k).map(|&(_, i)| i).collect();
    chosen.sort_unstable();
    let mut segments = Vec::with_capacity(chosen.len() + 1);
    let mut start = 0;
    for c in chosen {
        if c > start {
            segments.push(order[start..c].to_vec());
            start = c;
        }
    }
    segments.push(order[start..].to_vec());
    segments
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_chain_splits_at_coldest_edges() {
        let mut dc = DcfgFunction::default();
        dc.edges.insert((0, 1, EdgeKind::Branch), 100);
        dc.edges.insert((1, 2, EdgeKind::Branch), 1); // coldest
        dc.edges.insert((2, 3, EdgeKind::Branch), 50);
        let segs = cut_chain(&[0, 1, 2, 3], &dc, 1);
        assert_eq!(segs, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn cut_chain_zero_cuts_degenerates() {
        let dc = DcfgFunction::default();
        let segs = cut_chain(&[0, 1, 2], &dc, 0);
        assert_eq!(segs, vec![vec![0, 1, 2]]);
    }
}
