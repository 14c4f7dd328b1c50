//! Property-based tests over the core data structures and invariants.

use propeller_bolt::{run_bolt, BoltError, BoltOptions};
use propeller_codegen::isa::decode;
use propeller_codegen::{codegen_module, CodegenOptions};
use propeller_ir::{
    BlockId, Function, FunctionBuilder, FunctionId, Inst, Program, ProgramBuilder, Terminator,
};
use propeller_linker::{link, LinkInput, LinkOptions, LinkedBinary, SymbolOrdering};
use propeller_obj::{
    BbAddrMap, BbEntry, BbFlags, ContentHash, FuncRecord, ObjectFile, RangeRecord, SectionKind,
    RELA_ENTRY_BYTES,
};
use propeller_profile::HardwareProfile;
use propeller_synth::{evolve, spec_by_name, DriftParams, GeneratedBenchmark};
use propeller_telemetry::Telemetry;
use propeller_wpa::exttsp::{order_nodes, score_layout, Edge, ExtTspParams, Node};
use propeller_wpa::{apply_prefetches, PrefetchMap};
use proptest::prelude::*;
use std::sync::Arc;

/// Strategy: a random well-formed function of up to 8 blocks.
fn arb_function(idx: usize) -> impl Strategy<Value = Vec<(Vec<Inst>, u8, u8, u8)>> {
    // Per block: (insts, kind, target_a, target_b); targets are mapped
    // into range post hoc.
    prop::collection::vec(
        (
            prop::collection::vec(
                prop_oneof![
                    Just(Inst::Alu),
                    Just(Inst::Load),
                    Just(Inst::Store),
                    Just(Inst::Nop)
                ],
                0..6,
            ),
            0u8..3,
            any::<u8>(),
            any::<u8>(),
        ),
        1..8,
    )
    .prop_map(move |v| {
        let _ = idx;
        v
    })
}

/// Raw strategy output: per function, a list of
/// `(insts, terminator kind, operand a, operand b)` blocks.
type RawProgram = Vec<Vec<(Vec<Inst>, u8, u8, u8)>>;

/// Builds a valid program from the raw strategy output.
fn build_program(raw: RawProgram) -> Program {
    let mut pb = ProgramBuilder::new();
    let m = pb.add_module("prop.cc");
    for (fi, blocks) in raw.into_iter().enumerate() {
        let n = blocks.len() as u32;
        let mut fb = FunctionBuilder::new(format!("pf{fi}"));
        for (bi, (insts, kind, a, b)) in blocks.into_iter().enumerate() {
            let bi = bi as u32;
            let term = if bi == n - 1 {
                Terminator::Ret
            } else {
                match kind {
                    0 => Terminator::Jump(BlockId(a as u32 % n)),
                    1 => Terminator::CondBr {
                        taken: BlockId(a as u32 % n),
                        fallthrough: BlockId(b as u32 % n),
                        prob_taken: (a as f64 % 100.0) / 100.0,
                    },
                    _ => Terminator::Ret,
                }
            };
            fb.add_block(insts, term);
        }
        pb.add_function(m, fb);
    }
    pb.finish().expect("construction is valid by design")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn content_hash_concat_equals_parts(a in prop::collection::vec(any::<u8>(), 0..64),
                                        b in prop::collection::vec(any::<u8>(), 0..64)) {
        let mut whole = a.clone();
        whole.extend_from_slice(&b);
        prop_assert_eq!(
            ContentHash::of_bytes(&whole),
            ContentHash::of_parts([a.as_slice(), b.as_slice()])
        );
    }

    #[test]
    fn bb_addr_map_round_trips(entries in prop::collection::vec(
        (any::<u32>(), 0u32..1_000_000, 0u32..10_000, 0u8..8), 0..40))
    {
        let n = entries.len() as u32;
        let map = BbAddrMap {
            functions: vec![FuncRecord {
                symbol: "f".into(),
                ranges: 0..1,
            }],
            ranges: vec![RangeRecord {
                symbol: "f".into(),
                entries: 0..n,
            }],
            entries: entries
                .into_iter()
                .map(|(id, off, size, flags)| BbEntry {
                    bb_id: id,
                    offset: off,
                    size,
                    flags: BbFlags(flags),
                })
                .collect(),
        };
        let bytes = map.encode();
        let mut decoded = BbAddrMap::default();
        let grew = decoded.decode_into(&bytes, Arc::from).unwrap();
        prop_assert_eq!(grew + BbAddrMap::default().encoded_len(), bytes.len());
        prop_assert_eq!(decoded.encode(), bytes);
        prop_assert_eq!(decoded, map);
    }

    #[test]
    fn exttsp_produces_entry_first_permutation(
        sizes in prop::collection::vec(1u32..64, 2..24),
        raw_edges in prop::collection::vec((any::<u16>(), any::<u16>(), 1u64..1000), 0..48),
    ) {
        let n = sizes.len() as u32;
        let nodes: Vec<Node> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| Node { id: i as u32, size: s, count: (i as u64 * 13) % 50 })
            .collect();
        let edges: Vec<Edge> = raw_edges
            .into_iter()
            .map(|(s, d, w)| Edge { src: s as u32 % n, dst: d as u32 % n, weight: w })
            .collect();
        let params = ExtTspParams::default();
        let order = order_nodes(&nodes, &edges, 0, &params, &Telemetry::disabled(), None);
        prop_assert_eq!(order.len(), nodes.len());
        prop_assert_eq!(order[0], 0, "entry must stay first");
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        // Never worse than the original order.
        let original: Vec<u32> = (0..n).collect();
        prop_assert!(
            score_layout(&order, &nodes, &edges, &params) + 1e-6
                >= score_layout(&original, &nodes, &edges, &params)
        );
    }

    #[test]
    fn random_programs_link_and_decode(raw in prop::collection::vec(arb_function(0), 1..5)) {
        let program = build_program(raw);
        let inputs: Vec<LinkInput> = program
            .modules()
            .iter()
            .map(|m| {
                let r = codegen_module(m, &program, &CodegenOptions::with_labels()).unwrap();
                LinkInput::new(r.object, r.debug_layout)
            })
            .collect();
        let bin = link(&inputs, &LinkOptions::default()).unwrap();
        // The text image decodes as a clean instruction stream.
        let mut addr = bin.text_start;
        while addr < bin.text_end {
            let bytes = bin.read(addr, (bin.text_end - addr).min(8) as usize).unwrap();
            let d = decode(bytes);
            prop_assert!(d.is_some(), "undecodable byte at {:#x}", addr);
            addr += d.unwrap().len() as u64;
        }
        // Layout covers every block, blocks do not overlap.
        let mut spans: Vec<(u64, u64)> = bin
            .layout
            .functions
            .iter()
            .flat_map(|f| f.blocks.iter().map(|b| (b.addr, b.addr + b.size as u64)))
            .collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "overlapping blocks {:?}", w);
        }
    }

    /// What makes the baseline the metadata binary without its map:
    /// labels mode emits the plain object plus the map section.
    #[test]
    fn labels_object_is_the_plain_object_plus_the_map(
        raw in prop::collection::vec(arb_function(0), 1..5),
    ) {
        let program = build_program(raw);
        for m in program.modules() {
            let off = codegen_module(m, &program, &CodegenOptions::baseline()).unwrap();
            let labels = codegen_module(m, &program, &CodegenOptions::with_labels()).unwrap();
            let mut stripped = ObjectFile::new(labels.object.name.clone());
            for s in labels.object.sections() {
                if s.kind != SectionKind::BbAddrMap {
                    stripped.add_section(s.clone());
                }
            }
            prop_assert!(stripped.sections().len() < labels.object.sections().len());
            prop_assert_eq!(&stripped, &off.object);
            prop_assert_eq!(&labels.debug_layout, &off.debug_layout);
        }
    }

    #[test]
    fn relaxation_never_grows_text(raw in prop::collection::vec(arb_function(0), 1..4)) {
        let program = build_program(raw);
        // Split every function: all blocks beyond the entry go to a
        // cold cluster (a stress layout).
        let mut map = propeller_codegen::ClusterMap::new();
        let mut order = SymbolOrdering::default();
        for f in program.functions() {
            let blocks: Vec<BlockId> = (0..f.num_blocks() as u32).map(BlockId).collect();
            let (hot, cold) = blocks.split_at(1);
            map.insert(
                f.id,
                propeller_codegen::FunctionClusters::hot_cold(hot.to_vec(), cold.to_vec()),
            );
            order.push(f.name.clone());
        }
        for f in program.functions() {
            if f.num_blocks() > 1 {
                order.push(format!("{}.cold", f.name).into());
            }
        }
        let inputs: Vec<LinkInput> = program
            .modules()
            .iter()
            .map(|m| {
                let r = codegen_module(m, &program, &CodegenOptions::with_clusters(map.clone()))
                    .unwrap();
                LinkInput::new(r.object, r.debug_layout)
            })
            .collect();
        let unrelaxed = link(
            &inputs,
            &LinkOptions {
                symbol_order: Some(order.clone()),
                relax: false,
                ..LinkOptions::default()
            },
        )
        .unwrap();
        let relaxed = link(
            &inputs,
            &LinkOptions {
                symbol_order: Some(order),
                relax: true,
                ..LinkOptions::default()
            },
        )
        .unwrap();
        prop_assert!(relaxed.stats.text_bytes <= unrelaxed.stats.text_bytes);
        // The size the link sums as it appends each object's map is
        // the merged map's encoding, whether relaxation moved entries
        // or not.
        for bin in [&unrelaxed, &relaxed] {
            prop_assert!(!bin.bb_addr_map.functions.is_empty());
            prop_assert_eq!(bin.size_breakdown.bb_addr_map, bin.bb_addr_map.encoded_len());
        }
    }
}

/// Whether `f`'s blocks tile its instruction array: each block's span
/// starts where the previous one ends, and the last ends the array.
fn blocks_tile(f: &Function) -> bool {
    let mut at = 0;
    for b in &f.blocks {
        let span = f.insts_of(b);
        if !std::ptr::eq(span.as_ptr(), f.insts()[at..].as_ptr()) {
            return false;
        }
        at += span.len();
    }
    at == f.insts().len()
}

/// A random program as a benchmark whose one workload root is its first
/// function, so `evolve` may stub every other one out.
fn as_benchmark(program: Program) -> GeneratedBenchmark {
    GeneratedBenchmark {
        spec: spec_by_name("clang").expect("built-in spec"),
        program,
        entries: vec![(FunctionId(0), 1.0)],
        scale: 1.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The one structural edit, told to change nothing, changes nothing.
    #[test]
    fn identity_edit_returns_an_equal_function(raw in prop::collection::vec(arb_function(0), 1..5)) {
        let program = build_program(raw);
        for f in program.functions() {
            let mut edited = f.clone();
            edited.edit_blocks(|_, _| true);
            prop_assert_eq!(&edited, f);
        }
    }

    /// Release churn and prefetch insertion both edit block bodies; the
    /// result still tiles every function's array and validates.
    #[test]
    fn edits_keep_blocks_tiled_and_programs_valid(
        raw in prop::collection::vec(arb_function(0), 1..5),
        seed in any::<u64>(),
        directives in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..12),
    ) {
        let bench = as_benchmark(build_program(raw));
        let evolved = evolve(&bench, &DriftParams { drift: 0.3, seed, release: 1 });
        for f in evolved.program.functions() {
            prop_assert!(blocks_tile(f), "{} is not tiled after evolve", f.name);
        }
        prop_assert!(evolved.program.validate().is_ok());

        let p = &bench.program;
        let n = p.num_functions() as u32;
        let mut map = PrefetchMap::new();
        let mut in_range = 0;
        for (fi, bi, target) in directives {
            let f = p.function(FunctionId(u32::from(fi) % n)).unwrap();
            let block = BlockId(u32::from(bi) % (f.num_blocks() as u32 + 1));
            in_range += usize::from(block.index() < f.num_blocks());
            map.entry(f.id).or_default().push((block, FunctionId(u32::from(target) % n)));
        }
        let augmented = apply_prefetches(p, &map);
        for f in augmented.functions() {
            prop_assert!(blocks_tile(f), "{} is not tiled after prefetching", f.name);
        }
        prop_assert!(augmented.validate().is_ok());
        prop_assert_eq!(augmented.stats().num_insts, p.stats().num_insts + in_range);
    }

    /// A release with no churn is the program it came from.
    #[test]
    fn zero_drift_evolve_is_the_identity(
        raw in prop::collection::vec(arb_function(0), 1..5),
        seed in any::<u64>(),
    ) {
        let bench = as_benchmark(build_program(raw));
        let same = evolve(&bench, &DriftParams { drift: 0.0, seed, release: 1 });
        prop_assert!(same.program.functions().eq(bench.program.functions()));
        prop_assert_eq!(same.program.num_modules(), bench.program.num_modules());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Semantic preservation: in a split + reordered + relaxed binary,
    /// every decoded control transfer must land exactly on a block
    /// start (or function entry) of the final layout.
    #[test]
    fn relaxed_branches_hit_block_starts(raw in prop::collection::vec(arb_function(0), 1..4)) {
        use propeller_codegen::isa::{decode, Decoded};
        let program = build_program(raw);
        let mut map = propeller_codegen::ClusterMap::new();
        let mut order = SymbolOrdering::default();
        for f in program.functions() {
            let blocks: Vec<BlockId> = (0..f.num_blocks() as u32).map(BlockId).collect();
            let (hot, cold) = blocks.split_at(blocks.len().div_ceil(2));
            map.insert(
                f.id,
                propeller_codegen::FunctionClusters::hot_cold(hot.to_vec(), cold.to_vec()),
            );
            order.push(f.name.clone());
        }
        for f in program.functions() {
            if f.num_blocks() > 1 {
                order.push(format!("{}.cold", f.name).into());
            }
        }
        let inputs: Vec<LinkInput> = program
            .modules()
            .iter()
            .map(|m| {
                let r = codegen_module(m, &program, &CodegenOptions::with_clusters(map.clone()))
                    .unwrap();
                LinkInput::new(r.object, r.debug_layout)
            })
            .collect();
        let bin = link(
            &inputs,
            &LinkOptions {
                symbol_order: Some(order),
                relax: true,
                ..LinkOptions::default()
            },
        )
        .unwrap();
        let starts: std::collections::HashSet<u64> = bin
            .layout
            .functions
            .iter()
            .flat_map(|f| f.blocks.iter().map(|b| b.addr))
            .collect();
        let mut addr = bin.text_start;
        while addr < bin.text_end {
            let bytes = bin.read(addr, (bin.text_end - addr).min(8) as usize).unwrap();
            let d = decode(bytes).expect("valid stream");
            let next = addr + d.len() as u64;
            match d {
                Decoded::Jump { disp, .. }
                | Decoded::CondBr { disp, .. }
                | Decoded::Call { disp, .. } => {
                    let target = (next as i64 + disp) as u64;
                    prop_assert!(
                        starts.contains(&target),
                        "transfer at {addr:#x} targets {target:#x}, not a block start"
                    );
                }
                _ => {}
            }
            addr = next;
        }
    }

    /// Greedy Ext-TSP reaches a large fraction of the brute-force
    /// optimal score on small graphs.
    #[test]
    fn exttsp_near_optimal_on_small_graphs(
        sizes in prop::collection::vec(4u32..40, 3..7),
        raw_edges in prop::collection::vec((any::<u8>(), any::<u8>(), 1u64..100), 1..12),
    ) {
        let n = sizes.len() as u32;
        let nodes: Vec<Node> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| Node { id: i as u32, size: s, count: 1 })
            .collect();
        let edges: Vec<Edge> = raw_edges
            .into_iter()
            .map(|(s, d, w)| Edge { src: s as u32 % n, dst: d as u32 % n, weight: w })
            .collect();
        let params = ExtTspParams::default();
        let greedy = score_layout(
            &order_nodes(&nodes, &edges, 0, &params, &Telemetry::disabled(), None),
            &nodes,
            &edges,
            &params,
        );
        // Brute force over permutations keeping node 0 first.
        let rest: Vec<u32> = (1..n).collect();
        let mut best = f64::MIN;
        let mut perm = rest.clone();
        // Heap's algorithm, iterative.
        let k = perm.len();
        let mut c = vec![0usize; k];
        let eval = |p: &[u32], best: &mut f64| {
            let mut full = vec![0u32];
            full.extend_from_slice(p);
            let s = score_layout(&full, &nodes, &edges, &params);
            if s > *best {
                *best = s;
            }
        };
        eval(&perm, &mut best);
        let mut i = 0;
        while i < k {
            if c[i] < i {
                if i % 2 == 0 {
                    perm.swap(0, i);
                } else {
                    perm.swap(c[i], i);
                }
                eval(&perm, &mut best);
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
        prop_assert!(
            greedy + 1e-9 >= 0.80 * best,
            "greedy {greedy} vs optimal {best}"
        );
    }
}

/// Strategy: a small aggregated profile as raw edge maps (addresses
/// drawn from a tiny universe so inputs share edges often).
fn arb_agg() -> impl Strategy<Value = propeller_profile::AggregatedProfile> {
    use propeller_profile::AggregatedProfile;
    let edge = || (0u64..6, 0u64..6, 1u64..500);
    (
        prop::collection::vec(edge(), 0..8),
        prop::collection::vec(edge(), 0..8),
    )
        .prop_map(|(br, ft)| {
            let mut agg = AggregatedProfile::default();
            for (f, t, c) in br {
                *agg.branches.entry((f, t)).or_insert(0) += c;
            }
            for (f, t, c) in ft {
                *agg.fallthroughs.entry((f, t)).or_insert(0) += c;
            }
            agg
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merged totals equal the sum of the inputs' totals, exactly,
    /// whatever the machine weights — sample mass is conserved through
    /// normalization (no decay, so no source drops out).
    #[test]
    fn merge_conserves_sample_mass(
        aggs in prop::collection::vec(arb_agg(), 1..5),
        weights in prop::collection::vec(1u64..1000, 5),
    ) {
        use propeller_profile::{merge_profiles, MergeOptions, ProfileSource};
        let expect_br: u64 = aggs.iter().map(|a| a.total_branch_count()).sum();
        let expect_ft: u64 = aggs.iter().map(|a| a.total_fallthrough_count()).sum();
        let sources: Vec<ProfileSource> = aggs
            .into_iter()
            .zip(weights)
            .map(|(agg, weight)| ProfileSource { agg, weight, age: 0 })
            .collect();
        let merged = merge_profiles(&sources, &MergeOptions::no_decay());
        prop_assert_eq!(merged.total_branch_count(), expect_br);
        prop_assert_eq!(merged.total_fallthrough_count(), expect_ft);
    }

    /// Merging is commutative: any permutation of the sources produces
    /// the identical aggregate (the implementation orders edges
    /// deterministically, so equality is exact, not just up to
    /// reordering).
    #[test]
    fn merge_is_commutative_under_source_permutation(
        aggs in prop::collection::vec(arb_agg(), 2..5),
        weights in prop::collection::vec(1u64..1000, 5),
        ages in prop::collection::vec(0u32..4, 5),
        rot in 1usize..4,
    ) {
        use propeller_profile::{merge_profiles, MergeOptions, ProfileSource};
        let sources: Vec<ProfileSource> = aggs
            .into_iter()
            .zip(weights)
            .zip(ages)
            .map(|((agg, weight), age)| ProfileSource { agg, weight, age })
            .collect();
        let mut rotated = sources.clone();
        rotated.rotate_left(rot % sources.len());
        let opts = MergeOptions::default();
        let a = merge_profiles(&sources, &opts);
        let b = merge_profiles(&rotated, &opts);
        prop_assert_eq!(a.branches, b.branches);
        prop_assert_eq!(a.fallthroughs, b.fallthroughs);
    }

    /// Merging equal-weight same-age sources without decay is exact
    /// edgewise addition — which also gives associativity: any
    /// grouping of such sources sums to the same aggregate.
    #[test]
    fn merge_of_uniform_sources_is_edgewise_addition(
        aggs in prop::collection::vec(arb_agg(), 1..5),
    ) {
        use propeller_profile::{merge_profiles, MergeOptions, ProfileSource};
        use std::collections::HashMap;
        let mut expect_br: HashMap<(u64, u64), u64> = HashMap::new();
        let mut expect_ft: HashMap<(u64, u64), u64> = HashMap::new();
        for a in &aggs {
            for (k, v) in &a.branches {
                *expect_br.entry(*k).or_insert(0) += v;
            }
            for (k, v) in &a.fallthroughs {
                *expect_ft.entry(*k).or_insert(0) += v;
            }
        }
        let sources: Vec<ProfileSource> = aggs
            .into_iter()
            .map(|agg| ProfileSource { agg, weight: 7, age: 2 })
            .collect();
        let merged = merge_profiles(&sources, &MergeOptions::no_decay());
        prop_assert_eq!(merged.branches, expect_br);
        prop_assert_eq!(merged.fallthroughs, expect_ft);
    }

    /// Age decay is monotone: the older a source gets, the smaller
    /// (weakly) its share of the merged mass, measured on an edge only
    /// that source contributes.
    #[test]
    fn merge_age_decay_is_monotone(
        weight in 1u64..1000,
        other_weight in 1u64..1000,
        age_young in 0u32..4,
        age_gap in 1u32..4,
    ) {
        use propeller_profile::{
            merge_profiles, AggregatedProfile, MergeOptions, ProfileSource,
        };
        let mut probe = AggregatedProfile::default();
        probe.branches.insert((100, 101), 10_000);
        let mut other = AggregatedProfile::default();
        other.branches.insert((200, 201), 10_000);
        let share_at = |age: u32| -> u64 {
            let sources = vec![
                ProfileSource { agg: probe.clone(), weight, age },
                ProfileSource { agg: other.clone(), weight: other_weight, age: 0 },
            ];
            let merged = merge_profiles(&sources, &MergeOptions::default());
            merged.branches.get(&(100, 101)).copied().unwrap_or(0)
        };
        prop_assert!(share_at(age_young) >= share_at(age_young + age_gap));
    }
}

/// Runs an armed full pipeline and returns its provenance document
/// plus its `run_report.json` contents.
fn provenance_run(
    bench: &str,
    scale: f64,
    seed: u64,
    jobs: usize,
    armed: bool,
) -> (propeller_doctor::ProvenanceDoc, String) {
    use propeller::{Propeller, PropellerOptions};
    use propeller_doctor::{ProvenanceDoc, RunReport};
    let gen = propeller_integration_tests::small_benchmark(bench, scale, seed);
    let opts = PropellerOptions {
        jobs,
        seed,
        provenance: armed,
        ..PropellerOptions::default()
    };
    let mut p = Propeller::new(gen.program, gen.entries, opts);
    let report = p.run_all().expect("pipeline completes");
    let run_report =
        RunReport::collect(bench, scale, seed, &p, &report, None, None, None);
    let doc = ProvenanceDoc::collect(bench, scale, seed, &p, None);
    (doc, run_report.to_json_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// benchmark × seed × `--jobs` ∈ {1, 8}: replaying the recorded
    /// merge steps reconstructs the exact emitted block order (a
    /// duplicate-free permutation of each function's hot nodes), the
    /// provenance document is bit-identical across job counts, and an
    /// armed run's `run_report.json` is bit-identical to an unarmed
    /// run's.
    #[test]
    fn provenance_replay_reconstructs_layout_and_changes_nothing(
        bench_idx in 0usize..2,
        seed in 0u64..10_000,
    ) {
        let bench = ["clang", "557.xz"][bench_idx];
        let (doc1, armed_report) = provenance_run(bench, 0.002, seed, 1, true);
        doc1.validate_replay().expect("replay reconstructs every emitted order");
        let (doc8, _) = provenance_run(bench, 0.002, seed, 8, true);
        prop_assert_eq!(
            doc1.to_json_string(),
            doc8.to_json_string(),
            "layout_provenance.json differs between --jobs 1 and --jobs 8"
        );
        let (_, unarmed_report) = provenance_run(bench, 0.002, seed, 1, false);
        prop_assert_eq!(
            armed_report, unarmed_report,
            "arming provenance changed run_report.json"
        );
    }
}

/// Links every module of `g` compiled under `cg` with default options.
fn link_all(g: &GeneratedBenchmark, cg: &CodegenOptions) -> (Vec<LinkInput>, LinkedBinary) {
    let inputs: Vec<LinkInput> = g
        .program
        .modules()
        .iter()
        .map(|m| {
            let r = codegen_module(m, &g.program, cg).unwrap();
            LinkInput::new(r.object, r.debug_layout)
        })
        .collect();
    let bin = link(&inputs, &LinkOptions::default()).unwrap();
    (inputs, bin)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// BOLT's input ("BM") is the metadata binary without its map, with
    /// the relocations an `--emit-relocs` link keeps: the plain link's
    /// image, symbols, sections, layout and placements, plus one RELA
    /// record per relocation of the input objects.
    #[test]
    fn bm_is_the_plain_link_with_its_relocations_kept(
        bench_idx in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let (bench, scale) = [("541.leela", 0.25), ("505.mcf", 1.0), ("clang", 0.004)][bench_idx];
        let g = propeller_integration_tests::small_benchmark(bench, scale, seed);
        let (plain_inputs, plain) = link_all(&g, &CodegenOptions::baseline());
        let (_, labels) = link_all(&g, &CodegenOptions::with_labels());
        let bm = labels.without_bb_addr_map("app.bm").with_static_relocs();
        prop_assert_eq!(&bm.image, &plain.image);
        prop_assert_eq!(&bm.symbols, &plain.symbols);
        prop_assert_eq!(&bm.sections, &plain.sections);
        prop_assert_eq!(&bm.layout, &plain.layout);
        prop_assert_eq!(&bm.placements, &plain.placements);

        let records: usize = plain_inputs
            .iter()
            .flat_map(|i| i.object.sections())
            .map(|s| s.relocs.len())
            .sum();
        prop_assert!(records > 0);
        prop_assert_eq!(bm.size_breakdown.relocs, RELA_ENTRY_BYTES * records);
        prop_assert_eq!(plain.stats.relocations, records as u64);
        prop_assert_eq!(plain.size_breakdown.relocs, 0);

        let profile = HardwareProfile::new("app.bm");
        prop_assert!(run_bolt(&bm, &profile, &BoltOptions::default()).is_ok());
        let baseline = labels.without_bb_addr_map("app.baseline");
        prop_assert_eq!(
            run_bolt(&baseline, &profile, &BoltOptions::default()).err(),
            Some(BoltError::MissingRelocations)
        );
    }
}
