//! Pinned golden digests of `link` — the in-tree twin of the
//! benchmark's image digests, in the manner of
//! `crates/wpa/tests/golden_digest.rs`.
//!
//! The constants were recorded from the commit *before* the linker was
//! made linear and copy-free (PR 14), except the relink column, which
//! was re-recorded when relaxation began moving the address map's
//! entries with their blocks; every column was re-recorded when
//! [`LinkStats`](propeller_linker::LinkStats) gained `relocations`, a
//! field its `Debug` text prints. Each covers every field of
//! [`LinkedBinary`] — image, symbols, sections, layout, placements,
//! address map, size breakdown, stats — for one program under one of
//! the four link shapes the pipeline and the BOLT comparison use, so a
//! change to section order, a relaxation decision, a relocated field or
//! a metadata byte shows up here without running the benchmark.

use propeller_codegen::{
    codegen_module, Cluster, ClusterMap, ClusterName, CodegenOptions, FunctionClusters,
};
use propeller_ir::{BlockId, Program};
use propeller_linker::{
    link_refs_traced, LinkInput, LinkInputRef, LinkOptions, LinkedBinary, SymbolOrdering,
};
use propeller_obj::ContentHash;
use propeller_synth::{generate, spec_by_name, GenParams};
use propeller_telemetry::Telemetry;
use std::collections::{BTreeMap, HashMap};

/// `(spec, scale, seed, funcs_per_module)` of each pinned program.
const PROGRAMS: [(&str, f64, u64, usize); 3] = [
    ("clang", 0.004, 13, 12),
    ("mysql", 0.004, 7, 5),
    ("505.mcf", 1.0, 3, 9),
];

/// `[baseline, labels, relink, bm]` per program, `bm` being the
/// clustered link's `with_static_relocs`.
const GOLDEN: [[u64; 4]; 3] = [
    [
        0xdcb1_796e_b53a_4aef,
        0xcd63_717f_35cd_8c6e,
        0x7f4e_c825_8244_a525,
        0xe221_e1e7_efc3_4300,
    ],
    [
        0x4360_cf25_f438_db5f,
        0x7b2e_c64f_c020_63ac,
        0x6c35_313d_1633_85ec,
        0x04ac_51cc_caca_e5a2,
    ],
    [
        0x7c03_42ed_608e_35cd,
        0x3e2c_5e8f_91d8_5d41,
        0x3b0d_8e14_088f_96d9,
        0x7296_8262_0cd1_c8e4,
    ],
];

fn program(spec: &str, scale: f64, seed: u64, funcs_per_module: usize) -> Program {
    let spec = spec_by_name(spec).expect("built-in spec");
    generate(
        &spec,
        &GenParams {
            scale,
            seed,
            funcs_per_module,
            entry_points: 4,
        },
    )
    .program
}

/// A WPA-free stand-in for `cc_prof.txt` + `ld_prof.txt`: two functions
/// in three get directives. Blocks at least as frequent as the entry's
/// half stay hot (entry first), the rest go `.cold`; every fifth
/// function's hot run is cut in two, the second half a numbered cluster
/// ordered right behind the first — the shape whose connecting jump the
/// relaxation pass deletes. Hot symbols are ordered by descending
/// function id, cold ones are left to input order.
fn directives(p: &Program) -> (ClusterMap, SymbolOrdering) {
    let mut map = ClusterMap::new();
    let mut order = Vec::new();
    let mut funcs: Vec<_> = p.functions().collect();
    funcs.sort_by_key(|f| std::cmp::Reverse(f.id));
    for f in funcs {
        if f.id.0 % 3 == 2 || f.num_blocks() < 2 {
            continue;
        }
        let threshold = f.entry().freq / 2;
        let (mut hot, mut cold) = (vec![BlockId(0)], Vec::new());
        for b in &f.blocks[1..] {
            if b.freq >= threshold {
                hot.push(b.id);
            } else {
                cold.push(b.id);
            }
        }
        let mut clusters = FunctionClusters::hot_cold(hot, cold);
        order.push(f.name.clone());
        let primary = &mut clusters.clusters[0].blocks;
        if f.id.0 % 5 == 0 && primary.len() >= 4 {
            let second = primary.split_off(primary.len() / 2);
            clusters.clusters.insert(
                1,
                Cluster {
                    name: ClusterName::Numbered(1),
                    blocks: second,
                },
            );
            order.push(ClusterName::Numbered(1).symbol(&f.name));
        }
        map.insert(f.id, clusters);
    }
    (map, SymbolOrdering::new(order))
}

fn compile(p: &Program, cg: &CodegenOptions) -> Vec<LinkInput> {
    p.modules()
        .iter()
        .map(|m| {
            let r = codegen_module(m, p, cg).expect("codegen");
            LinkInput::new(r.object, r.debug_layout)
        })
        .collect()
}

/// Links with telemetry armed; returns the binary and the number of
/// Jacobi sweeps relaxation took (0 when it did not run).
fn link_counted(inputs: &[LinkInput], opts: &LinkOptions) -> (LinkedBinary, u64) {
    let tel = Telemetry::enabled();
    let refs: Vec<LinkInputRef> = inputs.iter().map(LinkInputRef::from).collect();
    let bin = link_refs_traced(&refs, opts, &tel, None).expect("link");
    let sweeps = tel
        .drain()
        .metrics
        .counters
        .get("link.relax_iterations")
        .copied()
        .unwrap_or(0);
    (bin, sweeps)
}

/// The Phase 4 link: `order` applied, relaxed, cold maps dropped.
fn relink_options(order: SymbolOrdering) -> LinkOptions {
    LinkOptions {
        output_name: "app.propeller".into(),
        symbol_order: Some(order),
        relax: true,
        drop_cold_bb_addr_map: true,
        ..LinkOptions::default()
    }
}

fn digest(bin: &LinkedBinary) -> u64 {
    let symbols: BTreeMap<_, _> = bin.symbols.iter().collect();
    let rest = format!(
        "{} {:#x} {:#x} {:#x}\n{symbols:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}",
        bin.name,
        bin.base,
        bin.text_start,
        bin.text_end,
        bin.sections,
        bin.layout,
        bin.placements,
        bin.bb_addr_map,
        bin.size_breakdown,
        bin.stats,
    );
    ContentHash::of_parts([bin.image.as_slice(), rest.as_bytes()]).0
}

#[test]
fn link_matches_the_digests_pinned_before_the_linear_rewrite() {
    let mut got = [[0u64; 4]; 3];
    let mut max_sweeps = 0;
    for (i, (row, &(spec, scale, seed, fpm))) in got.iter_mut().zip(&PROGRAMS).enumerate() {
        let p = program(spec, scale, seed, fpm);
        let (map, order) = directives(&p);
        assert!(map.len() >= 10, "{spec}: only {} clustered", map.len());

        let (baseline, _) = link_counted(
            &compile(&p, &CodegenOptions::baseline()),
            &LinkOptions::default(),
        );
        let (labels, _) = link_counted(
            &compile(&p, &CodegenOptions::with_labels()),
            &LinkOptions::default(),
        );
        let clustered = compile(&p, &CodegenOptions::with_clusters(map));
        let (relink, sweeps) = link_counted(&clustered, &relink_options(order.clone()));
        let (bm, _) = link_counted(
            &clustered,
            &LinkOptions {
                output_name: "app.bm".into(),
                symbol_order: Some(order),
                base: 0x1_0000,
                ..LinkOptions::default()
            },
        );
        let bm = bm.with_static_relocs();

        // The relink must exercise what the rewrite touches: deleted
        // tail jumps, shrunk branches, and a fixed point that needed
        // more than one sweep to reach.
        assert!(relink.stats.deleted_jumps > 0, "{spec}: {:?}", relink.stats);
        assert!(
            relink.stats.shrunk_branches > 0,
            "{spec}: {:?}",
            relink.stats
        );
        assert!(sweeps > 1, "{spec}: relaxation took {sweeps} sweep(s)");
        assert!(relink.text_end < bm.text_end - bm.base + relink.base);
        assert!(!labels.bb_addr_map.functions.is_empty());
        assert!(baseline.bb_addr_map.functions.is_empty());
        // The map is not loaded: the plain link is the labels link
        // without it.
        assert_eq!(digest(&labels.without_bb_addr_map("a.out")), GOLDEN[i][0]);
        max_sweeps = max_sweeps.max(sweeps);

        *row = [&baseline, &labels, &relink, &bm].map(digest);
    }
    // At least one program's shrinks cascade: a sweep's savings pull
    // further branches into short range, so the sweep after it still
    // changes decisions.
    assert!(max_sweeps >= 3, "no cascade: at most {max_sweeps} sweeps");
    assert_eq!(got, GOLDEN, "got {got:#018x?}");
}

/// Checks that every address-map entry of `bin` lands on its
/// `FinalLayout` block: its range symbol's address plus its offset is
/// the block's address, its size the block's size. Returns how many
/// entries it checked.
fn map_agrees_with_layout(bin: &LinkedBinary) -> usize {
    let blocks: HashMap<(&str, u32), (u64, u32)> = bin
        .layout
        .functions
        .iter()
        .flat_map(|f| {
            f.blocks
                .iter()
                .map(|b| ((&*f.func_symbol, b.block.0), (b.addr, b.size)))
        })
        .collect();
    let mut checked = 0;
    let map = &bin.bb_addr_map;
    for f in &map.functions {
        for r in map.ranges_of(f) {
            let range = &r.symbol;
            let start = bin.symbol(range).expect("range symbol is defined");
            for e in map.entries_of(r) {
                let block = blocks.get(&(&*f.symbol, e.bb_id));
                let entry = (start + u64::from(e.offset), e.size);
                assert_eq!(
                    block,
                    Some(&entry),
                    "{}: {} block {} (range {range})",
                    bin.name,
                    f.symbol,
                    e.bb_id
                );
                checked += 1;
            }
        }
    }
    checked
}

#[test]
fn relaxed_address_map_agrees_with_final_layout() {
    for &(spec, scale, seed, fpm) in &PROGRAMS {
        let p = program(spec, scale, seed, fpm);
        let (map, order) = directives(&p);
        let (pm, _) = link_counted(
            &compile(&p, &CodegenOptions::with_labels()),
            &LinkOptions::default(),
        );
        let clustered = compile(&p, &CodegenOptions::with_clusters(map));
        let (po, _) = link_counted(&clustered, &relink_options(order));
        // Relaxation moved bytes inside the mapped ranges.
        assert!(po.stats.deleted_jumps + po.stats.shrunk_branches > 0);
        for bin in [&pm, &po] {
            assert!(
                map_agrees_with_layout(bin) > 0,
                "{spec}: {} has no map",
                bin.name
            );
        }
    }
}
