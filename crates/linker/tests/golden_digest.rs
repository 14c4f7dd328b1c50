//! Pinned golden digests of `link` — the in-tree twin of the
//! benchmark's image digests, in the manner of
//! `crates/wpa/tests/golden_digest.rs`.
//!
//! The constants were recorded from the commit *before* the linker was
//! made linear and copy-free (PR 14). Each covers every field of
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
use std::collections::BTreeMap;

/// `(spec, scale, seed, funcs_per_module)` of each pinned program.
const PROGRAMS: [(&str, f64, u64, usize); 3] = [
    ("clang", 0.004, 13, 12),
    ("mysql", 0.004, 7, 5),
    ("505.mcf", 1.0, 3, 9),
];

/// `[baseline, labels, relink, retain_relocs]` per program.
const GOLDEN: [[u64; 4]; 3] = [
    [
        0xe470_f3b7_62ba_8cbb,
        0xfcce_5dc3_3a31_6578,
        0x1fb7_679d_6edb_54d7,
        0xc737_2127_66d4_160b,
    ],
    [
        0x3a87_3ce9_7694_9ce6,
        0xd667_dc15_bf9b_48df,
        0x1f5b_f109_f7d3_9642,
        0x156f_8b7f_97f0_ea80,
    ],
    [
        0xd5de_3737_f5db_ad17,
        0x8cfd_d854_8600_a31b,
        0x8a3a_14ee_ad28_6a49,
        0x6413_cd60_f77e_7166,
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
    for (row, &(spec, scale, seed, fpm)) in got.iter_mut().zip(&PROGRAMS) {
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
        let (relink, sweeps) = link_counted(
            &clustered,
            &LinkOptions {
                output_name: "app.propeller".into(),
                symbol_order: Some(order.clone()),
                relax: true,
                drop_cold_bb_addr_map: true,
                ..LinkOptions::default()
            },
        );
        let (retained, _) = link_counted(
            &clustered,
            &LinkOptions {
                output_name: "app.bm".into(),
                symbol_order: Some(order),
                retain_relocs: true,
                base: 0x1_0000,
                ..LinkOptions::default()
            },
        );

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
        assert!(relink.text_end < retained.text_end - retained.base + relink.base);
        assert!(!labels.bb_addr_map.functions.is_empty());
        assert!(baseline.bb_addr_map.functions.is_empty());
        max_sweeps = max_sweeps.max(sweeps);

        *row = [&baseline, &labels, &relink, &retained].map(digest);
    }
    // At least one program's shrinks cascade: a sweep's savings pull
    // further branches into short range, so the sweep after it still
    // changes decisions.
    assert!(max_sweeps >= 3, "no cascade: at most {max_sweeps} sweeps");
    assert_eq!(got, GOLDEN, "got {got:#018x?}");
}
