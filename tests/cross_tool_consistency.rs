//! Consistency checks between independent components: the BOLT
//! disassembler against codegen, the WPA mapper against the linker,
//! and both optimizers against each other.

use propeller_bolt::disasm::{disassemble, discover_functions};
use propeller_bolt::{run_bolt, BoltOptions};
use propeller_codegen::{codegen_module, CodegenOptions};
use propeller_integration_tests::small_benchmark;
use propeller_linker::{link, LinkInput, LinkOptions, LinkedBinary};
use propeller_profile::SamplingConfig;
use propeller_sim::{simulate, ProgramImage, SimOptions, UarchConfig, Workload};
use propeller_synth::GeneratedBenchmark;
use propeller_wpa::AddressMapper;

fn build(g: &GeneratedBenchmark, cg: &CodegenOptions, lk: &LinkOptions) -> LinkedBinary {
    let inputs: Vec<LinkInput> = g
        .program
        .modules()
        .iter()
        .map(|m| {
            let r = codegen_module(m, &g.program, cg).unwrap();
            LinkInput::new(r.object, r.debug_layout)
        })
        .collect();
    link(&inputs, lk).unwrap()
}

#[test]
fn disassembler_agrees_with_codegen_layout() {
    let g = small_benchmark("541.leela", 0.25, 19);
    let bin = build(&g, &CodegenOptions::baseline(), &LinkOptions::default()).with_static_relocs();
    let funcs = discover_functions(&bin);
    assert!(!funcs.is_empty());
    let mut simple = 0;
    for f in &funcs {
        let d = disassemble(&bin, f);
        assert!(d.simple, "{} must disassemble cleanly", f.name);
        simple += 1;
        // Every linker-reported block start must land on an
        // instruction boundary of the disassembly.
        let starts: std::collections::HashSet<u64> =
            d.insts.iter().map(|i| i.addr).collect();
        if let Some(fl) = bin
            .layout
            .functions
            .iter()
            .find(|l| *l.func_symbol == *f.name)
        {
            for b in &fl.blocks {
                assert!(
                    starts.contains(&b.addr),
                    "block at {:#x} of {} not on an instruction boundary",
                    b.addr,
                    f.name
                );
            }
        }
    }
    assert_eq!(simple, funcs.len());
}

#[test]
fn wpa_mapper_agrees_with_linker_layout() {
    let g = small_benchmark("531.deepsjeng", 1.0, 23);
    let bin = build(&g, &CodegenOptions::with_labels(), &LinkOptions::default());
    let mapper = AddressMapper::from_binary(&bin);
    // Every block the linker placed must be resolvable through the
    // encoded bb address map at its exact address.
    for fl in &bin.layout.functions {
        for b in &fl.blocks {
            if b.size == 0 {
                continue;
            }
            let loc = mapper
                .lookup(b.addr)
                .unwrap_or_else(|| panic!("unmapped block at {:#x}", b.addr));
            assert_eq!(loc.func_symbol, &*fl.func_symbol);
            assert_eq!(loc.bb_id, b.block.0);
            assert_eq!(loc.offset_in_block, 0);
        }
    }
}

#[test]
fn both_optimizers_reduce_taken_branches_on_same_profile() {
    let g = small_benchmark("525.x264", 0.3, 29);
    // BM is the PM (labels) binary without its map, relocations kept.
    let pm = build(&g, &CodegenOptions::with_labels(), &LinkOptions::default());
    let bm = pm.without_bb_addr_map("app.bm").with_static_relocs();
    let img = ProgramImage::build(&g.program, &bm.layout).unwrap();
    let workload = Workload::new(g.entries.clone(), 250_000);
    let profile = simulate(
        &img,
        &workload,
        &UarchConfig::default(),
        &SimOptions {
            sampling: Some(SamplingConfig { period: 89 }),
            heatmap: None,
            collect_call_misses: false,
            attribution: false,
        },
    )
    .profile
    .unwrap();
    let base = simulate(&img, &workload, &UarchConfig::default(), &SimOptions::default()).counters;

    // BOLT path.
    let bolt = run_bolt(&bm, &profile, &BoltOptions::default()).unwrap();
    let bolt_img = ProgramImage::build(&g.program, &bolt.layout).unwrap();
    let bolt_c =
        simulate(&bolt_img, &workload, &UarchConfig::default(), &SimOptions::default()).counters;

    // Propeller path (same profile!). WPA reads the BB address map,
    // which lives in the PM binary; BM's text is PM's, so the profile
    // maps onto both.
    assert_eq!(pm.symbol("x264_fn0"), bm.symbol("x264_fn0"));
    let wpa = propeller_wpa::run_wpa(&g.program, &pm, &profile, &propeller_wpa::WpaOptions::default());
    let po = build(
        &g,
        &CodegenOptions::with_clusters(wpa.cluster_map),
        &LinkOptions {
            symbol_order: Some(wpa.symbol_order),
            relax: true,
            ..LinkOptions::default()
        },
    );
    let po_img = ProgramImage::build(&g.program, &po.layout).unwrap();
    let prop_c =
        simulate(&po_img, &workload, &UarchConfig::default(), &SimOptions::default()).counters;

    assert!(prop_c.taken_branches < base.taken_branches);
    assert!(bolt_c.taken_branches < base.taken_branches);
    // The two optimizers should land in the same neighborhood (same
    // algorithm, same profile): within 15% of each other.
    let ratio = prop_c.taken_branches as f64 / bolt_c.taken_branches as f64;
    assert!((0.85..1.15).contains(&ratio), "taken ratio {ratio}");
}

#[test]
fn bolt_memory_scales_with_text_propeller_with_hot_code() {
    // The §5.1 scaling argument, at two program sizes: BOLT's profile
    // conversion memory grows ~linearly with text, Propeller's with
    // the (much smaller) hot portion.
    let measure = |scale: f64| {
        let g = small_benchmark("mysql", scale, 31);
        let pm = build(&g, &CodegenOptions::with_labels(), &LinkOptions::default());
        let bm = pm.without_bb_addr_map("app.bm").with_static_relocs();
        let img = ProgramImage::build(&g.program, &pm.layout).unwrap();
        let profile = simulate(
            &img,
            &Workload::new(g.entries.clone(), 120_000),
            &UarchConfig::default(),
            &SimOptions {
                sampling: Some(SamplingConfig { period: 89 }),
                heatmap: None,
                collect_call_misses: false,
                attribution: false,
            },
        )
        .profile
        .unwrap();
        let bolt = run_bolt(&bm, &profile, &BoltOptions::default()).unwrap();
        let wpa =
            propeller_wpa::run_wpa(&g.program, &pm, &profile, &propeller_wpa::WpaOptions::default());
        (
            bolt.stats.profile_conversion_peak_memory,
            wpa.stats.modeled_peak_memory,
        )
    };
    let (bolt_small, prop_small) = measure(0.002);
    let (bolt_large, prop_large) = measure(0.008);
    // BOLT grows ~4x (linear in text); Propeller grows much less
    // (hot set barely changes).
    let bolt_growth = bolt_large as f64 / bolt_small as f64;
    let prop_growth = prop_large as f64 / prop_small as f64;
    assert!(bolt_growth > 2.5, "bolt growth {bolt_growth}");
    assert!(
        prop_growth < bolt_growth,
        "propeller ({prop_growth:.2}x) must scale better than bolt ({bolt_growth:.2}x)"
    );
}
