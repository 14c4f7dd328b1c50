//! Pinned output of `simulate` — every counter, every LBR record, the
//! heat map, the call-miss profile, the attribution table and the
//! folded stacks — for three `(program, layout, workload)` triples: one
//! on the default core, as the benchmark runs it, and two on cores small
//! enough that every level evicts and the LRU order decides what.
//!
//! The constants were recorded by running this file against the commit
//! *before* `SetAssocCache::access` became one search-and-age pass
//! (PR 19). The cache model sits under every counter, so a model whose
//! state or hit/miss sequence moved by one access shows up here without
//! running the benchmark.

use propeller_codegen::{codegen_module, ClusterMap, CodegenOptions, FunctionClusters};
use propeller_ir::{BlockId, Program};
use propeller_linker::{link, LinkInput, LinkOptions, SymbolOrdering};
use propeller_obj::ContentHash;
use propeller_profile::SamplingConfig;
use propeller_sim::{
    simulate, CacheConfig, CounterSet, ProgramImage, SimOptions, SimReport, UarchConfig, Workload,
};
use propeller_synth::{generate, spec_by_name, GenParams, GeneratedBenchmark};

/// The fleet benchmark's program (6.3 k blocks) and evaluation run.
fn fleet_program() -> GeneratedBenchmark {
    let spec = spec_by_name("clang").expect("built-in spec");
    generate(
        &spec,
        &GenParams {
            scale: 0.003,
            ..GenParams::for_spec(&spec)
        },
    )
}

fn small(spec: &str, scale: f64, seed: u64) -> GeneratedBenchmark {
    let spec = spec_by_name(spec).expect("built-in spec");
    generate(
        &spec,
        &GenParams {
            scale,
            seed,
            funcs_per_module: 12,
            entry_points: 3,
        },
    )
}

/// A WPA-free hot/cold split: two functions in three get directives,
/// blocks at least half as frequent as the entry stay hot, hot parts are
/// ordered by descending function id.
fn split(p: &Program) -> (ClusterMap, SymbolOrdering) {
    let mut map = ClusterMap::new();
    let mut order = Vec::new();
    let mut funcs: Vec<_> = p.functions().collect();
    funcs.sort_by_key(|f| std::cmp::Reverse(f.id));
    for f in funcs {
        if f.id.0 % 3 == 2 || f.num_blocks() < 2 {
            continue;
        }
        let threshold = f.entry().freq / 2;
        let (hot, cold): (Vec<BlockId>, Vec<BlockId>) = f
            .blocks
            .iter()
            .map(|b| b.id)
            .partition(|&id| id == BlockId(0) || f.blocks[id.index()].freq >= threshold);
        order.push(f.name.clone());
        map.insert(f.id, FunctionClusters::hot_cold(hot, cold));
    }
    (map, SymbolOrdering::new(order))
}

fn image(p: &Program, cg: &CodegenOptions, link_opts: &LinkOptions) -> ProgramImage {
    let inputs: Vec<LinkInput> = p
        .modules()
        .iter()
        .map(|m| {
            let r = codegen_module(m, p, cg).expect("codegen");
            LinkInput::new(r.object, r.debug_layout)
        })
        .collect();
    let bin = link(&inputs, link_opts).expect("link");
    ProgramImage::build(p, &bin.layout).expect("image")
}

fn load(bench: &GeneratedBenchmark, budget: u64, seed: u64) -> Workload {
    let mut w = Workload::new(bench.entries.clone(), budget);
    w.seed = seed;
    w
}

/// A core whose structures the test programs overflow: `l1i_kib` of
/// `assoc`-way L1i under a 4× L2 and a 16× L3, few TLB, BTB and DSB
/// entries.
fn cramped(l1i_kib: u64, assoc: usize, hugepages: bool) -> UarchConfig {
    let level = |kib: u64, assoc| CacheConfig {
        capacity: kib * 1024,
        assoc,
        line: 64,
    };
    let mut u = UarchConfig {
        l1i: level(l1i_kib, assoc),
        l2: level(4 * l1i_kib, 4),
        l3: level(16 * l1i_kib, 16),
        btb_entries: 64,
        dsb_windows: 32,
        ..UarchConfig::default()
    };
    u.itlb.l1_entries_4k = 8;
    u.itlb.stlb_entries = 16;
    u.itlb.hugepages = hugepages;
    u
}

/// Everything a report collected besides its counters, as one digest.
fn digest(r: &SimReport) -> u64 {
    let mut bytes = Vec::new();
    for s in r.profile.iter().flat_map(|p| &p.samples) {
        bytes.push(0xA5);
        for rec in &s.records {
            bytes.extend_from_slice(&rec.from.to_le_bytes());
            bytes.extend_from_slice(&rec.to.to_le_bytes());
        }
    }
    for cell in r.heatmap.iter().flat_map(|h| &h.cells) {
        bytes.extend_from_slice(&cell.to_le_bytes());
    }
    let mut misses: Vec<_> = r.call_misses.iter().flatten().collect();
    misses.sort();
    bytes.extend_from_slice(format!("{misses:?}").as_bytes());
    if let (Some(attr), Some(folded)) = (&r.attribution, &r.folded) {
        bytes.extend_from_slice(format!("{attr:?}").as_bytes());
        bytes.extend_from_slice(folded.to_text().as_bytes());
    }
    ContentHash::of_bytes(&bytes).0
}

/// The four collecting shapes, in the order of a triple's digests.
fn shapes() -> [(&'static str, SimOptions); 4] {
    let sampling = Some(SamplingConfig::default());
    [
        (
            "sampling",
            SimOptions {
                sampling,
                ..SimOptions::default()
            },
        ),
        (
            "heat-map",
            SimOptions {
                heatmap: Some((64, 32)),
                ..SimOptions::default()
            },
        ),
        (
            "call-miss",
            SimOptions {
                collect_call_misses: true,
                ..SimOptions::default()
            },
        ),
        (
            "attributed",
            SimOptions {
                sampling,
                attribution: true,
                ..SimOptions::default()
            },
        ),
    ]
}

#[track_caller]
fn pin(
    name: &str,
    image: &ProgramImage,
    w: &Workload,
    uarch: &UarchConfig,
    counters: CounterSet,
    digests: [u64; 4],
) {
    let plain = simulate(image, w, uarch, &SimOptions::default());
    assert_eq!(plain.counters, counters, "{name}/plain");
    let mut got = [0; 4];
    for ((shape, opts), slot) in shapes().into_iter().zip(&mut got) {
        let r = simulate(image, w, uarch, &opts);
        // What is collected never changes what is counted.
        assert_eq!(r.counters, counters, "{name}/{shape}");
        *slot = digest(&r);
        if let Some(attr) = &r.attribution {
            assert_eq!(
                attr.totals(),
                counters,
                "{name}: attribution does not sum up"
            );
        }
        if let Some(p) = &r.profile {
            assert!(
                p.num_records() > 1_000,
                "{name}/{shape}: {} records",
                p.num_records()
            );
        }
    }
    assert_eq!(got, digests, "{name}: got {got:#018x?}");
}

#[test]
fn fleet_program_on_its_metadata_layout() {
    let bench = fleet_program();
    let img = image(
        &bench.program,
        &CodegenOptions::with_labels(),
        &LinkOptions::default(),
    );
    pin(
        "fleet",
        &img,
        &load(&bench, 80_000, 5),
        &UarchConfig::default(),
        CounterSet {
            insts: 816203,
            blocks: 80000,
            cycles: 312419,
            taken_branches: 43885,
            fallthroughs: 51927,
            l1i_misses: 180,
            l2_code_misses: 180,
            l3_code_misses: 180,
            itlb_misses: 18,
            stlb_walks: 18,
            baclears: 145,
            dsb_misses: 180,
            prefetches: 0,
        },
        [
            0xe2b3_01b2_275e_75c2,
            0x9abe_a0c1_3ea2_a040,
            0x024d_54e3_15c1_906c,
            0x3ee1_6822_1f71_3641,
        ],
    );
}

#[test]
fn mysql_on_the_baseline_layout_and_a_two_way_core() {
    let bench = small("mysql", 0.004, 11);
    let img = image(
        &bench.program,
        &CodegenOptions::baseline(),
        &LinkOptions::default(),
    );
    pin(
        "mysql",
        &img,
        &load(&bench, 120_000, 9),
        &cramped(1, 2, false),
        CounterSet {
            insts: 658601,
            blocks: 120000,
            cycles: 606361,
            taken_branches: 52176,
            fallthroughs: 78566,
            l1i_misses: 29423,
            l2_code_misses: 746,
            l3_code_misses: 82,
            itlb_misses: 2,
            stlb_walks: 2,
            baclears: 3171,
            dsb_misses: 7095,
            prefetches: 0,
        },
        [
            0xe2ad_7e3b_a210_b0c8,
            0xf4c5_b7dd_a373_8915,
            0xc32b_4a8f_3000_5414,
            0x1972_6140_31e7_a0b0,
        ],
    );
}

#[test]
fn leela_on_a_split_layout_and_a_hugepage_core() {
    let bench = small("541.leela", 0.5, 3);
    let (map, order) = split(&bench.program);
    let img = image(
        &bench.program,
        &CodegenOptions::with_clusters(map),
        &LinkOptions {
            symbol_order: Some(order),
            relax: true,
            ..LinkOptions::default()
        },
    );
    pin(
        "leela",
        &img,
        &load(&bench, 100_000, 0x5eed),
        &cramped(4, 8, true),
        CounterSet {
            insts: 1174761,
            blocks: 100000,
            cycles: 977426,
            taken_branches: 57265,
            fallthroughs: 55272,
            l1i_misses: 31201,
            l2_code_misses: 3918,
            l3_code_misses: 358,
            itlb_misses: 1,
            stlb_walks: 1,
            baclears: 9139,
            dsb_misses: 45343,
            prefetches: 0,
        },
        [
            0xbeea_170d_210a_b9d1,
            0x69be_f7b6_5fff_480d,
            0xedf3_2df7_c008_9a46,
            0xd030_9623_bc58_917c,
        ],
    );
}
