//! End-to-end simulator tests over real codegen + linker output.

use propeller_codegen::{codegen_module, ClusterMap, CodegenOptions, FunctionClusters};
use propeller_ir::{BlockId, FunctionBuilder, FunctionId, Inst, Program, ProgramBuilder, Terminator};
use propeller_linker::{link, LinkInput, LinkOptions, SymbolOrdering};
use propeller_sim::{simulate, ProgramImage, SimOptions, UarchConfig, Workload};
use propeller_profile::SamplingConfig;

/// `driver` loops `iters` times; each iteration calls `work`, which has
/// a hot path and a rarely-taken cold path full of padding.
fn looped_program(pad: usize) -> (Program, FunctionId) {
    let mut pb = ProgramBuilder::new();
    let m = pb.add_module("m.cc");

    let mut work = FunctionBuilder::new("work");
    let entry = work.add_block(
        vec![Inst::Alu; 4],
        Terminator::CondBr {
            taken: BlockId(1),
            fallthrough: BlockId(2),
            prob_taken: 0.03,
        },
    );
    let cold = work.add_block(vec![Inst::Store; pad], Terminator::Jump(BlockId(3)));
    let hot = work.add_block(vec![Inst::Alu; 6], Terminator::Jump(BlockId(3)));
    let exit = work.add_block(vec![Inst::Alu], Terminator::Ret);
    work.set_block_freq(entry, 10_000);
    work.set_block_freq(cold, 300);
    work.set_block_freq(hot, 9_700);
    work.set_block_freq(exit, 10_000);
    let work_id = pb.add_function(m, work);

    let mut driver = FunctionBuilder::new("driver");
    let loop_head = driver.add_block(
        vec![Inst::Call(work_id)],
        Terminator::CondBr {
            taken: BlockId(0),
            fallthrough: BlockId(1),
            prob_taken: 0.99,
        },
    );
    let done = driver.add_block(Vec::new(), Terminator::Ret);
    driver.set_block_freq(loop_head, 10_000);
    driver.set_block_freq(done, 100);
    let driver_id = pb.add_function(m, driver);

    (pb.finish().unwrap(), driver_id)
}

fn build_image(p: &Program, opts: &CodegenOptions, link_opts: &LinkOptions) -> ProgramImage {
    let inputs: Vec<LinkInput> = p
        .modules()
        .iter()
        .map(|m| {
            let r = codegen_module(m, p, opts).unwrap();
            LinkInput::new(r.object, r.debug_layout)
        })
        .collect();
    let bin = link(&inputs, link_opts).unwrap();
    ProgramImage::build(p, &bin.layout).unwrap()
}

fn workload(entry: FunctionId, budget: u64) -> Workload {
    Workload::new(vec![(entry, 1.0)], budget)
}

#[test]
fn counters_are_consistent() {
    let (p, driver) = looped_program(10);
    let image = build_image(&p, &CodegenOptions::baseline(), &LinkOptions::default());
    let r = simulate(
        &image,
        &workload(driver, 50_000),
        &UarchConfig::default(),
        &SimOptions::default(),
    );
    let c = r.counters;
    assert_eq!(c.blocks, 50_000);
    assert!(c.insts > c.blocks, "multiple insts per block");
    assert!(c.cycles > 0);
    assert!(c.taken_branches > 0);
    assert!(c.fallthroughs > 0);
    // Cache misses exist but are bounded by accesses.
    assert!(c.l2_code_misses <= c.l1i_misses);
    assert!(c.l3_code_misses <= c.l2_code_misses);
    assert!(c.stlb_walks <= c.itlb_misses);
}

#[test]
fn determinism_across_runs() {
    let (p, driver) = looped_program(10);
    let image = build_image(&p, &CodegenOptions::baseline(), &LinkOptions::default());
    let a = simulate(
        &image,
        &workload(driver, 20_000),
        &UarchConfig::default(),
        &SimOptions::default(),
    );
    let b = simulate(
        &image,
        &workload(driver, 20_000),
        &UarchConfig::default(),
        &SimOptions::default(),
    );
    assert_eq!(a.counters, b.counters);
    // And a different seed changes the trace.
    let mut w = workload(driver, 20_000);
    w.seed = 999;
    let c = simulate(&image, &w, &UarchConfig::default(), &SimOptions::default());
    assert_ne!(a.counters, c.counters);
}

#[test]
fn hot_cold_split_reduces_taken_branches_and_misses() {
    // Many hot functions, each dragging a large cold block: the
    // combined text (~70 KiB) exceeds the 32 KiB L1i, but the hot parts
    // alone fit once the cold blocks are split out.
    let mut pb = ProgramBuilder::new();
    let m = pb.add_module("m.cc");
    let n = 256;
    let mut workers = Vec::new();
    for i in 0..n {
        let mut f = FunctionBuilder::new(format!("work{i}"));
        f.add_block(
            vec![Inst::Alu; 4],
            Terminator::CondBr {
                taken: BlockId(1),
                fallthrough: BlockId(2),
                prob_taken: 0.002,
            },
        );
        f.add_block(vec![Inst::Store; 400], Terminator::Jump(BlockId(3))); // cold
        f.add_block(vec![Inst::Alu; 6], Terminator::Jump(BlockId(3)));
        f.add_block(Vec::new(), Terminator::Ret);
        workers.push(pb.add_function(m, f));
    }
    let mut driver = FunctionBuilder::new("driver");
    driver.add_block(
        workers.iter().map(|w| Inst::Call(*w)),
        Terminator::CondBr {
            taken: BlockId(0),
            fallthrough: BlockId(1),
            prob_taken: 0.995,
        },
    );
    driver.add_block(Vec::new(), Terminator::Ret);
    let driver = pb.add_function(m, driver);
    let p = pb.finish().unwrap();

    let baseline = build_image(&p, &CodegenOptions::baseline(), &LinkOptions::default());

    let mut map = ClusterMap::new();
    let mut order = vec!["driver".to_string()];
    for w in &workers {
        map.insert(
            *w,
            FunctionClusters::hot_cold(
                vec![BlockId(0), BlockId(2), BlockId(3)],
                vec![BlockId(1)],
            ),
        );
        let name = &p.function(*w).unwrap().name;
        order.push(name.to_string());
    }
    for w in &workers {
        order.push(format!("{}.cold", p.function(*w).unwrap().name));
    }
    let optimized = build_image(
        &p,
        &CodegenOptions::with_clusters(map),
        &LinkOptions {
            symbol_order: Some(SymbolOrdering::new(order)),
            relax: true,
            ..LinkOptions::default()
        },
    );

    let w = workload(driver, 300_000);
    let base = simulate(&baseline, &w, &UarchConfig::default(), &SimOptions::default()).counters;
    let opt = simulate(&optimized, &w, &UarchConfig::default(), &SimOptions::default()).counters;

    assert!(
        opt.taken_branches < base.taken_branches,
        "taken: opt={} base={}",
        opt.taken_branches,
        base.taken_branches
    );
    assert!(
        (opt.l1i_misses as f64) < base.l1i_misses as f64 * 0.5,
        "l1i: opt={} base={}",
        opt.l1i_misses,
        base.l1i_misses
    );
    assert!(
        opt.speedup_pct_over(&base) > 1.0,
        "optimized layout should be faster: {:.2}%",
        opt.speedup_pct_over(&base)
    );
}

#[test]
fn lbr_sampling_produces_mappable_profile() {
    let (p, driver) = looped_program(10);
    let image = build_image(&p, &CodegenOptions::with_labels(), &LinkOptions::default());
    let r = simulate(
        &image,
        &workload(driver, 30_000),
        &UarchConfig::default(),
        &SimOptions {
            sampling: Some(SamplingConfig { period: 97 }),
            heatmap: None,
            collect_call_misses: false,
            attribution: false,
        },
    );
    let profile = r.profile.expect("sampling enabled");
    assert!(!profile.samples.is_empty());
    // Every recorded address falls inside the text segment.
    for s in &profile.samples {
        for rec in &s.records {
            assert!((image.text_start..image.text_end).contains(&rec.from));
            assert!((image.text_start..image.text_end).contains(&rec.to));
        }
    }
}

#[test]
fn hugepages_reduce_itlb_misses_on_large_text() {
    // Many functions spread over a lot of text.
    let mut pb = ProgramBuilder::new();
    let m = pb.add_module("big.cc");
    let n = 64;
    let mut callees = Vec::new();
    for i in 0..n {
        let mut f = FunctionBuilder::new(format!("leaf{i}"));
        f.add_block(vec![Inst::Alu; 600], Terminator::Ret);
        callees.push(pb.add_function(m, f));
    }
    let mut driver = FunctionBuilder::new("driver");
    let insts: Vec<Inst> = callees.iter().map(|c| Inst::Call(*c)).collect();
    driver.add_block(
        insts,
        Terminator::CondBr {
            taken: BlockId(0),
            fallthrough: BlockId(1),
            prob_taken: 0.98,
        },
    );
    driver.add_block(Vec::new(), Terminator::Ret);
    let driver = pb.add_function(m, driver);
    let p = pb.finish().unwrap();

    let image = build_image(&p, &CodegenOptions::baseline(), &LinkOptions::default());
    let w = workload(driver, 100_000);
    let small_pages = simulate(&image, &w, &UarchConfig::default(), &SimOptions::default());
    let huge_pages = simulate(&image, &w, &UarchConfig::with_hugepages(), &SimOptions::default());
    assert!(
        huge_pages.counters.itlb_misses < small_pages.counters.itlb_misses / 2,
        "huge={} small={}",
        huge_pages.counters.itlb_misses,
        small_pages.counters.itlb_misses
    );
}

#[test]
fn heatmap_covers_text_and_tracks_locality() {
    let (p, driver) = looped_program(300);
    let image = build_image(&p, &CodegenOptions::baseline(), &LinkOptions::default());
    let r = simulate(
        &image,
        &workload(driver, 20_000),
        &UarchConfig::default(),
        &SimOptions {
            sampling: None,
            heatmap: Some((32, 16)),
            collect_call_misses: false,
            attribution: false,
        },
    );
    let h = r.heatmap.expect("requested");
    assert!(h.active_rows() > 0);
    assert!(h.active_rows() <= 32);
    let art = h.render_ascii();
    assert_eq!(art.lines().count(), 32);
}
