//! Full Phase 2 -> 3 -> 4 pipeline test: profile a metadata binary,
//! run WPA, apply its directives, and verify the optimized binary wins.

use propeller_codegen::{codegen_module, CodegenOptions};
use propeller_ir::{BlockId, FunctionBuilder, FunctionId, Inst, Program, ProgramBuilder, Terminator};
use propeller_linker::{link, LinkInput, LinkOptions, LinkedBinary};
use propeller_profile::SamplingConfig;
use propeller_sim::{simulate, ProgramImage, SimOptions, UarchConfig, Workload};
use propeller_wpa::{run_wpa, IntraOrder, WpaOptions};

/// A program with layout headroom: workers have a rarely-taken cold
/// block sitting between the entry and the hot tail.
fn program(n_workers: usize) -> (Program, FunctionId) {
    let mut pb = ProgramBuilder::new();
    let m = pb.add_module("app.cc");
    let mut workers = Vec::new();
    for i in 0..n_workers {
        let mut f = FunctionBuilder::new(format!("worker{i}"));
        f.add_block(
            vec![Inst::Alu; 5],
            Terminator::CondBr {
                taken: BlockId(1),
                fallthrough: BlockId(2),
                prob_taken: 0.01,
            },
        );
        f.add_block(vec![Inst::Store; 300], Terminator::Jump(BlockId(3)));
        f.add_block(vec![Inst::Alu; 8], Terminator::Jump(BlockId(3)));
        f.add_block(vec![Inst::Alu], Terminator::Ret);
        workers.push(pb.add_function(m, f));
    }
    let mut driver = FunctionBuilder::new("driver");
    driver.add_block(
        workers.iter().map(|w| Inst::Call(*w)),
        Terminator::CondBr {
            taken: BlockId(0),
            fallthrough: BlockId(1),
            prob_taken: 0.99,
        },
    );
    driver.add_block(Vec::new(), Terminator::Ret);
    let driver = pb.add_function(m, driver);
    (pb.finish().unwrap(), driver)
}

fn link_with(p: &Program, cg: &CodegenOptions, lk: &LinkOptions) -> LinkedBinary {
    let inputs: Vec<LinkInput> = p
        .modules()
        .iter()
        .map(|m| {
            let r = codegen_module(m, p, cg).unwrap();
            LinkInput::new(r.object, r.debug_layout)
        })
        .collect();
    link(&inputs, lk).unwrap()
}

fn profile_binary(
    p: &Program,
    bin: &LinkedBinary,
    driver: FunctionId,
    budget: u64,
) -> propeller_profile::HardwareProfile {
    let image = ProgramImage::build(p, &bin.layout).unwrap();
    let r = simulate(
        &image,
        &Workload::new(vec![(driver, 1.0)], budget),
        &UarchConfig::default(),
        &SimOptions {
            sampling: Some(SamplingConfig { period: 53 }),
            heatmap: None,
            collect_call_misses: false,
            attribution: false,
        },
    );
    r.profile.unwrap()
}

#[test]
fn end_to_end_propeller_pipeline_improves_layout() {
    let (p, driver) = program(64);

    // Phase 2: metadata (labels) build. Also the performance baseline
    // (labels mode does not change code layout).
    let pm = link_with(&p, &CodegenOptions::with_labels(), &LinkOptions::default());

    // Phase 3: profile + WPA.
    let profile = profile_binary(&p, &pm, driver, 150_000);
    let wpa = run_wpa(&p, &pm, &profile, &WpaOptions::default());

    // Every worker plus the driver should be seen as hot.
    assert_eq!(wpa.stats.functions_seen, 65);
    assert!(wpa.stats.hot_functions >= 60, "{:?}", wpa.stats);
    assert!(wpa.cluster_map.len() >= 60);
    assert!(wpa.stats.modeled_peak_memory > 0);

    // Cold blocks (bb1 of each worker) must have landed in .cold
    // clusters listed after all primaries.
    let names = wpa.symbol_order.names();
    let first_cold = names.iter().position(|n| n.ends_with(".cold"));
    let last_hot = names.iter().rposition(|n| !n.ends_with(".cold"));
    let (Some(fc), Some(lh)) = (first_cold, last_hot) else {
        panic!("expected both hot and cold symbols: {names:?}");
    };
    assert!(fc > lh, "cold clusters after hot: {names:?}");

    // Phase 4: regenerate with clusters and relink with the ordering.
    let po = link_with(
        &p,
        &CodegenOptions::with_clusters(wpa.cluster_map.clone()),
        &LinkOptions {
            symbol_order: Some(wpa.symbol_order.clone()),
            relax: true,
            drop_cold_bb_addr_map: true,
            ..LinkOptions::default()
        },
    );

    // Compare performance.
    let w = Workload::new(vec![(driver, 1.0)], 200_000);
    let base_img = ProgramImage::build(&p, &pm.layout).unwrap();
    let opt_img = ProgramImage::build(&p, &po.layout).unwrap();
    let base = simulate(&base_img, &w, &UarchConfig::default(), &SimOptions::default()).counters;
    let opt = simulate(&opt_img, &w, &UarchConfig::default(), &SimOptions::default()).counters;

    assert!(
        opt.taken_branches < base.taken_branches,
        "taken branches should drop: {} -> {}",
        base.taken_branches,
        opt.taken_branches
    );
    let speedup = opt.speedup_pct_over(&base);
    assert!(speedup > 0.5, "expected a real speedup, got {speedup:.2}%");

    // The optimized binary stays close to baseline size (±10%), per
    // §5.3 (~1% in the paper; our ISA is coarser).
    let base_text = pm.stats.text_bytes as f64;
    let opt_text = po.stats.text_bytes as f64;
    assert!(
        (opt_text - base_text).abs() / base_text < 0.10,
        "text {base_text} -> {opt_text}"
    );
    // And relaxation actually fired.
    assert!(po.stats.deleted_jumps + po.stats.shrunk_branches > 0);
}

#[test]
fn exttsp_beats_original_intra_order() {
    let (p, driver) = program(48);
    let pm = link_with(&p, &CodegenOptions::with_labels(), &LinkOptions::default());
    let profile = profile_binary(&p, &pm, driver, 120_000);

    let run = |intra: IntraOrder| {
        let wpa = run_wpa(
            &p,
            &pm,
            &profile,
            &WpaOptions {
                intra,
                ..WpaOptions::default()
            },
        );
        let po = link_with(
            &p,
            &CodegenOptions::with_clusters(wpa.cluster_map),
            &LinkOptions {
                symbol_order: Some(wpa.symbol_order),
                relax: true,
                ..LinkOptions::default()
            },
        );
        let img = ProgramImage::build(&p, &po.layout).unwrap();
        simulate(
            &img,
            &Workload::new(vec![(driver, 1.0)], 150_000),
            &UarchConfig::default(),
            &SimOptions::default(),
        )
        .counters
    };
    let original = run(IntraOrder::Original);
    let exttsp = run(IntraOrder::ExtTsp);
    assert!(
        exttsp.taken_branches <= original.taken_branches,
        "ext-tsp should not increase taken branches: {} vs {}",
        exttsp.taken_branches,
        original.taken_branches
    );
}

#[test]
fn interprocedural_mode_emits_numbered_clusters() {
    let (p, driver) = program(32);
    let pm = link_with(&p, &CodegenOptions::with_labels(), &LinkOptions::default());
    let profile = profile_binary(&p, &pm, driver, 100_000);
    let wpa = run_wpa(&p, &pm, &profile, &WpaOptions::interprocedural());
    // Some functions should have been cut into numbered sections.
    let numbered = wpa
        .symbol_order
        .names()
        .iter()
        .filter(|n| n.chars().rev().take_while(|c| c.is_ascii_digit()).count() > 0
            && n.contains('.')
            && !n.ends_with(".cold"))
        .count();
    assert!(numbered > 0, "expected numbered cluster symbols");
    // And the result still links + runs.
    let po = link_with(
        &p,
        &CodegenOptions::with_clusters(wpa.cluster_map),
        &LinkOptions {
            symbol_order: Some(wpa.symbol_order),
            relax: true,
            ..LinkOptions::default()
        },
    );
    let img = ProgramImage::build(&p, &po.layout).unwrap();
    let r = simulate(
        &img,
        &Workload::new(vec![(driver, 1.0)], 50_000),
        &UarchConfig::default(),
        &SimOptions::default(),
    );
    assert!(r.counters.insts > 0);
}
