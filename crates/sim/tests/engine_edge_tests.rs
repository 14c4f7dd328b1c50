//! Edge-case tests for the execution engine.

use propeller_codegen::{codegen_module, CodegenError, CodegenOptions};
use propeller_ir::{
    BlockId, FunctionBuilder, FunctionId, Inst, Program, ProgramBuilder, Terminator,
};
use propeller_linker::{link, FinalLayout, LinkInput, LinkOptions};
use propeller_profile::SamplingConfig;
use propeller_sim::{simulate, ImageError, ProgramImage, SimOptions, UarchConfig, Workload};

fn layout_of(p: &Program) -> FinalLayout {
    let inputs: Vec<LinkInput> = p
        .modules()
        .iter()
        .map(|m| {
            let r = codegen_module(m, p, &CodegenOptions::baseline()).unwrap();
            LinkInput::new(r.object, r.debug_layout)
        })
        .collect();
    link(&inputs, &LinkOptions::default()).unwrap().layout
}

fn image_of(p: &Program) -> ProgramImage {
    ProgramImage::build(p, &layout_of(p)).unwrap()
}

/// `ping` and `pong` call each other forever.
fn mutually_recursive() -> (Program, FunctionId) {
    let mut pb = ProgramBuilder::new();
    let m = pb.add_module("m.cc");
    let pong_id = propeller_ir::FunctionId(1);
    let mut ping = FunctionBuilder::new("ping");
    ping.add_block(vec![Inst::Alu, Inst::Call(pong_id)], Terminator::Ret);
    let ping_id = pb.add_function(m, ping);
    let mut pong = FunctionBuilder::new("pong");
    pong.add_block(vec![Inst::Alu, Inst::Call(ping_id)], Terminator::Ret);
    let actual_pong = pb.add_function(m, pong);
    assert_eq!(actual_pong, pong_id);
    (pb.finish().unwrap(), ping_id)
}

/// A call to an id past the program's last function, edited in after
/// validation, is a typed error from codegen and from the image build
/// alike: neither may panic on it.
#[test]
fn a_call_past_the_last_function_is_an_error() {
    let (mut p, _) = mutually_recursive();
    let layout = layout_of(&p);
    let past_end = FunctionId(p.num_functions() as u32);
    p.modules_mut()[0].functions[0].edit_blocks(|_, body| {
        body[1] = Inst::Call(past_end);
        true
    });
    assert_eq!(
        codegen_module(&p.modules()[0], &p, &CodegenOptions::baseline()).unwrap_err(),
        CodegenError::UnknownFunction(past_end)
    );
    assert_eq!(
        ProgramImage::build(&p, &layout).unwrap_err(),
        ImageError::UnknownCallee {
            function: "ping".into(),
            callee: past_end,
        }
    );
}

#[test]
fn zero_budget_executes_nothing() {
    let (p, entry) = mutually_recursive();
    let image = image_of(&p);
    let r = simulate(
        &image,
        &Workload::new(vec![(entry, 1.0)], 0),
        &UarchConfig::default(),
        &SimOptions::default(),
    );
    assert_eq!(r.counters.blocks, 0);
    assert_eq!(r.counters.insts, 0);
    assert_eq!(r.counters.cycles, 0);
}

#[test]
fn unbounded_recursion_is_capped_by_call_depth() {
    let (p, entry) = mutually_recursive();
    let image = image_of(&p);
    let mut w = Workload::new(vec![(entry, 1.0)], 10_000);
    w.max_call_depth = 16;
    let r = simulate(&image, &w, &UarchConfig::default(), &SimOptions::default());
    // The walk terminates (budget consumed) rather than overflowing.
    assert_eq!(r.counters.blocks, 10_000);
    // Calls beyond the depth cap were elided, so taken branches are
    // bounded by roughly two per block (call + ret).
    assert!(r.counters.taken_branches <= 2 * r.counters.blocks);
}

#[test]
fn single_block_program_loops_over_requests() {
    let mut pb = ProgramBuilder::new();
    let m = pb.add_module("m.cc");
    let mut f = FunctionBuilder::new("tiny");
    f.add_block(vec![Inst::Alu; 3], Terminator::Ret);
    let tiny = pb.add_function(m, f);
    let p = pb.finish().unwrap();
    let image = image_of(&p);
    let r = simulate(
        &image,
        &Workload::new(vec![(tiny, 1.0)], 500),
        &UarchConfig::default(),
        &SimOptions::default(),
    );
    // Each request is one block; the engine redispatches 500 times.
    assert_eq!(r.counters.blocks, 500);
    assert_eq!(r.counters.insts, 500 * 4); // 3 ALUs + ret
}

#[test]
fn multiple_entries_respect_weights() {
    let mut pb = ProgramBuilder::new();
    let m = pb.add_module("m.cc");
    let mut heavy = FunctionBuilder::new("heavy");
    heavy.add_block(vec![Inst::Alu; 10], Terminator::Ret);
    let heavy = pb.add_function(m, heavy);
    let mut light = FunctionBuilder::new("light");
    light.add_block(vec![Inst::Alu], Terminator::Ret);
    let light = pb.add_function(m, light);
    let p = pb.finish().unwrap();
    let image = image_of(&p);
    // 9:1 weighting — expected insts per block ~ (0.9*11 + 0.1*2).
    let r = simulate(
        &image,
        &Workload::new(vec![(heavy, 9.0), (light, 1.0)], 20_000),
        &UarchConfig::default(),
        &SimOptions::default(),
    );
    let avg = r.counters.insts as f64 / r.counters.blocks as f64;
    assert!((9.0..11.0).contains(&avg), "avg insts/block {avg}");
}

#[test]
fn sampling_period_bounds_sample_count() {
    let mut pb = ProgramBuilder::new();
    let m = pb.add_module("m.cc");
    let mut f = FunctionBuilder::new("looper");
    f.add_block(
        vec![Inst::Alu],
        Terminator::CondBr {
            taken: BlockId(0),
            fallthrough: BlockId(1),
            prob_taken: 0.9,
        },
    );
    f.add_block(Vec::new(), Terminator::Ret);
    let looper = pb.add_function(m, f);
    let p = pb.finish().unwrap();
    let image = image_of(&p);
    let r = simulate(
        &image,
        &Workload::new(vec![(looper, 1.0)], 50_000),
        &UarchConfig::default(),
        &SimOptions {
            sampling: Some(SamplingConfig { period: 100 }),
            heatmap: None,
            collect_call_misses: false,
            attribution: false,
        },
    );
    let profile = r.profile.unwrap();
    let taken = r.counters.taken_branches;
    let expected = taken / 100;
    let got = profile.samples.len() as u64;
    assert!(
        got.abs_diff(expected) <= 1,
        "samples {got} vs taken/period {expected}"
    );
}

#[test]
fn hugepage_config_changes_only_tlb_behavior() {
    let (p, entry) = mutually_recursive();
    let image = image_of(&p);
    let w = Workload::new(vec![(entry, 1.0)], 30_000);
    let small = simulate(&image, &w, &UarchConfig::default(), &SimOptions::default()).counters;
    let huge = simulate(
        &image,
        &w,
        &UarchConfig::with_hugepages(),
        &SimOptions::default(),
    )
    .counters;
    // Same instruction stream, same cache behavior; only TLB differs.
    assert_eq!(small.insts, huge.insts);
    assert_eq!(small.taken_branches, huge.taken_branches);
    assert_eq!(small.l1i_misses, huge.l1i_misses);
    assert!(huge.itlb_misses <= small.itlb_misses);
}
