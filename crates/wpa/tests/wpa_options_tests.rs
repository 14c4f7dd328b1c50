//! Tests for WPA's thresholding and cold-source options.

use propeller_codegen::{codegen_module, CodegenOptions};
use propeller_ir::{BlockId, FunctionBuilder, FunctionId, Inst, Program, ProgramBuilder, Terminator};
use propeller_linker::{link, LinkInput, LinkOptions, LinkedBinary};
use propeller_profile::SamplingConfig;
use propeller_sim::{simulate, ProgramImage, SimOptions, UarchConfig, Workload};
use propeller_wpa::{run_wpa, ColdSource, WpaOptions};

/// `hot_loop` runs constantly; `rare` runs once in a while; both call
/// nothing. PGO frequencies mark `rare`'s tail block hot even though
/// the workload almost never reaches it (a stale-profile stand-in).
fn fixture() -> (Program, FunctionId) {
    let mut pb = ProgramBuilder::new();
    let m = pb.add_module("m.cc");

    let mut rare = FunctionBuilder::new("rare");
    let b0 = rare.add_block(vec![Inst::Alu; 4], Terminator::Ret);
    rare.set_block_freq(b0, 1);
    let rare_id = pb.add_function(m, rare);

    let mut hot = FunctionBuilder::new("hot_loop");
    let head = hot.add_block(
        vec![Inst::Alu; 3],
        Terminator::CondBr {
            taken: BlockId(0),
            fallthrough: BlockId(1),
            prob_taken: 0.98,
        },
    );
    let tail = hot.add_block(vec![Inst::Call(rare_id)], Terminator::Ret);
    hot.set_block_freq(head, 50_000);
    hot.set_block_freq(tail, 1_000);
    let hot_id = pb.add_function(m, hot);

    (pb.finish().unwrap(), hot_id)
}

fn pm_and_profile(
    p: &Program,
    entry: FunctionId,
) -> (LinkedBinary, propeller_profile::HardwareProfile) {
    let inputs: Vec<LinkInput> = p
        .modules()
        .iter()
        .map(|m| {
            let r = codegen_module(m, p, &CodegenOptions::with_labels()).unwrap();
            LinkInput::new(r.object, r.debug_layout)
        })
        .collect();
    let pm = link(&inputs, &LinkOptions::default()).unwrap();
    let img = ProgramImage::build(p, &pm.layout).unwrap();
    let profile = simulate(
        &img,
        &Workload::new(vec![(entry, 1.0)], 60_000),
        &UarchConfig::default(),
        &SimOptions {
            sampling: Some(SamplingConfig { period: 37 }),
            heatmap: None,
            collect_call_misses: false,
            attribution: false,
        },
    )
    .profile
    .unwrap();
    (pm, profile)
}

#[test]
fn min_function_samples_gates_directives() {
    let (p, entry) = fixture();
    let (pm, profile) = pm_and_profile(&p, entry);
    let permissive = run_wpa(
        &p,
        &pm,
        &profile,
        &WpaOptions {
            min_function_samples: 1,
            ..WpaOptions::default()
        },
    );
    let strict = run_wpa(
        &p,
        &pm,
        &profile,
        &WpaOptions {
            min_function_samples: u64::MAX / 2,
            ..WpaOptions::default()
        },
    );
    assert!(permissive.stats.hot_functions >= 1);
    assert_eq!(strict.stats.hot_functions, 0, "threshold excludes all");
    assert!(strict.cluster_map.is_empty());
    assert!(strict.symbol_order.is_empty());
}

#[test]
fn pgo_cold_source_uses_ir_frequencies() {
    let (p, entry) = fixture();
    let (pm, profile) = pm_and_profile(&p, entry);
    let pgo = run_wpa(
        &p,
        &pm,
        &profile,
        &WpaOptions {
            cold_source: ColdSource::PgoFrequencies,
            ..WpaOptions::default()
        },
    );
    // Every block of the fixture has nonzero PGO frequency, so nothing
    // is split cold: no `.cold` symbols in the ordering.
    assert!(
        pgo.symbol_order.names().iter().all(|n| !n.ends_with(".cold")),
        "{:?}",
        pgo.symbol_order.names()
    );
}
