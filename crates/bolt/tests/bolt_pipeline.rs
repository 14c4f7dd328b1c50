//! End-to-end comparator tests: BOLT vs baseline vs Propeller on the
//! same profile.

use propeller_bolt::{run_bolt, BoltError, BoltOptions};
use propeller_codegen::{codegen_module, CodegenOptions};
use propeller_ir::{FunctionId, Program};
use propeller_linker::{link, LinkInput, LinkOptions, LinkedBinary};
use propeller_profile::SamplingConfig;
use propeller_sim::{simulate, ProgramImage, SimOptions, UarchConfig, Workload};
use propeller_synth::{generate, spec_by_name, GenParams};

fn build(p: &Program, cg: &CodegenOptions, lk: &LinkOptions) -> LinkedBinary {
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

fn fixture() -> (Program, Vec<(FunctionId, f64)>) {
    let spec = spec_by_name("541.leela").unwrap();
    let g = generate(
        &spec,
        &GenParams {
            scale: 0.35,
            seed: 99,
            funcs_per_module: 12,
            entry_points: 3,
        },
    );
    (g.program, g.entries)
}

#[test]
fn bolt_requires_relocations() {
    let (p, _) = fixture();
    let plain = build(&p, &CodegenOptions::baseline(), &LinkOptions::default());
    let profile = propeller_profile::HardwareProfile::new("x");
    assert!(matches!(
        run_bolt(&plain, &profile, &BoltOptions::default()),
        Err(BoltError::MissingRelocations)
    ));
}

#[test]
fn bolt_improves_layout_like_propeller() {
    let (p, entries) = fixture();
    let bm = build(&p, &CodegenOptions::baseline(), &LinkOptions::default()).with_static_relocs();
    let img = ProgramImage::build(&p, &bm.layout).unwrap();
    let workload = Workload::new(entries.clone(), 250_000);
    let prof_run = simulate(
        &img,
        &workload,
        &UarchConfig::default(),
        &SimOptions {
            sampling: Some(SamplingConfig { period: 61 }),
            heatmap: None,
            collect_call_misses: false,
            attribution: false,
        },
    );
    let profile = prof_run.profile.unwrap();

    let out = run_bolt(&bm, &profile, &BoltOptions::default()).unwrap();
    assert!(!out.crash_on_startup);
    assert!(out.stats.optimized_functions > 0);
    assert!(out.stats.simple_functions > 0);
    assert!(out.stats.insts_decoded > 0);

    // The BOLT-optimized layout must beat the baseline.
    let base = simulate(&img, &workload, &UarchConfig::default(), &SimOptions::default()).counters;
    let opt_img = ProgramImage::build(&p, &out.layout).unwrap();
    let opt = simulate(&opt_img, &workload, &UarchConfig::default(), &SimOptions::default()).counters;
    assert!(
        opt.taken_branches < base.taken_branches,
        "taken {} -> {}",
        base.taken_branches,
        opt.taken_branches
    );
    assert!(opt.speedup_pct_over(&base) > 0.0);
}

#[test]
fn bolt_binary_is_much_larger_than_input() {
    let (p, entries) = fixture();
    let bm = build(&p, &CodegenOptions::baseline(), &LinkOptions::default()).with_static_relocs();
    let img = ProgramImage::build(&p, &bm.layout).unwrap();
    let profile = simulate(
        &img,
        &Workload::new(entries, 150_000),
        &UarchConfig::default(),
        &SimOptions {
            sampling: Some(SamplingConfig { period: 61 }),
            heatmap: None,
            collect_call_misses: false,
            attribution: false,
        },
    )
    .profile
    .unwrap();
    let out = run_bolt(&bm, &profile, &BoltOptions::default()).unwrap();
    // Original text retained + new segment + 2MiB alignment: the text
    // grows substantially (§5.3).
    assert!(
        out.size_breakdown.text as f64 > 1.3 * bm.size_breakdown.text as f64,
        "text {} -> {}",
        bm.size_breakdown.text,
        out.size_breakdown.text
    );
}

#[test]
fn integrity_checked_binaries_crash_at_startup() {
    let (p, entries) = fixture();
    let bm = build(&p, &CodegenOptions::baseline(), &LinkOptions::default()).with_static_relocs();
    let img = ProgramImage::build(&p, &bm.layout).unwrap();
    let profile = simulate(
        &img,
        &Workload::new(entries, 50_000),
        &UarchConfig::default(),
        &SimOptions {
            sampling: Some(SamplingConfig { period: 61 }),
            heatmap: None,
            collect_call_misses: false,
            attribution: false,
        },
    )
    .profile
    .unwrap();
    let out = run_bolt(
        &bm,
        &profile,
        &BoltOptions {
            input_has_integrity_checks: true,
        },
    )
    .unwrap();
    assert!(out.crash_on_startup);
}
