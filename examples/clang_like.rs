//! A compiler-shaped workload: generate a program with Clang's Table 2
//! characteristics, walk through the four phases one at a time with
//! narration, and evaluate the result.
//!
//! ```text
//! cargo run --release -p propeller-examples --bin clang_like
//! ```

use propeller::{Propeller, PropellerOptions};
use propeller_examples::print_comparison;
use propeller_synth::{generate, spec_by_name, GenParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = spec_by_name("clang").expect("known benchmark");
    let mut params = GenParams::for_spec(&spec);
    params.scale = spec.default_scale * 0.5; // keep the example snappy
    let g = generate(&spec, &params);
    let stats = g.program.stats();
    println!(
        "generated a clang-shaped program at scale {:.4}: {stats}",
        params.scale
    );

    let mut pipeline = Propeller::new(g.program, g.entries, PropellerOptions::default());

    let p1 = pipeline.phase1_compile()?;
    println!(
        "phase 1 (compile + cache IR): {} actions, {:.1}s wall",
        p1.num_actions, p1.wall_secs
    );

    let p2 = pipeline.phase2_build_metadata()?;
    let pm = pipeline.pm_binary().expect("built");
    println!(
        "phase 2 (metadata build): {} actions, {:.1}s wall; PM binary {} bytes ({} bb-addr-map)",
        p2.num_actions,
        p2.wall_secs,
        pm.size_breakdown.total(),
        pm.size_breakdown.bb_addr_map,
    );

    let p3 = pipeline.phase3_profile_and_analyze()?;
    let wpa = pipeline.wpa_output().expect("analyzed");
    println!(
        "phase 3 (profile + WPA): {} samples, {} hot functions, {} dcfg edges, peak {} bytes, {:.1}s wall",
        pipeline.profile().expect("profiled").samples.len(),
        wpa.stats.hot_functions,
        wpa.stats.dcfg_edges,
        wpa.stats.modeled_peak_memory,
        p3.wall_secs
    );

    let p4 = pipeline.phase4_relink()?;
    let po = pipeline.po_binary().expect("relinked");
    println!(
        "phase 4 (relink): {} codegen actions (cold objects cached), {:.1}s wall; {} jumps deleted, {} branches shrunk",
        p4.num_actions.saturating_sub(1),
        p4.wall_secs,
        po.stats.deleted_jumps,
        po.stats.shrunk_branches
    );

    let eval = pipeline.evaluate(400_000)?;
    println!();
    print_comparison("clang-like workload", &eval.baseline, &eval.optimized);
    Ok(())
}
