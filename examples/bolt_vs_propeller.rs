//! Head-to-head: Propeller's relinking flow vs a BOLT-style monolithic
//! rewriter on the same MySQL-shaped workload and the same hardware
//! profile (the paper's §5 methodology).
//!
//! ```text
//! cargo run --release -p propeller-examples --bin bolt_vs_propeller
//! ```

use propeller::{Propeller, PropellerOptions};
use propeller_bolt::{run_bolt, BoltOptions};
use propeller_examples::print_comparison;
use propeller_sim::{simulate, ProgramImage, SimOptions, UarchConfig, Workload};
use propeller_synth::{generate, spec_by_name, GenParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = spec_by_name("mysql").expect("known benchmark");
    let mut params = GenParams::for_spec(&spec);
    params.scale = spec.default_scale * 0.5;
    let g = generate(&spec, &params);
    println!("mysql-shaped workload: {}", g.program.stats());

    // Propeller flow.
    let mut pipeline = Propeller::new(
        g.program.clone(),
        g.entries.clone(),
        PropellerOptions::default(),
    );
    pipeline.run_all()?;
    let profile = pipeline.profile().expect("profiled").clone();
    let eval = pipeline.evaluate(400_000)?;
    print_comparison("Propeller", &eval.baseline, &eval.optimized);

    // BOLT flow: the baseline as linked with --emit-relocs — the
    // metadata binary without its map, relocations kept — fed the
    // *same* profile.
    let bm = pipeline
        .pm_binary()
        .expect("phase 2 ran")
        .without_bb_addr_map("mysqld.bm")
        .with_static_relocs();
    let bolt = run_bolt(&bm, &profile, &BoltOptions::default())?;
    println!(
        "\nBOLT: {} functions discovered, {} optimized, {} insts decoded",
        bolt.stats.functions_discovered, bolt.stats.optimized_functions, bolt.stats.insts_decoded
    );
    println!(
        "BOLT output size: {} bytes vs baseline {} bytes ({:+.0}%)",
        bolt.size_breakdown.total(),
        bm.size_breakdown.total(),
        (bolt.size_breakdown.total() as f64 / bm.size_breakdown.total() as f64 - 1.0) * 100.0
    );

    let mut workload = Workload::new(g.entries.clone(), 400_000);
    workload.seed = 0x5eed;
    let img = ProgramImage::build(&g.program, &bolt.layout)?;
    let bolt_counters = simulate(
        &img,
        &workload,
        &UarchConfig::default(),
        &SimOptions::default(),
    )
    .counters;
    println!();
    print_comparison("BOLT", &eval.baseline, &bolt_counters);

    println!(
        "\nmemory: Propeller WPA peak {} bytes vs BOLT perf2bolt peak {} bytes ({:.1}x)",
        pipeline
            .wpa_output()
            .expect("wpa")
            .stats
            .modeled_peak_memory,
        bolt.stats.profile_conversion_peak_memory,
        bolt.stats.profile_conversion_peak_memory as f64
            / pipeline
                .wpa_output()
                .expect("wpa")
                .stats
                .modeled_peak_memory
                .max(1) as f64
    );
    Ok(())
}
