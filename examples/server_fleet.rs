//! A warehouse-scale scenario: a Bigtable-shaped service built on the
//! distributed build system. Demonstrates the caching behavior that
//! makes relinking cheap, the incremental rebuild after a "code
//! change", and the per-action memory limit that keeps monolithic
//! rewriters off this infrastructure.
//!
//! ```text
//! cargo run --release -p propeller-examples --bin server_fleet
//! ```

use propeller::{BuildCaches, MachineConfig, Propeller, PropellerOptions};
use propeller_buildsys::GIB;
use propeller_examples::print_comparison;
use propeller_ir::Terminator;
use propeller_synth::{generate, spec_by_name, GenParams};
use propeller_telemetry::Telemetry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = spec_by_name("bigtable").expect("known benchmark");
    let mut params = GenParams::for_spec(&spec);
    params.scale = spec.default_scale * 0.5;
    let g = generate(&spec, &params);
    println!(
        "bigtable-shaped service at scale {:.4}: {}",
        params.scale,
        g.program.stats()
    );

    let opts = PropellerOptions {
        machine: MachineConfig::Distributed { ram_limit: spec.action_ram_gib * GIB },
        ..PropellerOptions::default()
    };
    // The build caches persist across releases, like the production
    // distributed build system's artifact store.
    let caches = BuildCaches::new();
    let mut pipeline =
        Propeller::with_caches(g.program.clone(), g.entries.clone(), opts.clone(), caches.clone());
    let report = pipeline.run_all()?;
    println!(
        "\nrelease #1: {} hot modules regenerated ({}% of objects), cache {} hits / {} misses",
        (report.hot_module_fraction * g.program.num_modules() as f64).round(),
        (report.hot_module_fraction * 100.0).round(),
        report.object_cache.hits,
        report.object_cache.misses
    );
    let eval = pipeline.evaluate(400_000)?;
    print_comparison("bigtable-like service", &eval.baseline, &eval.optimized);

    // --- Incremental release: one module changes. -------------------
    let mut changed = g.program.clone();
    {
        let module = &mut changed.modules_mut()[0];
        let f = &mut module.functions[0];
        // A small edit: append an ALU op to the entry block.
        f.edit_blocks(|b, body| {
            if b.id.index() == 0 {
                body.push(propeller_ir::Inst::Alu);
            }
            true
        });
        assert!(matches!(
            f.blocks[0].term,
            Terminator::Ret | Terminator::Jump(_) | Terminator::CondBr { .. }
        ));
    }
    let before = caches.object_stats();
    let mut second = Propeller::with_caches(changed, g.entries.clone(), opts, caches.clone());
    let report2 = second.run_all()?;
    let after = report2.object_cache;
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    println!(
        "\nrelease #2 (one module edited): {hits} cache hits, {misses} misses \
         ({:.0}% hit rate — only the edited module and re-laid-out hot modules rebuilt)",
        hits as f64 * 100.0 / (hits + misses) as f64
    );

    // --- Why BOLT cannot run here. ----------------------------------
    // A monolithic rewrite of this binary needs memory proportional to
    // the full disassembly; the distributed build rejects any action
    // above the per-action limit.
    let executor = propeller_buildsys::Executor::new(MachineConfig::Distributed {
        ram_limit: spec.action_ram_gib * GIB,
    });
    let full_scale_bolt_peak = 36 * GIB; // Figure 4's Search-class number
    let action = propeller_buildsys::ActionSpec::new("llvm-bolt", 600.0, full_scale_bolt_peak);
    match executor.run_phase(&[action], &Telemetry::disabled(), None) {
        Err(e) => println!("\nmonolithic rewriter on the distributed build: {e}"),
        Ok(_) => unreachable!("36 GiB action must exceed the limit"),
    }
    Ok(())
}
