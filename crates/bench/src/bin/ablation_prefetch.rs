//! §3.5 ablation — profile-guided software prefetch insertion, the
//! optimization the paper describes as implementable within Propeller's
//! split local/global design ("the whole-program analysis of cache miss
//! profiles determine prefetch insertion points; a summary-based
//! directive can then drive the distributed code generation actions").
//!
//! Compares the standard Propeller configuration against Propeller +
//! prefetch insertion on the warehouse-scale benchmarks.

use propeller::{Propeller, PropellerOptions};
use propeller_bench::{RunConfig, Table};
use propeller_synth::{generate, spec_by_name, GenParams};

fn main() {
    let cfg = RunConfig::from_env();
    let mut t = Table::new(&[
        "Benchmark",
        "layout only",
        "layout+prefetch",
        "prefetches/1k blocks",
        "L1i Δ (prefetch vs layout)",
    ]);
    for name in ["search", "bigtable", "clang"] {
        let spec = spec_by_name(name).unwrap();
        let gen = generate(
            &spec,
            &GenParams {
                scale: (spec.default_scale * cfg.scale_mult).min(1.0),
                seed: cfg.seed,
                ..GenParams::for_spec(&spec)
            },
        );
        let run = |prefetch: Option<u64>| {
            let mut opts = PropellerOptions {
                prefetch,
                profile_budget: cfg.profile_budget,
                seed: cfg.seed,
                ..PropellerOptions::default()
            };
            if spec.hugepages {
                opts.uarch = propeller_sim::UarchConfig::with_hugepages();
            }
            let mut p = Propeller::new(gen.program.clone(), gen.entries.clone(), opts);
            p.run_all().expect("pipeline");
            p.evaluate(cfg.eval_budget).expect("eval")
        };
        let layout = run(None);
        let both = run(Some(4));
        let base = &layout.baseline;
        t.row(vec![
            name.to_string(),
            format!("{:+.2}%", layout.optimized.speedup_pct_over(base)),
            format!("{:+.2}%", both.optimized.speedup_pct_over(base)),
            format!(
                "{:.1}",
                both.optimized.prefetches as f64 * 1000.0 / both.optimized.blocks.max(1) as f64
            ),
            format!(
                "{:+.1}%",
                both.optimized.delta_pct(&layout.optimized, |c| c.l1i_misses)
            ),
        ]);
        eprintln!("[prefetch] {name} done");
    }
    println!("§3.5 ablation: software prefetch insertion on top of code layout\n");
    println!("{}", t.render());
    println!("(the paper proposes this pass but does not evaluate it; reported for completeness)");
}
