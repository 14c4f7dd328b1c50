//! End-to-end tests of the §3.5 software prefetch pass.

use propeller::{Propeller, PropellerOptions};
use propeller_ir::{
    BlockId, FunctionBuilder, FunctionId, Inst, Program, ProgramBuilder, Terminator,
};

/// A dispatcher that round-robins over many large leaf functions: the
/// combined footprint exceeds L1i, so every call misses at the callee
/// entry — the prefetch pass's ideal prey.
fn dispatcher_program(n_leaves: usize, leaf_size: usize) -> (Program, FunctionId) {
    let mut pb = ProgramBuilder::new();
    let m = pb.add_module("disp.cc");
    let mut leaves = Vec::new();
    for i in 0..n_leaves {
        let mut f = FunctionBuilder::new(format!("leaf{i}"));
        f.add_block(vec![Inst::Alu; leaf_size], Terminator::Ret);
        leaves.push(pb.add_function(m, f));
    }
    let mut driver = FunctionBuilder::new("driver");
    driver.add_block(
        leaves.iter().map(|l| Inst::Call(*l)),
        Terminator::CondBr {
            taken: BlockId(0),
            fallthrough: BlockId(1),
            prob_taken: 0.995,
        },
    );
    driver.add_block(Vec::new(), Terminator::Ret);
    let driver = pb.add_function(m, driver);
    (pb.finish().unwrap(), driver)
}

#[test]
fn prefetch_pass_reduces_entry_misses() {
    let (p, driver) = dispatcher_program(96, 500);

    let run = |prefetch: Option<u64>| {
        let opts = PropellerOptions {
            prefetch,
            profile_budget: 120_000,
            ..PropellerOptions::default()
        };
        let mut pipeline = Propeller::new(p.clone(), vec![(driver, 1.0)], opts);
        pipeline.run_all().unwrap();
        pipeline.evaluate(200_000).unwrap()
    };

    let without = run(None);
    let with = run(Some(8));

    assert_eq!(without.optimized.prefetches, 0);
    assert!(with.optimized.prefetches > 0, "prefetches must execute");
    assert!(
        with.optimized.l1i_misses < without.optimized.l1i_misses,
        "prefetching must hide entry misses: {} vs {}",
        with.optimized.l1i_misses,
        without.optimized.l1i_misses
    );
    assert!(
        with.optimized.cycles < without.optimized.cycles,
        "and translate into cycles: {} vs {}",
        with.optimized.cycles,
        without.optimized.cycles
    );
    // The baseline runs are identical (prefetch only touches PO).
    assert_eq!(without.baseline, with.baseline);
}

#[test]
fn prefetch_disabled_by_default_and_threshold_respected() {
    let (p, driver) = dispatcher_program(16, 40);
    // Absurd threshold: pass enabled but no site qualifies.
    let opts = PropellerOptions {
        profile_budget: 40_000,
        prefetch: Some(u64::MAX / 2),
        ..PropellerOptions::default()
    };
    let mut pipeline = Propeller::new(p, vec![(driver, 1.0)], opts);
    pipeline.run_all().unwrap();
    let eval = pipeline.evaluate(50_000).unwrap();
    assert_eq!(eval.optimized.prefetches, 0);
}
