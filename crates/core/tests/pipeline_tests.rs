//! End-to-end pipeline tests on generated benchmarks.

use propeller::{BuildCaches, PipelineError, Propeller, PropellerOptions};
use propeller_sim::SimOptions;
use propeller_synth::{generate, spec_by_name, GenParams};
use std::sync::Arc;

fn pipeline(scale: f64, seed: u64) -> Propeller {
    let spec = spec_by_name("541.leela").unwrap();
    let g = generate(
        &spec,
        &GenParams {
            scale,
            seed,
            funcs_per_module: 12,
            entry_points: 3,
        },
    );
    Propeller::new(g.program, g.entries, PropellerOptions::default())
}

#[test]
fn four_phases_run_and_improve_performance() {
    let mut p = pipeline(0.3, 42);
    let report = p.run_all().unwrap();

    // Caching: phase 4 reused the cold objects from phase 2.
    assert!(report.object_cache.hits > 0, "{:?}", report.object_cache);
    assert!(report.hot_module_fraction > 0.0 && report.hot_module_fraction < 1.0);
    assert!(report.hot_functions > 0);
    assert!(report.times.total_wall_secs() > 0.0);
    assert!(report.deleted_jumps + report.shrunk_branches > 0);

    let eval = p.evaluate(200_000).unwrap();
    assert!(
        eval.speedup_pct() > 0.3,
        "expected improvement, got {:.2}% ({:?} vs {:?})",
        eval.speedup_pct(),
        eval.optimized.cycles,
        eval.baseline.cycles
    );
    // Taken branches drop (the §5.4 effect).
    assert!(eval.optimized.taken_branches < eval.baseline.taken_branches);
    // The optimized half alone is the same run.
    let alone = p
        .evaluate_optimized(200_000, &SimOptions::default(), None)
        .unwrap();
    assert_eq!(alone.counters, eval.optimized);
}

#[test]
fn phase_order_is_enforced() {
    let mut p = pipeline(0.1, 7);
    assert!(matches!(
        p.phase2_build_metadata(),
        Err(PipelineError::PhaseOrder { needs: "phase 1" })
    ));
    p.phase1_compile().unwrap();
    assert!(matches!(
        p.build_baseline(),
        Err(PipelineError::PhaseOrder { needs: "phase 2" })
    ));
    assert!(matches!(
        p.phase3_profile_and_analyze(),
        Err(PipelineError::PhaseOrder { needs: "phase 2" })
    ));
    p.phase2_build_metadata().unwrap();
    assert!(matches!(
        p.phase4_relink(),
        Err(PipelineError::PhaseOrder { needs: "phase 3" })
    ));
    assert!(matches!(
        p.evaluate(1000),
        Err(PipelineError::PhaseOrder { needs: "phase 4" })
    ));
    assert!(matches!(
        p.evaluate_optimized(1000, &SimOptions::default(), None),
        Err(PipelineError::PhaseOrder { needs: "phase 4" })
    ));
}

#[test]
fn second_build_is_fully_cached() {
    let mut p = pipeline(0.15, 9);
    p.run_all().unwrap();
    let first_misses = {
        let r = p.run_all().unwrap();
        r.object_cache
    };
    // Re-running all phases performs no new codegen work.
    let mut p2_misses = first_misses.misses;
    let again = p.run_all().unwrap();
    assert_eq!(again.object_cache.misses, p2_misses);
    p2_misses += 0;
    let _ = p2_misses;
}

#[test]
fn relink_reuses_majority_of_objects() {
    let mut p = pipeline(0.3, 21);
    let report = p.run_all().unwrap();
    // The benchmark has ~55% cold objects; phase 4 regenerates only
    // hot modules.
    assert!(
        report.hot_module_fraction < 0.7,
        "hot fraction {}",
        report.hot_module_fraction
    );
}

#[test]
fn metadata_binary_is_larger_than_baseline() {
    let mut p = pipeline(0.2, 5);
    p.phase1_compile().unwrap();
    p.phase2_build_metadata().unwrap();
    let pm_size = p.pm_binary().unwrap().size_breakdown.total();
    let base_size = p.build_baseline().unwrap().size_breakdown.total();
    assert!(pm_size > base_size);
    // Metadata overhead should be well under 20% (paper: 7-9%).
    let overhead = (pm_size as f64 - base_size as f64) / base_size as f64;
    assert!(overhead < 0.20, "metadata overhead {overhead:.3}");
}

#[test]
fn optimized_binary_size_stays_close_to_baseline() {
    let mut p = pipeline(0.3, 13);
    p.run_all().unwrap();
    let base = p.build_baseline().unwrap().size_breakdown.text as f64;
    let po = p.po_binary().unwrap().size_breakdown.text as f64;
    assert!(
        (po - base).abs() / base < 0.10,
        "text size: baseline {base}, optimized {po}"
    );
}

#[test]
fn a_cache_snapshot_serves_hits_and_never_writes_through() {
    let spec = spec_by_name("541.leela").unwrap();
    let g = generate(
        &spec,
        &GenParams {
            scale: 0.15,
            seed: 9,
            funcs_per_module: 12,
            entry_points: 3,
        },
    );
    let program = Arc::new(g.program);
    let modules = program.num_modules() as u64;
    let caches = BuildCaches::new();
    let mut first = Propeller::with_caches(
        program.clone(),
        g.entries.clone(),
        PropellerOptions::default(),
        caches.clone(),
    );
    first.phase1_compile().unwrap();
    first.phase2_build_metadata().unwrap();
    let before = (caches.ir_stats(), caches.object_stats(), caches.len());

    // A second pipeline over the same program on a snapshot: Phases 1-2
    // are all hits, Phase 4 inserts its hot modules — into the copy.
    let snapshot = caches.snapshot();
    let mut second = Propeller::with_caches(
        program,
        g.entries,
        PropellerOptions::default(),
        snapshot.clone(),
    );
    second.phase1_compile().unwrap();
    second.phase2_build_metadata().unwrap();
    let warm = snapshot.object_stats().since(&before.1);
    assert_eq!(
        (warm.lookups, warm.hits, warm.insertions),
        (modules, modules, 0)
    );
    second.phase3_profile_and_analyze().unwrap();
    second.phase4_relink().unwrap();
    second.evaluate(20_000).unwrap();
    assert!(snapshot.object_stats().insertions > before.1.insertions);
    assert!(snapshot.len().1 > before.2 .1);
    assert_eq!(
        (caches.ir_stats(), caches.object_stats(), caches.len()),
        before
    );
}
