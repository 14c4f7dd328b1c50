//! Chaos tests: the four-phase pipeline under seeded fault injection.
//!
//! The contract under test is the graceful-degradation design: for
//! *any* fault plan the pipeline completes all four phases and ships a
//! binary that retires exactly the baseline's block trace — it may lose
//! layout quality (down to the baseline-identical identity layout) but
//! never correctness, and every degradation it performs is accounted
//! for in the [`propeller::DegradationLedger`], exactly once.

use propeller::{
    EvalReport, FaultKind, FaultPlan, LayoutMode, Propeller, PropellerOptions, PropellerReport,
};
use propeller_doctor::RunReport;
use propeller_integration_tests::small_benchmark;
use proptest::prelude::*;

/// Runs the whole pipeline on a small clang under the given plan.
/// Panics (failing the test) if any phase errors — surviving is the
/// invariant.
fn run_with(plan: FaultPlan, seed: u64) -> (Propeller, PropellerReport, EvalReport) {
    let g = small_benchmark("clang", 0.002, 11);
    let opts = PropellerOptions {
        faults: plan,
        seed,
        ..PropellerOptions::default()
    };
    let mut p = Propeller::new(g.program, g.entries, opts);
    let report = p.run_all().expect("pipeline must survive any fault plan");
    let eval = p
        .evaluate(120_000)
        .expect("degraded binary must still evaluate");
    (p, report, eval)
}

/// Every fault the injector fired must appear in the ledger — exact,
/// one-for-one accounting, no silent drops and no double counting.
fn assert_exact_accounting(p: &Propeller, report: &PropellerReport) {
    let l = &report.degradation;
    let Some(inj) = p.fault_injector() else {
        assert!(l.is_clean(), "no injector, yet the ledger is dirty: {l}");
        return;
    };
    let books = [
        (FaultKind::TransientActionFailure, l.action_retries),
        (FaultKind::ActionTimeout, l.action_timeouts),
        (FaultKind::CacheCorruption, l.cache_corruptions),
        (FaultKind::CacheEviction, l.cache_evictions),
        (FaultKind::LbrRecordCorruption, l.lbr_records_corrupted),
        (FaultKind::SampleTruncation, l.lbr_samples_truncated),
        (FaultKind::PermanentCodegenFailure, l.objects_fallen_back),
    ];
    for (kind, booked) in books {
        assert_eq!(
            inj.fired(kind),
            booked,
            "{} fired vs booked mismatch in {l}",
            kind.key()
        );
    }
    assert_eq!(
        l.cache_rebuilds,
        l.cache_corruptions + l.cache_evictions,
        "every corrupted/evicted entry rebuilds exactly once"
    );
}

/// The optimized binary's final layout is still a permutation: block
/// address spans cover text without overlapping.
fn assert_layout_is_permutation(p: &Propeller) {
    let bin = p.po_binary().expect("phase 4 produced a binary");
    let mut spans: Vec<(u64, u64)> = bin
        .layout
        .functions
        .iter()
        .flat_map(|f| f.blocks.iter().map(|b| (b.addr, b.addr + b.size as u64)))
        .collect();
    assert!(!spans.is_empty());
    spans.sort_unstable();
    for w in spans.windows(2) {
        assert!(w[0].1 <= w[1].0, "overlapping blocks {w:?}");
    }
}

fn kitchen_sink() -> FaultPlan {
    FaultPlan::parse(
        "transient=0.4,timeout=0.2,corrupt-cache=0.4,evict-cache=0.2,\
         corrupt-lbr=0.3,truncate-samples=0.3,permanent-codegen=0.5",
    )
    .expect("static plan parses")
}

#[test]
fn same_seed_and_plan_replays_identically() {
    let (pa, ra, ea) = run_with(kitchen_sink(), 77);
    let (pb, rb, eb) = run_with(kitchen_sink(), 77);
    assert_eq!(ra, rb, "same seed + same plan must replay bit-identically");
    assert_eq!(ea, eb);
    // The full machine-readable report — metrics, layout provenance,
    // fault plan, ledger — serializes identically too.
    let collect = |p: &Propeller, r: &PropellerReport, e: &EvalReport| {
        RunReport::collect("clang", 0.002, 77, p, r, Some(e), None, None).to_json_string()
    };
    assert_eq!(collect(&pa, &ra, &ea), collect(&pb, &rb, &eb));
    // A different seed draws a different fault schedule (the plan
    // fires with high probability somewhere in this run).
    let (_, rc, _) = run_with(kitchen_sink(), 78);
    assert_ne!(
        ra.degradation, rc.degradation,
        "different seeds should fire different fault schedules"
    );
}

#[test]
fn zero_fault_plan_is_bit_identical_to_no_fault_layer() {
    let g = small_benchmark("clang", 0.002, 11);
    let mut vanilla = Propeller::new(
        g.program.clone(),
        g.entries.clone(),
        PropellerOptions::default(),
    );
    let rv = vanilla.run_all().unwrap();
    let ev = vanilla.evaluate(120_000).unwrap();
    // An explicit all-disabled plan must take the exact legacy path.
    let opts = PropellerOptions {
        faults: FaultPlan::none(),
        ..PropellerOptions::default()
    };
    let mut gated = Propeller::new(g.program, g.entries, opts);
    let rg = gated.run_all().unwrap();
    let eg = gated.evaluate(120_000).unwrap();
    assert!(rg.degradation.is_clean());
    assert!(
        gated.fault_injector().is_none(),
        "empty plans arm no injector"
    );
    assert_eq!(rv, rg);
    assert_eq!(ev, eg);
    let jv = RunReport::collect("clang", 0.002, 11, &vanilla, &rv, Some(&ev), None, None);
    let jg = RunReport::collect("clang", 0.002, 11, &gated, &rg, Some(&eg), None, None);
    assert_eq!(jv.to_json_string(), jg.to_json_string());
    assert!(!jg.to_json_string().contains("degradation"));
}

#[test]
fn full_profile_loss_degrades_to_identity_layout_not_failure() {
    let (p, report, eval) = run_with(FaultPlan::full_profile_loss(), 9);
    let l = &report.degradation;
    assert_eq!(l.layout_mode, LayoutMode::IdentityFallback);
    assert!(l.lbr_records_corrupted > 0);
    assert_eq!(l.lbr_records_dropped, l.lbr_records_corrupted);
    // Nothing survived salvage, so WPA claimed no hot functions and
    // there was nothing to demote — the ledger must not invent work.
    assert_eq!(l.functions_marked_cold, 0);
    // Fully degraded still means correct: same retired block trace.
    assert_eq!(eval.optimized.blocks, eval.baseline.blocks);
    assert_exact_accounting(&p, &report);
    assert_layout_is_permutation(&p);
}

#[test]
fn below_floor_partial_loss_demotes_the_surviving_hot_set() {
    // ~85% record corruption: enough survives for WPA to claim a hot
    // set, but survival sits under the default 0.25 trust floor — the
    // claimed hot functions must be demoted rather than trusted.
    let plan = FaultPlan::parse("corrupt-lbr=0.85").unwrap();
    let (p, report, eval) = run_with(plan, 5);
    let l = &report.degradation;
    assert_eq!(l.layout_mode, LayoutMode::IdentityFallback);
    assert!(
        l.functions_marked_cold > 0,
        "hot set must be demoted, not trusted"
    );
    assert_eq!(eval.optimized.blocks, eval.baseline.blocks);
    assert_exact_accounting(&p, &report);
    assert_layout_is_permutation(&p);
}

#[test]
fn permanent_codegen_failure_ships_cached_baseline_objects() {
    let plan = FaultPlan::parse("permanent-codegen=1").unwrap();
    let (p, report, eval) = run_with(plan, 3);
    let l = &report.degradation;
    assert!(
        l.objects_fallen_back > 0,
        "every hot module must have fallen back"
    );
    // Fallback objects come from the phase-2 labels cache, so the
    // binary still links and retires the baseline's trace.
    assert_eq!(eval.optimized.blocks, eval.baseline.blocks);
    assert_exact_accounting(&p, &report);
    assert_layout_is_permutation(&p);
}

/// Strategy: an arbitrary fault plan. Probabilities are drawn in
/// [0, 1] (quantized), limits are small or absent.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    prop::collection::vec((any::<u8>(), 0u8..6), 7).prop_map(|knobs| {
        let spec = |(p, lim): (u8, u8)| {
            let prob = f64::from(p) / 255.0;
            match lim {
                0 => propeller::FaultSpec::p(prob),
                n => propeller::FaultSpec::count(prob, u64::from(n)),
            }
        };
        let mut plan = FaultPlan::none();
        let pipeline_kinds = FaultKind::ALL
            .into_iter()
            .filter(|k| !FaultKind::SERVICE.contains(k));
        for (kind, knob) in pipeline_kinds.zip(knobs) {
            plan.set(kind, spec(knob));
        }
        plan
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline robustness property: under ANY plan the pipeline
    /// completes, the binary is correct, the accounting is exact, and
    /// no counter overflows to nonsense.
    #[test]
    fn any_fault_plan_degrades_gracefully(plan in arb_plan(), seed in 0u64..1000) {
        let (p, report, eval) = run_with(plan, seed);
        let l = &report.degradation;
        prop_assert_eq!(eval.optimized.blocks, eval.baseline.blocks);
        prop_assert!(l.retry_backoff_secs.is_finite() && l.retry_backoff_secs >= 0.0);
        prop_assert!(report.times.total_wall_secs().is_finite());
        assert_exact_accounting(&p, &report);
        assert_layout_is_permutation(&p);
    }
}
