//! End-to-end tests of the fleet release-lifecycle loop: determinism
//! across runs and worker counts, zero-drift steady state (the control
//! arm), and the speedup-vs-staleness curve worsening with drift.

use propeller::FaultPlan;
use propeller_doctor::RelinkPolicy;
use propeller_fleet::{run_fleet, FleetOptions};
use propeller_synth::spec_by_name;

/// Small, fast fleet parameters shared by every test (a debug-profile
/// release takes ~1s at this size).
fn small_opts() -> FleetOptions {
    FleetOptions {
        releases: 5,
        machines: 2,
        history_window: 2,
        profile_budget: 40_000,
        eval_budget: 150_000,
        seed: 77,
        ..FleetOptions::default()
    }
}

#[test]
fn fleet_loop_is_deterministic_across_runs_and_jobs() {
    let spec = spec_by_name("clang").unwrap();
    let mut opts = small_opts();
    opts.drift = 0.5;
    let a = run_fleet(&spec, 0.002, &opts).unwrap();
    let b = run_fleet(&spec, 0.002, &opts).unwrap();
    assert_eq!(a.to_json_string(), b.to_json_string());
    // Worker count must not leak into any ledger byte.
    opts.jobs = 8;
    let c = run_fleet(&spec, 0.002, &opts).unwrap();
    assert_eq!(a.to_json_string(), c.to_json_string());
    // A different seed must change the collected samples (guards
    // against the seed being silently ignored).
    opts.jobs = 1;
    opts.seed = 78;
    let d = run_fleet(&spec, 0.002, &opts).unwrap();
    assert_ne!(a.to_json_string(), d.to_json_string());
}

#[test]
fn zero_drift_control_reaches_steady_state_with_warm_caches() {
    let spec = spec_by_name("clang").unwrap();
    let opts = small_opts();
    let report = run_fleet(&spec, 0.002, &opts).unwrap();
    assert_eq!(report.records.len(), 5);
    assert_eq!(report.records[0].decision, "bootstrap");
    // Identical releases: post-warmup rows repeat bit-for-bit.
    assert!(
        report.steady_after_warmup(opts.history_window),
        "zero-drift ledger not steady:\n{}",
        report.curve_csv()
    );
    for r in &report.records[1..] {
        // Nothing changed, so the whole rebuild is served from cache
        // and nothing gets dropped in translation.
        assert!(
            r.cache_hit_rate > 0.9,
            "release {} hit rate {}",
            r.release,
            r.cache_hit_rate
        );
        assert_eq!(r.dropped_records, 0);
        // The stale profile is the same workload on the same binary:
        // shipping on it costs ~nothing vs the oracle.
        assert!(
            r.gap_pct.abs() < 1.0,
            "release {} gap {}",
            r.release,
            r.gap_pct
        );
        assert_eq!(r.decision, "relink");
        assert!(r.skew < 0.05, "release {} skew {}", r.release, r.skew);
    }
}

#[test]
fn drift_worsens_skew_and_the_staleness_gap() {
    let spec = spec_by_name("clang").unwrap();
    let mut calm = small_opts();
    calm.drift = 0.0;
    let mut stormy = small_opts();
    stormy.drift = 0.6;
    let calm_report = run_fleet(&spec, 0.002, &calm).unwrap();
    let stormy_report = run_fleet(&spec, 0.002, &stormy).unwrap();
    let last = |r: &propeller_fleet::FleetReport| r.records.last().unwrap().clone();
    // More churn, more skew: the merged stale profile diverges further
    // from what a fresh collection would say.
    assert!(
        last(&stormy_report).skew > last(&calm_report).skew + 0.05,
        "skew calm {} vs stormy {}",
        last(&calm_report).skew,
        last(&stormy_report).skew
    );
    // And the divergence costs speedup: the stale-vs-oracle gap grows.
    assert!(
        stormy_report.mean_gap_pct() > calm_report.mean_gap_pct(),
        "gap calm {} vs stormy {}",
        calm_report.mean_gap_pct(),
        stormy_report.mean_gap_pct()
    );
    // Churn deletes/resizes functions, so translation must drop some
    // of the old records — and report that it did.
    assert!(stormy_report.records.last().unwrap().dropped_records > 0);
}

#[test]
fn tight_threshold_flips_the_policy_to_reuse() {
    let spec = spec_by_name("clang").unwrap();
    let mut opts = small_opts();
    opts.drift = 0.6;
    // A threshold below any real skew forces reuse everywhere after
    // the bootstrap: the fleet keeps shipping the baseline layout.
    opts.policy = RelinkPolicy { max_skew: 1e-9 };
    let report = run_fleet(&spec, 0.002, &opts).unwrap();
    assert_eq!(report.records[0].decision, "bootstrap");
    for r in &report.records[1..] {
        assert_eq!(r.decision, "reuse", "release {}", r.release);
        // Reuse ships a baseline-equivalent binary: no speedup, and
        // the oracle shows what was left on the table.
        assert_eq!(r.achieved_speedup_pct, 0.0);
        assert!(r.gap_pct >= 0.0);
    }
    // The reuse path must stay as deterministic as the relink path.
    let again = run_fleet(&spec, 0.002, &opts).unwrap();
    assert_eq!(report.to_json_string(), again.to_json_string());
}

#[test]
fn oracle_column_is_fault_free_and_production_caches_are_its_own() {
    let spec = spec_by_name("clang").unwrap();
    let mut clean = small_opts();
    clean.drift = 0.3;
    let faulted = FleetOptions {
        faults: FaultPlan::parse(
            "transient=0.5,corrupt-cache=0.5,evict-cache=0.3,permanent-codegen=0.3",
        )
        .unwrap(),
        ..clean.clone()
    };
    let clean_report = run_fleet(&spec, 0.002, &clean).unwrap();
    let faulted_report = run_fleet(&spec, 0.002, &faulted).unwrap();
    // The plan bites production...
    assert!(faulted_report.records.iter().any(|r| !r.degradation.is_clean()));
    assert!(clean_report.records.iter().all(|r| r.degradation.is_clean()));
    // ...and never the yardstick: the oracle arm runs clean whatever
    // production's caches and baseline went through.
    let oracle = |r: &propeller_fleet::FleetReport| -> Vec<u64> {
        r.records.iter().map(|r| r.oracle_speedup_pct.to_bits()).collect()
    };
    assert_eq!(oracle(&clean_report), oracle(&faulted_report));
    // The bootstrap release relinks on its own fresh collection, so
    // both arms ship the same layout over the same baseline.
    let first = &clean_report.records[0];
    assert_eq!(first.achieved_speedup_pct.to_bits(), first.oracle_speedup_pct.to_bits());
    // Nobody but production writes production's caches: a second fleet
    // on fresh state books the same lookups and hits release by release.
    let again = run_fleet(&spec, 0.002, &clean).unwrap();
    let cache = |r: &propeller_fleet::FleetReport| -> Vec<(u64, u64)> {
        r.records.iter().map(|r| (r.cache_lookups, r.cache_hits)).collect()
    };
    assert_eq!(cache(&clean_report), cache(&again));
}
