//! Integration tests for the multi-tenant relink service.
//!
//! Two layers:
//! - the full chaos soak matrix from the issue (8 scenarios, each run
//!   at `--jobs 1` and `--jobs 8` plus a replay, with batch-equivalence
//!   byte checks), and
//! - a property test hammering one shared [`BuildCaches`] from
//!   arbitrary tenant interleavings × fault plans × jobs counts,
//!   asserting the per-tenant cache invariant `hits + misses ==
//!   lookups` and cross-interleaving ledger byte-identity.

use propeller::{FaultKind, FaultPlan, FaultSpec};
use propeller_serve::{
    gen_traffic, run_soak, soak_scenarios, RelinkService, ServeOptions, TrafficConfig,
};
use proptest::prelude::*;

const SCALE: f64 = 0.002;
const BUDGET: u64 = 30_000;

/// The acceptance soak: every scenario from the issue list passes the
/// jobs matrix with byte-identical ledgers and batch-identical
/// binaries.
#[test]
fn chaos_soak_matrix_passes() {
    let scenarios = soak_scenarios();
    assert!(scenarios.len() >= 8);
    let outcomes = run_soak(&scenarios, SCALE, BUDGET, &[1, 8], true)
        .unwrap_or_else(|e| panic!("soak failed: {e}"));
    for o in &outcomes {
        assert!(o.ledger.accounts_exactly(), "{}: inexact ledger", o.name);
    }
    // The control scenario must be a clean pass-through: everything
    // completes, nothing retries or degrades.
    let clean = outcomes.iter().find(|o| o.name == "clean").unwrap();
    let totals = clean.ledger.totals();
    assert_eq!(totals.completed, totals.submitted);
    assert_eq!(totals.retries, 0);
    assert_eq!(totals.degraded_jobs, 0);
    // The profile-loss scenario must degrade ONLY tenant 0.
    let loss = outcomes.iter().find(|o| o.name == "tenant-profile-loss").unwrap();
    let t0 = &loss.ledger.tenants["t0"];
    assert!(t0.completed == 0 || t0.identity_fallbacks == t0.completed,
        "t0 lost 100% of its profile; every completion must fall back");
    for (name, row) in &loss.ledger.tenants {
        if name != "t0" {
            assert_eq!(row.degraded_jobs, 0, "{name} leaked degradation from t0's plan");
        }
    }
    // Oversize arrivals in the kitchen sink must be refused at
    // admission.
    let sink = outcomes.iter().find(|o| o.name == "kitchen-sink").unwrap();
    assert!(sink.ledger.totals().rejected_memory > 0);
}

/// Admission control refuses a job whose declared footprint exceeds
/// the 12 GiB per-action ceiling, before it ever takes a slot.
#[test]
fn oversize_jobs_are_rejected_at_admission() {
    let cfg = TrafficConfig {
        requests: 4,
        oversize_every: 1, // every request after the first is oversize
        cancel_every: 0,
        burst_every: 0,
        scale: SCALE,
        ..TrafficConfig::default()
    };
    let mut svc = RelinkService::new(
        "clang",
        SCALE,
        ServeOptions { profile_budget: BUDGET, ..ServeOptions::default() },
    )
    .unwrap();
    let report = svc.run(&gen_traffic(&cfg)).unwrap();
    let totals = report.ledger.totals();
    assert_eq!(totals.rejected_memory, 3);
    assert_eq!(totals.completed, 1);
    assert!(report.ledger.accounts_exactly());
}

/// A single-tenant run is the degenerate Zipf case: every draw lands
/// on t0, the round-robin scheduler has one queue, and accounting must
/// still balance exactly.
#[test]
fn single_tenant_run_accounts_exactly() {
    let cfg = TrafficConfig {
        requests: 5,
        tenants: 1,
        scale: SCALE,
        ..TrafficConfig::default()
    };
    let mut svc = RelinkService::new(
        "clang",
        SCALE,
        ServeOptions { profile_budget: BUDGET, ..ServeOptions::default() },
    )
    .unwrap();
    let report = svc.run(&gen_traffic(&cfg)).unwrap();
    assert_eq!(report.ledger.tenants.len(), 1);
    assert!(report.ledger.tenants.contains_key("t0"));
    assert!(report.ledger.accounts_exactly(), "{}", report.ledger.render());
    assert!(report.violations.is_empty());
}

/// A burst that fills the queue to exactly its capacity: every clone
/// fits (capacity reached, never exceeded), nothing retries or is
/// rejected, and the recorded queue-depth gauge peaks at exactly the
/// capacity.
#[test]
fn burst_at_exact_queue_capacity_fits_without_rejections() {
    let cfg = TrafficConfig {
        requests: 6,
        tenants: 1,
        scale: SCALE,
        mean_gap_secs: 1.0,
        burst_every: 1, // the burst opens right after the first arrival
        burst_len: 5,   // ...and the next 5 arrive 50 ms apart
        cancel_every: 0,
        oversize_every: 0,
        ..TrafficConfig::default()
    };
    let mut svc = RelinkService::new(
        "clang",
        SCALE,
        ServeOptions {
            slots: 1,
            queue_capacity: 5, // exactly the burst tail
            profile_budget: BUDGET,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    svc.arm_timeline();
    let report = svc.run(&gen_traffic(&cfg)).unwrap();
    let totals = report.ledger.totals();
    assert_eq!(totals.completed, 6, "{}", report.ledger.render());
    assert_eq!(totals.rejected_queue, 0);
    assert_eq!(totals.retries, 0);
    assert!(report.ledger.accounts_exactly());
    let depth = svc
        .timeline()
        .and_then(|ts| ts.get("queue_depth.total"))
        .and_then(|s| s.max_value())
        .expect("queue depth recorded");
    assert_eq!(depth, 5.0, "the burst must fill the queue to exactly capacity");
}

/// `cancel_every` larger than the whole plan never marks a request
/// (the generator skips index 0), so no cancellation path runs and the
/// books still balance.
#[test]
fn cancel_stride_beyond_plan_cancels_nothing() {
    let cfg = TrafficConfig {
        requests: 3,
        tenants: 2,
        scale: SCALE,
        cancel_every: 10, // > requests: no index qualifies
        burst_every: 0,
        oversize_every: 0,
        ..TrafficConfig::default()
    };
    let traffic = gen_traffic(&cfg);
    assert!(traffic.iter().all(|r| r.cancel_after_secs.is_none()));
    let mut svc = RelinkService::new(
        "clang",
        SCALE,
        ServeOptions { profile_budget: BUDGET, ..ServeOptions::default() },
    )
    .unwrap();
    let report = svc.run(&traffic).unwrap();
    let totals = report.ledger.totals();
    assert_eq!(totals.cancelled_by_client, 0);
    assert_eq!(totals.completed, 3);
    assert!(report.ledger.accounts_exactly());
}

/// Strategy: a fault plan mixing service-level and pipeline kinds at
/// moderate probabilities (quantized so the case shrinks well).
fn arb_service_plan() -> impl Strategy<Value = FaultPlan> {
    (0u8..4, 0u8..4, 0u8..4, 0u8..4, 0u8..3).prop_map(|(burst, cancel, drop, storm, pipe)| {
        let p = |q: u8| FaultSpec::p(f64::from(q) / 8.0);
        let mut plan = FaultPlan::none();
        for (kind, q) in [
            (FaultKind::TenantBurstAmplification, burst),
            (FaultKind::JobCancellation, cancel),
            (FaultKind::QueueDrop, drop),
            (FaultKind::CacheEvictionStorm, storm),
            (FaultKind::CacheCorruption, pipe),
            (FaultKind::TransientActionFailure, pipe),
        ] {
            plan.set(kind, p(q));
        }
        plan
    })
}

fn run_service(
    plan: &FaultPlan,
    tenant_seq: &[u32],
    jobs: usize,
    cache_capacity: Option<usize>,
) -> propeller_serve::ServiceReport {
    let tenants = usize::from(*tenant_seq.iter().max().unwrap_or(&0) as u16) + 1;
    let cfg = TrafficConfig {
        requests: tenant_seq.len(),
        tenants,
        scale: SCALE,
        mean_gap_secs: 30.0,
        burst_every: 0,
        cancel_every: 0,
        oversize_every: 0,
        ..TrafficConfig::default()
    };
    // Override the Zipf tenant draw with the generated interleaving:
    // the property quantifies over arbitrary arrival orders, which is
    // exactly what a traffic seed cannot express.
    let mut traffic = gen_traffic(&cfg);
    for (req, &tenant) in traffic.iter_mut().zip(tenant_seq) {
        req.tenant = tenant;
        req.program_seed = propeller_serve::traffic::program_seed_for(&cfg, tenant);
    }
    let mut svc = RelinkService::new(
        "clang",
        SCALE,
        ServeOptions {
            faults: plan.clone(),
            jobs,
            cache_capacity,
            profile_budget: BUDGET,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    svc.run(&traffic).unwrap_or_else(|e| panic!("service run failed: {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Hammer one shared cache from interleaved tenants under an
    /// arbitrary fault plan: for every tenant the attributed cache
    /// traffic obeys `hits + misses == lookups`, every arrival gets
    /// exactly one outcome, and the ledger JSON is byte-identical
    /// across jobs ∈ {1, 2, 8}.
    #[test]
    fn shared_cache_accounting_is_exact_under_chaos(
        plan in arb_service_plan(),
        tenant_seq in prop::collection::vec(0u32..3, 2..6),
        capacity_knob in 0usize..32,
    ) {
        // 0 = unbounded; otherwise a small capacity bound.
        let capacity = (capacity_knob > 0).then(|| capacity_knob + 3);
        let reports: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&jobs| run_service(&plan, &tenant_seq, jobs, capacity))
            .collect();
        for report in &reports {
            prop_assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
            prop_assert!(report.ledger.accounts_exactly());
            for (name, row) in &report.ledger.tenants {
                prop_assert_eq!(
                    row.cache_hits + row.cache_misses,
                    row.cache_lookups,
                    "tenant {} cache accounting", name
                );
            }
        }
        let reference = reports[0].ledger.to_json_string();
        for report in &reports[1..] {
            prop_assert_eq!(&report.ledger.to_json_string(), &reference);
        }
    }
}
