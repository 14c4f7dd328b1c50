//! The chaos soak matrix: the service's acceptance gate.
//!
//! Each scenario runs the same seeded traffic through the service at
//! `--jobs 1` and `--jobs 8` plus a replay, then checks the two
//! contracts the issue demands:
//!
//! 1. **Ledger exactness and stability** — every arrival terminates in
//!    exactly one outcome counter, every fired service-level fault is
//!    booked one-for-one, and the canonical ledger JSON is
//!    byte-identical across jobs counts and replays.
//! 2. **Batch equivalence** — every binary the service ships is
//!    byte-identical to a fresh batch relink of the same
//!    `(program, plan, seed)`, and repeated relinks of one signature
//!    are idempotent.

use crate::service::{RelinkService, ServeOptions, ServiceReport};
use crate::traffic::{gen_traffic, TrafficConfig};
use propeller_faults::{FaultKind, FaultPlan, ServiceLedger};
use std::collections::BTreeMap;

/// One soak scenario: a fault plan plus the traffic/service shape that
/// provokes it.
#[derive(Clone, Debug)]
pub struct SoakScenario {
    pub name: &'static str,
    /// Default fault-plan spec (service + pipeline kinds).
    pub plan: &'static str,
    /// Per-tenant plan overrides, `(tenant, spec)`. The spec `"loss"`
    /// selects [`FaultPlan::full_profile_loss`].
    pub tenant_plans: &'static [(u32, &'static str)],
    pub requests: usize,
    pub tenants: usize,
    pub slots: usize,
    pub queue_capacity: usize,
    pub cache_capacity: Option<usize>,
    pub burst_every: usize,
    pub cancel_every: usize,
    pub oversize_every: usize,
    pub mean_gap_secs: f64,
    pub seed: u64,
}

impl SoakScenario {
    fn base(name: &'static str) -> SoakScenario {
        SoakScenario {
            name,
            plan: "",
            tenant_plans: &[],
            requests: 10,
            tenants: 3,
            slots: 2,
            queue_capacity: 6,
            cancel_every: 0,
            burst_every: 0,
            oversize_every: 0,
            cache_capacity: None,
            mean_gap_secs: 60.0,
            seed: 0xC0FFEE,
        }
    }

    /// Materialize the traffic plan for this scenario.
    pub fn traffic_config(&self, scale: f64) -> TrafficConfig {
        TrafficConfig {
            benchmark: "clang".to_string(),
            scale,
            seed: self.seed,
            tenants: self.tenants,
            requests: self.requests,
            mean_gap_secs: self.mean_gap_secs,
            burst_every: self.burst_every,
            burst_len: 2,
            cancel_every: self.cancel_every,
            cancel_after_secs: 45.0,
            oversize_every: self.oversize_every,
            program_variants: 2,
        }
    }

    /// Materialize the service options for this scenario.
    pub fn serve_options(&self, jobs: usize, profile_budget: u64) -> Result<ServeOptions, String> {
        let plan = if self.plan.is_empty() {
            FaultPlan::none()
        } else {
            FaultPlan::parse(self.plan).map_err(|e| format!("{}: bad plan: {e}", self.name))?
        };
        let mut tenant_faults = Vec::new();
        for &(tenant, spec) in self.tenant_plans {
            let p = if spec == "loss" {
                FaultPlan::full_profile_loss()
            } else {
                FaultPlan::parse(spec)
                    .map_err(|e| format!("{}: bad tenant plan: {e}", self.name))?
            };
            tenant_faults.push((tenant, p));
        }
        Ok(ServeOptions {
            slots: self.slots,
            queue_capacity: self.queue_capacity,
            deadline_secs: 1800.0,
            faults: plan,
            tenant_faults,
            seed: self.seed,
            jobs,
            cache_capacity: self.cache_capacity,
            profile_budget,
            ..ServeOptions::default()
        })
    }
}

/// The soak matrix from the issue: bursts, cancellations, queue
/// overflow, cache corruption and eviction storms, and one tenant
/// losing 100% of its profile — plus a clean control.
pub fn soak_scenarios() -> Vec<SoakScenario> {
    vec![
        SoakScenario::base("clean"),
        SoakScenario {
            plan: "burst-amplify=0.5",
            burst_every: 4,
            requests: 10,
            ..SoakScenario::base("burst-storm")
        },
        SoakScenario {
            plan: "cancel-job=0.4",
            cancel_every: 3,
            ..SoakScenario::base("cancel-storm")
        },
        SoakScenario {
            plan: "drop-queue=0.4",
            slots: 1,
            queue_capacity: 2,
            mean_gap_secs: 2.0,
            requests: 12,
            ..SoakScenario::base("queue-overflow")
        },
        SoakScenario {
            plan: "evict-storm=0.6",
            cache_capacity: Some(12),
            ..SoakScenario::base("evict-storm")
        },
        SoakScenario {
            plan: "corrupt-cache=0.3,evict-cache=0.3,transient=0.2",
            ..SoakScenario::base("cache-chaos")
        },
        SoakScenario {
            tenant_plans: &[(0, "loss")],
            ..SoakScenario::base("tenant-profile-loss")
        },
        SoakScenario {
            plan: "burst-amplify=0.3,cancel-job=0.2,drop-queue=0.2,evict-storm=0.3,\
                   corrupt-cache=0.2,transient=0.15,corrupt-lbr=0.05",
            burst_every: 4,
            cancel_every: 5,
            oversize_every: 6,
            queue_capacity: 3,
            mean_gap_secs: 4.0,
            requests: 12,
            cache_capacity: Some(16),
            ..SoakScenario::base("kitchen-sink")
        },
    ]
}

/// What one scenario produced, after all checks passed.
#[derive(Clone, Debug)]
pub struct SoakOutcome {
    pub name: String,
    pub ledger: ServiceLedger,
    /// Canonical ledger JSON (identical across the jobs matrix).
    pub ledger_json: String,
    /// Jobs the service completed per run.
    pub completed: usize,
    /// Distinct `(tenant, program, seed, plan)` signatures verified
    /// against batch relinks (0 when batch verification is off).
    pub signatures_verified: usize,
}

fn err_chain(e: &dyn std::error::Error) -> String {
    let mut out = e.to_string();
    let mut cur = e.source();
    while let Some(s) = cur {
        out.push_str(": ");
        out.push_str(&s.to_string());
        cur = s.source();
    }
    out
}

fn run_once(
    scn: &SoakScenario,
    scale: f64,
    jobs: usize,
    profile_budget: u64,
) -> Result<(RelinkService, ServiceReport), String> {
    let opts = scn.serve_options(jobs, profile_budget)?;
    let mut svc = RelinkService::new("clang", scale, opts)
        .map_err(|e| format!("{}: {}", scn.name, err_chain(&e)))?;
    let traffic = gen_traffic(&scn.traffic_config(scale));
    let report = svc
        .run(&traffic)
        .map_err(|e| format!("{}: {}", scn.name, err_chain(&e)))?;
    Ok((svc, report))
}

/// Check one run's internal invariants: exact accounting and
/// one-for-one booking of every fired service-level fault.
fn check_run(name: &str, tag: &str, svc: &RelinkService, report: &ServiceReport) -> Result<(), String> {
    if !report.violations.is_empty() {
        return Err(format!(
            "{name} [{tag}]: per-job exact-accounting violations: {}",
            report.violations.join("; ")
        ));
    }
    if !report.ledger.accounts_exactly() {
        return Err(format!(
            "{name} [{tag}]: ledger does not account exactly:\n{}",
            report.ledger.render()
        ));
    }
    let totals = report.ledger.totals();
    let books = [
        (FaultKind::JobCancellation, totals.cancelled_by_fault, "cancelled_by_fault"),
        (FaultKind::QueueDrop, totals.queue_drops, "queue_drops"),
        (FaultKind::CacheEvictionStorm, totals.eviction_storms, "eviction_storms"),
    ];
    for (kind, booked, label) in books {
        let fired = svc.scheduler_fired(kind);
        if fired != booked {
            return Err(format!(
                "{name} [{tag}]: scheduler fired {fired} {} fault(s) but the ledger books \
                 {label}={booked}",
                kind.key()
            ));
        }
    }
    let burst_fired = svc.scheduler_fired(FaultKind::TenantBurstAmplification);
    // Each burst fire spawns a fixed clone fan-out (ServeOptions
    // default, which the soak does not override).
    let expect_clones = burst_fired * ServeOptions::default().burst_clones as u64;
    if expect_clones != totals.burst_clones {
        return Err(format!(
            "{name} [{tag}]: {burst_fired} burst fires should book {expect_clones} clones, \
             ledger books {}",
            totals.burst_clones
        ));
    }
    Ok(())
}

/// Run the soak matrix. `jobs_matrix` lists the intra-job parallelism
/// levels to cross-check (the first entry is also replayed);
/// `verify_batch` additionally relinks every distinct completed-job
/// signature in batch mode and compares bytes.
pub fn run_soak(
    scenarios: &[SoakScenario],
    scale: f64,
    profile_budget: u64,
    jobs_matrix: &[usize],
    verify_batch: bool,
) -> Result<Vec<SoakOutcome>, String> {
    let mut outcomes = Vec::new();
    for scn in scenarios {
        let jobs_matrix = if jobs_matrix.is_empty() { &[1][..] } else { jobs_matrix };
        let mut runs = Vec::new();
        for &jobs in jobs_matrix {
            let (svc, report) = run_once(scn, scale, jobs, profile_budget)?;
            check_run(scn.name, &format!("jobs={jobs}"), &svc, &report)?;
            runs.push((jobs, report));
        }
        // Replay the first configuration: same seed, fresh service.
        let (svc, replay) = run_once(scn, scale, jobs_matrix[0], profile_budget)?;
        check_run(scn.name, "replay", &svc, &replay)?;
        runs.push((jobs_matrix[0], replay));

        // Contract 1: the canonical ledger JSON is byte-identical
        // across the whole matrix.
        let reference = runs[0].1.ledger.to_json_string();
        for (jobs, report) in &runs[1..] {
            let json = report.ledger.to_json_string();
            if json != reference {
                return Err(format!(
                    "{}: ledger JSON diverges between jobs={} and jobs={jobs}",
                    scn.name, runs[0].0
                ));
            }
        }
        // The shipped binaries must match job-for-job across the
        // matrix too, not just the accounting.
        let digests: Vec<BTreeMap<u64, u64>> = runs
            .iter()
            .map(|(_, r)| r.completed.iter().map(|j| (j.id, j.binary_digest)).collect())
            .collect();
        for (i, d) in digests[1..].iter().enumerate() {
            if d != &digests[0] {
                return Err(format!(
                    "{}: completed-job digests diverge between run 0 and run {}",
                    scn.name,
                    i + 1
                ));
            }
        }

        // Contract 2: batch equivalence and idempotence.
        let reference_run = &runs[0].1;
        let (signatures, divergent) = match verify_batch {
            true => crate::verify_batch("clang", scale, profile_budget, reference_run)
                .map_err(|e| format!("{}: batch relink: {}", scn.name, err_chain(&e)))?,
            false => (0, Vec::new()),
        };
        if let Some(job) = divergent.first() {
            return Err(format!(
                "{}: job {} (tenant t{}) shipped bytes differing from the equivalent batch relink",
                scn.name, job.id, job.tenant
            ));
        }

        outcomes.push(SoakOutcome {
            name: scn.name.to_string(),
            ledger_json: reference,
            completed: reference_run.completed.len(),
            signatures_verified: signatures,
            ledger: runs.swap_remove(0).1.ledger,
        });
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One cheap end-to-end turn of the soak machinery (the full
    /// matrix runs in `tests/` and CI).
    #[test]
    fn clean_scenario_passes_jobs_matrix() {
        let scn = vec![SoakScenario { requests: 4, ..SoakScenario::base("clean") }];
        let outcomes = run_soak(&scn, 0.002, 30_000, &[1, 2], true).unwrap();
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].completed > 0);
        assert!(outcomes[0].signatures_verified > 0);
        assert!(outcomes[0].ledger.accounts_exactly());
    }

    #[test]
    fn scenario_matrix_covers_the_issue_list() {
        let names: Vec<&str> = soak_scenarios().iter().map(|s| s.name).collect();
        for required in [
            "clean",
            "burst-storm",
            "cancel-storm",
            "queue-overflow",
            "evict-storm",
            "cache-chaos",
            "tenant-profile-loss",
            "kitchen-sink",
        ] {
            assert!(names.contains(&required), "missing scenario {required}");
        }
        assert!(names.len() >= 8);
    }
}
