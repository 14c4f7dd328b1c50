//! Service-ledger findings.
//!
//! The relink service's acceptance contract is *exact* accounting:
//! every arrival terminates in exactly one outcome counter and the
//! canonical ledger JSON is byte-identical across `--jobs` counts and
//! replays (CI `cmp`s the files). The findings here turn a
//! [`ServiceLedger`] into the same WARN/FAIL vocabulary the rest of the
//! doctor speaks.

use crate::doctor::{Finding, Severity};
use propeller_faults::{ServiceLedger, TenantLedger};

/// Audit one service run's ledger.
///
/// FAILs are reserved for broken invariants (inexact accounting);
/// WARNs flag pressure the operator should know about (exhausted retry
/// budgets, deadline timeouts, degraded or fallback relinks); clean
/// rows collapse into one OK finding.
pub fn service_findings(ledger: &ServiceLedger) -> Vec<Finding> {
    let mut out = Vec::new();
    for (name, row) in &ledger.tenants {
        if !row.accounts_exactly() {
            out.push(Finding {
                severity: Severity::Fail,
                metric: format!("service.{name}.accounting"),
                value: row.arrivals() as f64 - row.outcomes() as f64,
                message: format!(
                    "tenant {name}: {} arrivals but {} terminal outcomes — the ledger \
                     lost or double-booked a job",
                    row.arrivals(),
                    row.outcomes()
                ),
            });
        }
        for (metric, value, message) in tenant_pressure(name, row) {
            out.push(Finding {
                severity: Severity::Warn,
                metric,
                value,
                message,
            });
        }
    }
    if !ledger.accounts_exactly() {
        // Already FAILed per-tenant above; nothing more to add.
    } else if out.is_empty() {
        out.push(Finding {
            severity: Severity::Ok,
            metric: "service.none".into(),
            value: 0.0,
            message: format!(
                "all {} tenant(s) account exactly with no service pressure",
                ledger.tenants.len()
            ),
        });
    }
    out
}

fn tenant_pressure(name: &str, row: &TenantLedger) -> Vec<(String, f64, String)> {
    let mut out = Vec::new();
    let mut warn = |metric: &str, value: u64, message: String| {
        if value > 0 {
            out.push((format!("service.{name}.{metric}"), value as f64, message));
        }
    };
    warn(
        "rejected_queue",
        row.rejected_queue,
        format!("tenant {name}: {} arrival(s) exhausted their retry budget against a full queue — raise capacity or slots", row.rejected_queue),
    );
    warn(
        "deadline_timeouts",
        row.deadline_timeouts,
        format!(
            "tenant {name}: {} queued job(s) aged past the deadline before a slot opened",
            row.deadline_timeouts
        ),
    );
    warn(
        "queue_drops",
        row.queue_drops,
        format!(
            "tenant {name}: {} queued entr(ies) were dropped by injected faults",
            row.queue_drops
        ),
    );
    warn(
        "cancelled_by_fault",
        row.cancelled_by_fault,
        format!(
            "tenant {name}: {} job(s) were cancelled mid-flight by injected faults",
            row.cancelled_by_fault
        ),
    );
    warn(
        "degraded_jobs",
        row.degraded_jobs,
        format!(
            "tenant {name}: {} completed job(s) shipped with a non-clean degradation ledger",
            row.degraded_jobs
        ),
    );
    warn(
        "identity_fallbacks",
        row.identity_fallbacks,
        format!("tenant {name}: {} completed job(s) fell back to the identity layout (profile unusable)", row.identity_fallbacks),
    );
    warn(
        "pressure_evictions",
        row.pressure_evictions,
        format!("tenant {name}: {} of this tenant's cache entries were pressure-evicted — expect rebuild cost on the next release", row.pressure_evictions),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doctor::worst;

    fn ledger_with(row: TenantLedger) -> ServiceLedger {
        let mut ledger = ServiceLedger {
            benchmark: "clang".into(),
            seed: 7,
            ..ServiceLedger::default()
        };
        ledger.tenants.insert("t0".into(), row);
        ledger
    }

    #[test]
    fn clean_ledger_is_one_ok_finding() {
        let ledger = ledger_with(TenantLedger {
            submitted: 3,
            admitted: 3,
            completed: 3,
            cache_lookups: 10,
            cache_hits: 6,
            cache_misses: 4,
            ..TenantLedger::default()
        });
        let findings = service_findings(&ledger);
        assert_eq!(findings.len(), 1);
        assert_eq!(worst(&findings), Severity::Ok);
    }

    #[test]
    fn inexact_accounting_fails() {
        let ledger = ledger_with(TenantLedger {
            submitted: 3,
            completed: 2,
            ..TenantLedger::default()
        });
        let findings = service_findings(&ledger);
        assert_eq!(worst(&findings), Severity::Fail);
        assert!(findings.iter().any(|f| f.metric == "service.t0.accounting"));
    }

    #[test]
    fn pressure_warns_but_does_not_fail() {
        let ledger = ledger_with(TenantLedger {
            submitted: 3,
            completed: 2,
            rejected_queue: 1,
            retries: 4,
            ..TenantLedger::default()
        });
        let findings = service_findings(&ledger);
        assert_eq!(worst(&findings), Severity::Warn);
    }
}
