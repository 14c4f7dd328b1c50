//! Turning a [`ProfileAudit`] into a human-readable verdict with
//! WARN/FAIL thresholds, plus the degradation section: what the run
//! gave up to survive injected faults.

use crate::audit::ProfileAudit;
use crate::report::metric;
use propeller_faults::{DegradationCounter, DegradationLedger, LayoutMode};
use std::fmt::Write as _;

/// How bad a finding is.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Within thresholds.
    Ok,
    /// Degraded but usable; layout quality is probably reduced.
    Warn,
    /// The profile should not be trusted to drive a layout.
    Fail,
}

impl Severity {
    /// Fixed-width label for report rendering.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Ok => "OK  ",
            Severity::Warn => "WARN",
            Severity::Fail => "FAIL",
        }
    }
}

/// One audited dimension's verdict.
#[derive(Clone, PartialEq, Debug)]
pub struct Finding {
    /// Severity of the finding.
    pub severity: Severity,
    /// The metric key this verdict is about (matches the `RunReport`
    /// metric name).
    pub metric: String,
    /// The observed value.
    pub value: f64,
    /// Human-readable explanation.
    pub message: String,
}

/// Hot-text sample coverage below this warns.
const COVERAGE_WARN: f64 = 0.90;
/// Hot-text sample coverage below this fails.
const COVERAGE_FAIL: f64 = 0.75;
/// Unmapped-address rate above this warns.
const UNMAPPED_WARN: f64 = 0.01;
/// Unmapped-address rate above this fails.
const UNMAPPED_FAIL: f64 = 0.10;
/// Fall-through confidence below this warns.
const FALLTHROUGH_WARN: f64 = 0.95;
/// Sample-capture ratio below this warns.
const CAPTURE_WARN: f64 = 0.90;
/// Sample-capture ratio below this fails.
const CAPTURE_FAIL: f64 = 0.50;
/// Skew score above this warns. The same walk profiled on the metadata
/// and on the optimized binary scores 0.04–0.31 from sampling alone,
/// and another walk of clang's default program 0.45 or more
/// (EXPERIMENTS.md): the bar sits between the two.
const SKEW_WARN: f64 = 0.40;
/// Skew score above this fails.
const SKEW_FAIL: f64 = 0.70;
/// Measured-wall-vs-pool-model divergence ratio above this warns: a
/// phase whose real wall clock exceeds 5× the `busy/jobs` prediction at
/// the configured job count is not getting the parallelism it was asked
/// for (oversubscribed machine, serialized work, or lock contention).
const WALL_DIVERGENCE_WARN: f64 = 5.0;

/// Grades a value where *low* is bad.
fn grade_low(v: f64, warn: f64, fail: Option<f64>) -> Severity {
    match fail {
        Some(f) if v < f => Severity::Fail,
        _ if v < warn => Severity::Warn,
        _ => Severity::Ok,
    }
}

/// Grades a value where *high* is bad.
fn grade_high(v: f64, warn: f64, fail: f64) -> Severity {
    if v > fail {
        Severity::Fail
    } else if v > warn {
        Severity::Warn
    } else {
        Severity::Ok
    }
}

/// Evaluates every audited dimension against its threshold, in a fixed
/// order.
pub fn diagnose(audit: &ProfileAudit) -> Vec<Finding> {
    let mut out = Vec::new();
    out.push(Finding {
        severity: grade_low(audit.sample_coverage, COVERAGE_WARN, Some(COVERAGE_FAIL)),
        metric: metric::DOCTOR_SAMPLE_COVERAGE.into(),
        value: audit.sample_coverage,
        message: format!(
            "{:.1}% of hot text bytes received mapped samples \
             ({}/{} bytes)",
            audit.sample_coverage * 100.0,
            audit.covered_bytes,
            audit.auditable_bytes
        ),
    });
    out.push(Finding {
        severity: grade_high(audit.unmapped_rate, UNMAPPED_WARN, UNMAPPED_FAIL),
        metric: metric::DOCTOR_UNMAPPED_RATE.into(),
        value: audit.unmapped_rate,
        message: format!(
            "{:.2}% of sample mass hit addresses with no mapped block \
             ({}/{} weighted lookups)",
            audit.unmapped_rate * 100.0,
            audit.addr_unmapped,
            audit.addr_lookups
        ),
    });
    out.push(Finding {
        severity: grade_low(audit.fallthrough_confidence, FALLTHROUGH_WARN, None),
        metric: metric::DOCTOR_FALLTHROUGH_CONFIDENCE.into(),
        value: audit.fallthrough_confidence,
        message: format!(
            "{:.1}% of fall-through range weight is well-formed \
             (ordered, mapped, single-function)",
            audit.fallthrough_confidence * 100.0
        ),
    });
    out.push(Finding {
        severity: grade_low(audit.sample_capture_ratio, CAPTURE_WARN, Some(CAPTURE_FAIL)),
        metric: metric::DOCTOR_SAMPLE_CAPTURE_RATIO.into(),
        value: audit.sample_capture_ratio,
        message: format!(
            "{} samples captured of ~{} expected from the run's \
             taken-branch count",
            audit.num_samples, audit.expected_samples
        ),
    });
    if let Some(skew) = audit.skew {
        out.push(Finding {
            severity: grade_high(skew, SKEW_WARN, SKEW_FAIL),
            metric: metric::DOCTOR_SKEW.into(),
            value: skew,
            message: format!(
                "profile-vs-optimized edge distributions differ by \
                 {:.1}% total variation",
                skew * 100.0
            ),
        });
    }
    out.push(Finding {
        severity: if audit.skipped_funcs > 0 {
            Severity::Warn
        } else {
            Severity::Ok
        },
        metric: metric::MAPPER_SKIPPED_FUNCS.into(),
        value: audit.skipped_funcs as f64,
        message: format!(
            "{} address-map function(s) dropped because no range symbol \
             resolved",
            audit.skipped_funcs
        ),
    });
    out
}

/// The degradation section of the doctor report: one finding per
/// nonzero [`DegradationLedger`] counter, in its table's words, then
/// one for the identity-fallback layout.
///
/// Degradation is never [`Severity::Fail`] — the whole point of the
/// graceful-degradation design is that the output binary stays correct;
/// what suffers is layout quality and modeled build time. A clean
/// ledger yields a single OK finding so the section always renders.
pub fn degradation_findings(ledger: &DegradationLedger) -> Vec<Finding> {
    if ledger.is_clean() {
        return vec![Finding {
            severity: Severity::Ok,
            metric: "faults.none".into(),
            value: 0.0,
            message: "no degradation recorded; the run was fault-free".into(),
        }];
    }
    let mut out = Vec::new();
    for counter in DegradationCounter::ALL {
        let value = counter.get(ledger);
        if value != 0.0 {
            out.push(Finding {
                severity: Severity::Warn,
                metric: format!("faults.{}", counter.name()),
                value,
                message: counter
                    .message()
                    .unwrap_or("degradation recorded under fault injection")
                    .into(),
            });
        }
    }
    if ledger.layout_mode == LayoutMode::IdentityFallback {
        out.push(Finding {
            severity: Severity::Warn,
            metric: "faults.layout_identity_fallback".into(),
            value: 1.0,
            message: "salvaged profile fell below the coverage floor; shipped the \
                      baseline-identical identity layout"
                .into(),
        });
    }
    out
}

/// Audits measured wall-clock against the worker-pool model: for each
/// phase that ran real local work, `wall × jobs / busy` says how far
/// the real clock diverged from the `wall ≈ busy/jobs` prediction.
/// Ratios above `WALL_DIVERGENCE_WARN` (5×) WARN — the run
/// was correct (modeled times and reports are clock-independent) but
/// the machine did not deliver the parallelism `--jobs` asked for.
/// Phases that measured nothing (modeled-only, or all cache hits) get
/// a single OK finding.
pub fn wall_clock_findings(times: &propeller::PhaseTimes, jobs: usize) -> Vec<Finding> {
    let phases = [
        ("phase1", &times.phase1),
        ("phase2", &times.phase2),
        ("phase3", &times.phase3),
        ("phase4", &times.phase4),
    ];
    let mut out = Vec::new();
    for (name, report) in phases {
        let Some(divergence) = report.wall_model_divergence(jobs) else {
            continue;
        };
        let severity = if divergence > WALL_DIVERGENCE_WARN {
            Severity::Warn
        } else {
            Severity::Ok
        };
        out.push(Finding {
            severity,
            metric: format!("wall.{name}_model_divergence"),
            value: divergence,
            message: format!(
                "{name} measured {} µs wall for {} µs of work at --jobs {jobs} \
                 ({:.0}% parallel efficiency; model predicts ~{} µs)",
                report.wall_us,
                report.busy_us,
                report.parallel_efficiency(jobs).unwrap_or(0.0) * 100.0,
                report.busy_us / jobs.max(1) as u64,
            ),
        });
    }
    if out.is_empty() {
        out.push(Finding {
            severity: Severity::Ok,
            metric: "wall.unmeasured".into(),
            value: 0.0,
            message: "no phase measured real pool work (modeled-only run or all cache hits)".into(),
        });
    }
    out
}

/// The worst severity across findings ([`Severity::Ok`] when empty).
pub fn worst(findings: &[Finding]) -> Severity {
    findings
        .iter()
        .map(|f| f.severity)
        .max()
        .unwrap_or(Severity::Ok)
}

/// Renders the findings as the `propeller_cli doctor` report.
pub fn render(findings: &[Finding]) -> String {
    let mut out = String::from("profile-quality audit\n");
    for f in findings {
        let _ = writeln!(
            out,
            "  [{}] {:<30} {:>10.4}  {}",
            f.severity.label(),
            f.metric,
            f.value,
            f.message
        );
    }
    let verdict = worst(findings);
    let _ = writeln!(
        out,
        "verdict: {}",
        match verdict {
            Severity::Ok => "profile is healthy",
            Severity::Warn => "profile is degraded (see WARN lines)",
            Severity::Fail => "profile should not be trusted (see FAIL lines)",
        }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy() -> ProfileAudit {
        ProfileAudit {
            sample_coverage: 0.97,
            covered_bytes: 970,
            auditable_bytes: 1000,
            unmapped_rate: 0.0,
            addr_lookups: 5000,
            addr_unmapped: 0,
            skipped_funcs: 0,
            fallthrough_confidence: 1.0,
            sample_capture_ratio: 1.0,
            num_samples: 100,
            expected_samples: 100,
            skew: Some(0.02),
        }
    }

    #[test]
    fn wall_clock_divergence_warns_above_five_x() {
        let mut times = propeller::PhaseTimes::default();
        // Healthy: 8000 µs of work over 1100 µs wall on 8 jobs ≈ 1.1×.
        times.phase2.wall_us = 1100;
        times.phase2.busy_us = 8000;
        // Pathological: 8000 µs of work took 8000 µs wall on 8 jobs
        // (fully serialized) — 8× divergence.
        times.phase4.wall_us = 8000;
        times.phase4.busy_us = 8000;
        let f = wall_clock_findings(&times, 8);
        assert_eq!(f.len(), 2, "{f:?}");
        assert_eq!(f[0].severity, Severity::Ok, "{f:?}");
        assert!(f[0].metric.contains("phase2"));
        assert_eq!(f[1].severity, Severity::Warn, "{f:?}");
        assert!(f[1].metric.contains("phase4"));
        assert!((f[1].value - 8.0).abs() < 1e-9);
    }

    #[test]
    fn unmeasured_run_reports_single_ok() {
        let f = wall_clock_findings(&propeller::PhaseTimes::default(), 8);
        assert_eq!(f.len(), 1);
        assert_eq!(worst(&f), Severity::Ok);
        assert!(f[0].metric.contains("unmeasured"));
    }

    #[test]
    fn healthy_audit_is_all_ok() {
        let findings = diagnose(&healthy());
        assert!(findings.iter().all(|f| f.severity == Severity::Ok));
        assert_eq!(worst(&findings), Severity::Ok);
        assert!(render(&findings).contains("profile is healthy"));
    }

    #[test]
    fn low_coverage_warns_then_fails() {
        let mut a = healthy();
        a.sample_coverage = 0.85;
        let f = diagnose(&a);
        assert_eq!(
            f.iter()
                .find(|f| f.metric == "doctor.sample_coverage")
                .unwrap()
                .severity,
            Severity::Warn
        );
        a.sample_coverage = 0.5;
        assert_eq!(worst(&diagnose(&a)), Severity::Fail);
    }

    #[test]
    fn truncation_and_unmapped_mass_fail() {
        let mut a = healthy();
        a.sample_capture_ratio = 0.4;
        assert_eq!(worst(&diagnose(&a)), Severity::Fail);
        let mut b = healthy();
        b.unmapped_rate = 0.2;
        assert_eq!(worst(&diagnose(&b)), Severity::Fail);
    }

    #[test]
    fn clean_ledger_yields_single_ok_finding() {
        let f = degradation_findings(&DegradationLedger::default());
        assert_eq!(f.len(), 1);
        assert_eq!(worst(&f), Severity::Ok);
        assert!(f[0].message.contains("fault-free"));
    }

    #[test]
    fn degradation_warns_but_never_fails() {
        let l = DegradationLedger {
            action_retries: 3,
            cache_corruptions: 1,
            cache_rebuilds: 1,
            layout_mode: LayoutMode::IdentityFallback,
            ..DegradationLedger::default()
        };
        let f = degradation_findings(&l);
        // 3 nonzero counters + the layout-mode finding.
        assert_eq!(f.len(), 4);
        assert_eq!(worst(&f), Severity::Warn);
        assert!(f.iter().all(|f| f.severity != Severity::Fail));
        assert!(f
            .iter()
            .any(|f| f.metric == "faults.layout_identity_fallback"));
        assert!(render(&f).contains("identity layout"));
    }

    #[test]
    fn skew_absent_until_measured_and_skipped_funcs_warn() {
        let mut a = healthy();
        a.skew = None;
        a.skipped_funcs = 2;
        let f = diagnose(&a);
        assert!(f.iter().all(|f| f.metric != "doctor.skew"));
        assert_eq!(worst(&f), Severity::Warn);
        assert!(render(&f).contains("degraded"));
    }
}
