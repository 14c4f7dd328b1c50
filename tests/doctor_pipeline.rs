//! Integration tests for the profile-quality doctor on real pipeline
//! runs: a healthy synthetic workload audits clean, a truncated profile
//! is flagged as low-coverage, bogus sample addresses surface in the
//! unmapped counters, and the RunReport/diff pair closes the loop as a
//! regression gate.

use propeller::{Propeller, PropellerOptions};
use propeller_doctor::{
    audit_pipeline, audit_profile_with_reference, diagnose, diff_reports, worst, ExpectedLoad,
    RunReport, Severity,
};
use propeller_integration_tests::small_benchmark;
use propeller_profile::{LbrRecord, LbrSample};

fn run_pipeline(name: &str, scale: f64, seed: u64, opts: PropellerOptions) -> Propeller {
    let g = small_benchmark(name, scale, seed);
    let mut p = Propeller::new(g.program, g.entries, opts);
    p.run_all().unwrap();
    p
}

#[test]
fn healthy_run_audits_clean() {
    let p = run_pipeline("clang", 0.004, 77, PropellerOptions::default());
    let audit = audit_pipeline(&p).unwrap();
    assert!(
        audit.sample_coverage >= 0.9,
        "hot-byte coverage {:.3} below the acceptance bar",
        audit.sample_coverage
    );
    assert!((audit.sample_capture_ratio - 1.0).abs() < 1e-9);
    assert_eq!(audit.unmapped_rate, 0.0);
    assert!(audit.skew.is_some(), "phase 4 ran, skew must be measured");
    let findings = diagnose(&audit);
    assert_ne!(
        worst(&findings),
        Severity::Fail,
        "default workload must not FAIL its own audit:\n{}",
        propeller_doctor::render(&findings)
    );
}

#[test]
fn truncated_profile_is_flagged_low_coverage() {
    // Sparse sampling (small budget, permissive WPA bars) so individual
    // hot blocks rest on one or two samples each; dropping half the
    // samples then genuinely removes the evidence for many hot bytes.
    let opts = PropellerOptions {
        profile_budget: 20_000,
        wpa: propeller::WpaOptions {
            min_function_samples: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    let p = run_pipeline("mysql", 0.005, 7, opts);

    let pm = p.pm_binary().unwrap();
    let full = p.profile().unwrap();
    let expected = p.profiled_counters().map(|c| ExpectedLoad {
        taken_branches: c.taken_branches,
        period: p.options().sampling.period,
    });
    let mut truncated = full.clone();
    truncated.samples.truncate(full.samples.len() / 2);

    let healthy =
        audit_profile_with_reference(pm, full, Some(full), &p.options().wpa, expected);
    assert_eq!(healthy.sample_coverage, 1.0);

    let audit =
        audit_profile_with_reference(pm, &truncated, Some(full), &p.options().wpa, expected);
    assert!(
        audit.sample_coverage < 0.9,
        "half the samples are gone, coverage {:.3} should be low",
        audit.sample_coverage
    );
    assert!(
        (audit.sample_capture_ratio - 0.5).abs() < 0.05,
        "capture ratio {:.3} should be ~half",
        audit.sample_capture_ratio
    );
    let findings = diagnose(&audit);
    let coverage = findings
        .iter()
        .find(|f| f.metric == "doctor.sample_coverage")
        .unwrap();
    assert_ne!(coverage.severity, Severity::Ok, "low coverage must be flagged");
    assert_ne!(worst(&findings), Severity::Ok);
}

#[test]
fn bogus_sample_addresses_raise_the_unmapped_counters() {
    let p = run_pipeline("541.leela", 0.3, 5, PropellerOptions::default());
    let pm = p.pm_binary().unwrap();
    let mut poisoned = p.profile().unwrap().clone();
    for i in 0..32u64 {
        poisoned.samples.push(LbrSample::new(vec![LbrRecord {
            from: 0xdead_0000 + i,
            to: 0xbeef_0000 + i,
        }]));
    }
    let audit =
        audit_profile_with_reference(pm, &poisoned, None, &p.options().wpa, None);
    assert!(audit.addr_unmapped > 0, "bogus addresses must be counted");
    assert!(audit.unmapped_rate > 0.0);
    // The clean profile on the same binary maps everything.
    let clean = audit_pipeline(&p).unwrap();
    assert_eq!(clean.addr_unmapped, 0);
}

#[test]
fn run_reports_diff_as_a_regression_gate() {
    let collect = |seed: u64| {
        let g = small_benchmark("557.xz", 0.4, seed);
        let mut p = Propeller::new(g.program, g.entries, PropellerOptions::default());
        let report = p.run_all().unwrap();
        let eval = p.evaluate(100_000).unwrap();
        let audit = audit_pipeline(&p).unwrap();
        RunReport::collect("557.xz", 0.4, seed, &p, &report, Some(&eval), Some(&audit), None)
    };
    let a = collect(13);
    // Same seed, same pipeline: the gate must stay silent even at zero
    // tolerance (determinism is what makes the CI baseline viable).
    let a2 = collect(13);
    let self_diff = diff_reports(&a, &a2, 0.0);
    assert!(
        self_diff.is_empty(),
        "identical runs must not diff:\n{}",
        self_diff.render()
    );
    // A different seed is a behavior change the diff must surface.
    let b = collect(14);
    let cross = diff_reports(&a, &b, 0.0);
    assert!(!cross.is_empty());
    assert!(!a.layout.functions.is_empty(), "provenance must be recorded");
    // And the serialized artifact carries the same information.
    let parsed = RunReport::parse(&a.to_json_string()).unwrap();
    assert!(diff_reports(&a, &parsed, 0.0).is_empty());
}
