//! Integration tests for the modeled-clock timeline and the SLO
//! engine.
//!
//! The acceptance contract mirrors the service ledger's: the timeline
//! CSV and the SLO report are *byte-identical* across `--jobs` counts
//! and replays, arming the recorder never changes a single ledger
//! byte, and an SLO evaluation under a chaos plan degrades gracefully
//! (findings, never panics).

use propeller::FaultPlan;
use propeller_doctor::{evaluate_slo, Severity, SloConfig};
use propeller_serve::{gen_traffic, RelinkService, ServeOptions, TrafficConfig};
use propeller_telemetry::{chrome::to_chrome_trace, Telemetry, TimeSeries, TENANT_LANE_BASE};

const SCALE: f64 = 0.002;
const BUDGET: u64 = 30_000;

fn traffic_cfg() -> TrafficConfig {
    TrafficConfig {
        requests: 8,
        tenants: 3,
        scale: SCALE,
        ..TrafficConfig::default()
    }
}

fn run_armed(
    jobs: usize,
    faults: &str,
    trace: bool,
) -> (propeller_serve::ServiceReport, TimeSeries, Telemetry) {
    let mut svc = RelinkService::new(
        "clang",
        SCALE,
        ServeOptions {
            jobs,
            slots: 2,
            queue_capacity: 4,
            profile_budget: BUDGET,
            faults: FaultPlan::parse(faults).expect("valid plan"),
            ..ServeOptions::default()
        },
    )
    .expect("service");
    svc.arm_timeline();
    if trace {
        svc.set_telemetry(Telemetry::enabled());
    }
    let report = svc.run(&gen_traffic(&traffic_cfg())).expect("run");
    let timeline = svc.timeline().cloned().expect("armed");
    let tel = svc.telemetry().clone();
    (report, timeline, tel)
}

/// The timeline determinism gate: the canonical CSV and the SLO report
/// JSON are byte-identical at `--jobs 1`, `--jobs 8`, and a replay.
#[test]
fn timeline_and_slo_are_byte_identical_across_jobs_and_replays() {
    let (r1, t1, _) = run_armed(1, "", false);
    let (r8, t8, _) = run_armed(8, "", false);
    let (rr, tr, _) = run_armed(1, "", false); // replay
    assert_eq!(
        t1.to_csv(),
        t8.to_csv(),
        "timeline CSV diverged across --jobs"
    );
    assert_eq!(
        t1.to_csv(),
        tr.to_csv(),
        "timeline CSV diverged across replays"
    );
    assert_eq!(t1.sampled_csv(10_000_000), t8.sampled_csv(10_000_000));
    let cfg = SloConfig::default_service();
    let s1 = evaluate_slo(&t1, &r1.ledger, &cfg);
    let s8 = evaluate_slo(&t8, &r8.ledger, &cfg);
    let sr = evaluate_slo(&tr, &rr.ledger, &cfg);
    assert_eq!(s1.to_json_string(), s8.to_json_string());
    assert_eq!(s1.to_json_string(), sr.to_json_string());
}

/// Arming the recorder is a pure observer: the service ledger bytes
/// are identical armed or not.
#[test]
fn arming_the_timeline_changes_no_ledger_byte() {
    let (armed, timeline, _) = run_armed(1, "", false);
    assert!(!timeline.is_empty());
    let mut svc = RelinkService::new(
        "clang",
        SCALE,
        ServeOptions {
            jobs: 1,
            slots: 2,
            queue_capacity: 4,
            profile_budget: BUDGET,
            ..ServeOptions::default()
        },
    )
    .expect("service");
    let unarmed = svc.run(&gen_traffic(&traffic_cfg())).expect("run");
    assert!(
        svc.timeline().is_none(),
        "timeline must be disarmed by default"
    );
    assert_eq!(
        armed.ledger.to_json_string(),
        unarmed.ledger.to_json_string(),
        "arming the timeline perturbed the ledger"
    );
}

/// SLO evaluation under a chaos plan: the books still balance, the
/// report renders findings (WARNs are fine), and nothing panics even
/// though series may be sparse or missing.
#[test]
fn slo_under_chaos_degrades_gracefully() {
    let (report, timeline, _) = run_armed(
        2,
        "burst-amplify=0.5,cancel-job=0.4,drop-queue=0.5,evict-storm=0.3,transient=0.3",
        false,
    );
    assert!(
        report.ledger.accounts_exactly(),
        "{}",
        report.ledger.render()
    );
    let slo = evaluate_slo(&timeline, &report.ledger, &SloConfig::default_service());
    assert!(!slo.findings.is_empty());
    // Chaos may WARN (that is the point) but the default objectives
    // are generous enough that the modeled service never FAILs them.
    assert_ne!(slo.verdict(), Severity::Fail, "{}", slo.render());
    // The report renders and serializes deterministically.
    assert_eq!(slo.to_json_string(), slo.to_json_string());
    assert!(slo.render().contains("verdict:"));
}

/// Regression for the lane collision: service tenant spans render in
/// their own tid band (`TENANT_LANE_BASE`), never colliding with
/// buildsys pipeline workers, and the trace names them "tenant N".
#[test]
fn tenant_spans_render_in_their_own_lane_band() {
    let (_, _timeline, tel) = run_armed(2, "", true);
    let trace = tel.drain();
    assert!(
        trace
            .spans
            .iter()
            .any(|s| s.worker.is_some_and(|w| w >= TENANT_LANE_BASE)),
        "tenant job spans must be stamped in the tenant lane band"
    );
    let json = to_chrome_trace(&trace, &TimeSeries::new());
    assert!(json.contains("\"tenant 0\""), "tenant lanes must be named");
    // No span may sit in the old colliding band: tenant t used to
    // stamp worker id t+1, landing on the same tid as buildsys worker
    // t+1. Post-fix, every service job span is at or above the base —
    // the sub-base band belongs exclusively to pipeline workers (the
    // chrome unit tests cover the two bands coexisting in one trace).
    assert!(
        trace
            .spans
            .iter()
            .all(|s| s.worker.is_none_or(|w| w >= TENANT_LANE_BASE)),
        "a service span leaked into the buildsys worker tid band"
    );
}
