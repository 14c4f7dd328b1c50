//! Pinned bytes of `fleet_report.json` — the artifact CI `cmp`s across
//! `--jobs` counts and the benchmark digests per op.
//!
//! The constants were recorded by running this file against the commit
//! *before* the report codec moved onto the shared `telemetry::json`
//! writer; they pin member order, the omission of empty `divergences`
//! and clean `degradation`, and number formatting.

use propeller::DegradationLedger;
use propeller_fleet::{FleetReport, ReleaseRecord};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[track_caller]
fn pin(name: &str, text: &str, golden: u64) {
    let got = fnv1a(text.as_bytes());
    assert_eq!(
        got, golden,
        "{name}: digest {got:#018x} != golden {golden:#018x}; bytes now:\n{text}"
    );
}

fn record(release: u32) -> ReleaseRecord {
    ReleaseRecord {
        release,
        functions: 1500 + release as usize,
        skew: 0.125 * f64::from(release),
        decision: if release == 0 { "bootstrap" } else { "relink" }.into(),
        achieved_speedup_pct: 5.5 - 0.25 * f64::from(release),
        oracle_speedup_pct: 5.5,
        gap_pct: 0.25 * f64::from(release),
        hot_functions: 170,
        cache_lookups: 480,
        cache_hits: 470 - u64::from(release),
        cache_hit_rate: 0.9791666666666666,
        translated_records: 120_000,
        dropped_records: 37 * u64::from(release),
        divergences: Vec::new(),
        degradation: DegradationLedger::default(),
    }
}

fn report(records: Vec<ReleaseRecord>) -> FleetReport {
    FleetReport {
        benchmark: "clang".into(),
        scale: 0.004,
        seed: 77,
        drift: 0.05,
        machines: 4,
        skew_threshold: 0.4,
        history_window: 3,
        records,
    }
}

#[test]
fn fleet_report_bytes() {
    pin(
        "plain",
        &report(vec![record(0), record(1), record(2)]).to_json_string(),
        0x63e3_3e76_1955_8986,
    );

    let mut cited = record(1);
    cited.decision = "reuse".into();
    cited.divergences = vec![
        "first diverging merge: clang_fn92 step 3".into(),
        "moved: clang_fn7 #4 -> #9 (\u{394}cycles +120)".into(),
    ];
    let mut degraded = record(2);
    degraded.degradation.action_retries = 6;
    degraded.degradation.retry_backoff_secs = 4.5;
    degraded.degradation.objects_fallen_back = 2;
    let mut both = record(3);
    both.divergences = vec!["moved: a #0 -> #1".into()];
    both.degradation.functions_marked_cold = 11;
    pin(
        "annotated",
        &report(vec![record(0), cited, degraded, both]).to_json_string(),
        0x2e32_2481_d429_6508,
    );
    pin(
        "no-records",
        &report(Vec::new()).to_json_string(),
        0xb2d0_ab0f_a0f7_9192,
    );
}
