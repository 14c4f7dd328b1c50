//! Pinned bytes of whole `run_fleet` ledgers — the in-tree twin of the
//! benchmark's `fleet_report` digest and of CI's `cmp` of
//! `fleet_report.json` across `--jobs`.
//!
//! The constants were recorded by running this file against the commit
//! *before* the loop stopped repeating work within a release (PR 19:
//! dense profile translation, one baseline per release, the oracle arm
//! on a snapshot of production's caches). Every shape is the
//! benchmark's `fleet_drift` op (clang at scale 0.003, 4 releases, 4
//! machines, drift 0.05, seed 5, window 3, budgets 60 k / 80 k) with one
//! thing varied, so a ledger byte that moves here moves there too.
//!
//! `GOLDEN_FAULTS` was re-recorded once since, when evaluation stopped
//! building a baseline: the fault plan no longer rolls against the
//! baseline's cache entries, so two releases book one cache eviction,
//! one corruption and two rebuilds fewer. Every other byte is equal.

use propeller::FaultPlan;
use propeller_fleet::{run_fleet, FleetOptions, FleetReport};
use propeller_synth::spec_by_name;

const SCALE: f64 = 0.003;

const GOLDEN_PLAIN: u64 = 0xf64d_78bb_0951_1f85;
const GOLDEN_PROVENANCE: u64 = 0xc758_3485_8dd1_3475;
const GOLDEN_FAULTS: u64 = 0x68b8_f222_da58_0e80;
const GOLDEN_ZERO_DRIFT: u64 = 0xdc2d_3d3c_a403_956d;

/// Every fault kind the fleet's production arm can meet: the two LBR
/// kinds cannot fire, `phase3_analyze_merged` takes no raw profile.
const HEAVY_FAULTS: &str =
    "transient=0.5,corrupt-cache=0.5,evict-cache=0.3,permanent-codegen=0.3";

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn benchmark_opts() -> FleetOptions {
    FleetOptions {
        releases: 4,
        machines: 4,
        drift: 0.05,
        seed: 5,
        history_window: 3,
        profile_budget: 60_000,
        eval_budget: 80_000,
        ..FleetOptions::default()
    }
}

/// Runs the fleet at `jobs` 1, 2 and 8 — `jobs = 2`, the first count
/// at which the two arms of a release run side by side, three times,
/// because how the lanes interleave varies from run to run and the
/// bytes must not — checks every run writes the same bytes, and returns
/// the report with its ledger digest. Each release's `cache_lookups`
/// and `cache_hits` are among those bytes: that they do not move is the
/// proof that nothing the oracle lane does reaches production's caches.
#[track_caller]
fn run_pinned(opts: &FleetOptions) -> (FleetReport, u64) {
    let spec = spec_by_name("clang").expect("clang is a built-in spec");
    let run = |jobs| {
        run_fleet(&spec, SCALE, &FleetOptions { jobs, ..opts.clone() }).expect("fleet runs")
    };
    let one = run(1);
    let bytes = one.to_json_string();
    for jobs in [2, 2, 2, 8] {
        assert_eq!(
            bytes,
            run(jobs).to_json_string(),
            "the ledger depends on the worker count (jobs = {jobs})"
        );
    }
    (one, fnv1a(bytes.as_bytes()))
}

#[test]
fn benchmark_ledger_bytes() {
    let (_, got) = run_pinned(&benchmark_opts());
    assert_eq!(got, GOLDEN_PLAIN, "got {got:#018x}");
}

#[test]
fn provenance_ledger_bytes() {
    let (report, got) = run_pinned(&FleetOptions {
        provenance: true,
        ..benchmark_opts()
    });
    assert!(
        report.records[1..].iter().all(|r| !r.divergences.is_empty()),
        "an armed release cites no divergence"
    );
    assert_eq!(got, GOLDEN_PROVENANCE, "got {got:#018x}");
}

#[test]
fn faulted_ledger_bytes() {
    let (report, got) = run_pinned(&FleetOptions {
        faults: FaultPlan::parse(HEAVY_FAULTS).expect("plan parses"),
        ..benchmark_opts()
    });
    // The plan must bite, or the digest pins nothing the plain one does
    // not.
    assert!(
        report.records.iter().all(|r| !r.degradation.is_clean()),
        "a release survived the heavy plan untouched"
    );
    assert_eq!(got, GOLDEN_FAULTS, "got {got:#018x}");
}

#[test]
fn zero_drift_ledger_bytes_and_steady_state() {
    let (report, got) = run_pinned(&FleetOptions {
        drift: 0.0,
        releases: 5,
        ..benchmark_opts()
    });
    assert!(
        report.steady_after_warmup(3),
        "zero-drift ledger not steady:\n{}",
        report.curve_csv()
    );
    assert_eq!(got, GOLDEN_ZERO_DRIFT, "got {got:#018x}");
}
