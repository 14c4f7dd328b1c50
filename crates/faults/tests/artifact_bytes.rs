//! Pinned bytes of `service_ledger.json` — the artifact CI `cmp`s
//! across `--jobs` counts and the benchmark digests per op.
//!
//! The constants were recorded by running this file against the commit
//! *before* the ledger codec moved onto the shared `telemetry::json`
//! writer/reader; they pin member order, the clean-tenant omission of
//! `degradation`, the derived `totals` row and number formatting.

use propeller_faults::{DegradationLedger, ServiceLedger, TenantLedger};

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

fn degraded_tenant() -> TenantLedger {
    TenantLedger {
        submitted: 10,
        burst_clones: 2,
        admitted: 9,
        completed: 8,
        rejected_memory: 1,
        rejected_queue: 1,
        retries: 3,
        queue_drops: 1,
        cancelled_by_client: 1,
        cancelled_by_fault: 0,
        deadline_timeouts: 1,
        eviction_storms: 1,
        storm_evicted_entries: 4,
        cache_lookups: 40,
        cache_hits: 30,
        cache_misses: 10,
        cache_insertions: 12,
        pressure_evictions: 2,
        degraded_jobs: 1,
        identity_fallbacks: 1,
        retry_backoff_secs: 2.5,
        queue_wait_secs: 14.125,
        busy_secs: 90.0,
        degradation: DegradationLedger {
            cache_rebuilds: 1,
            lbr_records_dropped: 1 << 33,
            retry_backoff_secs: 0.75,
            ..DegradationLedger::default()
        },
    }
}

fn ledger(tenants: &[(&str, TenantLedger)]) -> ServiceLedger {
    ServiceLedger {
        benchmark: "clang".into(),
        seed: 12_648_430,
        plan: "burst-amplify=0.2,drop-queue=0.3:4".into(),
        slots: 4,
        queue_capacity: 8,
        deadline_secs: 600.0,
        makespan_secs: 1234.5,
        tenants: tenants.iter().map(|(n, t)| (n.to_string(), t.clone())).collect(),
    }
}

#[test]
fn service_ledger_bytes() {
    let clean = TenantLedger {
        submitted: 3,
        admitted: 3,
        completed: 3,
        cache_lookups: 6,
        cache_hits: 6,
        busy_secs: 41.0,
        ..TenantLedger::default()
    };
    pin(
        "clean",
        &ledger(&[("t0", clean.clone()), ("t1", TenantLedger::default())]).to_json_string(),
        0x5979_7bca_3225_9c13,
    );
    pin(
        "degraded",
        &ledger(&[("t0", degraded_tenant()), ("t1", clean), ("t2", degraded_tenant())])
            .to_json_string(),
        0xabae_3ba1_0b74_fe73,
    );
    pin("empty", &ServiceLedger::default().to_json_string(), 0xfc68_97e9_c54b_d40f);
}
