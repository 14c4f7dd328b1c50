//! Per-tenant service accounting: the `ServiceLedger`.
//!
//! The relink service extends the chaos contract from single runs to
//! concurrent, multi-tenant traffic. The acceptance bar is the same
//! *exact* accounting discipline as [`DegradationLedger`]: every
//! arrival terminates in exactly one outcome counter, every fired
//! service-level fault shows up in precisely one row, and the whole
//! ledger serializes to a canonical JSON string that is byte-identical
//! across `--jobs` counts and replays of the same seed.
//!
//! The types live here (not in `crates/serve`) because the doctor
//! already depends on this crate; service findings would otherwise
//! force a dependency cycle.
//!
//! The `ledger!` table below is the one list of a tenant row's
//! counters: each row is the field, its JSON name, its term in `absorb`
//! and — through [`TenantCounter`] — what the scheduler books, and
//! under which timeline series.

use crate::ledger::{ledger, read_entries, DegradationLedger};
use propeller_telemetry::json::{num_entries, obj, read_doc, JsonValue, Reader, SchemaError};
use std::collections::BTreeMap;
use std::fmt;

ledger! {
    /// Exact accounting for one tenant's traffic through the service.
    ///
    /// Terminal-outcome invariant: every arrival (submitted + burst
    /// clones) ends in exactly one of `completed`, `rejected_memory`,
    /// `rejected_queue`, `cancelled_by_client`, `cancelled_by_fault`, or
    /// `deadline_timeouts`. `retries` and `queue_drops` are intermediate
    /// events — a retried arrival is still the same arrival.
    pub struct TenantLedger {
        /// Arrivals from the traffic plan itself.
        Submitted => submitted: u64,
        /// Extra arrivals spawned by `burst-amplify` faults.
        BurstClones => burst_clones: u64,
        /// Jobs that reached a relink slot (including ones later cancelled
        /// mid-flight).
        Admitted => admitted: u64,
        /// Jobs that ran to completion and shipped a binary.
        Completed => completed: u64,
        /// Arrivals refused at admission: declared peak RSS above the
        /// per-action memory ceiling.
        RejectedMemory => rejected_memory: u64,
        /// Arrivals that exhausted their client retry budget against a
        /// full (or dropping) queue.
        RejectedQueue => rejected_queue: u64,
        /// Client re-submissions after a queue-full refusal or a queue
        /// drop.
        Retries => retries: u64,
        /// Queued entries silently dropped by `drop-queue` faults.
        QueueDrops => queue_drops: u64,
        /// Jobs cancelled by their owner (traffic-scheduled).
        CancelledByClient => cancelled_by_client: u64 = "cancelled",
        /// Jobs cancelled mid-flight by `cancel-job` faults.
        CancelledByFault => cancelled_by_fault: u64 = "cancelled",
        /// Jobs that aged out in the queue past their deadline.
        DeadlineTimeouts => deadline_timeouts: u64,
        /// `evict-storm` faults triggered while this tenant's job started.
        EvictionStorms => eviction_storms: u64,
        /// Shared-cache entries force-evicted by this tenant's storms.
        StormEvictedEntries => storm_evicted_entries: u64,
        /// Shared-cache lookups attributed to this tenant.
        CacheLookups => cache_lookups: u64,
        /// ... of which hits.
        CacheHits => cache_hits: u64,
        /// ... of which misses.
        CacheMisses => cache_misses: u64,
        /// Shared-cache insertions attributed to this tenant.
        CacheInsertions => cache_insertions: u64,
        /// Entries this tenant inserted that were later pressure-evicted
        /// (capacity bound or storm), regardless of who triggered it.
        PressureEvictions => pressure_evictions: u64,
        /// Completed jobs whose pipeline ledger was not clean.
        DegradedJobs => degraded_jobs: u64,
        /// Completed jobs that shipped the identity-fallback layout.
        IdentityFallbacks => identity_fallbacks: u64,
        /// Modeled seconds of client backoff before re-submissions.
        RetryBackoffSecs => retry_backoff_secs: f64,
        /// Modeled seconds arrivals spent queued before starting.
        QueueWaitSecs => queue_wait_secs: f64,
        /// Modeled seconds of slot time this tenant consumed.
        BusySecs => busy_secs: f64,
    }
    /// One counter of a [`TenantLedger`]. Its note names the timeline
    /// series the relink service books it under, per tenant, when that
    /// is not the counter's own name.
    pub enum TenantCounter, notes series;
    /// Aggregate pipeline degradation across this tenant's jobs. It
    /// travels as its own JSON member, not among the entries.
    pub degradation: DegradationLedger,
}

impl TenantLedger {
    /// Total arrivals this tenant generated.
    pub fn arrivals(&self) -> u64 {
        self.submitted + self.burst_clones
    }

    /// Terminal outcomes booked so far.
    pub fn outcomes(&self) -> u64 {
        self.completed
            + self.rejected_memory
            + self.rejected_queue
            + self.cancelled_by_client
            + self.cancelled_by_fault
            + self.deadline_timeouts
    }

    /// True iff every arrival has exactly one terminal outcome and the
    /// cache counters obey `hits + misses == lookups`.
    pub fn accounts_exactly(&self) -> bool {
        self.arrivals() == self.outcomes()
            && self.cache_hits + self.cache_misses == self.cache_lookups
    }

    /// True iff nothing eventful happened beyond clean completions.
    pub fn is_clean(&self) -> bool {
        self.outcomes() == self.completed
            && self.retries == 0
            && self.queue_drops == 0
            && self.eviction_storms == 0
            && self.storm_evicted_entries == 0
            && self.pressure_evictions == 0
            && self.degraded_jobs == 0
            && self.identity_fallbacks == 0
            && self.degradation.is_clean()
    }

    fn to_json(&self) -> JsonValue {
        num_entries(self.entries()).with("degradation", self.degradation.to_json())
    }

    fn read(r: Reader<'_>) -> Result<TenantLedger, SchemaError> {
        Ok(TenantLedger {
            degradation: r.opt("degradation", DegradationLedger::read)?.unwrap_or_default(),
            ..read_entries(r, TenantLedger::entries, TenantLedger::from_entries)?
        })
    }
}

/// The full accounting record of one service run.
///
/// Everything serialized here is modeled or configured — never
/// measured — so the canonical JSON string is byte-identical across
/// `--jobs` counts, replay seeds, and host machines.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServiceLedger {
    /// Benchmark every job relinks (the synthetic workload name).
    pub benchmark: String,
    /// Traffic/service seed.
    pub seed: u64,
    /// Canonical fault-plan spec string in force (may be empty).
    pub plan: String,
    /// Concurrent relink slots.
    pub slots: u64,
    /// Bounded queue capacity (total across tenants).
    pub queue_capacity: u64,
    /// Queue deadline in modeled seconds.
    pub deadline_secs: f64,
    /// Modeled end-to-end makespan of the run.
    pub makespan_secs: f64,
    /// Per-tenant rows, keyed by tenant name (sorted by BTreeMap).
    pub tenants: BTreeMap<String, TenantLedger>,
}

impl ServiceLedger {
    /// Sum of all tenant rows.
    pub fn totals(&self) -> TenantLedger {
        let mut t = TenantLedger::default();
        for row in self.tenants.values() {
            t.absorb(row);
        }
        t
    }

    /// True iff every tenant row accounts exactly.
    pub fn accounts_exactly(&self) -> bool {
        self.tenants.values().all(|t| t.accounts_exactly())
    }

    /// Canonical JSON — the byte-stable artifact CI `cmp`s across
    /// `--jobs` counts and replays. `totals` is derived, so the reader
    /// skips it.
    pub fn to_json_string(&self) -> String {
        obj([
            ("benchmark", self.benchmark.as_str().into()),
            ("seed", self.seed.into()),
            ("plan", self.plan.as_str().into()),
            ("slots", self.slots.into()),
            ("queue_capacity", self.queue_capacity.into()),
            ("deadline_secs", self.deadline_secs.into()),
            ("makespan_secs", self.makespan_secs.into()),
            (
                "tenants",
                obj(self.tenants.iter().map(|(name, row)| (name, row.to_json()))),
            ),
            ("totals", self.totals().to_json()),
        ])
        .to_string_pretty()
    }

    /// Parses a ledger previously written by
    /// [`to_json_string`](ServiceLedger::to_json_string).
    ///
    /// # Errors
    ///
    /// Reports JSON syntax errors and any member the writer emits that
    /// is absent or holds the wrong thing.
    pub fn parse(text: &str) -> Result<ServiceLedger, SchemaError> {
        read_doc("service_ledger", text, |r| {
            Ok(ServiceLedger {
                benchmark: r.str("benchmark")?.to_string(),
                seed: r.u64("seed")?,
                plan: r.str("plan")?.to_string(),
                slots: r.u64("slots")?,
                queue_capacity: r.u64("queue_capacity")?,
                deadline_secs: r.f64("deadline_secs")?,
                makespan_secs: r.f64("makespan_secs")?,
                tenants: r.get("tenants", |t| t.to_map(TenantLedger::read))?,
            })
        })
    }

    /// Human-readable per-tenant table (CLI output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "service ledger: bench={} seed={} slots={} queue={} deadline={}s plan={:?}\n",
            self.benchmark, self.seed, self.slots, self.queue_capacity, self.deadline_secs,
            self.plan
        ));
        out.push_str(&format!(
            "{:<10} {:>5} {:>6} {:>5} {:>6} {:>6} {:>6} {:>7} {:>6} {:>8} {:>9}\n",
            "tenant", "subm", "clones", "done", "rej", "cancel", "t/out", "retries", "drops",
            "hit-rate", "busy-secs"
        ));
        let mut rows: Vec<(&str, &TenantLedger)> =
            self.tenants.iter().map(|(n, t)| (n.as_str(), t)).collect();
        let totals = self.totals();
        rows.push(("TOTAL", &totals));
        for (name, t) in rows {
            let hit_rate = if t.cache_lookups == 0 {
                0.0
            } else {
                t.cache_hits as f64 / t.cache_lookups as f64
            };
            out.push_str(&format!(
                "{:<10} {:>5} {:>6} {:>5} {:>6} {:>6} {:>6} {:>7} {:>6} {:>7.1}% {:>9.1}\n",
                name,
                t.submitted,
                t.burst_clones,
                t.completed,
                t.rejected_memory + t.rejected_queue,
                t.cancelled_by_client + t.cancelled_by_fault,
                t.deadline_timeouts,
                t.retries,
                t.queue_drops,
                hit_rate * 100.0,
                t.busy_secs,
            ));
        }
        out.push_str(&format!("makespan: {:.1} modeled secs\n", self.makespan_secs));
        out
    }
}

impl fmt::Display for ServiceLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::LayoutMode;

    fn sample_tenant() -> TenantLedger {
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
            queue_wait_secs: 14.0,
            busy_secs: 90.0,
            degradation: DegradationLedger {
                cache_rebuilds: 1,
                layout_mode: LayoutMode::Optimized,
                ..DegradationLedger::default()
            },
        }
    }

    #[test]
    fn exact_accounting_invariant() {
        let t = sample_tenant();
        assert_eq!(t.arrivals(), 12);
        assert_eq!(t.outcomes(), 12);
        assert!(t.accounts_exactly());
        let short = TenantLedger { completed: 7, ..t };
        assert!(!short.accounts_exactly());
    }

    #[test]
    fn entries_roundtrip() {
        let t = sample_tenant();
        let mut back = TenantLedger::from_entries(t.entries());
        back.degradation = t.degradation.clone();
        assert_eq!(back, t);
    }

    #[test]
    fn absorb_sums_counters() {
        let mut totals = TenantLedger::default();
        totals.absorb(&sample_tenant());
        totals.absorb(&sample_tenant());
        assert_eq!(totals.submitted, 20);
        assert_eq!(totals.busy_secs, 180.0);
        assert_eq!(totals.degradation.cache_rebuilds, 2);
        assert!(totals.accounts_exactly());
    }

    #[test]
    fn ledger_json_roundtrips_byte_identically() {
        let mut ledger = ServiceLedger {
            benchmark: "clang".to_string(),
            seed: 42,
            plan: "burst-amplify=0.2".to_string(),
            slots: 4,
            queue_capacity: 8,
            deadline_secs: 600.0,
            makespan_secs: 1234.5,
            tenants: BTreeMap::new(),
        };
        ledger.tenants.insert("t0".to_string(), sample_tenant());
        ledger.tenants.insert("t1".to_string(), TenantLedger::default());
        let text = ledger.to_json_string();
        let back = ServiceLedger::parse(&text).unwrap();
        assert_eq!(back, ledger);
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn parse_requires_what_the_writer_emits() {
        // Used to read as an all-zero ledger, so two such files compared
        // as equal ledgers.
        let err = ServiceLedger::parse("{}").unwrap_err().to_string();
        assert_eq!(err, "missing `service_ledger.benchmark`");

        let mut ledger = ServiceLedger { benchmark: "clang".to_string(), ..Default::default() };
        ledger.tenants.insert("t0".to_string(), sample_tenant());
        let text = ledger.to_json_string();
        for member in [
            "benchmark", "seed", "plan", "slots", "queue_capacity", "deadline_secs",
            "makespan_secs", "tenants",
        ] {
            let cut = text.replacen(&format!("\"{member}\""), "\"renamed\"", 1);
            let err = ServiceLedger::parse(&cut).unwrap_err().to_string();
            assert_eq!(err, format!("missing `service_ledger.{member}`"));
        }
        let row = |from: &str, to: &str| {
            ServiceLedger::parse(&text.replacen(from, to, 1)).unwrap_err().to_string()
        };
        // A tenant row's counters used to be dropped when ill-typed and
        // truncated when fractional.
        assert_eq!(
            row("\"completed\": 8", "\"completed\": \"8\""),
            "expected a number at `service_ledger.tenants.t0.completed`"
        );
        assert_eq!(
            row("\"completed\": 8", "\"completed\": 8.5"),
            "expected a value the ledger holds exactly at `service_ledger.tenants.t0.completed`"
        );
        assert_eq!(
            row("\"retries\": 3", "\"retries\": -3"),
            "expected a value the ledger holds exactly at `service_ledger.tenants.t0.retries`"
        );
        assert_eq!(
            row("\"cache_rebuilds\": 1", "\"cache_rebuilds\": 1e30"),
            "expected a value the ledger holds exactly at \
             `service_ledger.tenants.t0.degradation.cache_rebuilds`"
        );
        assert_eq!(row("\"busy_secs\"", "\"idle_secs\""), "missing `service_ledger.tenants.t0.busy_secs`");
        assert_eq!(
            row("\"seed\": 0", "\"seed\": 0.5"),
            "expected an integer in 0..=18446744073709551615 at `service_ledger.seed`"
        );
        // New counters from a newer writer are still tolerated.
        let newer = text.replacen("\"completed\": 8", "\"completed\": 8, \"preempted\": 2", 1);
        assert_eq!(ServiceLedger::parse(&newer), Ok(ledger));
    }

    #[test]
    fn clean_tenant_row_detection() {
        let mut t = TenantLedger { submitted: 3, admitted: 3, completed: 3, ..Default::default() };
        assert!(t.is_clean());
        t.queue_drops = 1;
        assert!(!t.is_clean());
    }

    #[test]
    fn render_includes_totals_row() {
        let mut ledger = ServiceLedger::default();
        ledger.tenants.insert("t0".to_string(), sample_tenant());
        let text = ledger.render();
        assert!(text.contains("TOTAL"));
        assert!(text.contains("t0"));
    }
}
