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
//! already depends on this crate; service findings and the ledger diff
//! gate would otherwise force a dependency cycle.

use crate::ledger::{read_entries, DegradationLedger};
use propeller_telemetry::json::{num_entries, obj, read_doc, JsonValue, Reader, SchemaError};
use std::collections::BTreeMap;
use std::fmt;

/// Exact accounting for one tenant's traffic through the service.
///
/// Terminal-outcome invariant: every arrival (submitted + burst
/// clones) ends in exactly one of `completed`, `rejected_memory`,
/// `rejected_queue`, `cancelled_by_client`, `cancelled_by_fault`, or
/// `deadline_timeouts`. `retries` and `queue_drops` are intermediate
/// events — a retried arrival is still the same arrival.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantLedger {
    /// Arrivals from the traffic plan itself.
    pub submitted: u64,
    /// Extra arrivals spawned by `burst-amplify` faults.
    pub burst_clones: u64,
    /// Jobs that reached a relink slot (including ones later cancelled
    /// mid-flight).
    pub admitted: u64,
    /// Jobs that ran to completion and shipped a binary.
    pub completed: u64,
    /// Arrivals refused at admission: declared peak RSS above the
    /// per-action memory ceiling.
    pub rejected_memory: u64,
    /// Arrivals that exhausted their client retry budget against a
    /// full (or dropping) queue.
    pub rejected_queue: u64,
    /// Client re-submissions after a queue-full refusal or a queue
    /// drop.
    pub retries: u64,
    /// Queued entries silently dropped by `drop-queue` faults.
    pub queue_drops: u64,
    /// Jobs cancelled by their owner (traffic-scheduled).
    pub cancelled_by_client: u64,
    /// Jobs cancelled mid-flight by `cancel-job` faults.
    pub cancelled_by_fault: u64,
    /// Jobs that aged out in the queue past their deadline.
    pub deadline_timeouts: u64,
    /// `evict-storm` faults triggered while this tenant's job started.
    pub eviction_storms: u64,
    /// Shared-cache entries force-evicted by this tenant's storms.
    pub storm_evicted_entries: u64,
    /// Shared-cache lookups attributed to this tenant.
    pub cache_lookups: u64,
    /// ... of which hits.
    pub cache_hits: u64,
    /// ... of which misses.
    pub cache_misses: u64,
    /// Shared-cache insertions attributed to this tenant.
    pub cache_insertions: u64,
    /// Entries this tenant inserted that were later pressure-evicted
    /// (capacity bound or storm), regardless of who triggered it.
    pub pressure_evictions: u64,
    /// Completed jobs whose pipeline ledger was not clean.
    pub degraded_jobs: u64,
    /// Completed jobs that shipped the identity-fallback layout.
    pub identity_fallbacks: u64,
    /// Modeled seconds of client backoff before re-submissions.
    pub retry_backoff_secs: f64,
    /// Modeled seconds arrivals spent queued before starting.
    pub queue_wait_secs: f64,
    /// Modeled seconds of slot time this tenant consumed.
    pub busy_secs: f64,
    /// Aggregate pipeline degradation across this tenant's jobs.
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

    /// Stable `(name, value)` pairs in a fixed order — the single
    /// source for ledger JSON and the service diff.
    pub fn entries(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("submitted", self.submitted as f64),
            ("burst_clones", self.burst_clones as f64),
            ("admitted", self.admitted as f64),
            ("completed", self.completed as f64),
            ("rejected_memory", self.rejected_memory as f64),
            ("rejected_queue", self.rejected_queue as f64),
            ("retries", self.retries as f64),
            ("queue_drops", self.queue_drops as f64),
            ("cancelled_by_client", self.cancelled_by_client as f64),
            ("cancelled_by_fault", self.cancelled_by_fault as f64),
            ("deadline_timeouts", self.deadline_timeouts as f64),
            ("eviction_storms", self.eviction_storms as f64),
            ("storm_evicted_entries", self.storm_evicted_entries as f64),
            ("cache_lookups", self.cache_lookups as f64),
            ("cache_hits", self.cache_hits as f64),
            ("cache_misses", self.cache_misses as f64),
            ("cache_insertions", self.cache_insertions as f64),
            ("pressure_evictions", self.pressure_evictions as f64),
            ("degraded_jobs", self.degraded_jobs as f64),
            ("identity_fallbacks", self.identity_fallbacks as f64),
            ("retry_backoff_secs", self.retry_backoff_secs),
            ("queue_wait_secs", self.queue_wait_secs),
            ("busy_secs", self.busy_secs),
        ]
    }

    /// Rebuild from `entries()`-shaped pairs; unknown names are
    /// ignored so old readers tolerate new counters. The nested
    /// degradation ledger travels separately.
    pub fn from_entries<'a>(pairs: impl IntoIterator<Item = (&'a str, f64)>) -> TenantLedger {
        let mut t = TenantLedger::default();
        for (name, v) in pairs {
            match name {
                "submitted" => t.submitted = v as u64,
                "burst_clones" => t.burst_clones = v as u64,
                "admitted" => t.admitted = v as u64,
                "completed" => t.completed = v as u64,
                "rejected_memory" => t.rejected_memory = v as u64,
                "rejected_queue" => t.rejected_queue = v as u64,
                "retries" => t.retries = v as u64,
                "queue_drops" => t.queue_drops = v as u64,
                "cancelled_by_client" => t.cancelled_by_client = v as u64,
                "cancelled_by_fault" => t.cancelled_by_fault = v as u64,
                "deadline_timeouts" => t.deadline_timeouts = v as u64,
                "eviction_storms" => t.eviction_storms = v as u64,
                "storm_evicted_entries" => t.storm_evicted_entries = v as u64,
                "cache_lookups" => t.cache_lookups = v as u64,
                "cache_hits" => t.cache_hits = v as u64,
                "cache_misses" => t.cache_misses = v as u64,
                "cache_insertions" => t.cache_insertions = v as u64,
                "pressure_evictions" => t.pressure_evictions = v as u64,
                "degraded_jobs" => t.degraded_jobs = v as u64,
                "identity_fallbacks" => t.identity_fallbacks = v as u64,
                "retry_backoff_secs" => t.retry_backoff_secs = v,
                "queue_wait_secs" => t.queue_wait_secs = v,
                "busy_secs" => t.busy_secs = v,
                _ => {}
            }
        }
        t
    }

    /// Add `other` into `self` (tenant rows into totals). The layout
    /// mode of the aggregate degradation stays `Optimized`; per-job
    /// fallbacks are counted in `identity_fallbacks` instead.
    pub fn absorb(&mut self, other: &TenantLedger) {
        let merged: Vec<(&'static str, f64)> = self
            .entries()
            .into_iter()
            .zip(other.entries())
            .map(|((name, a), (_, b))| (name, a + b))
            .collect();
        let mut degradation = std::mem::take(&mut self.degradation);
        degradation.absorb(&other.degradation);
        *self = TenantLedger { degradation, ..TenantLedger::from_entries(merged) };
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
        // Used to read as an all-zero ledger, so `service-diff` of two
        // such files reported "no diverging counters".
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
