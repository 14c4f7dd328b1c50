//! The degradation ledger: exact accounting of everything that went
//! wrong and what the pipeline did about it.
//!
//! The ledger is the observable half of the robustness story. The
//! acceptance bar is *exact* accounting: for any seeded plan, each
//! fault the injector fired shows up in precisely one ledger counter,
//! and a clean ledger ([`DegradationLedger::is_clean`]) certifies the
//! run took the exact undegraded path.

use crate::injector::FaultInjector;
use crate::plan::FaultKind;
use propeller_telemetry::json::{num_entries, JsonValue, Reader, SchemaError};
use std::fmt;

/// Which symbol-ordering mode the final relink used.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LayoutMode {
    /// The optimized Ext-TSP layout from WPA was applied.
    #[default]
    Optimized,
    /// WPA input was unusable (profile survival below the floor), so
    /// the relink used the identity symbol order — the baseline-
    /// equivalent layout that is always correct.
    IdentityFallback,
}

impl LayoutMode {
    pub fn as_str(self) -> &'static str {
        match self {
            LayoutMode::Optimized => "optimized",
            LayoutMode::IdentityFallback => "identity-fallback",
        }
    }
}

/// Counters for every degradation event of one pipeline run.
///
/// All counters are modeled events, so the ledger is deterministic for
/// a fixed `(seed, plan)` and `PartialEq` makes replay checks exact.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DegradationLedger {
    /// Transient action failures the executor retried.
    pub action_retries: u64,
    /// Action attempts that hit the retry policy's modeled deadline.
    pub action_timeouts: u64,
    /// Modeled seconds spent in retry backoff (incl. jitter).
    pub retry_backoff_secs: f64,
    /// Cache entries whose content digest failed verification.
    pub cache_corruptions: u64,
    /// Cache entries that had been silently evicted before lookup.
    pub cache_evictions: u64,
    /// Artifacts rebuilt because their cache entry was corrupt or
    /// evicted (one per corruption/eviction that had a live entry).
    pub cache_rebuilds: u64,
    /// LBR records the injector corrupted in flight.
    pub lbr_records_corrupted: u64,
    /// Corrupt records the phase-3 salvage pass dropped.
    pub lbr_records_dropped: u64,
    /// LBR samples that lost the tail of their record stack.
    pub lbr_samples_truncated: u64,
    /// Records lost to those truncations.
    pub lbr_records_truncated: u64,
    /// Hot functions demoted to cold because profile coverage fell
    /// below the configured floor.
    pub functions_marked_cold: u64,
    /// Hot objects whose re-codegen permanently failed and that fell
    /// back to the cached baseline (labels) codegen.
    pub objects_fallen_back: u64,
    /// Layout mode the relink actually used.
    pub layout_mode: LayoutMode,
}

impl DegradationLedger {
    /// True iff nothing degraded: every counter zero and the
    /// optimized layout applied. Zero-fault plans must yield a clean
    /// ledger, and reports omit the degradation section entirely in
    /// that case so their JSON stays bit-identical to pre-fault-layer
    /// output.
    pub fn is_clean(&self) -> bool {
        *self == DegradationLedger::default()
    }

    /// Exact accounting, checked: every pipeline fault `inj` fired must
    /// be booked one-for-one in the counter that answers for its kind.
    /// Returns one sentence per kind whose books do not balance — none
    /// for a run that accounted exactly.
    pub fn unbooked_faults(&self, inj: &FaultInjector) -> Vec<String> {
        [
            (FaultKind::TransientActionFailure, self.action_retries),
            (FaultKind::ActionTimeout, self.action_timeouts),
            (FaultKind::CacheCorruption, self.cache_corruptions),
            (FaultKind::CacheEviction, self.cache_evictions),
            (FaultKind::LbrRecordCorruption, self.lbr_records_corrupted),
            (FaultKind::SampleTruncation, self.lbr_samples_truncated),
            (FaultKind::PermanentCodegenFailure, self.objects_fallen_back),
        ]
        .into_iter()
        .filter_map(|(kind, booked)| {
            let fired = inj.fired(kind);
            (fired != booked).then(|| {
                format!(
                    "injector fired {fired} {} fault(s) but the ledger accounts for {booked}",
                    kind.key()
                )
            })
        })
        .collect()
    }

    /// Adds `other`'s counters into `self` — a job's ledger into its
    /// tenant's row, tenant rows into totals. The aggregate's own
    /// layout mode is `Optimized` whatever went in: which jobs fell
    /// back is counted beside it ([`crate::TenantLedger::identity_fallbacks`]).
    pub fn absorb(&mut self, other: &DegradationLedger) {
        self.action_retries += other.action_retries;
        self.action_timeouts += other.action_timeouts;
        self.retry_backoff_secs += other.retry_backoff_secs;
        self.cache_corruptions += other.cache_corruptions;
        self.cache_evictions += other.cache_evictions;
        self.cache_rebuilds += other.cache_rebuilds;
        self.lbr_records_corrupted += other.lbr_records_corrupted;
        self.lbr_records_dropped += other.lbr_records_dropped;
        self.lbr_samples_truncated += other.lbr_samples_truncated;
        self.lbr_records_truncated += other.lbr_records_truncated;
        self.functions_marked_cold += other.functions_marked_cold;
        self.objects_fallen_back += other.objects_fallen_back;
        self.layout_mode = LayoutMode::Optimized;
    }

    /// The ledger as stable `(name, value)` pairs, in a fixed order —
    /// the single source for report JSON, telemetry metrics, and the
    /// doctor diff. `layout_identity_fallback` encodes the layout
    /// mode as 0/1.
    pub fn entries(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("action_retries", self.action_retries as f64),
            ("action_timeouts", self.action_timeouts as f64),
            ("retry_backoff_secs", self.retry_backoff_secs),
            ("cache_corruptions", self.cache_corruptions as f64),
            ("cache_evictions", self.cache_evictions as f64),
            ("cache_rebuilds", self.cache_rebuilds as f64),
            ("lbr_records_corrupted", self.lbr_records_corrupted as f64),
            ("lbr_records_dropped", self.lbr_records_dropped as f64),
            ("lbr_samples_truncated", self.lbr_samples_truncated as f64),
            ("lbr_records_truncated", self.lbr_records_truncated as f64),
            ("functions_marked_cold", self.functions_marked_cold as f64),
            ("objects_fallen_back", self.objects_fallen_back as f64),
            (
                "layout_identity_fallback",
                match self.layout_mode {
                    LayoutMode::Optimized => 0.0,
                    LayoutMode::IdentityFallback => 1.0,
                },
            ),
        ]
    }

    /// Rebuild a ledger from `entries()`-shaped pairs (report JSON
    /// round-trip). Unknown names are ignored so old readers tolerate
    /// new counters.
    pub fn from_entries<'a>(pairs: impl IntoIterator<Item = (&'a str, f64)>) -> Self {
        let mut l = DegradationLedger::default();
        for (name, v) in pairs {
            match name {
                "action_retries" => l.action_retries = v as u64,
                "action_timeouts" => l.action_timeouts = v as u64,
                "retry_backoff_secs" => l.retry_backoff_secs = v,
                "cache_corruptions" => l.cache_corruptions = v as u64,
                "cache_evictions" => l.cache_evictions = v as u64,
                "cache_rebuilds" => l.cache_rebuilds = v as u64,
                "lbr_records_corrupted" => l.lbr_records_corrupted = v as u64,
                "lbr_records_dropped" => l.lbr_records_dropped = v as u64,
                "lbr_samples_truncated" => l.lbr_samples_truncated = v as u64,
                "lbr_records_truncated" => l.lbr_records_truncated = v as u64,
                "functions_marked_cold" => l.functions_marked_cold = v as u64,
                "objects_fallen_back" => l.objects_fallen_back = v as u64,
                "layout_identity_fallback" => {
                    l.layout_mode = if v != 0.0 {
                        LayoutMode::IdentityFallback
                    } else {
                        LayoutMode::Optimized
                    }
                }
                _ => {}
            }
        }
        l
    }

    /// The `degradation` member of a report: `None` while clean, so a
    /// fault-free artifact stays byte-identical to one written before
    /// the fault layer existed.
    pub fn to_json(&self) -> Option<JsonValue> {
        (!self.is_clean()).then(|| num_entries(self.entries()))
    }

    /// Reads back what [`DegradationLedger::to_json`] wrote.
    ///
    /// # Errors
    ///
    /// An entry is absent, not a number, or not a value its field
    /// holds (a fractional or negative count).
    pub fn read(r: Reader<'_>) -> Result<DegradationLedger, SchemaError> {
        read_entries(r, DegradationLedger::entries, DegradationLedger::from_entries)
    }

    /// Record the ledger as telemetry counters/gauges under `prefix`
    /// (e.g. `faults.action_retries`). No-op on a disabled handle;
    /// callers also skip it for clean ledgers so zero-fault traces
    /// stay identical to pre-fault-layer ones.
    pub fn record_metrics(&self, tel: &propeller_telemetry::Telemetry, prefix: &str) {
        if !tel.is_enabled() {
            return;
        }
        for (name, v) in self.entries() {
            if name == "retry_backoff_secs" || name == "layout_identity_fallback" {
                tel.gauge_set(&format!("{prefix}.{name}"), v);
            } else {
                tel.counter_add(&format!("{prefix}.{name}"), v as u64);
            }
        }
    }

    /// Human-readable multi-line summary (CLI output).
    pub fn render(&self) -> String {
        if self.is_clean() {
            return "degradation ledger: clean (no faults observed)\n".to_string();
        }
        let mut out = String::from("degradation ledger:\n");
        for (name, v) in self.entries() {
            if name == "layout_identity_fallback" {
                continue;
            }
            if v != 0.0 {
                out.push_str(&format!("  {name:<24} {v}\n"));
            }
        }
        out.push_str(&format!("  {:<24} {}\n", "layout_mode", self.layout_mode.as_str()));
        out
    }
}

/// Reads every entry a ledger's `entries()` names from the object at
/// `r` and rebuilds the ledger through its `from_entries`. That
/// narrows counts with `as`, so the rebuilt ledger's entries are held
/// against what was read: a fractional, negative or oversized count is
/// an error, not a truncation. Members `entries()` does not name are
/// ignored, so old readers tolerate new counters.
pub(crate) fn read_entries<L: Default>(
    r: Reader<'_>,
    entries: fn(&L) -> Vec<(&'static str, f64)>,
    from_entries: fn(Vec<(&'static str, f64)>) -> L,
) -> Result<L, SchemaError> {
    let read = entries(&L::default())
        .into_iter()
        .map(|(name, _)| Ok((name, r.f64(name)?)))
        .collect::<Result<Vec<_>, _>>()?;
    let ledger = from_entries(read.clone());
    for ((name, v), (_, kept)) in read.into_iter().zip(entries(&ledger)) {
        if v != kept {
            return Err(SchemaError::Expected {
                what: "a value the ledger holds exactly".to_string(),
                path: name.to_string(),
            });
        }
    }
    Ok(ledger)
}

impl fmt::Display for DegradationLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ledger_is_clean() {
        let l = DegradationLedger::default();
        assert!(l.is_clean());
        assert!(l.entries().iter().all(|&(_, v)| v == 0.0));
        assert!(l.render().contains("clean"));
    }

    #[test]
    fn any_counter_or_fallback_dirties_the_ledger() {
        let l = DegradationLedger { action_retries: 1, ..DegradationLedger::default() };
        assert!(!l.is_clean());
        let l = DegradationLedger {
            layout_mode: LayoutMode::IdentityFallback,
            ..DegradationLedger::default()
        };
        assert!(!l.is_clean());
    }

    #[test]
    fn entries_roundtrip() {
        let l = DegradationLedger {
            action_retries: 3,
            action_timeouts: 1,
            retry_backoff_secs: 4.25,
            cache_corruptions: 2,
            cache_evictions: 1,
            cache_rebuilds: 3,
            lbr_records_corrupted: 40,
            lbr_records_dropped: 40,
            lbr_samples_truncated: 5,
            lbr_records_truncated: 55,
            functions_marked_cold: 7,
            objects_fallen_back: 2,
            layout_mode: LayoutMode::IdentityFallback,
        };
        let back = DegradationLedger::from_entries(l.entries());
        assert_eq!(back, l);
    }

    /// A ledger whose every entry is distinct and nonzero, so a sum
    /// that skips or crosses a counter cannot pass.
    fn numbered(base: f64) -> DegradationLedger {
        let names = DegradationLedger::default().entries();
        DegradationLedger::from_entries(
            names.into_iter().enumerate().map(|(i, (name, _))| (name, base + i as f64)),
        )
    }

    #[test]
    fn absorb_sums_every_counter_and_keeps_the_mode_optimized() {
        let (mut sum, other) = (numbered(1.0), numbered(100.0));
        assert_eq!(other.layout_mode, LayoutMode::IdentityFallback);
        let before = sum.entries();
        sum.absorb(&other);
        for ((name, got), ((_, a), (_, b))) in
            sum.entries().into_iter().zip(before.into_iter().zip(other.entries()))
        {
            let want = if name == "layout_identity_fallback" { 0.0 } else { a + b };
            assert_eq!(got, want, "{name}");
        }
        assert_eq!(sum.layout_mode, LayoutMode::Optimized);
    }

    #[test]
    fn unbooked_faults_names_exactly_the_kind_that_is_off() {
        use crate::plan::FaultPlan;
        // Every pipeline kind fires on every roll; roll kind `i` `i + 1`
        // times so no two kinds share a count.
        let plan = FaultPlan::parse(
            "transient=1,timeout=1,corrupt-cache=1,evict-cache=1,corrupt-lbr=1,\
             truncate-samples=1,permanent-codegen=1",
        )
        .unwrap();
        let inj = FaultInjector::new(plan, 7);
        let kinds = &FaultKind::ALL[..7];
        for (i, &kind) in kinds.iter().enumerate() {
            for n in 0..=i {
                assert!(inj.fires(kind, &format!("site {n}")));
            }
        }
        let exact = DegradationLedger {
            action_retries: 1,
            action_timeouts: 2,
            cache_corruptions: 3,
            cache_evictions: 4,
            lbr_records_corrupted: 5,
            lbr_samples_truncated: 6,
            objects_fallen_back: 7,
            // Derived counters no fault kind answers to: never named.
            cache_rebuilds: 7,
            lbr_records_dropped: 5,
            ..DegradationLedger::default()
        };
        assert_eq!(exact.unbooked_faults(&inj), Vec::<String>::new());
        let bumps: [fn(&mut DegradationLedger); 7] = [
            |l| l.action_retries += 1,
            |l| l.action_timeouts += 1,
            |l| l.cache_corruptions += 1,
            |l| l.cache_evictions += 1,
            |l| l.lbr_records_corrupted += 1,
            |l| l.lbr_samples_truncated += 1,
            |l| l.objects_fallen_back += 1,
        ];
        for (i, (&kind, bump)) in kinds.iter().zip(bumps).enumerate() {
            let mut off = exact.clone();
            bump(&mut off);
            let fired = i as u64 + 1;
            assert_eq!(
                off.unbooked_faults(&inj),
                vec![format!(
                    "injector fired {fired} {} fault(s) but the ledger accounts for {}",
                    kind.key(),
                    fired + 1
                )]
            );
        }
    }

    #[test]
    fn render_lists_nonzero_counters_only() {
        let l = DegradationLedger { cache_rebuilds: 2, ..DegradationLedger::default() };
        let text = l.render();
        assert!(text.contains("cache_rebuilds"));
        assert!(!text.contains("action_retries"));
        assert!(text.contains("optimized"));
    }

    #[test]
    fn telemetry_recording_uses_prefix() {
        let tel = propeller_telemetry::Telemetry::enabled();
        let l = DegradationLedger { action_retries: 2, ..DegradationLedger::default() };
        l.record_metrics(&tel, "faults");
        let m = tel.drain().metrics;
        assert_eq!(m.counter("faults.action_retries"), 2);
    }
}
