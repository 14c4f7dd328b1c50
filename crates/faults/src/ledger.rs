//! The degradation ledger: exact accounting of everything that went
//! wrong and what the pipeline did about it.
//!
//! The ledger is the observable half of the robustness story. The
//! acceptance bar is *exact* accounting: for any seeded plan, each
//! fault the injector fired shows up in precisely one ledger counter,
//! and a clean ledger ([`DegradationLedger::is_clean`]) certifies the
//! run took the exact undegraded path.
//!
//! The `ledger!` table below is the one list of the ledger's
//! counters: each row is the field, its JSON and telemetry name, its
//! term in `absorb` and its doctor message. [`crate::TenantLedger`] is
//! declared the same way.

use crate::injector::FaultInjector;
use crate::plan::FaultKind;
use propeller_telemetry::json::{num_entries, JsonValue, Reader, SchemaError};
use std::fmt;

/// Declares a ledger from the one table of its counters. Each row,
/// `Variant => field: type`, optionally `= "note"`, becomes a public
/// field of the struct and a variant of its counter enum; the note is
/// read through the enum method the table names after `notes`. The
/// members after the table are written by hand and take part through
/// [`Member`]. Generated: the struct, the enum (`ALL`, `name`, `get`
/// and the note method) and the ledger's `entries`, `from_entries`,
/// `absorb` and `bump`.
macro_rules! ledger {
    (@note $note:literal) => { Some($note) };
    (@note) => { None };
    (
        $(#[$meta:meta])*
        pub struct $ledger:ident {
            $($(#[$doc:meta])* $variant:ident => $field:ident: $ty:ty $(= $note:literal)?,)*
        }
        $(#[$cmeta:meta])*
        pub enum $counter:ident, notes $notes:ident;
        $($(#[$mdoc:meta])* pub $member:ident: $mty:ty,)*
    ) => {
        $(#[$meta])*
        #[derive(Clone, Debug, Default, PartialEq)]
        pub struct $ledger {
            $($(#[$doc])* pub $field: $ty,)*
            $($(#[$mdoc])* pub $member: $mty,)*
        }

        $(#[$cmeta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum $counter {
            $($(#[$doc])* $variant,)*
        }

        impl $counter {
            /// Every counter, in the table's (and the entries') order.
            pub const ALL: [$counter; [$($counter::$variant),*].len()] =
                [$($counter::$variant),*];

            /// The counter's field name, which is also its entry name.
            pub fn name(self) -> &'static str {
                match self {
                    $($counter::$variant => stringify!($field),)*
                }
            }

            /// The counter's note in the table, if it has one.
            pub fn $notes(self) -> Option<&'static str> {
                match self {
                    $($counter::$variant => $crate::ledger::ledger!(@note $($note)?),)*
                }
            }

            /// The counter's value in `ledger`.
            pub fn get(self, ledger: &$ledger) -> f64 {
                match self {
                    $($counter::$variant => ledger.$field as f64,)*
                }
            }
        }

        impl $ledger {
            /// Stable `(name, value)` pairs in a fixed order — the table's
            /// counters, then the members' entries. The single source for
            /// the ledger's JSON.
            pub fn entries(&self) -> Vec<(&'static str, f64)> {
                let counters = $counter::ALL.into_iter().map(|c| (c.name(), c.get(self)));
                let mut out: Vec<_> = counters.collect();
                $(out.extend($crate::ledger::Member::entry(&self.$member));)*
                out
            }

            /// Rebuilds a ledger from `entries()`-shaped pairs. Unknown
            /// names are ignored so old readers tolerate new counters.
            pub fn from_entries<'a>(pairs: impl IntoIterator<Item = (&'a str, f64)>) -> Self {
                let mut ledger = Self::default();
                for (name, v) in pairs {
                    match name {
                        $(stringify!($field) => ledger.$field = v as $ty,)*
                        _ => {
                            $($crate::ledger::Member::read_entry(&mut ledger.$member, name, v);)*
                        }
                    }
                }
                ledger
            }

            /// Adds `other` into `self`, each counter in its own type (a
            /// job's ledger into its tenant's row, rows into totals).
            pub fn absorb(&mut self, other: &Self) {
                $(self.$field += other.$field;)*
                $($crate::ledger::Member::absorb(&mut self.$member, &other.$member);)*
            }

            /// Counts one more `counter` event.
            pub fn bump(&mut self, counter: $counter) {
                match counter {
                    $($counter::$variant => self.$field += 1 as $ty,)*
                }
            }
        }
    };
}
pub(crate) use ledger;

/// A ledger member written by hand beside the counter table: the entry
/// it adds after the counters, if any, and how it sums.
pub(crate) trait Member {
    /// This member's `(name, value)` entry.
    fn entry(&self) -> Option<(&'static str, f64)> {
        None
    }

    /// Reads this member back from an entry the table does not name.
    fn read_entry(&mut self, _name: &str, _v: f64) {}

    /// Adds `other`'s member into `self`'s.
    fn absorb(&mut self, other: &Self);
}

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

/// The layout mode's entry: the mode encoded as 0/1.
const LAYOUT_ENTRY: &str = "layout_identity_fallback";

impl Member for LayoutMode {
    fn entry(&self) -> Option<(&'static str, f64)> {
        Some((LAYOUT_ENTRY, if *self == LayoutMode::IdentityFallback { 1.0 } else { 0.0 }))
    }

    fn read_entry(&mut self, name: &str, v: f64) {
        if name == LAYOUT_ENTRY {
            *self = if v != 0.0 { LayoutMode::IdentityFallback } else { LayoutMode::Optimized };
        }
    }

    /// An aggregate's layout mode is `Optimized` whatever went in: which
    /// jobs fell back is counted beside it
    /// ([`crate::TenantLedger::identity_fallbacks`]).
    fn absorb(&mut self, _other: &Self) {
        *self = LayoutMode::Optimized;
    }
}

ledger! {
    /// Counters for every degradation event of one pipeline run.
    ///
    /// All counters are modeled events, so the ledger is deterministic for
    /// a fixed `(seed, plan)` and `PartialEq` makes replay checks exact.
    pub struct DegradationLedger {
        /// Transient action failures the executor retried.
        ActionRetries => action_retries: u64 = "build actions retried after transient failures",
        /// Action attempts that hit the retry policy's modeled deadline.
        ActionTimeouts => action_timeouts: u64 =
            "build actions hung, timed out, and were rescheduled",
        /// Modeled seconds spent in retry backoff (incl. jitter).
        RetryBackoffSecs => retry_backoff_secs: f64 =
            "modeled seconds spent waiting in retry backoff",
        /// Cache entries whose content digest failed verification.
        CacheCorruptions => cache_corruptions: u64 =
            "cache entries failed digest verification and were invalidated",
        /// Cache entries that had been silently evicted before lookup.
        CacheEvictions => cache_evictions: u64 = "cache entries evicted from under the pipeline",
        /// Artifacts rebuilt because their cache entry was corrupt or
        /// evicted (one per corruption/eviction that had a live entry).
        CacheRebuilds => cache_rebuilds: u64 =
            "artifacts rebuilt after cache corruption or eviction",
        /// LBR records the injector corrupted in flight.
        LbrRecordsCorrupted => lbr_records_corrupted: u64 =
            "LBR records corrupted in the raw profile",
        /// Corrupt records the phase-3 salvage pass dropped.
        LbrRecordsDropped => lbr_records_dropped: u64 =
            "out-of-range LBR records dropped by salvage",
        /// LBR samples that lost the tail of their record stack.
        LbrSamplesTruncated => lbr_samples_truncated: u64 =
            "profile samples truncated mid-capture",
        /// Records lost to those truncations.
        LbrRecordsTruncated => lbr_records_truncated: u64 =
            "LBR records lost to sample truncation",
        /// Hot functions demoted to cold because profile coverage fell
        /// below the configured floor.
        FunctionsMarkedCold => functions_marked_cold: u64 =
            "hot functions demoted to cold after profile loss",
        /// Hot objects whose re-codegen permanently failed and that fell
        /// back to the cached baseline (labels) codegen.
        ObjectsFallenBack => objects_fallen_back: u64 =
            "hot objects shipped from cached baseline codegen",
    }
    /// One counter of a [`DegradationLedger`]; its note is the doctor's
    /// message for a nonzero count.
    pub enum DegradationCounter, notes message;
    /// Layout mode the relink actually used.
    pub layout_mode: LayoutMode,
}

impl Member for DegradationLedger {
    fn absorb(&mut self, other: &Self) {
        DegradationLedger::absorb(self, other);
    }
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
            if name == "retry_backoff_secs" || name == LAYOUT_ENTRY {
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
            if name == LAYOUT_ENTRY {
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

    /// `entries`' names, each with a distinct nonzero value, so a sum
    /// that skips or crosses a counter cannot pass.
    fn numbered(entries: Vec<(&'static str, f64)>, base: f64) -> Vec<(&'static str, f64)> {
        entries.into_iter().enumerate().map(|(i, (name, _))| (name, base + i as f64)).collect()
    }

    #[test]
    fn absorb_sums_every_counter_and_keeps_the_mode_optimized() {
        use crate::service::TenantLedger;
        let row = |base: f64| TenantLedger {
            degradation: DegradationLedger::from_entries(numbered(
                DegradationLedger::default().entries(),
                base,
            )),
            ..TenantLedger::from_entries(numbered(TenantLedger::default().entries(), base))
        };
        let (mut sum, other) = (row(1.0), row(100.0));
        assert_eq!(other.degradation.layout_mode, LayoutMode::IdentityFallback);
        let before = sum.clone();
        sum.absorb(&other);
        let summed = |got: Vec<(&str, f64)>, a: Vec<(&str, f64)>, b: Vec<(&str, f64)>| {
            for ((name, got), ((_, a), (_, b))) in got.into_iter().zip(a.into_iter().zip(b)) {
                let want = if name == "layout_identity_fallback" { 0.0 } else { a + b };
                assert_eq!(got, want, "{name}");
            }
        };
        summed(sum.entries(), before.entries(), other.entries());
        let degradation = |row: &TenantLedger| row.degradation.entries();
        summed(degradation(&sum), degradation(&before), degradation(&other));
        assert_eq!(sum.degradation.layout_mode, LayoutMode::Optimized);

        // Tenant rows used to be summed through `f64`, which rounds
        // 2^53 + 1 plus 1 down to 2^53.
        let big = (1u64 << 53) + 1;
        let mut sum = TenantLedger { cache_lookups: big, ..TenantLedger::default() };
        sum.absorb(&TenantLedger { cache_lookups: 1, ..TenantLedger::default() });
        assert_eq!(sum.cache_lookups, big + 1);
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
