//! Profile degradation and salvage.
//!
//! At warehouse scale the profile that reaches Propeller is routinely
//! damaged: `perf.data` files get truncated mid-upload, records are
//! garbled by collection races, whole shards go missing. Phase 3 must
//! never abort on such input — it *salvages*: corrupt records are
//! dropped, truncated samples keep whatever prefix survived, and the
//! caller decides (via its coverage floor) whether enough profile is
//! left to drive layout at all.
//!
//! This module has two halves:
//!
//! * [`degrade_profile`] — the *injection* side: applies the fault
//!   plan's [`LbrRecordCorruption`](FaultKind::LbrRecordCorruption)
//!   and [`SampleTruncation`](FaultKind::SampleTruncation) faults to a
//!   freshly collected profile, modeling in-flight damage. Corrupted
//!   records get addresses far outside the binary's text range, which
//!   is exactly how real LBR garbage presents;
//! * [`salvage_profile`] — the *recovery* side: a pure function (it
//!   knows nothing about faults) that keeps only records whose
//!   addresses fall inside the valid text range, and prunes samples
//!   that lost every record.

use crate::{HardwareProfile, LbrSample};
use propeller_faults::{DegradationLedger, FaultInjector, FaultKind};
use std::ops::Range;

/// Exact accounting of one degrade + salvage pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SalvageStats {
    /// Records in the profile before any damage.
    pub records_in: u64,
    /// Records corrupted in flight by the injector.
    pub records_corrupted: u64,
    /// Samples whose record-stack tail was lost in flight.
    pub samples_truncated: u64,
    /// Records those truncations destroyed.
    pub records_truncated: u64,
    /// Invalid records the salvage pass dropped (for injected damage
    /// this equals `records_corrupted`; pre-existing garbage would
    /// also land here).
    pub records_dropped: u64,
    /// Records that survived salvage.
    pub records_out: u64,
}

impl SalvageStats {
    /// Fraction of the original records that survived (`1.0` for an
    /// originally-empty profile, which is vacuously undamaged).
    pub fn survival_rate(&self) -> f64 {
        if self.records_in == 0 {
            1.0
        } else {
            self.records_out as f64 / self.records_in as f64
        }
    }

    /// Fold this pass into a degradation ledger.
    pub fn record_into(&self, ledger: &mut DegradationLedger) {
        ledger.lbr_records_corrupted += self.records_corrupted;
        ledger.lbr_records_dropped += self.records_dropped;
        ledger.lbr_samples_truncated += self.samples_truncated;
        ledger.lbr_records_truncated += self.records_truncated;
    }
}

/// Offset added to a corrupted record's addresses; far above any
/// modeled text segment, so corruption is always detectable by the
/// range check in [`salvage_profile`].
const CORRUPT_OFFSET: u64 = 1 << 60;

/// Applies the injector's profile faults to `profile` in place,
/// returning partial stats (`records_in`, corruption and truncation
/// counts — the salvage fields stay zero until
/// [`salvage_profile`] runs).
///
/// Truncation rolls once per sample and halves its record stack
/// (keeping the older, already-committed prefix, like a write cut off
/// mid-sample); corruption rolls once per surviving record. Both walk
/// the profile in collection order, so damage is deterministic for a
/// fixed `(seed, plan)`.
pub fn degrade_profile(profile: &mut HardwareProfile, inj: &FaultInjector) -> SalvageStats {
    let mut stats =
        SalvageStats { records_in: profile.num_records() as u64, ..SalvageStats::default() };
    for (si, sample) in profile.samples.iter_mut().enumerate() {
        let site = format!("s{si}");
        if !sample.records.is_empty() && inj.fires(FaultKind::SampleTruncation, &site) {
            let keep = sample.records.len() / 2;
            stats.records_truncated += (sample.records.len() - keep) as u64;
            stats.samples_truncated += 1;
            sample.records.truncate(keep);
        }
        for (ri, record) in sample.records.iter_mut().enumerate() {
            let rsite = format!("s{si}r{ri}");
            if inj.fires(FaultKind::LbrRecordCorruption, &rsite) {
                record.from |= CORRUPT_OFFSET;
                record.to |= CORRUPT_OFFSET;
                stats.records_corrupted += 1;
            }
        }
    }
    stats
}

/// Drops every record whose addresses fall outside `text`, prunes
/// samples left empty, and completes `stats` with the salvage counts.
///
/// The result is always a well-formed profile: whatever the damage,
/// downstream aggregation and WPA see only in-range records (possibly
/// none at all — the caller's coverage floor handles that).
pub fn salvage_profile(
    profile: &HardwareProfile,
    text: Range<u64>,
    mut stats: SalvageStats,
) -> (HardwareProfile, SalvageStats) {
    let mut out = HardwareProfile::new(profile.binary_name.clone());
    for sample in &profile.samples {
        let kept: Vec<_> = sample
            .records
            .iter()
            .copied()
            .filter(|r| text.contains(&r.from) && text.contains(&r.to))
            .collect();
        stats.records_dropped += (sample.records.len() - kept.len()) as u64;
        if !kept.is_empty() {
            out.samples.push(LbrSample::new(kept));
        }
    }
    stats.records_out = out.num_records() as u64;
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LbrRecord;
    use propeller_faults::FaultPlan;

    fn profile_with(records_per_sample: &[usize]) -> HardwareProfile {
        let mut p = HardwareProfile::new("bin");
        let mut addr = 0x1000u64;
        for &n in records_per_sample {
            let mut recs = Vec::new();
            for _ in 0..n {
                recs.push(LbrRecord { from: addr, to: addr + 8 });
                addr += 16;
            }
            p.samples.push(LbrSample::new(recs));
        }
        p
    }

    const TEXT: Range<u64> = 0x1000..0x100000;

    #[test]
    fn clean_profile_survives_untouched() {
        let original = profile_with(&[4, 2, 8]);
        let mut p = original.clone();
        let inj = FaultInjector::new(FaultPlan::none(), 7);
        let stats = degrade_profile(&mut p, &inj);
        assert_eq!(p, original);
        let (salvaged, stats) = salvage_profile(&p, TEXT, stats);
        assert_eq!(salvaged, original);
        assert_eq!(stats.records_in, 14);
        assert_eq!(stats.records_out, 14);
        assert_eq!(stats.survival_rate(), 1.0);
    }

    #[test]
    fn full_corruption_drops_everything() {
        let mut p = profile_with(&[4, 2]);
        let plan = FaultPlan::parse("corrupt-lbr=1").unwrap();
        let inj = FaultInjector::new(plan, 7);
        let stats = degrade_profile(&mut p, &inj);
        assert_eq!(stats.records_corrupted, 6);
        let (salvaged, stats) = salvage_profile(&p, TEXT, stats);
        assert_eq!(salvaged.num_records(), 0);
        assert!(salvaged.samples.is_empty(), "empty samples are pruned");
        assert_eq!(stats.records_dropped, 6);
        assert_eq!(stats.survival_rate(), 0.0);
    }

    #[test]
    fn truncation_halves_samples_and_keeps_prefix() {
        let mut p = profile_with(&[8]);
        let first = p.samples[0].records[0];
        let plan = FaultPlan::parse("truncate-samples=1").unwrap();
        let inj = FaultInjector::new(plan, 7);
        let stats = degrade_profile(&mut p, &inj);
        assert_eq!(stats.samples_truncated, 1);
        assert_eq!(stats.records_truncated, 4);
        assert_eq!(p.samples[0].records.len(), 4);
        assert_eq!(p.samples[0].records[0], first);
        let (salvaged, stats) = salvage_profile(&p, TEXT, stats);
        assert_eq!(salvaged.num_records(), 4);
        assert_eq!(stats.survival_rate(), 0.5);
    }

    #[test]
    fn degradation_is_deterministic() {
        let plan = FaultPlan::parse("corrupt-lbr=0.3,truncate-samples=0.2").unwrap();
        let run = |seed| {
            let mut p = profile_with(&[8, 8, 8, 8]);
            let inj = FaultInjector::new(plan.clone(), seed);
            let stats = degrade_profile(&mut p, &inj);
            salvage_profile(&p, TEXT, stats)
        };
        assert_eq!(run(11), run(11));
        // Ledger accounting is exact: dropped == corrupted (no other
        // source of invalid records in this model).
        let (_, stats) = run(11);
        assert_eq!(stats.records_dropped, stats.records_corrupted);
        assert_eq!(
            stats.records_out,
            stats.records_in - stats.records_truncated - stats.records_dropped
        );
    }

    #[test]
    fn stats_fold_into_ledger() {
        let mut p = profile_with(&[8]);
        let plan = FaultPlan::parse("truncate-samples=1").unwrap();
        let inj = FaultInjector::new(plan, 7);
        let stats = degrade_profile(&mut p, &inj);
        let (_, stats) = salvage_profile(&p, TEXT, stats);
        let mut ledger = DegradationLedger::default();
        stats.record_into(&mut ledger);
        assert_eq!(ledger.lbr_samples_truncated, 1);
        assert_eq!(ledger.lbr_records_truncated, 4);
        assert!(!ledger.is_clean());
    }
}
