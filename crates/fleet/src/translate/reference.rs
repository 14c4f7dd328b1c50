//! The pre-PR-19 `translate_profile`, kept verbatim as the test oracle
//! the dense translator is compared against: a `BTreeMap` over every
//! block of the new binary, rebuilt on every call and walked by string
//! comparison once per record end. (One token differs: `MappedLoc` now
//! borrows its symbol, so the `.as_str()` on it is gone.) Do not
//! optimise this file — its value is that it is the old code.

use super::TranslationStats;
use propeller_linker::LinkedBinary;
use propeller_profile::{HardwareProfile, LbrRecord, LbrSample};
use propeller_wpa::AddressMapper;
use std::collections::BTreeMap;

/// Translates `profile` (collected on the binary behind `old_mapper`)
/// into `new_binary`'s address space.
///
/// When both binaries are identical the translation is the identity:
/// every record maps to its own address, byte for byte — the zero-drift
/// control arm of the fleet loop depends on this.
pub fn translate_profile(
    profile: &HardwareProfile,
    old_mapper: &AddressMapper,
    new_binary: &LinkedBinary,
) -> (HardwareProfile, TranslationStats) {
    // (symbol, block id) -> (start address, size) in the new binary.
    let mut new_blocks: BTreeMap<(&str, u32), (u64, u32)> = BTreeMap::new();
    for f in &new_binary.layout.functions {
        for b in &f.blocks {
            new_blocks.insert((&*f.func_symbol, b.block.0), (b.addr, b.size));
        }
    }
    let mut stats = TranslationStats::default();
    let mut out = HardwareProfile::new(&new_binary.name);
    let translate_addr = |addr: u64| -> Option<u64> {
        let loc = old_mapper.lookup(addr)?;
        let &(start, size) = new_blocks.get(&(loc.func_symbol, loc.bb_id))?;
        // A shrunken block clamps the offset to its new extent; the
        // record stays attributed to the right block, which is all the
        // aggregation downstream keys on.
        Some(start + u64::from(loc.offset_in_block.min(size.saturating_sub(1))))
    };
    for sample in &profile.samples {
        let mut records = Vec::with_capacity(sample.records.len());
        for rec in &sample.records {
            stats.records_in += 1;
            match (translate_addr(rec.from), translate_addr(rec.to)) {
                (Some(from), Some(to)) => records.push(LbrRecord { from, to }),
                _ => stats.records_dropped += 1,
            }
        }
        if records.is_empty() {
            stats.samples_dropped += 1;
        } else {
            out.samples.push(LbrSample::new(records));
        }
    }
    (out, stats)
}
