//! Cross-binary profile translation.
//!
//! Samples are collected on the binary a machine actually runs —
//! release *j* — but the relink consuming them targets release *k*.
//! Raw LBR addresses are meaningless across binaries, so each record is
//! lifted to the layout-stable coordinate `(function symbol, block id,
//! offset in block)` via the old binary's BB address map, then
//! re-encoded against the new binary's final layout. This is the same
//! invariance trick the skew score uses: block ids survive both
//! relinking and moderate source churn, while addresses survive
//! neither.
//!
//! Anything that no longer exists in the new binary — a deleted
//! function, a block past a shrunken body — is dropped and counted:
//! drop rates are themselves a staleness signal (a release that loses
//! half its translated records is telling you its profile is old).

use propeller_linker::LinkedBinary;
use propeller_profile::{HardwareProfile, LbrRecord, LbrSample};
use propeller_wpa::AddressMapper;
use std::collections::HashMap;

/// Accounting for one translation pass.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct TranslationStats {
    /// Records entering translation.
    pub records_in: u64,
    /// Records dropped (either end unmapped in the old binary, or its
    /// `(symbol, block)` absent from the new one).
    pub records_dropped: u64,
    /// Samples whose every record was dropped (the sample vanishes).
    pub samples_dropped: u64,
}

impl TranslationStats {
    /// Fraction of records that survived translation (1.0 on empty
    /// input).
    pub fn survival_rate(&self) -> f64 {
        if self.records_in == 0 {
            1.0
        } else {
            (self.records_in - self.records_dropped) as f64 / self.records_in as f64
        }
    }
}

/// The new binary's side of a translation, built once per release:
/// which layout functions carry each symbol.
pub(crate) struct LayoutIndex<'a> {
    binary: &'a LinkedBinary,
    /// Symbol → the last layout function that names it.
    last: HashMap<&'a str, u32>,
    /// Layout function → the one before it naming the same symbol.
    prev: Vec<Option<u32>>,
}

impl<'a> LayoutIndex<'a> {
    pub(crate) fn new(binary: &'a LinkedBinary) -> Self {
        let funcs = &binary.layout.functions;
        let mut last = HashMap::with_capacity(funcs.len());
        let prev = funcs
            .iter()
            .enumerate()
            .map(|(i, f)| last.insert(&*f.func_symbol, i as u32))
            .collect();
        LayoutIndex { binary, last, prev }
    }
}

/// `(block id, start address, size)` of one block in the new binary.
type NewBlock = (u32, u64, u32);

/// Translates addresses of the binary behind `old` into the binary
/// behind `new`, one table per old function, filled in by the first
/// record that lands in the function: one string hash per sampled
/// function, none per record.
pub(crate) struct Translator<'a> {
    old: &'a AddressMapper,
    new: &'a LayoutIndex<'a>,
    /// Old function index → its `(start, len)` range of `blocks`.
    resolved: Vec<Option<(usize, usize)>>,
    /// The resolved functions' blocks in the new binary, each range
    /// sorted by block id and free of duplicates.
    blocks: Vec<NewBlock>,
    scratch: Vec<NewBlock>,
}

impl<'a> Translator<'a> {
    pub(crate) fn new(old: &'a AddressMapper, new: &'a LayoutIndex<'a>) -> Self {
        Translator {
            old,
            new,
            resolved: vec![None; old.num_functions()],
            blocks: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// The new binary's blocks of old function `func`. A `(symbol,
    /// block)` the new layout names twice resolves to the later one, in
    /// layout order, then block order.
    fn blocks_of(&mut self, func: u32) -> &[NewBlock] {
        let (start, len) = *self.resolved[func as usize].get_or_insert_with(|| {
            // Latest first, so that the stable sort leaves the winner at
            // the head of every run of equal ids.
            self.scratch.clear();
            let mut at = self.new.last.get(self.old.func_symbol(func)).copied();
            while let Some(f) = at {
                let blocks = &self.new.binary.layout.functions[f as usize].blocks;
                self.scratch
                    .extend(blocks.iter().rev().map(|b| (b.block.0, b.addr, b.size)));
                at = self.new.prev[f as usize];
            }
            self.scratch.sort_by_key(|b| b.0);
            self.scratch.dedup_by_key(|b| b.0);
            self.blocks.extend_from_slice(&self.scratch);
            (self.blocks.len() - self.scratch.len(), self.scratch.len())
        });
        &self.blocks[start..start + len]
    }

    fn translate_addr(&mut self, addr: u64) -> Option<u64> {
        let (func, block, offset) = self.old.lookup_offset(addr)?;
        let blocks = self.blocks_of(func);
        // A block id is input, never a length: a layout that numbers its
        // blocks 0..n has block `i` at position `i`, any other id is
        // searched for among the blocks that exist.
        let &(_, start, size) = match blocks.get(block as usize) {
            Some(b) if b.0 == block => b,
            _ => &blocks[blocks.binary_search_by_key(&block, |b| b.0).ok()?],
        };
        // A shrunken block clamps the offset to its new extent; the
        // record stays attributed to the right block, which is all the
        // aggregation downstream keys on.
        Some(start + u64::from(offset.min(size.saturating_sub(1))))
    }

    /// Translates one profile collected on the old binary.
    pub(crate) fn translate(
        &mut self,
        profile: &HardwareProfile,
    ) -> (HardwareProfile, TranslationStats) {
        let mut stats = TranslationStats::default();
        let mut out = HardwareProfile::new(&self.new.binary.name);
        for sample in &profile.samples {
            let mut records = Vec::with_capacity(sample.records.len());
            for rec in &sample.records {
                stats.records_in += 1;
                match (self.translate_addr(rec.from), self.translate_addr(rec.to)) {
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
}

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
    Translator::new(old_mapper, &LayoutIndex::new(new_binary)).translate(profile)
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_codegen::{codegen_module, CodegenOptions};
    use propeller_ir::{BlockId, FunctionBuilder, Inst, Program, ProgramBuilder, Terminator};
    use propeller_linker::{link, LinkInput, LinkOptions};
    use propeller_synth::{
        evolve, generate, spec_by_name, DriftParams, GenParams, GeneratedBenchmark,
    };
    use std::sync::OnceLock;

    fn binary(extra_fn: bool) -> LinkedBinary {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m.cc");
        let mut f = FunctionBuilder::new("alpha");
        f.add_block(
            vec![Inst::Alu; 3],
            Terminator::CondBr {
                taken: BlockId(1),
                fallthrough: BlockId(2),
                prob_taken: 0.5,
            },
        );
        f.add_block(vec![Inst::Load; 2], Terminator::Ret);
        f.add_block(vec![Inst::Load; 4], Terminator::Ret);
        pb.add_function(m, f);
        if extra_fn {
            let mut g = FunctionBuilder::new("beta");
            g.add_block(vec![Inst::Store; 2], Terminator::Ret);
            pb.add_function(m, g);
        }
        link_program(&pb.finish().unwrap())
    }

    fn block_addr(bin: &LinkedBinary, func: &str, block: u32) -> u64 {
        bin.layout
            .functions
            .iter()
            .find(|f| &*f.func_symbol == func)
            .unwrap()
            .blocks
            .iter()
            .find(|b| b.block == BlockId(block))
            .unwrap()
            .addr
    }

    #[test]
    fn identical_binaries_translate_to_identity() {
        let bin = binary(true);
        let mapper = AddressMapper::from_binary(&bin);
        let b0 = block_addr(&bin, "alpha", 0);
        let b1 = block_addr(&bin, "alpha", 1);
        let mut prof = HardwareProfile::new("old");
        prof.samples.push(LbrSample::new(vec![
            LbrRecord { from: b0 + 2, to: b1 },
            LbrRecord { from: b1 + 1, to: b0 },
        ]));
        let (t, stats) = translate_profile(&prof, &mapper, &bin);
        assert_eq!(stats.records_dropped, 0);
        assert_eq!(stats.records_in, 2);
        assert_eq!(t.samples.len(), 1);
        assert_eq!(t.samples[0].records, prof.samples[0].records);
        assert_eq!(stats.survival_rate(), 1.0);
    }

    #[test]
    fn records_in_deleted_functions_drop_and_are_counted() {
        let old = binary(true);
        let new = binary(false); // beta no longer exists
        let mapper = AddressMapper::from_binary(&old);
        let beta0 = block_addr(&old, "beta", 0);
        let alpha0 = block_addr(&old, "alpha", 0);
        let mut prof = HardwareProfile::new("old");
        // One record wholly inside beta (dropped), one inside alpha
        // (survives, possibly at a shifted address).
        prof.samples.push(LbrSample::new(vec![
            LbrRecord { from: beta0, to: beta0 + 1 },
            LbrRecord { from: alpha0, to: alpha0 + 1 },
        ]));
        // A sample made only of beta records vanishes entirely.
        prof.samples
            .push(LbrSample::new(vec![LbrRecord { from: beta0, to: beta0 }]));
        let (t, stats) = translate_profile(&prof, &mapper, &new);
        assert_eq!(stats.records_in, 3);
        assert_eq!(stats.records_dropped, 2);
        assert_eq!(stats.samples_dropped, 1);
        assert_eq!(t.samples.len(), 1);
        assert_eq!(t.samples[0].records.len(), 1);
        let a0_new = block_addr(&new, "alpha", 0);
        assert_eq!(t.samples[0].records[0].from, a0_new);
        assert!(stats.survival_rate() > 0.3 && stats.survival_rate() < 0.4);
    }

    #[test]
    fn unmapped_old_addresses_drop() {
        let bin = binary(false);
        let mapper = AddressMapper::from_binary(&bin);
        let mut prof = HardwareProfile::new("old");
        prof.samples.push(LbrSample::new(vec![LbrRecord {
            from: 0xdead_0000,
            to: 0xbeef_0000,
        }]));
        let (t, stats) = translate_profile(&prof, &mapper, &bin);
        assert_eq!(t.samples.len(), 0);
        assert_eq!(stats.records_dropped, 1);
        assert_eq!(stats.samples_dropped, 1);
    }

    /// The dense translator and the kept pre-PR-19 one, on the same
    /// input: the whole result equal, through the wrapper and through
    /// one `Translator` serving every profile, as the loop uses it.
    #[track_caller]
    fn assert_matches_reference(profiles: &[HardwareProfile], old: &LinkedBinary, new: &LinkedBinary) {
        let mapper = AddressMapper::from_binary(old);
        let index = LayoutIndex::new(new);
        let mut shared = Translator::new(&mapper, &index);
        for p in profiles {
            let want = reference::translate_profile(p, &mapper, new);
            assert_eq!(translate_profile(p, &mapper, new), want);
            assert_eq!(shared.translate(p), want);
        }
    }

    /// A profile touching every block of `bin` at its start, its last
    /// byte and one past its end, plus an empty sample.
    fn every_block(bin: &LinkedBinary) -> HardwareProfile {
        let mut prof = HardwareProfile::new("old");
        for b in bin.layout.functions.iter().flat_map(|f| &f.blocks) {
            let last = b.addr + u64::from(b.size.saturating_sub(1));
            prof.samples.push(LbrSample::new(vec![
                LbrRecord { from: b.addr, to: last },
                LbrRecord { from: last + 1, to: b.addr },
                LbrRecord { from: last, to: last },
            ]));
        }
        prof.samples.push(LbrSample::new(Vec::new()));
        prof
    }

    #[test]
    fn a_symbol_or_block_named_twice_resolves_to_the_later_one() {
        let old = binary(true);
        let mut new = binary(true);
        // `alpha` again, after `beta`: blocks 1 and 2 somewhere else,
        // block 2 twice, block 0 left to the first `alpha`.
        let mut again = new.layout.functions[0].clone();
        assert_eq!(&*again.func_symbol, "alpha");
        again.blocks.remove(0);
        for (i, b) in again.blocks.iter_mut().enumerate() {
            b.addr += 0x1000 * (i as u64 + 1);
        }
        let mut twice = again.blocks[1];
        twice.addr += 0x40;
        again.blocks.push(twice);
        new.layout.functions.push(again);

        let prof = every_block(&old);
        assert_matches_reference(std::slice::from_ref(&prof), &old, &new);
        let mapper = AddressMapper::from_binary(&old);
        let (t, _) = translate_profile(&prof, &mapper, &new);
        let b2 = block_addr(&old, "alpha", 2);
        let moved = t.samples[2].records[0].from;
        assert_eq!(moved, block_addr(&new, "alpha", 2) + 0x2000 + 0x40, "old {b2:#x}");
        assert_eq!(t.samples[0].records[0].from, block_addr(&new, "alpha", 0));
    }

    #[test]
    fn shrunken_blocks_clamp_the_offset() {
        let old = binary(true);
        let mut new = binary(true);
        new.layout.functions[0].blocks[1].size = 0;
        new.layout.functions[0].blocks[2].size = 1;
        let prof = every_block(&old);
        assert_matches_reference(std::slice::from_ref(&prof), &old, &new);
        let mapper = AddressMapper::from_binary(&old);
        let (t, stats) = translate_profile(&prof, &mapper, &new);
        assert_eq!(stats.samples_dropped, 1, "only the empty sample vanishes");
        for block in [1, 2] {
            let start = block_addr(&new, "alpha", block);
            let rec = t.samples[block as usize].records[0];
            assert_eq!((rec.from, rec.to), (start, start));
        }
    }

    #[test]
    fn empty_samples_and_profiles() {
        let bin = binary(false);
        let mapper = AddressMapper::from_binary(&bin);
        let mut prof = HardwareProfile::new("old");
        assert_matches_reference(std::slice::from_ref(&prof), &bin, &bin);
        let (t, stats) = translate_profile(&prof, &mapper, &bin);
        assert_eq!((t.samples.len(), stats), (0, TranslationStats::default()));
        assert_eq!(t.binary_name, bin.name);

        prof.samples.push(LbrSample::new(Vec::new()));
        assert_matches_reference(std::slice::from_ref(&prof), &bin, &bin);
        let (t, stats) = translate_profile(&prof, &mapper, &bin);
        assert_eq!((t.samples.len(), stats.samples_dropped, stats.records_in), (0, 1, 0));
    }

    #[test]
    fn a_hostile_block_id_is_looked_up_not_allocated_for() {
        let old = binary(true);
        let mut new = binary(true);
        // A corrupt layout: ids far past the function's block count, one
        // of them shadowing nothing, one renumbering a real block.
        new.layout.functions[0].blocks[1].block = BlockId(u32::MAX);
        new.layout.functions[1].blocks.push(propeller_linker::FinalBlock {
            block: BlockId(u32::MAX - 1),
            addr: 0x10,
            size: 4,
        });
        let prof = every_block(&old);
        assert_matches_reference(std::slice::from_ref(&prof), &old, &new);
        let mapper = AddressMapper::from_binary(&old);
        let (t, stats) = translate_profile(&prof, &mapper, &new);
        // alpha's block 1 no longer exists under that id: a record with
        // an end in it drops, one wholly inside another block survives.
        let b1 = old.layout.functions[0].blocks[1];
        let in_b1 = |r: &LbrRecord| {
            [r.from, r.to].iter().any(|a| (b1.addr..b1.addr + u64::from(b1.size)).contains(a))
        };
        let touching = prof.samples.iter().flat_map(|s| &s.records).filter(|r| in_b1(r)).count();
        assert!(touching >= 3);
        let (_, clean) = translate_profile(&prof, &mapper, &old);
        assert_eq!(stats.records_dropped, clean.records_dropped + touching as u64);
        assert_eq!(t.samples.len(), 3, "only block 1's own sample vanishes");
    }

    /// The pinned old program of the proptest, linked once.
    fn old_release() -> &'static (GeneratedBenchmark, LinkedBinary) {
        static OLD: OnceLock<(GeneratedBenchmark, LinkedBinary)> = OnceLock::new();
        OLD.get_or_init(|| {
            let spec = spec_by_name("505.mcf").expect("built-in spec");
            let bench = generate(
                &spec,
                &GenParams {
                    scale: 1.0,
                    seed: 3,
                    funcs_per_module: 9,
                    entry_points: 2,
                },
            );
            let bin = link_program(&bench.program);
            (bench, bin)
        })
    }

    fn link_program(p: &Program) -> LinkedBinary {
        let inputs: Vec<LinkInput> = p
            .modules()
            .iter()
            .map(|m| {
                let r = codegen_module(m, p, &CodegenOptions::with_labels()).unwrap();
                LinkInput::new(r.object, r.debug_layout)
            })
            .collect();
        link(&inputs, &LinkOptions::default()).unwrap()
    }

    /// One address per draw: a block's start, its interior, one past its
    /// end, or the gaps below `text_start` and above `text_end`.
    fn draw_addr(bin: &LinkedBinary, blocks: &[propeller_linker::FinalBlock], r: u64) -> u64 {
        let b = blocks[(r >> 8) as usize % blocks.len()];
        match r % 8 {
            0 | 1 => b.addr,
            2..=4 => b.addr + (r >> 40) % u64::from(b.size.max(1)),
            5 => b.addr + u64::from(b.size),
            6 => bin.text_start.saturating_sub(1 + (r >> 40) % 64),
            _ => bin.text_end + (r >> 40) % 64,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Real release pairs: the new binary is an `evolve` of the old
        /// program at any drift (deleted bodies, resized blocks, added
        /// functions), the records land anywhere in or around the old
        /// text.
        #[test]
        fn matches_the_reference_translator(
            drift_pct in 0u32..=100,
            seed in proptest::any::<u64>(),
            raw in proptest::collection::vec(proptest::any::<u64>(), 0..400),
        ) {
            let (bench, old) = old_release();
            let drift = f64::from(drift_pct) / 100.0;
            let evolved = evolve(bench, &DriftParams { drift, seed, release: 1 });
            let new = link_program(&evolved.program);
            let blocks: Vec<_> =
                old.layout.functions.iter().flat_map(|f| f.blocks.iter().copied()).collect();
            let records: Vec<LbrRecord> = raw
                .chunks_exact(2)
                .map(|r| LbrRecord {
                    from: draw_addr(old, &blocks, r[0]),
                    to: draw_addr(old, &blocks, r[1]),
                })
                .collect();
            // Two machines' profiles through one translator, samples of
            // one to seven records.
            let mut profiles = [HardwareProfile::new("m0"), HardwareProfile::new("m1")];
            for (i, sample) in records.chunks(1 + (seed % 7) as usize).enumerate() {
                profiles[i % 2].samples.push(LbrSample::new(sample.to_vec()));
            }
            assert_matches_reference(&profiles, old, &new);
        }
    }
}
