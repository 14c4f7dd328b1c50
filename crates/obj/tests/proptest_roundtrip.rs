//! Property tests: the object wire format round-trips arbitrary
//! well-formed objects and rejects arbitrary garbage without panicking.

use propeller_obj::{
    BbAddrMap, BbEntry, BbFlags, BlockSpan, FuncAddrMap, ObjectFile, Reloc, RelocKind, Section,
    SectionKind, Symbol, SymbolKind,
};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = SectionKind> {
    prop_oneof![
        Just(SectionKind::Text),
        Just(SectionKind::BbAddrMap),
        Just(SectionKind::EhFrame),
        Just(SectionKind::Rela),
        Just(SectionKind::RoData),
        Just(SectionKind::DebugRanges),
        Just(SectionKind::Other),
    ]
}

fn arb_reloc_kind() -> impl Strategy<Value = RelocKind> {
    prop_oneof![
        Just(RelocKind::CallPc32),
        Just(RelocKind::BranchPc32),
        Just(RelocKind::BranchPc8),
        Just(RelocKind::Abs64),
    ]
}

prop_compose! {
    fn arb_section()(
        name in "[a-z.][a-z0-9._]{0,24}",
        kind in arb_kind(),
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        relocs in prop::collection::vec(
            (any::<u32>(), arb_reloc_kind(), "[a-z]{1,8}", any::<i32>()),
            0..6,
        ),
        spans in prop::collection::vec((any::<u32>(), any::<u32>()), 0..6),
        align in 1u32..64,
        relaxable in any::<bool>(),
    ) -> Section {
        let mut s = Section::new(name, kind, bytes);
        s.relocs = relocs
            .into_iter()
            .map(|(off, kind, sym, addend)| Reloc::new(off, kind, sym, addend as i64))
            .collect();
        s.block_map = spans
            .into_iter()
            .map(|(offset, size)| BlockSpan { offset, size })
            .collect();
        s.align = align.next_power_of_two();
        s.relaxable = relaxable;
        s
    }
}

prop_compose! {
    fn arb_object()(
        name in "[a-z_]{1,12}\\.o",
        sections in prop::collection::vec(arb_section(), 0..5),
        symbols in prop::collection::vec(
            ("[a-z]{1,10}", any::<u32>(), any::<u32>(), any::<bool>()),
            0..6,
        ),
    ) -> ObjectFile {
        let mut obj = ObjectFile::new(name);
        let n = sections.len();
        for s in sections {
            obj.add_section(s);
        }
        if n > 0 {
            for (i, (name, offset, size, global)) in symbols.into_iter().enumerate() {
                obj.add_symbol(Symbol {
                    name,
                    section: propeller_obj::SectionId((i % n) as u32),
                    offset,
                    size,
                    global,
                    kind: if i % 2 == 0 { SymbolKind::Func } else { SymbolKind::Label },
                });
            }
        }
        obj
    }
}

prop_compose! {
    /// Entry fields span every ULEB128 width; every third range reuses
    /// the function symbol (encoded as the empty string).
    fn arb_bb_addr_map()(
        functions in prop::collection::vec(
            (
                "[a-z_]{1,12}",
                prop::collection::vec(
                    (
                        "[a-z_.]{1,12}",
                        prop::collection::vec(
                            (any::<u32>(), any::<u32>(), 0u32..70_000, any::<u8>()),
                            0..6,
                        ),
                    ),
                    0..4,
                ),
            ),
            0..5,
        ),
    ) -> BbAddrMap {
        let functions = functions
            .into_iter()
            .map(|(func_symbol, ranges)| FuncAddrMap {
                ranges: ranges
                    .into_iter()
                    .enumerate()
                    .map(|(i, (sym, entries))| {
                        let sym = if i % 3 == 0 { func_symbol.clone() } else { sym };
                        let entries = entries
                            .into_iter()
                            .map(|(bb_id, offset, size, flags)| BbEntry {
                                bb_id: bb_id >> (bb_id % 32),
                                offset: offset >> (offset % 32),
                                size,
                                flags: BbFlags(flags),
                            })
                            .collect();
                        (sym, entries)
                    })
                    .collect(),
                func_symbol,
            })
            .collect();
        BbAddrMap { functions }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn wire_format_round_trips(obj in arb_object()) {
        let bytes = obj.encode();
        let decoded = ObjectFile::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&obj, &decoded);
        // Hash is stable through the round trip.
        prop_assert_eq!(obj.content_hash(), decoded.content_hash());
    }

    #[test]
    fn bb_addr_map_round_trips_and_predicts_its_length(map in arb_bb_addr_map()) {
        let bytes = map.encode();
        prop_assert_eq!(map.encoded_len(), bytes.len());
        prop_assert_eq!(BbAddrMap::decode(&bytes).expect("own encoding decodes"), map);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        // Any result is fine; panics are not.
        let _ = ObjectFile::decode(&bytes);
        let _ = propeller_obj::BbAddrMap::decode(&bytes);
    }

    #[test]
    fn every_truncation_errors_cleanly(obj in arb_object()) {
        let bytes = obj.encode();
        // Check a sample of prefixes (all of them would be O(n^2)).
        let step = (bytes.len() / 16).max(1);
        for cut in (0..bytes.len()).step_by(step) {
            prop_assert!(ObjectFile::decode(&bytes[..cut]).is_err());
        }
    }
}
