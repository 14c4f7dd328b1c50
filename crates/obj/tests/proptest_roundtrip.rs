//! Property tests: the `.llvm_bb_addr_map` wire format — the one
//! piece of its own output the toolchain decodes again — round-trips
//! arbitrary maps and rejects garbage and truncations without panicking.

use propeller_obj::{BbAddrMap, BbEntry, BbFlags, FuncAddrMap};
use proptest::prelude::*;

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
    fn bb_addr_map_round_trips_and_predicts_its_length(map in arb_bb_addr_map()) {
        let bytes = map.encode();
        prop_assert_eq!(map.encoded_len(), bytes.len());
        prop_assert_eq!(BbAddrMap::decode(&bytes).expect("own encoding decodes"), map);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        // Any result is fine; panics are not.
        let _ = BbAddrMap::decode(&bytes);
    }

    #[test]
    fn every_truncation_errors_cleanly(map in arb_bb_addr_map()) {
        let bytes = map.encode();
        // Check a sample of prefixes (all of them would be O(n^2)).
        let step = (bytes.len() / 16).max(1);
        for cut in (0..bytes.len()).step_by(step) {
            prop_assert!(BbAddrMap::decode(&bytes[..cut]).is_err());
        }
    }
}
