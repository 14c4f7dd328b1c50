//! Property tests: the `.llvm_bb_addr_map` wire format — the one
//! piece of its own output the toolchain decodes again — round-trips
//! arbitrary maps, appends section after section as if each were
//! decoded alone, and rejects garbage, truncations and corruptions
//! without panicking or touching what was decoded before.

use propeller_obj::{BbAddrMap, BbEntry, BbFlags, FuncRecord, RangeRecord};
use proptest::prelude::*;
use std::sync::Arc;

/// `(symbol, [(range symbol, [(bb_id, offset, size, flags)])])`.
type Nested = Vec<(String, Vec<(String, Vec<(u32, u32, u32, u8)>)>)>;

/// The map of `functions`, flattened as the decoder lays it out.
fn flat(functions: Nested) -> BbAddrMap {
    let mut m = BbAddrMap::default();
    for (symbol, ranges) in functions {
        let first_range = m.ranges.len() as u32;
        for (range_symbol, entries) in ranges {
            let first = m.entries.len() as u32;
            m.entries.extend(
                entries
                    .into_iter()
                    .map(|(bb_id, offset, size, flags)| BbEntry {
                        bb_id,
                        offset,
                        size,
                        flags: BbFlags(flags),
                    }),
            );
            m.ranges.push(RangeRecord {
                symbol: range_symbol.into(),
                entries: first..m.entries.len() as u32,
            });
        }
        m.functions.push(FuncRecord {
            symbol: symbol.into(),
            ranges: first_range..m.ranges.len() as u32,
        });
    }
    m
}

/// Each function's symbol with its ranges' symbols and entries.
type Decoded = Vec<(Arc<str>, Vec<(Arc<str>, Vec<BbEntry>)>)>;

/// `m`'s functions in the form concatenation is defined on, free of
/// the spans' positions.
fn nested(m: &BbAddrMap) -> Decoded {
    m.functions
        .iter()
        .map(|f| {
            let ranges = m.ranges_of(f);
            let ranges = ranges
                .iter()
                .map(|r| (r.symbol.clone(), m.entries_of(r).to_vec()));
            (f.symbol.clone(), ranges.collect())
        })
        .collect()
}

fn decode(bytes: &[u8]) -> Result<BbAddrMap, propeller_obj::ObjError> {
    let mut m = BbAddrMap::default();
    m.decode_into(bytes, Arc::from).map(|_| m)
}

/// Maps of up to `funcs` functions, `ranges` ranges each and `entries`
/// entries a range. Entry fields span every ULEB128 width; every third
/// range reuses the function symbol (encoded as the empty string).
fn arb_map(funcs: usize, ranges: usize, entries: usize) -> impl Strategy<Value = BbAddrMap> {
    prop::collection::vec(
        (
            "[a-z_]{1,12}",
            prop::collection::vec(
                (
                    "[a-z_.]{1,12}",
                    prop::collection::vec(
                        (any::<u32>(), any::<u32>(), 0u32..70_000, any::<u8>()),
                        0..entries,
                    ),
                ),
                0..ranges,
            ),
        ),
        0..funcs,
    )
    .prop_map(|functions| {
        let functions = functions
            .into_iter()
            .map(|(symbol, ranges)| {
                let ranges = ranges
                    .into_iter()
                    .enumerate()
                    .map(|(i, (sym, entries))| {
                        let sym = if i % 3 == 0 { symbol.clone() } else { sym };
                        let entries = entries
                            .into_iter()
                            .map(|(id, off, size, flags): (u32, u32, u32, u8)| {
                                (id >> (id % 32), off >> (off % 32), size, flags)
                            })
                            .collect();
                        (sym, entries)
                    })
                    .collect();
                (symbol, ranges)
            })
            .collect();
        flat(functions)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bb_addr_map_round_trips_and_predicts_its_length(map in arb_map(5, 4, 6)) {
        let bytes = map.encode();
        prop_assert_eq!(map.encoded_len(), bytes.len());
        let decoded = decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(decoded.encode(), bytes);
        prop_assert_eq!(decoded, map);
    }

    #[test]
    fn decode_into_appends_what_each_section_decodes_to_alone(
        maps in prop::collection::vec(arb_map(4, 3, 5), 0..5),
    ) {
        let mut merged = BbAddrMap::default();
        let mut len = merged.encoded_len();
        let mut expected = Vec::new();
        for m in &maps {
            len += merged.decode_into(&m.encode(), Arc::from).expect("own encoding decodes");
            prop_assert_eq!(len, merged.encoded_len());
            expected.extend(nested(&decode(&m.encode()).unwrap()));
        }
        prop_assert_eq!(nested(&merged), expected);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        // Any result is fine; panics are not.
        let _ = decode(&bytes);
    }

    #[test]
    fn every_truncation_errors_cleanly(
        before in arb_map(2, 2, 3),
        map in arb_map(5, 4, 6),
    ) {
        let bytes = map.encode();
        let mut m = before.clone();
        for cut in 0..bytes.len() {
            prop_assert!(m.decode_into(&bytes[..cut], Arc::from).is_err(), "cut={}", cut);
            prop_assert_eq!(&m, &before, "cut={}", cut);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every byte of a valid encoding set to every other value: the
    /// decoder errors or decodes, never panics, and on an error the map
    /// holds exactly what it held before.
    #[test]
    fn every_single_byte_corruption_errors_cleanly_or_decodes(
        before in arb_map(2, 2, 2),
        map in arb_map(3, 3, 3),
    ) {
        let bytes = map.encode();
        let mut m = before.clone();
        let mut corrupt = bytes.clone();
        for at in 0..bytes.len() {
            for value in (0..=u8::MAX).filter(|&v| v != bytes[at]) {
                corrupt[at] = value;
                match m.decode_into(&corrupt, Arc::from) {
                    Ok(_) => {
                        prop_assert_eq!(&nested(&m)[..before.functions.len()], &nested(&before)[..]);
                        m = before.clone();
                    }
                    Err(_) => prop_assert_eq!(&m, &before, "byte {} = {:#x}", at, value),
                }
            }
            corrupt[at] = bytes[at];
        }
    }
}
