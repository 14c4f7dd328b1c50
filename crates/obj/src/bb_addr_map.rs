//! The `.llvm_bb_addr_map` metadata section (§3.2).
//!
//! The basic block address map lets the whole-program analyzer associate
//! sampled virtual addresses with machine basic blocks *without
//! disassembly*: for each function it records, per contiguous text range
//! (one per basic-block-section fragment), the offset, size and flags of
//! every machine basic block, identified by its intra-function id.

use crate::error::ObjError;
use crate::object::{get_str, get_u8, put_str};
use bytes::{Buf, BufMut};

/// Writes a ULEB128 varint (the encoding the real
/// `SHT_LLVM_BB_ADDR_MAP` section uses, keeping metadata overhead in
/// the paper's 7-9% range).
fn put_uleb(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.put_u8(byte);
            return;
        }
        out.put_u8(byte | 0x80);
    }
}

/// Bytes [`put_uleb`] writes for `v`.
fn uleb_len(v: u32) -> usize {
    match v {
        0..=0x7f => 1,
        0x80..=0x3fff => 2,
        0x4000..=0x1f_ffff => 3,
        0x20_0000..=0xfff_ffff => 4,
        _ => 5,
    }
}

/// Bytes [`put_str`] writes for `s`: a `u32` length, then the bytes.
fn str_len(s: &str) -> usize {
    4 + s.len()
}

fn get_uleb(buf: &mut &[u8], context: &'static str) -> Result<u32, ObjError> {
    let mut v: u32 = 0;
    let mut shift = 0u32;
    loop {
        if buf.remaining() < 1 {
            return Err(ObjError::Truncated { context });
        }
        let byte = buf.get_u8();
        if shift >= 32 {
            return Err(ObjError::BadTag {
                context,
                value: byte as u32,
            });
        }
        v |= ((byte & 0x7f) as u32) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Per-block boolean metadata carried by the address map.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct BbFlags(pub u8);

impl BbFlags {
    /// The block is an exception landing pad.
    pub const LANDING_PAD: BbFlags = BbFlags(1);
    /// The block's terminator is a return.
    pub const RETURN: BbFlags = BbFlags(2);
    /// The block ends with an (explicit or implicit) fall-through into
    /// the next block of the original layout.
    pub const FALLTHROUGH: BbFlags = BbFlags(4);

    /// Whether all bits of `other` are set in `self`.
    pub fn contains(self, other: BbFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of two flag sets.
    pub fn union(self, other: BbFlags) -> BbFlags {
        BbFlags(self.0 | other.0)
    }
}

impl std::ops::BitOr for BbFlags {
    type Output = BbFlags;
    fn bitor(self, rhs: BbFlags) -> BbFlags {
        self.union(rhs)
    }
}

/// One machine basic block's entry in the map.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct BbEntry {
    /// Intra-function basic block id (stable across layout changes).
    pub bb_id: u32,
    /// Offset of the block from the start of its text range.
    pub offset: u32,
    /// Size of the block in bytes.
    pub size: u32,
    /// Block metadata.
    pub flags: BbFlags,
}

/// The address map for one function: one entry list per contiguous text
/// range (a whole function normally; one per cluster section after
/// Propeller splits it).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FuncAddrMap {
    /// The function's primary symbol name.
    pub func_symbol: String,
    /// `(range symbol, blocks)` pairs. The range symbol names the text
    /// section fragment holding the blocks; offsets are relative to it.
    pub ranges: Vec<(String, Vec<BbEntry>)>,
}

impl FuncAddrMap {
    /// Total number of blocks across all ranges.
    pub fn num_blocks(&self) -> usize {
        self.ranges.iter().map(|(_, v)| v.len()).sum()
    }
}

/// The decoded contents of one `.llvm_bb_addr_map` section.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct BbAddrMap {
    /// Maps for every function in the object.
    pub functions: Vec<FuncAddrMap>,
}

impl BbAddrMap {
    /// Serializes to section bytes (ULEB128-packed; range symbols equal
    /// to the function symbol are stored as an empty string).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_uleb(&mut out, self.functions.len() as u32);
        for f in &self.functions {
            put_str(&mut out, &f.func_symbol);
            put_uleb(&mut out, f.ranges.len() as u32);
            for (range_sym, entries) in &f.ranges {
                if range_sym == &f.func_symbol {
                    put_str(&mut out, "");
                } else {
                    put_str(&mut out, range_sym);
                }
                put_uleb(&mut out, entries.len() as u32);
                for e in entries {
                    put_uleb(&mut out, e.bb_id);
                    put_uleb(&mut out, e.offset);
                    put_uleb(&mut out, e.size);
                    out.put_u8(e.flags.0);
                }
            }
        }
        out
    }

    /// `self.encode().len()`, without building the buffer (the linker
    /// only needs the merged map's size for its [`SizeBreakdown`]).
    ///
    /// [`SizeBreakdown`]: crate::SizeBreakdown
    pub fn encoded_len(&self) -> usize {
        let mut len = uleb_len(self.functions.len() as u32);
        for f in &self.functions {
            len += str_len(&f.func_symbol) + uleb_len(f.ranges.len() as u32);
            for (range_sym, entries) in &f.ranges {
                len += if range_sym == &f.func_symbol {
                    str_len("")
                } else {
                    str_len(range_sym)
                };
                len += uleb_len(entries.len() as u32);
                for e in entries {
                    len += uleb_len(e.bb_id) + uleb_len(e.offset) + uleb_len(e.size) + 1;
                }
            }
        }
        len
    }

    /// Decodes section bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ObjError::Truncated`] or [`ObjError::BadString`] on a
    /// malformed section.
    pub fn decode(mut bytes: &[u8]) -> Result<Self, ObjError> {
        let buf = &mut bytes;
        let nfunc = get_uleb(buf, "bb_addr_map function count")? as usize;
        let mut functions = Vec::with_capacity(nfunc.min(1 << 20));
        for _ in 0..nfunc {
            let func_symbol = get_str(buf, "bb_addr_map function symbol")?;
            let nranges = get_uleb(buf, "bb_addr_map range count")? as usize;
            let mut ranges = Vec::with_capacity(nranges.min(1 << 20));
            for _ in 0..nranges {
                let mut range_sym = get_str(buf, "bb_addr_map range symbol")?;
                if range_sym.is_empty() {
                    range_sym = func_symbol.clone();
                }
                let nentries = get_uleb(buf, "bb_addr_map entry count")? as usize;
                let mut entries = Vec::with_capacity(nentries.min(1 << 20));
                for _ in 0..nentries {
                    entries.push(BbEntry {
                        bb_id: get_uleb(buf, "bb entry id")?,
                        offset: get_uleb(buf, "bb entry offset")?,
                        size: get_uleb(buf, "bb entry size")?,
                        flags: BbFlags(get_u8(buf, "bb entry flags")?),
                    });
                }
                ranges.push((range_sym, entries));
            }
            functions.push(FuncAddrMap {
                func_symbol,
                ranges,
            });
        }
        Ok(BbAddrMap { functions })
    }

    /// Merges another map's functions into this one (the linker
    /// concatenates per-object maps into the output binary's map).
    pub fn merge(&mut self, other: BbAddrMap) {
        self.functions.extend(other.functions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BbAddrMap {
        BbAddrMap {
            functions: vec![FuncAddrMap {
                func_symbol: "foo".into(),
                ranges: vec![
                    (
                        "foo".into(),
                        vec![
                            BbEntry {
                                bb_id: 0,
                                offset: 0,
                                size: 10,
                                flags: BbFlags::FALLTHROUGH,
                            },
                            BbEntry {
                                bb_id: 2,
                                offset: 10,
                                size: 6,
                                flags: BbFlags::RETURN,
                            },
                        ],
                    ),
                    (
                        "foo.cold".into(),
                        vec![BbEntry {
                            bb_id: 1,
                            offset: 0,
                            size: 4,
                            flags: BbFlags::LANDING_PAD | BbFlags::RETURN,
                        }],
                    ),
                ],
            }],
        }
    }

    #[test]
    fn round_trip() {
        let m = sample();
        assert_eq!(BbAddrMap::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn uleb_len_matches_put_uleb_at_every_width_boundary() {
        for shift in [7, 14, 21, 28] {
            for v in [(1u32 << shift) - 1, 1 << shift] {
                let mut out = Vec::new();
                put_uleb(&mut out, v);
                assert_eq!(uleb_len(v), out.len(), "v={v:#x}");
            }
        }
        assert_eq!(uleb_len(0), 1);
        assert_eq!(uleb_len(u32::MAX), 5);
    }

    #[test]
    fn truncation_fails_cleanly() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(BbAddrMap::decode(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn flags_operations() {
        let f = BbFlags::LANDING_PAD | BbFlags::RETURN;
        assert!(f.contains(BbFlags::LANDING_PAD));
        assert!(f.contains(BbFlags::RETURN));
        assert!(!f.contains(BbFlags::FALLTHROUGH));
        assert!(!BbFlags::default().contains(BbFlags::RETURN));
    }

    #[test]
    fn merge_concatenates() {
        let mut a = sample();
        a.merge(sample());
        assert_eq!(a.functions.len(), 2);
        assert_eq!(a.functions[0].num_blocks(), 3);
    }

    #[test]
    fn empty_map_round_trips() {
        let m = BbAddrMap::default();
        assert_eq!(BbAddrMap::decode(&m.encode()).unwrap(), m);
    }
}
