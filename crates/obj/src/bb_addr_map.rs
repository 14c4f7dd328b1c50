//! The `.llvm_bb_addr_map` metadata section (§3.2).
//!
//! The basic block address map lets the whole-program analyzer associate
//! sampled virtual addresses with machine basic blocks *without
//! disassembly*: for each function it records, per contiguous text range
//! (one per basic-block-section fragment), the offset, size and flags of
//! every machine basic block, identified by its intra-function id.
//!
//! [`BbAddrMapWriter`] is the format's one encoder: codegen writes each
//! function's record with it as the function is emitted, and
//! [`BbAddrMap::encode`] writes a decoded map back through it.

use crate::error::ObjError;
use bytes::{Buf, BufMut};
use std::sync::Arc;

fn put_str(out: &mut impl BufMut, s: &str) {
    out.put_u32_le(s.len() as u32);
    out.put_slice(s.as_bytes());
}

fn get_u8(buf: &mut &[u8], context: &'static str) -> Result<u8, ObjError> {
    if buf.remaining() < 1 {
        return Err(ObjError::Truncated { context });
    }
    Ok(buf.get_u8())
}

/// Reads a string in place: the caller decides whether it needs a copy.
fn get_str<'a>(buf: &mut &'a [u8], context: &'static str) -> Result<&'a str, ObjError> {
    if buf.remaining() < 4 {
        return Err(ObjError::Truncated { context });
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(ObjError::Truncated { context });
    }
    let (data, rest) = buf.split_at(len);
    *buf = rest;
    std::str::from_utf8(data).map_err(|_| ObjError::BadString)
}

/// Writes a ULEB128 varint (the encoding the real
/// `SHT_LLVM_BB_ADDR_MAP` section uses, keeping metadata overhead in
/// the paper's 7-9% range).
fn put_uleb(out: &mut impl BufMut, mut v: u32) {
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

/// A sink that only counts what is written: [`BbAddrMap::encoded_len`]
/// runs the encoder into it.
struct Counted(usize);

impl BufMut for Counted {
    fn put_slice(&mut self, src: &[u8]) {
        self.0 += src.len();
    }
}

/// The encoder: a function count, then per function its symbol and
/// range count, per range its symbol (empty when it is the function's
/// own) and entry count, then the entries. Counts come first, so the
/// caller states each before writing what it counts.
#[derive(Debug)]
pub struct BbAddrMapWriter<B = Vec<u8>> {
    out: B,
}

impl<B: BufMut> BbAddrMapWriter<B> {
    /// Starts a section of `num_functions` function records in `out`.
    pub fn new(mut out: B, num_functions: usize) -> Self {
        put_uleb(&mut out, num_functions as u32);
        BbAddrMapWriter { out }
    }

    /// Starts a function record of `num_ranges` ranges.
    pub fn function(&mut self, func_symbol: &str, num_ranges: usize) {
        put_str(&mut self.out, func_symbol);
        put_uleb(&mut self.out, num_ranges as u32);
    }

    /// Starts a range of `num_entries` entries of the function
    /// `func_symbol`, named by `range_symbol`.
    pub fn range(&mut self, func_symbol: &str, range_symbol: &str, num_entries: usize) {
        let stored = if range_symbol == func_symbol {
            ""
        } else {
            range_symbol
        };
        put_str(&mut self.out, stored);
        put_uleb(&mut self.out, num_entries as u32);
    }

    /// Writes one block's entry.
    pub fn entry(&mut self, e: BbEntry) {
        put_uleb(&mut self.out, e.bb_id);
        put_uleb(&mut self.out, e.offset);
        put_uleb(&mut self.out, e.size);
        self.out.put_u8(e.flags.0);
    }

    /// The written bytes.
    pub fn finish(self) -> B {
        self.out
    }
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
    pub func_symbol: Arc<str>,
    /// `(range symbol, blocks)` pairs. The range symbol names the text
    /// section fragment holding the blocks; offsets are relative to it.
    pub ranges: Vec<(Arc<str>, Vec<BbEntry>)>,
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
        self.write(Vec::new())
    }

    /// `self.encode().len()`, without building the buffer (the linker
    /// only needs the merged map's size for its [`SizeBreakdown`]).
    ///
    /// [`SizeBreakdown`]: crate::SizeBreakdown
    pub fn encoded_len(&self) -> usize {
        self.write(Counted(0)).0
    }

    fn write<B: BufMut>(&self, out: B) -> B {
        let mut w = BbAddrMapWriter::new(out, self.functions.len());
        for f in &self.functions {
            w.function(&f.func_symbol, f.ranges.len());
            for (range_sym, entries) in &f.ranges {
                w.range(&f.func_symbol, range_sym, entries.len());
                for &e in entries {
                    w.entry(e);
                }
            }
        }
        w.finish()
    }

    /// Decodes section bytes. `name` turns each symbol read into the
    /// shared name the map keeps: a linker passes a lookup in its symbol
    /// table, so a defined symbol's name is not allocated again.
    ///
    /// # Errors
    ///
    /// Returns [`ObjError::Truncated`] or [`ObjError::BadString`] on a
    /// malformed section.
    pub fn decode<'a>(
        mut bytes: &'a [u8],
        mut name: impl FnMut(&'a str) -> Arc<str>,
    ) -> Result<Self, ObjError> {
        let buf = &mut bytes;
        let nfunc = get_uleb(buf, "bb_addr_map function count")? as usize;
        let mut functions = Vec::with_capacity(nfunc.min(1 << 20));
        for _ in 0..nfunc {
            let func_symbol = name(get_str(buf, "bb_addr_map function symbol")?);
            let nranges = get_uleb(buf, "bb_addr_map range count")? as usize;
            let mut ranges = Vec::with_capacity(nranges.min(1 << 20));
            for _ in 0..nranges {
                let range_sym = match get_str(buf, "bb_addr_map range symbol")? {
                    "" => func_symbol.clone(),
                    sym => name(sym),
                };
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
        assert_eq!(BbAddrMap::decode(&m.encode(), Arc::from).unwrap(), m);
    }

    #[test]
    fn uleb_len_matches_put_uleb_at_every_width_boundary() {
        let mut values = vec![0, u32::MAX];
        for shift in [7, 14, 21, 28] {
            values.extend([(1u32 << shift) - 1, 1 << shift]);
        }
        for v in values {
            let e = BbEntry {
                bb_id: v,
                offset: v,
                size: v,
                flags: BbFlags::default(),
            };
            let m = BbAddrMap {
                functions: vec![FuncAddrMap {
                    func_symbol: "f".into(),
                    ranges: vec![("f".into(), vec![e])],
                }],
            };
            assert_eq!(m.encoded_len(), m.encode().len(), "v={v:#x}");
        }
    }

    #[test]
    fn truncation_fails_cleanly() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let decoded = BbAddrMap::decode(&bytes[..cut], Arc::from);
            assert!(decoded.is_err(), "cut={cut}");
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
        assert_eq!(BbAddrMap::decode(&m.encode(), Arc::from).unwrap(), m);
    }
}
