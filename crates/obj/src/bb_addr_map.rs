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
use bytes::BufMut;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

fn put_str(out: &mut impl BufMut, s: &str) {
    out.put_u32_le(s.len() as u32);
    out.put_slice(s.as_bytes());
}

/// Bytes `put_str` writes for `s`.
fn str_len(s: &str) -> usize {
    4 + s.len()
}

fn get_u8(buf: &mut &[u8], context: &'static str) -> Result<u8, ObjError> {
    let (&byte, rest) = buf.split_first().ok_or(ObjError::Truncated { context })?;
    *buf = rest;
    Ok(byte)
}

/// Reads a string in place: the caller decides whether it needs a copy.
fn get_str<'a>(buf: &mut &'a [u8], context: &'static str) -> Result<&'a str, ObjError> {
    let (len, rest) = buf
        .split_first_chunk::<4>()
        .ok_or(ObjError::Truncated { context })?;
    let (data, rest) = rest
        .split_at_checked(u32::from_le_bytes(*len) as usize)
        .ok_or(ObjError::Truncated { context })?;
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
        let byte = get_u8(buf, context)?;
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

/// Bytes `put_uleb` writes for `v`: seven bits a byte, at least one.
fn uleb_len(v: u32) -> usize {
    (32 - (v | 1).leading_zeros()).div_ceil(7) as usize
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

impl BbEntry {
    /// Bytes the entry takes in an encoded section.
    pub fn encoded_len(&self) -> usize {
        uleb_len(self.bb_id) + uleb_len(self.offset) + uleb_len(self.size) + 1
    }
}

/// One function's record: its primary symbol and its ranges, a span of
/// [`BbAddrMap::ranges`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FuncRecord {
    /// The function's primary symbol name.
    pub symbol: Arc<str>,
    /// Its ranges: one contiguous text range normally, one per cluster
    /// section after Propeller splits it.
    pub ranges: Range<u32>,
}

/// One contiguous text range of a function: the symbol naming the text
/// section fragment, and its blocks, a span of [`BbAddrMap::entries`]
/// whose offsets are relative to that symbol.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RangeRecord {
    /// The fragment's symbol.
    pub symbol: Arc<str>,
    /// Its blocks, in address order.
    pub entries: Range<u32>,
}

/// The decoded contents of one or more `.llvm_bb_addr_map` sections,
/// as three flat arrays: functions hold spans of `ranges`, ranges spans
/// of `entries`, so a map of any size is three allocations.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct BbAddrMap {
    /// Every function's record, in section order.
    pub functions: Vec<FuncRecord>,
    /// Every function's ranges, in function order.
    pub ranges: Vec<RangeRecord>,
    /// Every range's blocks, in range order.
    pub entries: Vec<BbEntry>,
}

fn span(r: &Range<u32>) -> Range<usize> {
    r.start as usize..r.end as usize
}

/// The fewest bytes any record takes on the wire (a symbol's length
/// prefix; an entry's three varints and flags): a corrupt count reserves
/// no more records than the remaining bytes could hold.
const MIN_RECORD_LEN: usize = 4;

impl BbAddrMap {
    /// `f`'s ranges.
    pub fn ranges_of(&self, f: &FuncRecord) -> &[RangeRecord] {
        &self.ranges[span(&f.ranges)]
    }

    /// `r`'s blocks.
    pub fn entries_of(&self, r: &RangeRecord) -> &[BbEntry] {
        &self.entries[span(&r.entries)]
    }

    /// Serializes to section bytes (ULEB128-packed; range symbols equal
    /// to the function symbol are stored as an empty string).
    pub fn encode(&self) -> Vec<u8> {
        self.write(Vec::new())
    }

    /// `self.encode().len()`, without building the buffer.
    pub fn encoded_len(&self) -> usize {
        self.write(Counted(0)).0
    }

    fn write<B: BufMut>(&self, out: B) -> B {
        let mut w = BbAddrMapWriter::new(out, self.functions.len());
        for f in &self.functions {
            let ranges = self.ranges_of(f);
            w.function(&f.symbol, ranges.len());
            for r in ranges {
                let entries = self.entries_of(r);
                w.range(&f.symbol, &r.symbol, entries.len());
                for &e in entries {
                    w.entry(e);
                }
            }
        }
        w.finish()
    }

    /// Decodes one section's records onto the end of the map. `name`
    /// turns each symbol read into the shared name the map keeps: a
    /// linker passes a lookup in its symbol table, so a defined
    /// symbol's name is not allocated again.
    ///
    /// Returns how many bytes longer [`BbAddrMap::encode`] became, so a
    /// caller merging sections knows the merged size without encoding.
    ///
    /// # Errors
    ///
    /// Returns [`ObjError::Truncated`], [`ObjError::BadTag`] (a varint
    /// past 32 bits) or [`ObjError::BadString`] on a malformed section,
    /// and leaves the map as it was.
    pub fn decode_into<'a>(
        &mut self,
        mut bytes: &'a [u8],
        mut name: impl FnMut(&'a str) -> Arc<str>,
    ) -> Result<usize, ObjError> {
        let lens = (self.functions.len(), self.ranges.len(), self.entries.len());
        let count_len = uleb_len(lens.0 as u32);
        match self.append(&mut bytes, &mut name) {
            Ok(records_len) => Ok(records_len + uleb_len(self.functions.len() as u32) - count_len),
            Err(e) => {
                self.functions.truncate(lens.0);
                self.ranges.truncate(lens.1);
                self.entries.truncate(lens.2);
                Err(e)
            }
        }
    }

    /// [`BbAddrMap::decode_into`]'s body: returns the encoded length of
    /// the appended records, as [`BbAddrMap::encode`] writes them.
    fn append<'a>(
        &mut self,
        buf: &mut &'a [u8],
        name: &mut impl FnMut(&'a str) -> Arc<str>,
    ) -> Result<usize, ObjError> {
        let nfunc = get_uleb(buf, "bb_addr_map function count")? as usize;
        self.functions
            .reserve(nfunc.min(buf.len() / MIN_RECORD_LEN));
        let mut len = 0;
        for _ in 0..nfunc {
            let func = get_str(buf, "bb_addr_map function symbol")?;
            let symbol = name(func);
            let nranges = get_uleb(buf, "bb_addr_map range count")?;
            len += str_len(func) + uleb_len(nranges);
            let first_range = self.ranges.len() as u32;
            self.ranges
                .reserve((nranges as usize).min(buf.len() / MIN_RECORD_LEN));
            for _ in 0..nranges {
                let stored = get_str(buf, "bb_addr_map range symbol")?;
                let range_symbol = match stored {
                    "" => symbol.clone(),
                    sym => name(sym),
                };
                let nentries = get_uleb(buf, "bb_addr_map entry count")?;
                // `encode` stores a range symbol equal to the function's
                // as the empty string.
                len += str_len(if stored == func { "" } else { stored }) + uleb_len(nentries);
                let first_entry = self.entries.len() as u32;
                self.entries
                    .reserve((nentries as usize).min(buf.len() / MIN_RECORD_LEN));
                for _ in 0..nentries {
                    let e = BbEntry {
                        bb_id: get_uleb(buf, "bb entry id")?,
                        offset: get_uleb(buf, "bb entry offset")?,
                        size: get_uleb(buf, "bb entry size")?,
                        flags: BbFlags(get_u8(buf, "bb entry flags")?),
                    };
                    len += e.encoded_len();
                    self.entries.push(e);
                }
                self.ranges.push(RangeRecord {
                    symbol: range_symbol,
                    entries: first_entry..self.entries.len() as u32,
                });
            }
            self.functions.push(FuncRecord {
                symbol,
                ranges: first_range..self.ranges.len() as u32,
            });
        }
        Ok(len)
    }
}

/// The nested form — each function with its `(range symbol, entries)`
/// pairs — that the map had before it was flattened: the linker's golden
/// digest hashes it, so the rendering is kept exactly.
impl fmt::Debug for BbAddrMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let functions = self.functions.iter().map(|func| {
            let ranges = self.ranges_of(func);
            let ranges = ranges.iter().map(|r| (&r.symbol, self.entries_of(r)));
            fmt::from_fn(move |f| {
                f.debug_struct("FuncAddrMap")
                    .field("func_symbol", &func.symbol)
                    .field(
                        "ranges",
                        &fmt::from_fn(|f| f.debug_list().entries(ranges.clone()).finish()),
                    )
                    .finish()
            })
        });
        f.debug_struct("BbAddrMap")
            .field(
                "functions",
                &fmt::from_fn(|f| f.debug_list().entries(functions.clone()).finish()),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const fn entry(bb_id: u32, offset: u32, size: u32, flags: BbFlags) -> BbEntry {
        BbEntry {
            bb_id,
            offset,
            size,
            flags,
        }
    }

    /// Appends a function of `ranges` to `m`, as the decoder would.
    fn push(m: &mut BbAddrMap, symbol: &str, ranges: &[(&str, &[BbEntry])]) {
        let first_range = m.ranges.len() as u32;
        for &(range_symbol, entries) in ranges {
            let first = m.entries.len() as u32;
            m.entries.extend_from_slice(entries);
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

    fn sample() -> BbAddrMap {
        let mut m = BbAddrMap::default();
        push(
            &mut m,
            "foo",
            &[
                (
                    "foo",
                    &[
                        entry(0, 0, 10, BbFlags::FALLTHROUGH),
                        entry(2, 10, 6, BbFlags::RETURN),
                    ],
                ),
                (
                    "foo.cold",
                    &[entry(1, 0, 4, BbFlags::LANDING_PAD | BbFlags::RETURN)],
                ),
            ],
        );
        m
    }

    fn decode(bytes: &[u8]) -> Result<BbAddrMap, ObjError> {
        let mut m = BbAddrMap::default();
        m.decode_into(bytes, Arc::from).map(|_| m)
    }

    #[test]
    fn round_trip() {
        let m = sample();
        assert_eq!(decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn debug_renders_the_nested_form() {
        assert_eq!(
            format!("{:?}", sample()),
            "BbAddrMap { functions: [FuncAddrMap { func_symbol: \"foo\", ranges: [(\"foo\", \
             [BbEntry { bb_id: 0, offset: 0, size: 10, flags: BbFlags(4) }, BbEntry { bb_id: 2, \
             offset: 10, size: 6, flags: BbFlags(2) }]), (\"foo.cold\", [BbEntry { bb_id: 1, \
             offset: 0, size: 4, flags: BbFlags(3) }])] }] }"
        );
        assert_eq!(
            format!("{:?}", BbAddrMap::default()),
            "BbAddrMap { functions: [] }"
        );
    }

    #[test]
    fn uleb_len_matches_put_uleb_at_every_width_boundary() {
        let mut values = vec![0, u32::MAX];
        for shift in [7, 14, 21, 28] {
            values.extend([(1u32 << shift) - 1, 1 << shift]);
        }
        for v in values {
            let e = entry(v, v, v, BbFlags::default());
            let mut m = BbAddrMap::default();
            push(&mut m, "f", &[("f", &[e])]);
            let bytes = m.encode();
            assert_eq!(m.encoded_len(), bytes.len(), "v={v:#x}");
            // Function count, symbol, range count, "" and entry count.
            assert_eq!(e.encoded_len(), bytes.len() - 1 - 5 - 1 - 4 - 1, "v={v:#x}");
        }
    }

    #[test]
    fn decode_into_reports_how_much_the_encoding_grew() {
        let bytes = sample().encode();
        let mut m = BbAddrMap::default();
        let mut len = m.encoded_len();
        // 130 functions: the function count's varint grows a byte.
        for _ in 0..130 {
            len += m.decode_into(&bytes, Arc::from).unwrap();
            assert_eq!(len, m.encoded_len());
        }
        // A range symbol spelled out though it equals the function's
        // re-encodes as "", and an overlong varint as its shortest form.
        let mut w = BbAddrMapWriter::new(Vec::new(), 1);
        w.function("g", 1);
        w.range("g", "h", 0);
        let mut odd = w.finish();
        let at = odd.len() - 6;
        odd[at..at + 5].copy_from_slice(b"\x01\0\0\0g");
        odd.splice(0..1, [0x81, 0x00]);
        let mut m = BbAddrMap::default();
        assert_eq!(m.decode_into(&odd, Arc::from).unwrap(), m.encoded_len() - 1);
        assert_eq!(m.encoded_len(), odd.len() - 2);
    }

    #[test]
    fn truncation_fails_cleanly() {
        let bytes = sample().encode();
        let mut m = sample();
        for cut in 0..bytes.len() {
            assert!(
                m.decode_into(&bytes[..cut], Arc::from).is_err(),
                "cut={cut}"
            );
            assert_eq!(m, sample(), "cut={cut}");
        }
    }

    #[test]
    fn errors_name_what_was_being_read() {
        let bytes = sample().encode();
        assert_eq!(
            decode(&bytes[..3]),
            Err(ObjError::Truncated {
                context: "bb_addr_map function symbol"
            })
        );
        assert_eq!(
            decode(&[0xff; 6]),
            Err(ObjError::BadTag {
                context: "bb_addr_map function count",
                value: 0xff
            })
        );
        let mut bad = bytes.clone();
        bad[5] = 0xff; // inside "foo"
        assert_eq!(decode(&bad), Err(ObjError::BadString));
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
        let bytes = sample().encode();
        let mut a = sample();
        a.decode_into(&bytes, Arc::from).unwrap();
        assert_eq!(a.functions.len(), 2);
        assert_eq!(a.functions[1].ranges, 2..4);
        assert_eq!(a.ranges[3].entries, 5..6);
        let blocks = |f| {
            a.ranges_of(f)
                .iter()
                .map(|r| a.entries_of(r).len())
                .sum::<usize>()
        };
        assert_eq!(blocks(&a.functions[1]), 3);
        assert_eq!(
            a.entries_of(&a.ranges[3])[0].flags,
            sample().entries[2].flags
        );
    }

    #[test]
    fn empty_map_round_trips() {
        let m = BbAddrMap::default();
        assert_eq!(decode(&m.encode()).unwrap(), m);
    }
}
