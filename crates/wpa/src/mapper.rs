//! Mapping sampled addresses to machine basic blocks via the BB
//! address map — the step that replaces disassembly.

use propeller_linker::LinkedBinary;
use std::sync::{Arc, OnceLock};

/// A resolved sample location.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct MappedLoc<'a> {
    /// The owning function's primary symbol.
    pub func_symbol: &'a str,
    /// The machine basic block id within that function.
    pub bb_id: u32,
    /// Byte offset of the address within the block.
    pub offset_in_block: u32,
}

#[derive(Clone, Debug)]
struct Interval {
    start: u64,
    end: u64,
    func_idx: u32,
    bb_id: u32,
}

/// Binary-searchable map from virtual addresses to basic blocks, built
/// from a linked binary's merged `.llvm_bb_addr_map` and symbol table.
#[derive(Clone, Debug)]
pub struct AddressMapper {
    intervals: Vec<Interval>,
    func_symbols: Vec<Arc<str>>,
    /// Function indices ordered by `(symbol, index)`, sorted on the
    /// first [`AddressMapper::func_index`] call: building the mapper is
    /// on every Phase 3's path, asking for an index by name is not.
    by_symbol: OnceLock<Vec<u32>>,
    skipped_funcs: usize,
}

impl AddressMapper {
    /// Builds the mapper from the metadata binary.
    ///
    /// Functions whose range symbols cannot be resolved are skipped
    /// (they contribute no mappable blocks), mirroring how the real
    /// tool tolerates stripped inputs. The count of skipped functions
    /// is retained ([`AddressMapper::num_skipped_functions`]) so
    /// profile-quality audits can surface the loss instead of it
    /// vanishing silently.
    pub fn from_binary(binary: &LinkedBinary) -> Self {
        let map = &binary.bb_addr_map;
        let mut intervals = Vec::with_capacity(map.entries.len());
        let mut func_symbols = Vec::with_capacity(map.functions.len());
        let mut skipped_funcs = 0usize;
        for f in &map.functions {
            let func_idx = func_symbols.len() as u32;
            let mut any = false;
            for r in map.ranges_of(f) {
                let Some(base) = binary.symbol(&r.symbol) else {
                    continue;
                };
                any = true;
                for e in map.entries_of(r) {
                    intervals.push(Interval {
                        start: base + e.offset as u64,
                        end: base + e.offset as u64 + e.size as u64,
                        func_idx,
                        bb_id: e.bb_id,
                    });
                }
            }
            if any {
                func_symbols.push(f.symbol.clone());
            } else {
                skipped_funcs += 1;
            }
        }
        intervals.sort_by_key(|i| i.start);
        AddressMapper {
            intervals,
            func_symbols,
            by_symbol: OnceLock::new(),
            skipped_funcs,
        }
    }

    /// Resolves an address to `(function index, bb id, byte offset
    /// within the block)`, if any block covers it — the one search the
    /// other lookups are views of.
    pub fn lookup_offset(&self, addr: u64) -> Option<(u32, u32, u32)> {
        let idx = self.intervals.partition_point(|i| i.start <= addr);
        let iv = self.intervals[..idx].last()?;
        (addr < iv.end).then(|| (iv.func_idx, iv.bb_id, (addr - iv.start) as u32))
    }

    /// Resolves an address to its block, if any block covers it.
    pub fn lookup(&self, addr: u64) -> Option<MappedLoc<'_>> {
        let (func_idx, bb_id, offset_in_block) = self.lookup_offset(addr)?;
        Some(MappedLoc {
            func_symbol: self.func_symbol(func_idx),
            bb_id,
            offset_in_block,
        })
    }

    /// Resolves to indices (the form the DCFG builder uses):
    /// `(function index, bb id)`.
    pub fn lookup_idx(&self, addr: u64) -> Option<(u32, u32)> {
        self.lookup_offset(addr).map(|(f, b, _)| (f, b))
    }

    /// All blocks whose start lies within `[lo, hi]`, as
    /// `(function index, bb id)` pairs — used to credit fall-through
    /// ranges.
    pub fn blocks_starting_in(&self, lo: u64, hi: u64) -> impl Iterator<Item = (u32, u32)> + '_ {
        let from = self.intervals.partition_point(|i| i.start < lo);
        self.intervals[from..]
            .iter()
            .take_while(move |i| i.start <= hi)
            .map(|i| (i.func_idx, i.bb_id))
    }

    /// The function symbol for a function index.
    pub fn func_symbol(&self, idx: u32) -> &str {
        &self.func_symbols[idx as usize]
    }

    /// The function index for a symbol, if mapped; the first one when
    /// the address map names the symbol more than once.
    pub fn func_index(&self, symbol: &str) -> Option<u32> {
        let by_symbol = self.by_symbol.get_or_init(|| {
            let mut order: Vec<u32> = (0..self.func_symbols.len() as u32).collect();
            // Stable, so equal symbols stay in index order.
            order.sort_by_key(|&i| self.func_symbol(i));
            order
        });
        let at = by_symbol.partition_point(|&i| self.func_symbol(i) < symbol);
        by_symbol
            .get(at)
            .copied()
            .filter(|&i| self.func_symbol(i) == symbol)
    }

    /// Number of functions with mappable blocks.
    pub fn num_functions(&self) -> usize {
        self.func_symbols.len()
    }

    /// Number of address-map functions dropped because none of their
    /// range symbols resolved (stripped or garbage-collected symbols).
    /// Samples landing in these functions can never map.
    pub fn num_skipped_functions(&self) -> usize {
        self.skipped_funcs
    }

    /// Modeled memory of the interval table (the dominant Phase 3
    /// structure besides the DCFG): ~32 bytes per interval.
    pub fn modeled_memory_bytes(&self) -> u64 {
        (self.intervals.len() * 32) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_codegen::{codegen_module, CodegenOptions};
    use propeller_ir::{FunctionBuilder, Inst, ProgramBuilder, Terminator};
    use propeller_linker::{link, LinkInput, LinkOptions};

    fn metadata_binary() -> LinkedBinary {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m.cc");
        let mut f = FunctionBuilder::new("alpha");
        f.add_block(vec![Inst::Alu; 3], Terminator::Jump(propeller_ir::BlockId(1)));
        f.add_block(vec![Inst::Load], Terminator::Ret);
        pb.add_function(m, f);
        let mut g = FunctionBuilder::new("beta");
        g.add_block(vec![Inst::Store; 2], Terminator::Ret);
        pb.add_function(m, g);
        let p = pb.finish().unwrap();
        let r = codegen_module(&p.modules()[0], &p, &CodegenOptions::with_labels()).unwrap();
        link(
            &[LinkInput::new(r.object, r.debug_layout)],
            &LinkOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn lookup_finds_blocks_and_offsets() {
        let bin = metadata_binary();
        let mapper = AddressMapper::from_binary(&bin);
        assert_eq!(mapper.num_functions(), 2);
        assert_eq!(mapper.intervals.len(), 3);
        let alpha = bin.symbol("alpha").unwrap();
        let loc = mapper.lookup(alpha).unwrap();
        assert_eq!(loc.func_symbol, "alpha");
        assert_eq!(loc.bb_id, 0);
        assert_eq!(loc.offset_in_block, 0);
        // Inside bb0 (3 ALUs = 9 bytes).
        let loc = mapper.lookup(alpha + 5).unwrap();
        assert_eq!((loc.bb_id, loc.offset_in_block), (0, 5));
        // bb1 starts at 9.
        let loc = mapper.lookup(alpha + 9).unwrap();
        assert_eq!(loc.bb_id, 1);
    }

    #[test]
    fn unresolvable_range_symbols_are_counted_as_skipped() {
        let mut bin = metadata_binary();
        let map = &mut bin.bb_addr_map;
        let (range, entry) = (map.ranges.len() as u32, map.entries.len() as u32);
        map.entries.push(propeller_obj::BbEntry {
            bb_id: 0,
            offset: 0,
            size: 16,
            flags: propeller_obj::BbFlags::default(),
        });
        map.ranges.push(propeller_obj::RangeRecord {
            symbol: "ghost.stripped".into(),
            entries: entry..entry + 1,
        });
        map.functions.push(propeller_obj::FuncRecord {
            symbol: "ghost".into(),
            ranges: range..range + 1,
        });
        let mapper = AddressMapper::from_binary(&bin);
        assert_eq!(mapper.num_functions(), 2, "resolvable functions kept");
        assert_eq!(mapper.num_skipped_functions(), 1);
        assert!(mapper.func_index("ghost").is_none());
    }

    #[test]
    fn func_index_is_the_first_position_of_the_symbol() {
        let mut bin = metadata_binary();
        // The address map names `alpha` a second time, after `beta`.
        let again = bin.bb_addr_map.functions[0].clone();
        bin.bb_addr_map.functions.push(again);
        let mapper = AddressMapper::from_binary(&bin);
        assert_eq!(mapper.num_functions(), 3);
        assert_eq!(mapper.func_index("alpha"), Some(0), "first of two");
        assert_eq!(mapper.func_index("beta"), Some(1));
        assert_eq!(mapper.func_symbol(2), "alpha", "the last index");
        assert_eq!(mapper.func_index("gamma"), None);
        assert_eq!(mapper.func_index(""), None);
        // Every index resolves like the linear scan it replaced.
        for (i, s) in mapper.func_symbols.iter().enumerate() {
            let first = mapper.func_symbols.iter().position(|t| t == s);
            assert_eq!(mapper.func_index(s), first.map(|p| p as u32), "index {i}");
        }
    }

    #[test]
    fn lookup_misses_outside_text() {
        let bin = metadata_binary();
        let mapper = AddressMapper::from_binary(&bin);
        assert!(mapper.lookup(0).is_none());
        assert!(mapper.lookup(bin.text_end + 100).is_none());
    }

    #[test]
    fn blocks_starting_in_range() {
        let bin = metadata_binary();
        let mapper = AddressMapper::from_binary(&bin);
        let alpha = bin.symbol("alpha").unwrap();
        let beta = bin.symbol("beta").unwrap();
        let all: Vec<_> = mapper.blocks_starting_in(alpha, beta).collect();
        assert_eq!(all.len(), 3);
        let first_two: Vec<_> = mapper.blocks_starting_in(alpha, alpha + 9).collect();
        assert_eq!(first_two.len(), 2);
    }
}
