//! Linked binary artifacts.

use propeller_ir::{BlockId, FunctionId};
use propeller_obj::{BbAddrMap, SectionKind, SizeBreakdown, RELA_ENTRY_BYTES};
use std::collections::HashMap;
use std::sync::Arc;

/// A section's final placement in the output.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PlacedSection {
    /// Section name, shared with the input section.
    pub name: Arc<str>,
    /// Content kind.
    pub kind: SectionKind,
    /// Virtual address (loaded sections only; metadata sections carry
    /// their file position here).
    pub addr: u64,
    /// Final size in bytes (post-relaxation).
    pub size: u64,
}

/// A basic block's final position in the executable.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct FinalBlock {
    /// The block.
    pub block: BlockId,
    /// Final virtual address.
    pub addr: u64,
    /// Final size (post-relaxation; fall-through jump deletion shrinks
    /// blocks).
    pub size: u32,
}

/// Final layout of a function's blocks.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FinalFunctionLayout {
    /// The function.
    pub function: FunctionId,
    /// The function's primary symbol, shared with the IR.
    pub func_symbol: Arc<str>,
    /// Every block with its final address, in address order per
    /// fragment.
    pub blocks: Vec<FinalBlock>,
}

/// The simulator's view of where every block landed — the moral
/// equivalent of debug info for a real profiler.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FinalLayout {
    /// Per-function layouts.
    pub functions: Vec<FinalFunctionLayout>,
}

/// One text section's final placement, in layout order — the linker's
/// contribution to layout provenance: where each ordered symbol
/// actually landed and what the relaxation pass did to its bytes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SymbolPlacement {
    /// The section's primary function symbol (the section name when no
    /// primary symbol exists, e.g. cold fragments named by section).
    pub symbol: Arc<str>,
    /// Position in the final text order (0 = first placed).
    pub order: u32,
    /// Final virtual address.
    pub addr: u64,
    /// Size before relaxation, in bytes.
    pub input_size: u64,
    /// Size after relaxation, in bytes.
    pub final_size: u64,
    /// Fall-through jumps deleted inside this symbol (§4.2).
    pub deleted_jumps: u32,
    /// Branches rewritten from long to short form inside this symbol.
    pub shrunk_branches: u32,
}

/// Link-action statistics.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct LinkStats {
    /// Total bytes of all input objects.
    pub input_bytes: u64,
    /// Relocation records in the input objects: what an `--emit-relocs`
    /// link writes to its output ([`LinkedBinary::with_static_relocs`]).
    pub relocations: u64,
    /// Bytes of text in the output (including inter-section padding).
    pub text_bytes: u64,
    /// Nop padding bytes inserted between text sections.
    pub padding_bytes: u64,
    /// Fall-through jumps deleted by relaxation (§4.2).
    pub deleted_jumps: u64,
    /// Branches rewritten from long to short form by relaxation.
    pub shrunk_branches: u64,
    /// Modeled peak memory of the link action: the linker keeps its
    /// inputs plus the output image in memory, ~2x inputs (§5.2 cites
    /// "~2X size of inputs").
    pub modeled_peak_memory: u64,
}

/// [`LinkStats::modeled_peak_memory`] of a link that read `input_bytes`.
pub(crate) fn modeled_peak_memory(input_bytes: u64) -> u64 {
    2 * input_bytes
}

/// The output of [`crate::link`].
#[derive(Clone, Debug)]
pub struct LinkedBinary {
    /// Output name.
    pub name: String,
    /// Base virtual address of the image.
    pub base: u64,
    /// The loaded image (text + rodata), starting at `base`.
    pub image: Vec<u8>,
    /// First address of text.
    pub text_start: u64,
    /// One past the last text byte.
    pub text_end: u64,
    /// Placement of every output section.
    pub sections: Vec<PlacedSection>,
    /// Global symbol addresses, keyed by the input symbols' own names.
    pub symbols: HashMap<Arc<str>, u64>,
    /// Merged basic block address map.
    pub bb_addr_map: BbAddrMap,
    /// File-size accounting by kind (Figure 6).
    pub size_breakdown: SizeBreakdown,
    /// Final per-block layout for simulation.
    pub layout: FinalLayout,
    /// Every text section's final placement, in text order.
    pub placements: Vec<SymbolPlacement>,
    /// Link statistics.
    pub stats: LinkStats,
}

impl LinkedBinary {
    /// Reads `len` image bytes at virtual address `addr`.
    ///
    /// Returns `None` if the range is outside the image.
    pub fn read(&self, addr: u64, len: usize) -> Option<&[u8]> {
        let start = addr.checked_sub(self.base)? as usize;
        let end = start.checked_add(len)?;
        self.image.get(start..end)
    }

    /// This binary as the same link of objects built without the map
    /// (`BbSectionsMode::Off`) would be, named `name`. The map is not
    /// loaded, so image, symbols, layout and placements are this
    /// binary's; its `.llvm_bb_addr_map` sections, the merged map and
    /// their bytes leave the accounting.
    pub fn without_bb_addr_map(&self, name: &str) -> LinkedBinary {
        let is_map = |s: &&PlacedSection| s.kind == SectionKind::BbAddrMap;
        let map_bytes: u64 = self.sections.iter().filter(is_map).map(|s| s.size).sum();
        let input_bytes = self.stats.input_bytes.saturating_sub(map_bytes);
        LinkedBinary {
            name: name.to_string(),
            image: self.image.clone(),
            sections: self
                .sections
                .iter()
                .filter(|s| !is_map(s))
                .cloned()
                .collect(),
            symbols: self.symbols.clone(),
            bb_addr_map: BbAddrMap::default(),
            size_breakdown: SizeBreakdown {
                bb_addr_map: 0,
                ..self.size_breakdown
            },
            layout: self.layout.clone(),
            placements: self.placements.clone(),
            stats: LinkStats {
                input_bytes,
                modeled_peak_memory: modeled_peak_memory(input_bytes),
                ..self.stats
            },
            // What is left is `Copy`: the base and the text range.
            ..*self
        }
    }

    /// This binary as the same link with `--emit-relocs` would be: the
    /// input objects' relocation records ([`LinkStats::relocations`])
    /// are kept in the file, so `size_breakdown.relocs` counts them.
    /// This is the binary BOLT rewrites ("BM", §5.3); nothing else
    /// changes, since the records are not loaded.
    pub fn with_static_relocs(mut self) -> LinkedBinary {
        self.size_breakdown.relocs = self.stats.relocations as usize * RELA_ENTRY_BYTES;
        self
    }

    /// The address of a global symbol.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }

    /// Renders a classic linker map report (`ld -Map` style): every
    /// output section with its address, size and kind, followed by the
    /// link statistics.
    pub fn map_report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "Link map for {} (base {:#x})", self.name, self.base);
        let _ = writeln!(out, "{:<18} {:>10} {:>8}  kind", "address", "size", "align");
        let mut sections: Vec<&PlacedSection> = self.sections.iter().collect();
        sections.sort_by_key(|s| (s.kind != SectionKind::Text, s.addr));
        for s in sections {
            let _ = writeln!(
                out,
                "{:#018x} {:>10} {:>8}  {:?}  {}",
                s.addr, s.size, "", s.kind, s.name
            );
        }
        let _ = writeln!(
            out,
            "text {} bytes ({} padding), {} jumps deleted, {} branches shrunk, inputs {} bytes",
            self.stats.text_bytes,
            self.stats.padding_bytes,
            self.stats.deleted_jumps,
            self.stats.shrunk_branches,
            self.stats.input_bytes
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_bounds_checked() {
        let bin = LinkedBinary {
            name: "t".into(),
            base: 0x1000,
            image: vec![1, 2, 3, 4],
            text_start: 0x1000,
            text_end: 0x1004,
            sections: Vec::new(),
            symbols: HashMap::new(),
            bb_addr_map: BbAddrMap::default(),
            size_breakdown: SizeBreakdown::default(),
            layout: FinalLayout::default(),
            placements: Vec::new(),
            stats: LinkStats::default(),
        };
        assert_eq!(bin.read(0x1001, 2), Some(&[2, 3][..]));
        assert_eq!(bin.read(0x1003, 2), None);
        assert_eq!(bin.read(0x0fff, 1), None);
    }
}
