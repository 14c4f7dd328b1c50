//! Sections.

use std::fmt;
use std::sync::Arc;

/// Index of a section within one object file.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct SectionId(pub u32);

impl SectionId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sec{}", self.0)
    }
}

/// What a section contains; drives linker placement and the Figure 6
/// size breakdown.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum SectionKind {
    /// Executable code (`.text`, `.text.<fn>`, `.text.<fn>.cold`, ...).
    Text,
    /// `.llvm_bb_addr_map` profile-mapping metadata (§3.2). Not loaded
    /// at run time.
    BbAddrMap,
    /// Call-frame information (`.eh_frame`, §4.4).
    EhFrame,
    /// Static relocations retained in the output (`.rela`, needed by
    /// BOLT-style rewriters; §5.3).
    Rela,
    /// Read-only data.
    RoData,
    /// DWARF debug range records (§4.3).
    DebugRanges,
    /// Anything else.
    Other,
}

impl SectionKind {
    /// Whether sections of this kind occupy memory at run time.
    pub fn is_loaded(self) -> bool {
        matches!(self, SectionKind::Text | SectionKind::RoData)
    }

    /// Stable tag for serialization.
    pub(crate) fn tag(self) -> u8 {
        match self {
            SectionKind::Text => 0,
            SectionKind::BbAddrMap => 1,
            SectionKind::EhFrame => 2,
            SectionKind::Rela => 3,
            SectionKind::RoData => 4,
            SectionKind::DebugRanges => 5,
            SectionKind::Other => 6,
        }
    }
}

/// The span of one basic block within a text section, in file order.
///
/// Present on text sections emitted with basic block sections enabled;
/// it is what lets the linker's relaxation pass move bytes while keeping
/// block-granular metadata (incoming relocation addends, the simulator's
/// layout table) coherent. Real toolchains recover the same information
/// from `.llvm_bb_addr_map` plus relocations.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct BlockSpan {
    /// Byte offset of the block within the section.
    pub offset: u32,
    /// Size of the block in bytes.
    pub size: u32,
}

/// A named, contiguous range of bytes plus its relocations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Section {
    /// Section name, e.g. `.text.foo.cold`.
    pub name: Arc<str>,
    /// Content kind.
    pub kind: SectionKind,
    /// Raw contents (pre-relocation).
    pub bytes: Vec<u8>,
    /// Relocations to apply against these bytes.
    pub relocs: Vec<crate::reloc::Reloc>,
    /// Required alignment in bytes (power of two).
    pub align: u32,
    /// Block spans for text sections carrying basic block structure.
    /// Empty for opaque sections.
    pub block_map: Vec<BlockSpan>,
    /// Whether every control transfer in the section carries a
    /// relocation, making the section safe for linker relaxation
    /// (fall-through deletion and branch shrinking, §4.2).
    pub relaxable: bool,
}

impl Section {
    /// Creates a section with default (16-byte for text, 1 otherwise)
    /// alignment and no relocations.
    pub fn new(name: impl Into<Arc<str>>, kind: SectionKind, bytes: Vec<u8>) -> Self {
        let align = if kind == SectionKind::Text { 16 } else { 1 };
        Section {
            name: name.into(),
            kind,
            bytes,
            relocs: Vec::new(),
            align,
            block_map: Vec::new(),
            relaxable: false,
        }
    }

    /// Size of the raw contents in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// In-file cost of the section's relocation records, using the
    /// ELF64 RELA record size (24 bytes per record).
    pub fn reloc_bytes(&self) -> usize {
        self.relocs.len() * 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_sections_align_16() {
        let s = Section::new(".text.f", SectionKind::Text, vec![0; 5]);
        assert_eq!(s.align, 16);
        assert_eq!(s.size(), 5);
    }

    #[test]
    fn loaded_kinds() {
        assert!(SectionKind::Text.is_loaded());
        assert!(SectionKind::RoData.is_loaded());
        assert!(!SectionKind::BbAddrMap.is_loaded());
        assert!(!SectionKind::Rela.is_loaded());
        assert!(!SectionKind::EhFrame.is_loaded());
    }
}
