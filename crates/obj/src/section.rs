//! Sections.

use std::sync::Arc;

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
    /// Read-only data.
    RoData,
}

impl SectionKind {
    /// Whether sections of this kind occupy memory at run time.
    pub fn is_loaded(self) -> bool {
        matches!(self, SectionKind::Text | SectionKind::RoData)
    }
}

/// A named, contiguous range of bytes plus its relocations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Section {
    /// Section name, e.g. `.text.foo.cold`.
    pub name: Arc<str>,
    /// Content kind.
    pub kind: SectionKind,
    /// The global symbol this section defines at its start: the
    /// function or basic-block cluster it holds, which relocations and
    /// the symbol ordering file name. Shared with the IR function or
    /// cluster it names.
    pub symbol: Option<Arc<str>>,
    /// Raw contents (pre-relocation).
    pub bytes: Vec<u8>,
    /// Relocations to apply against these bytes.
    pub relocs: Vec<crate::reloc::Reloc>,
    /// Required alignment in bytes (power of two).
    pub align: u32,
    /// Whether every control transfer in the section carries a
    /// relocation, making the section safe for linker relaxation
    /// (fall-through deletion and branch shrinking, §4.2).
    pub relaxable: bool,
}

impl Section {
    /// Creates a section with default (16-byte for text, 1 otherwise)
    /// alignment, no symbol and no relocations.
    pub fn new(name: impl Into<Arc<str>>, kind: SectionKind, bytes: Vec<u8>) -> Self {
        let align = if kind == SectionKind::Text { 16 } else { 1 };
        Section {
            name: name.into(),
            kind,
            symbol: None,
            bytes,
            relocs: Vec::new(),
            align,
            relaxable: false,
        }
    }

    /// Size of the raw contents in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// In-file cost of the section's relocation records
    /// ([`crate::RELA_ENTRY_BYTES`] each).
    pub fn reloc_bytes(&self) -> usize {
        self.relocs.len() * crate::RELA_ENTRY_BYTES
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
        assert!(!SectionKind::EhFrame.is_loaded());
    }
}
