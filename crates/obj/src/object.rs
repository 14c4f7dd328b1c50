//! Object files: the sections one codegen action emits.

use crate::section::{Section, SectionKind};

/// A relocatable object file.
///
/// Produced by the codegen backend for each module, cached by the build
/// system under the module's fingerprint, and consumed by the linker.
/// It is nothing but its sections: every global symbol is a text
/// section's [`Section::symbol`], defined at that section's start.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ObjectFile {
    /// Originating file name, e.g. `"s_1.o"`.
    pub name: String,
    sections: Vec<Section>,
}

/// Per-kind byte totals for an object or binary (Figure 6 categories).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct SizeBreakdown {
    /// Executable code bytes.
    pub text: usize,
    /// Call-frame information bytes.
    pub eh_frame: usize,
    /// Basic-block address-map metadata bytes.
    pub bb_addr_map: usize,
    /// Relocation record bytes (24 bytes per record).
    pub relocs: usize,
    /// Everything else (read-only data).
    pub other: usize,
}

impl SizeBreakdown {
    /// Sum of all categories.
    pub fn total(&self) -> usize {
        self.text + self.eh_frame + self.bb_addr_map + self.relocs + self.other
    }
}

impl ObjectFile {
    /// Creates an empty object file.
    pub fn new(name: impl Into<String>) -> Self {
        ObjectFile {
            name: name.into(),
            sections: Vec::new(),
        }
    }

    /// Appends a section.
    pub fn add_section(&mut self, section: Section) {
        self.sections.push(section);
    }

    /// All sections in file order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Mutable access to sections.
    pub fn sections_mut(&mut self) -> &mut [Section] {
        &mut self.sections
    }

    /// Computes the Figure 6 size breakdown for this object.
    pub fn size_breakdown(&self) -> SizeBreakdown {
        let mut b = SizeBreakdown::default();
        for s in &self.sections {
            match s.kind {
                SectionKind::Text => b.text += s.size(),
                SectionKind::EhFrame => b.eh_frame += s.size(),
                SectionKind::BbAddrMap => b.bb_addr_map += s.size(),
                SectionKind::RoData => b.other += s.size(),
            }
            b.relocs += s.reloc_bytes();
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::ContentHash;
    use crate::reloc::{Reloc, RelocKind};

    fn sample() -> ObjectFile {
        let mut obj = ObjectFile::new("s_1.o");
        let mut text = Section::new(".text.foo", SectionKind::Text, vec![1, 2, 3, 4]);
        text.symbol = Some("foo".into());
        text.relocs.push(Reloc::new(0, RelocKind::CallPc32, "bar", -4));
        obj.add_section(text);
        obj.add_section(Section::new(
            ".llvm_bb_addr_map",
            SectionKind::BbAddrMap,
            vec![9; 10],
        ));
        obj
    }

    #[test]
    fn size_breakdown_classifies_kinds() {
        let b = sample().size_breakdown();
        assert_eq!(b.text, 4);
        assert_eq!(b.bb_addr_map, 10);
        assert_eq!(b.relocs, 24); // one reloc record
        assert_eq!(b.total(), 4 + 10 + 24);
    }

    #[test]
    fn content_hash_changes_with_content() {
        let hash = |obj: &ObjectFile| {
            ContentHash::of_parts(obj.sections().iter().map(|s| s.bytes.as_slice()))
        };
        let a = sample();
        let mut b = sample();
        b.sections_mut()[0].bytes[0] = 0xEE;
        assert_ne!(hash(&a), hash(&b));
        assert_eq!(hash(&a), hash(&sample()));
    }
}
