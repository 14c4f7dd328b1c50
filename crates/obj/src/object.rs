//! Object files: the sections one codegen action emits.

use crate::reloc::Reloc;
use crate::section::{Section, SectionKind};
use crate::span::Table;

/// A relocatable object file.
///
/// Produced by the codegen backend for each module, cached by the build
/// system under the module's fingerprint, and consumed by the linker.
/// It is nothing but its sections: every global symbol is a text
/// section's [`Section::symbol`], defined at that section's start.
///
/// The sections' contents are one byte [`Table`] and one relocation
/// [`Table`], which the section headers tile in order: an object of any
/// size is three allocations plus its names. Content is appended through
/// [`ObjectFile::content_mut`], and [`ObjectFile::push_section`] closes
/// what was appended since the last section into the next one.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ObjectFile {
    /// Originating file name, e.g. `"s_1.o"`.
    pub name: String,
    sections: Vec<Section>,
    bytes: Table<u8>,
    relocs: Table<Reloc>,
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
        ObjectFile::with_capacity(name, 0, 0, 0)
    }

    /// Creates an empty object file with room for `sections` headers,
    /// `bytes` bytes and `relocs` relocations: a writer that knows its
    /// sizes up front fills it without reallocating.
    pub fn with_capacity(
        name: impl Into<String>,
        sections: usize,
        bytes: usize,
        relocs: usize,
    ) -> Self {
        ObjectFile {
            name: name.into(),
            sections: Vec::with_capacity(sections),
            bytes: Table::with_capacity(bytes),
            relocs: Table::with_capacity(relocs),
        }
    }

    /// The byte and relocation tables, to append the next section's
    /// content to; relocation offsets are relative to that section's
    /// start.
    pub fn content_mut(&mut self) -> (&mut Table<u8>, &mut Table<Reloc>) {
        (&mut self.bytes, &mut self.relocs)
    }

    /// Appends `section`, whose content is everything appended through
    /// [`ObjectFile::content_mut`] since the previous section; the spans
    /// `section` carries are replaced.
    pub fn push_section(&mut self, mut section: Section) {
        section.bytes = self.bytes.close();
        section.relocs = self.relocs.close();
        self.sections.push(section);
    }

    /// All sections in file order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// `section`'s raw contents.
    pub fn bytes_of(&self, section: &Section) -> &[u8] {
        &self.bytes[section.bytes]
    }

    /// `section`'s relocations.
    pub fn relocs_of(&self, section: &Section) -> &[Reloc] {
        &self.relocs[section.relocs]
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
    use crate::reloc::RelocKind;

    /// A text section of 4 bytes, the first `first`, with one
    /// relocation, then a 10-byte address map.
    fn sample_with(first: u8) -> ObjectFile {
        let mut obj = ObjectFile::with_capacity("s_1.o", 2, 14, 1);
        let (bytes, relocs) = obj.content_mut();
        bytes.extend_from_slice(&[first, 2, 3, 4]);
        relocs.push(Reloc::new(0, RelocKind::CallPc32, "bar", -4));
        let mut text = Section::new(".text.foo", SectionKind::Text);
        text.symbol = Some("foo".into());
        obj.push_section(text);
        obj.content_mut().0.extend_from_slice(&[9; 10]);
        obj.push_section(Section::new(".llvm_bb_addr_map", SectionKind::BbAddrMap));
        obj
    }

    fn sample() -> ObjectFile {
        sample_with(1)
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
    fn sections_tile_the_arrays_in_order() {
        let obj = sample();
        let [text, map] = obj.sections() else {
            panic!("two sections");
        };
        assert_eq!(obj.bytes_of(text), [1, 2, 3, 4]);
        assert_eq!(obj.relocs_of(text).len(), 1);
        assert_eq!(obj.bytes_of(map), [9; 10]);
        assert!(obj.relocs_of(map).is_empty());
        assert_eq!((text.bytes.range(), map.bytes.range()), (0..4, 4..14));
    }

    #[test]
    fn content_hash_changes_with_content() {
        let hash = |obj: &ObjectFile| {
            ContentHash::of_parts(obj.sections().iter().map(|s| obj.bytes_of(s)))
        };
        let a = sample();
        let b = sample_with(0xEE);
        assert_ne!(hash(&a), hash(&b));
        assert_eq!(hash(&a), hash(&sample()));
    }
}
