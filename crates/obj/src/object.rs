//! Object files: sections + symbols, with a byte form for digests.

use crate::error::ObjError;
use crate::section::{Section, SectionId, SectionKind};
use crate::symbol::Symbol;
use bytes::{Buf, BufMut};

/// A relocatable object file.
///
/// Produced by the codegen backend for each module, cached by the build
/// system under the module's fingerprint, and consumed by the linker.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ObjectFile {
    /// Originating file name, e.g. `"s_1.o"`.
    pub name: String,
    sections: Vec<Section>,
    symbols: Vec<Symbol>,
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
    /// Relocation record bytes (24 bytes per record plus `.rela`
    /// section payloads).
    pub relocs: usize,
    /// Everything else (read-only data, debug ranges, ...).
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
            symbols: Vec::new(),
        }
    }

    /// Appends a section, returning its id.
    pub fn add_section(&mut self, section: Section) -> SectionId {
        let id = SectionId(self.sections.len() as u32);
        self.sections.push(section);
        id
    }

    /// Appends a symbol.
    pub fn add_symbol(&mut self, symbol: Symbol) {
        self.symbols.push(symbol);
    }

    /// All sections in file order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Mutable access to sections (used by the linker's relaxation pass
    /// operating on owned copies).
    pub fn sections_mut(&mut self) -> &mut [Section] {
        &mut self.sections
    }

    /// All symbols in file order.
    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// Looks up a section by id.
    pub fn section(&self, id: SectionId) -> Option<&Section> {
        self.sections.get(id.index())
    }

    /// Looks up a global symbol by name.
    pub fn global_symbol(&self, name: &str) -> Option<&Symbol> {
        self.symbols.iter().find(|s| s.global && s.name == name)
    }

    /// Computes the Figure 6 size breakdown for this object.
    pub fn size_breakdown(&self) -> SizeBreakdown {
        let mut b = SizeBreakdown::default();
        for s in &self.sections {
            match s.kind {
                SectionKind::Text => b.text += s.size(),
                SectionKind::EhFrame => b.eh_frame += s.size(),
                SectionKind::BbAddrMap => b.bb_addr_map += s.size(),
                SectionKind::Rela => b.relocs += s.size(),
                _ => b.other += s.size(),
            }
            b.relocs += s.reloc_bytes();
        }
        b
    }

    /// Serializes the object to its byte form: what the codegen golden
    /// digest pins. Nothing reads it back.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256 + self.sections.iter().map(Section::size).sum::<usize>());
        out.put_u32_le(0x504f_424a); // "POBJ"
        put_str(&mut out, &self.name);
        out.put_u32_le(self.sections.len() as u32);
        for s in &self.sections {
            put_str(&mut out, &s.name);
            out.put_u8(s.kind.tag());
            out.put_u32_le(s.align);
            out.put_u32_le(s.bytes.len() as u32);
            out.put_slice(&s.bytes);
            out.put_u32_le(s.relocs.len() as u32);
            for r in &s.relocs {
                out.put_u32_le(r.offset);
                out.put_u8(r.kind.tag());
                put_str(&mut out, &r.symbol);
                out.put_i64_le(r.addend);
            }
            out.put_u32_le(s.block_map.len() as u32);
            for span in &s.block_map {
                out.put_u32_le(span.offset);
                out.put_u32_le(span.size);
            }
            out.put_u8(u8::from(s.relaxable));
        }
        out.put_u32_le(self.symbols.len() as u32);
        for sym in &self.symbols {
            put_str(&mut out, &sym.name);
            out.put_u32_le(sym.section.0);
            out.put_u32_le(sym.offset);
            out.put_u32_le(sym.size);
            out.put_u8(u8::from(sym.global));
            out.put_u8(sym.kind.tag());
        }
        out
    }
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    out.put_u32_le(s.len() as u32);
    out.put_slice(s.as_bytes());
}

pub(crate) fn get_u8(buf: &mut &[u8], context: &'static str) -> Result<u8, ObjError> {
    if buf.remaining() < 1 {
        return Err(ObjError::Truncated { context });
    }
    Ok(buf.get_u8())
}

fn get_u32(buf: &mut &[u8], context: &'static str) -> Result<u32, ObjError> {
    if buf.remaining() < 4 {
        return Err(ObjError::Truncated { context });
    }
    Ok(buf.get_u32_le())
}

pub(crate) fn get_str(buf: &mut &[u8], context: &'static str) -> Result<String, ObjError> {
    let len = get_u32(buf, context)? as usize;
    if buf.remaining() < len {
        return Err(ObjError::Truncated { context });
    }
    let mut data = vec![0u8; len];
    buf.copy_to_slice(&mut data);
    String::from_utf8(data).map_err(|_| ObjError::BadString)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::ContentHash;
    use crate::reloc::{Reloc, RelocKind};

    fn sample() -> ObjectFile {
        let mut obj = ObjectFile::new("s_1.o");
        let mut text = Section::new(".text.foo", SectionKind::Text, vec![1, 2, 3, 4]);
        text.relocs.push(Reloc::new(0, RelocKind::CallPc32, "bar", -4));
        let text = obj.add_section(text);
        let meta = obj.add_section(Section::new(
            ".llvm_bb_addr_map",
            SectionKind::BbAddrMap,
            vec![9; 10],
        ));
        obj.add_symbol(Symbol::global_func("foo", text, 0, 4));
        obj.add_symbol(Symbol::local_label("foo.meta", meta, 0));
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
        let hash = |obj: &ObjectFile| ContentHash::of_bytes(&obj.encode());
        let a = sample();
        let mut b = sample();
        b.sections_mut()[0].bytes[0] = 0xEE;
        assert_ne!(hash(&a), hash(&b));
        assert_eq!(hash(&a), hash(&sample()));
    }

    #[test]
    fn global_symbol_lookup() {
        let obj = sample();
        assert!(obj.global_symbol("foo").is_some());
        assert!(obj.global_symbol("foo.meta").is_none()); // local
        assert!(obj.global_symbol("nope").is_none());
    }
}
