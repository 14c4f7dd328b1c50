//! Relocations.

use std::sync::Arc;

/// Bytes one relocation record takes in a file: the ELF64 RELA record
/// (offset, info, addend).
pub const RELA_ENTRY_BYTES: usize = 24;

/// The relocation kinds codegen emits.
///
/// Basic block sections force branch targets to be resolved by the
/// linker (§4.2), so conditional and unconditional branches across
/// section boundaries carry [`RelocKind::BranchPc32`] relocations. The
/// linker's relaxation pass may later rewrite a relocated long branch to
/// a short one, or delete it entirely when it becomes a fall-through.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum RelocKind {
    /// 32-bit pc-relative call (or prefetch) displacement.
    CallPc32,
    /// 32-bit pc-relative branch displacement (long branch form).
    BranchPc32,
}

impl RelocKind {
    /// Width in bytes of the relocated field: both kinds patch a 32-bit
    /// displacement.
    pub fn width(self) -> usize {
        4
    }
}

/// A relocation record: patch `width` bytes at `offset` with the address
/// of `symbol + addend`, encoded per `kind`.
///
/// Targets are symbolic (by name) because Propeller's whole point is
/// that section ordering is decided at link time; nothing may assume
/// final addresses earlier.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Reloc {
    /// Offset of the field within the containing section.
    pub offset: u32,
    /// Encoding of the field.
    pub kind: RelocKind,
    /// Name of the target symbol, shared with the symbol's definition.
    pub symbol: Arc<str>,
    /// Byte offset added to the symbol address.
    pub addend: i64,
}

impl Reloc {
    /// Creates a relocation.
    pub fn new(offset: u32, kind: RelocKind, symbol: impl Into<Arc<str>>, addend: i64) -> Self {
        Reloc {
            offset,
            kind,
            symbol: symbol.into(),
            addend,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(RelocKind::CallPc32.width(), 4);
        assert_eq!(RelocKind::BranchPc32.width(), 4);
    }

    #[test]
    fn constructor_stores_fields() {
        let r = Reloc::new(12, RelocKind::CallPc32, "callee", -4);
        assert_eq!(r.offset, 12);
        assert_eq!(&*r.symbol, "callee");
        assert_eq!(r.addend, -4);
    }
}
