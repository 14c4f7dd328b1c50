//! Relocations.

use std::sync::Arc;

/// The relocation kinds the synthetic ISA needs.
///
/// Basic block sections force branch targets to be resolved by the
/// linker (§4.2), so conditional and unconditional branches across
/// section boundaries carry [`RelocKind::BranchPc32`] relocations. The
/// linker's relaxation pass may later rewrite a relocated long branch to
/// a short one, or delete it entirely when it becomes a fall-through.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum RelocKind {
    /// 32-bit pc-relative call displacement.
    CallPc32,
    /// 32-bit pc-relative branch displacement (long branch form).
    BranchPc32,
    /// 8-bit pc-relative branch displacement (short branch form; only
    /// produced when the offset is known to fit at compile time).
    BranchPc8,
    /// 64-bit absolute address (metadata references into text).
    Abs64,
}

impl RelocKind {
    /// Width in bytes of the relocated field.
    pub fn width(self) -> usize {
        match self {
            RelocKind::CallPc32 | RelocKind::BranchPc32 => 4,
            RelocKind::BranchPc8 => 1,
            RelocKind::Abs64 => 8,
        }
    }

    pub(crate) fn tag(self) -> u8 {
        match self {
            RelocKind::CallPc32 => 0,
            RelocKind::BranchPc32 => 1,
            RelocKind::BranchPc8 => 2,
            RelocKind::Abs64 => 3,
        }
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
        assert_eq!(RelocKind::BranchPc8.width(), 1);
        assert_eq!(RelocKind::Abs64.width(), 8);
    }

    #[test]
    fn constructor_stores_fields() {
        let r = Reloc::new(12, RelocKind::CallPc32, "callee", -4);
        assert_eq!(r.offset, 12);
        assert_eq!(&*r.symbol, "callee");
        assert_eq!(r.addend, -4);
    }
}
