//! Symbols.

use crate::section::SectionId;
use std::sync::Arc;

/// What a symbol names.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum SymbolKind {
    /// A function entry (or a basic-block-cluster entry, which keeps
    /// function-symbol semantics so ordering files can name it).
    Func,
    /// A data object.
    Object,
    /// An internal label (e.g. a basic block start used by metadata).
    Label,
}

impl SymbolKind {
    pub(crate) fn tag(self) -> u8 {
        match self {
            SymbolKind::Func => 0,
            SymbolKind::Object => 1,
            SymbolKind::Label => 2,
        }
    }
}

/// A named location within a section.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Symbol {
    /// Symbol name, unique among globals across the link. Shared with
    /// the IR function or cluster it names.
    pub name: Arc<str>,
    /// Defining section.
    pub section: SectionId,
    /// Offset within the section.
    pub offset: u32,
    /// Size in bytes of the named entity.
    pub size: u32,
    /// Whether the symbol participates in cross-object resolution.
    pub global: bool,
    /// Kind of entity named.
    pub kind: SymbolKind,
}

impl Symbol {
    /// Convenience constructor for a global function symbol.
    pub fn global_func(name: impl Into<Arc<str>>, section: SectionId, offset: u32, size: u32) -> Self {
        Symbol {
            name: name.into(),
            section,
            offset,
            size,
            global: true,
            kind: SymbolKind::Func,
        }
    }

    /// Convenience constructor for a local label.
    pub fn local_label(name: impl Into<Arc<str>>, section: SectionId, offset: u32) -> Self {
        Symbol {
            name: name.into(),
            section,
            offset,
            size: 0,
            global: false,
            kind: SymbolKind::Label,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let f = Symbol::global_func("foo", SectionId(1), 0, 32);
        assert!(f.global);
        assert_eq!(f.kind, SymbolKind::Func);
        let l = Symbol::local_label("foo.bb1", SectionId(1), 8);
        assert!(!l.global);
        assert_eq!(l.kind, SymbolKind::Label);
        assert_eq!(l.size, 0);
    }
}
