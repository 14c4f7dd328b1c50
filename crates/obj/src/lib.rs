//! An ELF-like relocatable object file model.
//!
//! The linker abstraction Propeller builds on is the *section*: "a
//! contiguous range of bytes containing either code, data, debug info,
//! relocations, or metadata that the linker operates on as a single
//! unit" (§4). This crate provides exactly that: [`ObjectFile`]s hold
//! [`Section`]s, [`Symbol`]s and [`Reloc`]s, can be serialized to and
//! from bytes (for content-addressed caching by the build system), and
//! report per-kind size breakdowns (for the paper's Figure 6).
//!
//! The special `.llvm_bb_addr_map` metadata section (§3.2) has a typed
//! encoder/decoder in [`bb_addr_map`]; everything else is opaque bytes
//! produced by the codegen crate.
//!
//! # Example
//!
//! ```
//! use propeller_obj::{ObjectFile, Section, SectionKind, Symbol};
//!
//! let mut obj = ObjectFile::new("s_1.o");
//! let text = obj.add_section(Section::new(".text.foo", SectionKind::Text, vec![0x90; 16]));
//! obj.add_symbol(Symbol::global_func("foo", text, 0, 16));
//! let bytes = obj.encode();
//! let round = ObjectFile::decode(&bytes).expect("self-describing format");
//! assert_eq!(round.sections().len(), 1);
//! ```

pub mod bb_addr_map;
mod error;
mod hash;
mod object;
mod reloc;
mod section;
mod symbol;

pub use bb_addr_map::{BbAddrMap, BbEntry, BbFlags, FuncAddrMap};
pub use error::ObjError;
pub use hash::{ContentHash, ContentHasher};
pub use object::{ObjectFile, SizeBreakdown};
pub use reloc::{Reloc, RelocKind};
pub use section::{BlockSpan, Section, SectionId, SectionKind};
pub use symbol::{Symbol, SymbolKind};
