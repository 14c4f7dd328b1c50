//! An ELF-like relocatable object file model.
//!
//! The linker abstraction Propeller builds on is the *section*: "a
//! contiguous range of bytes containing either code, data, debug info,
//! relocations, or metadata that the linker operates on as a single
//! unit" (§4). This crate provides exactly that: [`ObjectFile`]s hold
//! [`Section`]s, [`Symbol`]s and [`Reloc`]s and report per-kind size
//! breakdowns (for the paper's Figure 6). [`ObjectFile::encode`] is an
//! object's byte form, the one the codegen golden digest pins; the
//! build system caches objects by module fingerprint and never reads
//! those bytes back.
//!
//! The special `.llvm_bb_addr_map` metadata section (§3.2) is the one
//! piece of output that is decoded again, by the linker: it has a typed
//! encoder/decoder in [`bb_addr_map`]. Everything else is opaque bytes
//! produced by the codegen crate.
//!
//! Names (sections, symbols, relocation targets) are `Arc<str>`: a
//! function's name is allocated once, where the function is built, and
//! every record that names it shares that allocation.
//!
//! # Example
//!
//! ```
//! use propeller_obj::{ObjectFile, Section, SectionKind, Symbol};
//!
//! let mut obj = ObjectFile::new("s_1.o");
//! let text = obj.add_section(Section::new(".text.foo", SectionKind::Text, vec![0x90; 16]));
//! obj.add_symbol(Symbol::global_func("foo", text, 0, 16));
//! assert_eq!(obj.size_breakdown().text, 16);
//! assert!(obj.global_symbol("foo").is_some());
//! ```

pub mod bb_addr_map;
mod error;
mod hash;
mod object;
mod reloc;
mod section;
mod symbol;

pub use bb_addr_map::{BbAddrMap, BbAddrMapWriter, BbEntry, BbFlags, FuncAddrMap};
pub use error::ObjError;
pub use hash::{ContentHash, ContentHasher};
pub use object::{ObjectFile, SizeBreakdown};
pub use reloc::{Reloc, RelocKind};
pub use section::{BlockSpan, Section, SectionId, SectionKind};
pub use symbol::{Symbol, SymbolKind};
