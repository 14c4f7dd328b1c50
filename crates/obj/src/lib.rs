//! The relocatable object model codegen emits and the linker reads.
//!
//! The linker abstraction Propeller builds on is the *section*: "a
//! contiguous range of bytes containing either code, data, debug info,
//! relocations, or metadata that the linker operates on as a single
//! unit" (§4). An [`ObjectFile`] is exactly a list of [`Section`]s with
//! their [`Reloc`]s, and reports per-kind size breakdowns (for the
//! paper's Figure 6). There is no separate symbol table: each text
//! section names the one global symbol it defines, at its start — the
//! function or basic-block cluster the linker orders by that name. The
//! build system caches objects by module fingerprint; they never leave
//! the process.
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
//! use propeller_obj::{ObjectFile, Section, SectionKind};
//!
//! let mut obj = ObjectFile::new("s_1.o");
//! let mut text = Section::new(".text.foo", SectionKind::Text, vec![0x90; 16]);
//! text.symbol = Some("foo".into());
//! obj.add_section(text);
//! assert_eq!(obj.size_breakdown().text, 16);
//! assert_eq!(obj.sections()[0].symbol.as_deref(), Some("foo"));
//! ```

pub mod bb_addr_map;
mod error;
mod hash;
mod object;
mod reloc;
mod section;

pub use bb_addr_map::{BbAddrMap, BbAddrMapWriter, BbEntry, BbFlags, FuncRecord, RangeRecord};
pub use error::ObjError;
pub use hash::{ContentHash, ContentHasher};
pub use object::{ObjectFile, SizeBreakdown};
pub use reloc::{Reloc, RelocKind, RELA_ENTRY_BYTES};
pub use section::{Section, SectionKind};
