//! A linker for the Propeller reproduction, modeled on LLD.
//!
//! The linker is where Propeller's *global* layout decision is applied:
//! text sections (including basic block cluster sections) are placed in
//! the order given by a symbol ordering file (§3.4), symbols are
//! resolved, relocations are applied, and — when enabled — the bespoke
//! relaxation pass of §4.2 runs: fall-through jumps that became
//! redundant under the final layout are deleted and long branches whose
//! displacement now fits one byte are shrunk.
//!
//! Besides the byte image, [`link`] produces:
//!
//! * a merged `.llvm_bb_addr_map` ([`LinkedBinary::bb_addr_map`]), which
//!   is what the whole-program analyzer reads;
//! * a [`FinalLayout`] giving every basic block's virtual address after
//!   relaxation, which the execution simulator uses as its debug info;
//! * a Figure 6-style [`propeller_obj::SizeBreakdown`] of the output.

mod binary;
mod error;
mod link;
mod ordering;
mod relax;

pub use binary::{
    FinalBlock, FinalFunctionLayout, FinalLayout, LinkStats, LinkedBinary, PlacedSection,
    SymbolPlacement,
};
pub use error::LinkError;
pub use link::{link, link_refs_traced, LinkInput, LinkInputRef, LinkOptions};
pub use ordering::SymbolOrdering;
