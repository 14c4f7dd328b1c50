//! Whole-Program Analysis — the standalone Phase 3 tool (§3.3).
//!
//! Consumes a hardware (LBR) profile collected from the Phase 2
//! metadata binary plus that binary's `.llvm_bb_addr_map`, and produces
//! the two layout directive files of Figure 1:
//!
//! * `cc_prof` — per-function basic block **cluster** directives (the
//!   [`propeller_codegen::ClusterMap`]) consumed by the distributed
//!   Phase 4 codegen actions;
//! * `ld_prof` — the global **symbol ordering**
//!   ([`propeller_linker::SymbolOrdering`]) consumed by the final
//!   relink.
//!
//! The pipeline inside is exactly the paper's: map sample addresses to
//! machine basic blocks via the address map ([`AddressMapper`]) — *no
//! disassembly* — build a dynamic control flow graph ([`Dcfg`])
//! incrementally from the samples, run the Ext-TSP block reordering
//! approximation of Newell & Pupyrev ([`exttsp`]) per hot function (and
//! optionally across functions, §4.7), split cold blocks into `.cold`
//! sections (§4.6), and emit the directives.

pub mod exttsp;
mod cc_prof;
mod dcfg;
mod layout;
mod mapper;
mod options;
mod prefetch;

pub use cc_prof::cluster_map_to_text;
pub use dcfg::{Dcfg, DcfgFunction, EdgeFunding, EdgeKind, FundingRecord};
pub use layout::{
    run_wpa, run_wpa_agg_traced, ClusterProvenance, FunctionProvenance,
    LayoutProvenance, RichFunctionRecord, RichProvenance, WpaOutput,
    WpaStats,
};
pub use mapper::{AddressMapper, MappedLoc};
pub use prefetch::{apply_prefetches, prefetch_directives, PrefetchMap};
pub use options::{ColdSource, GlobalOrder, IntraOrder, WpaOptions};
