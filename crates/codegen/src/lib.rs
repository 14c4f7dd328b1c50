//! Code generation: lowering IR modules to object files.
//!
//! This crate plays the role of the LLVM backend in the Propeller
//! workflow:
//!
//! * it encodes functions into a synthetic ISA ([`isa`]) with short and
//!   long branch forms, so the linker's relaxation pass (§4.2 of the
//!   paper) has real work to do;
//! * it implements **basic block sections** (§4): one or more basic
//!   blocks of a function placed in a unique text section, with explicit
//!   fall-through jumps and static relocations for every
//!   section-crossing branch;
//! * it emits the `.llvm_bb_addr_map` metadata (§3.2), per-fragment call
//!   frame information (§4.4), optional DWARF range records (§4.3), and
//!   applies the landing-pad nop rule (§4.5);
//! * it returns a [`DebugLayout`] side table giving every block's
//!   position, which the execution simulator uses the way a real
//!   profiler uses debug info.
//!
//! The unit of codegen is the module ([`codegen_module`]), matching the
//! distributed build system's action granularity.

mod emit;
mod error;
pub mod isa;
mod layout;
mod module;
mod options;

pub use error::CodegenError;
pub use layout::{BlockPlacement, Cluster, ClusterName, DebugLayout, FragmentLayout, FunctionClusters, FunctionLayout};
pub use module::{codegen_module, codegen_module_traced, CodegenResult, ModuleStats};
pub use options::{BbSectionsMode, ClusterMap, CodegenOptions};
