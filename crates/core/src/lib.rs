//! # Propeller: a profile guided, relinking optimizer
//!
//! A full reproduction of the ASPLOS'23 Propeller system: post-link
//! code layout optimization *without disassembly*, structured as four
//! phases over a (simulated) distributed build system:
//!
//! 1. **Compile and cache** — modules become optimized IR, cached by
//!    content hash ([`Propeller::phase1_compile`]);
//! 2. **Build with metadata** — backends emit objects with basic block
//!    address maps; the linker produces the `PM` metadata binary
//!    ([`Propeller::phase2_build_metadata`]);
//! 3. **Profile + whole-program analysis** — the workload runs under
//!    the hardware simulator collecting LBR samples; WPA maps them to
//!    blocks and computes cluster directives plus a global symbol
//!    order ([`Propeller::phase3_profile_and_analyze`]);
//! 4. **Relink** — only hot modules are re-code-generated with basic
//!    block sections; cold objects come straight from the cache; the
//!    final relink orders sections and relaxes branches
//!    ([`Propeller::phase4_relink`]).
//!
//! # Quickstart
//!
//! ```
//! use propeller::{Propeller, PropellerOptions};
//! use propeller_ir::{FunctionBuilder, Inst, ProgramBuilder, Terminator};
//!
//! # fn main() -> Result<(), propeller::PipelineError> {
//! let mut pb = ProgramBuilder::new();
//! let m = pb.add_module("app.cc");
//! let mut f = FunctionBuilder::new("main");
//! f.add_block(vec![Inst::Alu; 8], Terminator::Ret);
//! let main = pb.add_function(m, f);
//! let program = pb.finish().expect("valid program");
//!
//! let mut pipeline = Propeller::new(program, vec![(main, 1.0)], PropellerOptions::default());
//! let report = pipeline.run_all()?;
//! assert!(report.optimized_binary_name.contains("propeller"));
//! # Ok(())
//! # }
//! ```

mod error;
mod fingerprint;
mod pipeline;
mod report;

pub use error::PipelineError;
pub use fingerprint::module_fingerprint;
pub use pipeline::{BuildCaches, Propeller, PropellerOptions};
pub use report::{EvalReport, PhaseTimes, PropellerReport};

// Re-export the pieces a downstream user needs to drive the pipeline.
pub use propeller_buildsys::MachineConfig;
pub use propeller_faults::{
    splitmix64, DegradationLedger, FaultInjector, FaultKind, FaultPlan, FaultPlanParseError,
    FaultSpec, LayoutMode, RetryPolicy,
};
pub use propeller_linker::LinkedBinary;
pub use propeller_profile::SamplingConfig;
pub use propeller_sim::{CounterSet, UarchConfig, Workload};
pub use propeller_wpa::{GlobalOrder, IntraOrder, WpaOptions};
