//! Program intermediate representation for the Propeller reproduction.
//!
//! This crate models the part of LLVM IR / Machine IR that a post-link
//! layout optimizer actually cares about: a [`Program`] is a set of
//! [`Module`]s (translation units), each containing [`Function`]s made of
//! [`BasicBlock`]s. Blocks carry synthetic [`Inst`]ructions and a
//! [`Terminator`] describing control flow, along with execution
//! frequencies used to model profile-guided decisions.
//!
//! The IR is deliberately *structural*: Propeller never looks at the
//! semantics of instructions, only at code sizes, branch shapes, call
//! sites and frequencies. See `DESIGN.md` at the repository root for the
//! substitution rationale.
//!
//! # Example
//!
//! ```
//! use propeller_ir::{FunctionBuilder, Inst, ProgramBuilder, Terminator};
//!
//! let mut pb = ProgramBuilder::new();
//! let module = pb.add_module("main.cc");
//! let mut f = FunctionBuilder::new("main");
//! f.add_block(vec![Inst::Alu; 4], Terminator::Ret);
//! pb.add_function(module, f);
//! let program = pb.finish().expect("valid program");
//! assert_eq!(program.num_functions(), 1);
//! ```

mod block;
mod builder;
mod error;
mod freq;
mod function;
mod ids;
mod inst;
mod module;
pub mod pretty;
mod program;
mod stats;

pub use block::BasicBlock;
pub use builder::{FunctionBuilder, ProgramBuilder};
pub use error::IrError;
pub use freq::propagate_frequencies;
pub use function::Function;
pub use ids::{BlockId, FunctionId, ModuleId};
pub use inst::{Inst, Terminator};
pub use module::Module;
pub use program::Program;
pub use stats::ProgramStats;
