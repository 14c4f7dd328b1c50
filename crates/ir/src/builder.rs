//! Builders for functions and programs.

use crate::block::BasicBlock;
use crate::error::IrError;
use crate::function::Function;
use crate::ids::{BlockId, FunctionId, ModuleId};
use crate::inst::{Inst, Terminator};
use crate::module::Module;
use crate::program::Program;
use std::collections::HashMap;

/// Incrementally constructs a [`Function`].
///
/// Blocks receive dense ids in insertion order; the first block added is
/// the entry.
///
/// # Example
///
/// ```
/// use propeller_ir::{FunctionBuilder, Inst, Terminator};
///
/// let mut fb = FunctionBuilder::new("f");
/// let b = fb.add_block(vec![Inst::Alu], Terminator::Ret);
/// fb.set_block_freq(b, 10);
/// ```
#[derive(Clone, Debug)]
pub struct FunctionBuilder {
    name: String,
    blocks: Vec<BasicBlock>,
}

impl FunctionBuilder {
    /// Starts building a function with the given symbol name.
    pub fn new(name: impl Into<String>) -> Self {
        FunctionBuilder {
            name: name.into(),
            blocks: Vec::new(),
        }
    }

    /// Appends a block, returning its id.
    pub fn add_block(&mut self, insts: Vec<Inst>, term: Terminator) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BasicBlock::new(id, insts, term));
        id
    }

    /// Sets a block's PGO frequency.
    ///
    /// # Panics
    ///
    /// Panics if `block` was not created by this builder.
    pub fn set_block_freq(&mut self, block: BlockId, freq: u64) {
        self.blocks[block.index()].freq = freq;
    }

    /// Marks a block as an exception landing pad.
    ///
    /// # Panics
    ///
    /// Panics if `block` was not created by this builder.
    pub fn set_landing_pad(&mut self, block: BlockId) {
        self.blocks[block.index()].is_landing_pad = true;
    }

    /// Number of blocks added so far.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Decomposes the builder for [`crate::Program::push_function`].
    pub(crate) fn into_parts(self) -> (String, Vec<BasicBlock>) {
        (self.name, self.blocks)
    }
}

/// Incrementally constructs a [`Program`].
#[derive(Clone, Debug, Default)]
pub struct ProgramBuilder {
    modules: Vec<Module>,
    next_function: u32,
    index: HashMap<FunctionId, (usize, usize)>,
}

impl ProgramBuilder {
    /// Starts an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an empty module, returning its id.
    pub fn add_module(&mut self, name: impl Into<String>) -> ModuleId {
        let id = ModuleId(self.modules.len() as u32);
        self.modules.push(Module::new(id, name));
        id
    }

    /// Finalizes `builder` into `module`, returning the new function's id.
    ///
    /// # Panics
    ///
    /// Panics if `module` does not exist.
    pub fn add_function(&mut self, module: ModuleId, builder: FunctionBuilder) -> FunctionId {
        let id = FunctionId(self.next_function);
        self.next_function += 1;
        let m = &mut self.modules[module.index()];
        let f = Function {
            id,
            name: builder.name,
            module,
            blocks: builder.blocks,
        };
        self.index.insert(id, (module.index(), m.functions.len()));
        m.functions.push(f);
        id
    }

    /// Validates and returns the finished program.
    ///
    /// # Errors
    ///
    /// Returns an [`IrError`] if any function or cross-function invariant
    /// is violated.
    pub fn finish(self) -> Result<Program, IrError> {
        let p = Program {
            modules: self.modules,
            index: self.index,
        };
        p.validate()?;
        Ok(p)
    }

    /// Returns the finished program without validating.
    ///
    /// Intended for generators that guarantee well-formedness by
    /// construction and build very large programs where re-validation is
    /// measurable.
    pub fn finish_unchecked(self) -> Program {
        Program {
            modules: self.modules,
            index: self.index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_function_ids_across_modules() {
        let mut pb = ProgramBuilder::new();
        let m0 = pb.add_module("a.cc");
        let m1 = pb.add_module("b.cc");
        let mut f = FunctionBuilder::new("one");
        f.add_block(Vec::new(), Terminator::Ret);
        let id0 = pb.add_function(m1, f);
        let mut g = FunctionBuilder::new("two");
        g.add_block(Vec::new(), Terminator::Ret);
        let id1 = pb.add_function(m0, g);
        assert_eq!(id0, FunctionId(0));
        assert_eq!(id1, FunctionId(1));
        let p = pb.finish().unwrap();
        assert_eq!(p.function(id0).unwrap().module, m1);
        assert_eq!(p.function(id1).unwrap().module, m0);
    }

    #[test]
    fn finish_rejects_duplicate_names() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("a.cc");
        for _ in 0..2 {
            let mut f = FunctionBuilder::new("same");
            f.add_block(Vec::new(), Terminator::Ret);
            pb.add_function(m, f);
        }
        assert!(matches!(pb.finish(), Err(IrError::DuplicateName(_))));
    }

    #[test]
    fn finish_rejects_unknown_callee() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("a.cc");
        let mut f = FunctionBuilder::new("f");
        f.add_block(vec![Inst::Call(FunctionId(42))], Terminator::Ret);
        pb.add_function(m, f);
        assert!(matches!(pb.finish(), Err(IrError::UnknownCallee { .. })));
    }
}
