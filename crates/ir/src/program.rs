//! Whole programs.

use crate::error::IrError;
use crate::function::Function;
use crate::ids::{FunctionId, ModuleId};
use crate::module::Module;
use crate::stats::ProgramStats;
use std::collections::HashMap;

/// A whole program: a set of modules plus a function index.
///
/// Construct via [`crate::ProgramBuilder`], which guarantees the index is
/// consistent and all invariants hold.
#[derive(Clone, Debug)]
pub struct Program {
    pub(crate) modules: Vec<Module>,
    /// `(module index, function index within module)` by function id:
    /// ids are dense, so a lookup is one bounds-checked load.
    pub(crate) index: Vec<(u32, u32)>,
}

impl Program {
    /// All modules, in id order.
    pub fn modules(&self) -> &[Module] {
        &self.modules
    }

    /// Mutable access to modules. Intended for generators and
    /// transforms that adjust metadata (e.g. frequencies) in place;
    /// structural edits must keep ids dense or lookups will break.
    pub fn modules_mut(&mut self) -> &mut [Module] {
        &mut self.modules
    }

    /// Looks up a module by id.
    pub fn module(&self, id: ModuleId) -> Option<&Module> {
        self.modules.get(id.index())
    }

    /// Looks up a function by id.
    pub fn function(&self, id: FunctionId) -> Option<&Function> {
        let &(m, f) = self.index.get(id.index())?;
        self.modules.get(m as usize)?.functions.get(f as usize)
    }

    /// Iterates over every function in module order.
    pub fn functions(&self) -> impl Iterator<Item = &Function> {
        self.modules.iter().flat_map(|m| m.functions.iter())
    }

    /// Total number of functions.
    pub fn num_functions(&self) -> usize {
        self.index.len()
    }

    /// Total number of modules.
    pub fn num_modules(&self) -> usize {
        self.modules.len()
    }

    /// Appends a new function to an existing module, returning its id.
    ///
    /// Ids stay dense: the new function receives the next id after the
    /// current maximum, exactly as [`crate::ProgramBuilder::add_function`]
    /// would have assigned it. This is the structural-edit entry point
    /// for program evolution (release-over-release mutation in the
    /// fleet simulator): unlike [`Program::modules_mut`], it keeps the
    /// function index consistent.
    ///
    /// # Panics
    ///
    /// Panics if `module` does not exist.
    pub fn push_function(
        &mut self,
        module: ModuleId,
        builder: crate::FunctionBuilder,
    ) -> FunctionId {
        let id = FunctionId(self.num_functions() as u32);
        let m = &mut self.modules[module.index()];
        self.index.push((module.0, m.functions.len() as u32));
        m.functions.push(builder.finish(id, module));
        id
    }

    /// Computes aggregate characteristics (the Table 2 columns).
    pub fn stats(&self) -> ProgramStats {
        ProgramStats::compute(self)
    }

    /// Validates every function plus cross-function invariants
    /// (callee existence, name uniqueness).
    ///
    /// # Errors
    ///
    /// Returns the first [`IrError`] encountered.
    pub fn validate(&self) -> Result<(), IrError> {
        let mut names = HashMap::new();
        for f in self.functions() {
            f.validate()?;
            if let Some(_prev) = names.insert(&*f.name, f.id) {
                return Err(IrError::DuplicateName(f.name.to_string()));
            }
            for inst in f.insts() {
                if let Some(target) = inst.referenced_function() {
                    if self.function(target).is_none() {
                        return Err(IrError::UnknownCallee {
                            function: f.id,
                            callee: target,
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::{FunctionBuilder, ProgramBuilder};
    use crate::inst::{Inst, Terminator};

    fn two_module_program() -> crate::Program {
        let mut pb = ProgramBuilder::new();
        let m0 = pb.add_module("a.cc");
        let m1 = pb.add_module("b.cc");
        let mut f = FunctionBuilder::new("alpha");
        f.add_block(vec![Inst::Alu], Terminator::Ret);
        let alpha = pb.add_function(m0, f);
        let mut g = FunctionBuilder::new("beta");
        g.add_block(vec![Inst::Call(alpha)], Terminator::Ret);
        pb.add_function(m1, g);
        pb.finish().unwrap()
    }

    #[test]
    fn function_lookup_crosses_modules() {
        let p = two_module_program();
        assert_eq!(p.num_modules(), 2);
        assert_eq!(p.num_functions(), 2);
        let beta = p.functions().find(|f| &*f.name == "beta").unwrap();
        assert_eq!(&*p.function(beta.id).unwrap().name, "beta");
    }

    #[test]
    fn validate_accepts_cross_module_calls() {
        two_module_program().validate().unwrap();
    }

    #[test]
    fn push_function_keeps_ids_dense_and_index_consistent() {
        let mut p = two_module_program();
        let m1 = p.modules()[1].id;
        let mut h = FunctionBuilder::new("gamma");
        h.add_block(vec![Inst::Alu; 2], Terminator::Ret);
        let id = p.push_function(m1, h);
        assert_eq!(id.0, 2, "next dense id after the two existing functions");
        assert_eq!(p.num_functions(), 3);
        let f = p.function(id).unwrap();
        assert_eq!(&*f.name, "gamma");
        assert_eq!(f.module, m1);
        p.validate().unwrap();
    }

    #[test]
    fn stats_match_structure() {
        let p = two_module_program();
        let s = p.stats();
        assert_eq!(s.num_functions, 2);
        assert_eq!(s.num_blocks, 2);
        assert_eq!(s.num_modules, 2);
    }
}
