//! Modules (translation units).

use crate::function::Function;
use crate::ids::ModuleId;

/// A translation unit: the unit of distributed compilation and caching.
///
/// In the paper's workflow, each module is compiled to optimized IR in
/// Phase 1, code-generated (with metadata) in Phase 2, and selectively
/// re-code-generated in Phase 4 if it contains hot functions.
#[derive(Clone, PartialEq, Debug)]
pub struct Module {
    /// Dense module id.
    pub id: ModuleId,
    /// Source file name, e.g. `"s_1.cc"`.
    pub name: String,
    /// Functions owned by this module.
    pub functions: Vec<Function>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(id: ModuleId, name: impl Into<String>) -> Self {
        Module {
            id,
            name: name.into(),
            functions: Vec::new(),
        }
    }

    /// Total number of basic blocks in the module.
    pub fn num_blocks(&self) -> usize {
        self.functions.iter().map(Function::num_blocks).sum()
    }

    /// Returns `true` if every function in the module is cold
    /// (per the embedded PGO frequencies).
    pub fn is_cold(&self) -> bool {
        self.functions.iter().all(Function::is_cold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::ids::FunctionId;
    use crate::inst::Terminator;

    fn tiny_function(id: u32, freq: u64) -> Function {
        let mut fb = FunctionBuilder::new(format!("f{id}"));
        let b = fb.add_block([], Terminator::Ret);
        fb.set_block_freq(b, freq);
        fb.finish(FunctionId(id), ModuleId(0))
    }

    #[test]
    fn counts_blocks() {
        let mut m = Module::new(ModuleId(0), "a.cc");
        m.functions.push(tiny_function(0, 0));
        m.functions.push(tiny_function(1, 5));
        assert_eq!(m.num_blocks(), 2);
    }

    #[test]
    fn cold_iff_all_functions_cold() {
        let mut m = Module::new(ModuleId(0), "a.cc");
        m.functions.push(tiny_function(0, 0));
        assert!(m.is_cold());
        m.functions.push(tiny_function(1, 5));
        assert!(!m.is_cold());
    }
}
