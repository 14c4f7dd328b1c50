//! Functions and intra-function CFG queries.

use crate::block::BasicBlock;
use crate::error::IrError;
use crate::ids::{BlockId, FunctionId, ModuleId};
use crate::inst::Terminator;
use std::sync::Arc;

/// A function: an entry block plus a list of basic blocks forming a CFG.
///
/// Invariants (checked by [`Function::validate`]):
/// * `blocks[i].id == BlockId(i)`;
/// * the entry block is `blocks[0]`;
/// * every terminator target names an existing block;
/// * at least one block exists.
#[derive(Clone, PartialEq, Debug)]
pub struct Function {
    /// Program-unique id.
    pub id: FunctionId,
    /// Symbol name (unique across the program). Allocated once, where
    /// the function is built, and shared by every artifact that names
    /// the function: object symbols, relocations, layouts, the linked
    /// binary's symbol map.
    pub name: Arc<str>,
    /// Owning module.
    pub module: ModuleId,
    /// Blocks in original (source) order. `blocks[0]` is the entry.
    pub blocks: Vec<BasicBlock>,
}

impl Function {
    /// The entry block.
    ///
    /// # Panics
    ///
    /// Panics if the function has no blocks (invalid by construction;
    /// [`crate::FunctionBuilder`] prevents this).
    pub fn entry(&self) -> &BasicBlock {
        &self.blocks[0]
    }

    /// Looks up a block by id.
    pub fn block(&self, id: BlockId) -> Option<&BasicBlock> {
        self.blocks.get(id.index())
    }

    /// Number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total number of instructions, including terminators.
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(BasicBlock::len).sum()
    }

    /// The function entry frequency (frequency of the entry block).
    pub fn entry_freq(&self) -> u64 {
        self.entry().freq
    }

    /// Returns `true` if no block has a nonzero frequency.
    pub fn is_cold(&self) -> bool {
        self.blocks.iter().all(|b| b.freq == 0)
    }

    /// Checks structural invariants.
    ///
    /// # Errors
    ///
    /// Returns an [`IrError`] describing the first violated invariant:
    /// an empty function, a misnumbered block, a dangling branch target,
    /// or a branch probability outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), IrError> {
        if self.blocks.is_empty() {
            return Err(IrError::EmptyFunction(self.id));
        }
        for (i, b) in self.blocks.iter().enumerate() {
            if b.id.index() != i {
                return Err(IrError::MisnumberedBlock {
                    function: self.id,
                    expected: BlockId(i as u32),
                    found: b.id,
                });
            }
            if let Terminator::CondBr { prob_taken, .. } = b.term {
                if !(0.0..=1.0).contains(&prob_taken) || prob_taken.is_nan() {
                    return Err(IrError::BadProbability {
                        function: self.id,
                        block: b.id,
                        prob: prob_taken,
                    });
                }
            }
            for (succ, _) in b.successors() {
                if succ.index() >= self.blocks.len() {
                    return Err(IrError::DanglingTarget {
                        function: self.id,
                        block: b.id,
                        target: succ,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;

    fn diamond() -> Function {
        // bb0 -> bb1 / bb2 -> bb3 -> ret
        let mut blocks = vec![
            BasicBlock::new(
                BlockId(0),
                vec![Inst::Alu],
                Terminator::CondBr {
                    taken: BlockId(1),
                    fallthrough: BlockId(2),
                    prob_taken: 0.25,
                },
            ),
            BasicBlock::new(BlockId(1), vec![Inst::Load], Terminator::Jump(BlockId(3))),
            BasicBlock::new(BlockId(2), vec![Inst::Store], Terminator::Jump(BlockId(3))),
            BasicBlock::new(BlockId(3), vec![Inst::Call(FunctionId(9))], Terminator::Ret),
        ];
        blocks[0].freq = 100;
        blocks[1].freq = 25;
        blocks[2].freq = 75;
        blocks[3].freq = 100;
        Function {
            id: FunctionId(0),
            name: "diamond".into(),
            module: ModuleId(0),
            blocks,
        }
    }

    #[test]
    fn validate_accepts_well_formed() {
        diamond().validate().unwrap();
    }

    #[test]
    fn validate_rejects_dangling_target() {
        let mut f = diamond();
        f.blocks[1].term = Terminator::Jump(BlockId(99));
        assert!(matches!(
            f.validate(),
            Err(IrError::DanglingTarget { .. })
        ));
    }

    #[test]
    fn validate_rejects_bad_probability() {
        let mut f = diamond();
        f.blocks[0].term = Terminator::CondBr {
            taken: BlockId(1),
            fallthrough: BlockId(2),
            prob_taken: 1.5,
        };
        assert!(matches!(f.validate(), Err(IrError::BadProbability { .. })));
    }

    #[test]
    fn validate_rejects_misnumbered_blocks() {
        let mut f = diamond();
        f.blocks[2].id = BlockId(7);
        assert!(matches!(
            f.validate(),
            Err(IrError::MisnumberedBlock { .. })
        ));
    }

    #[test]
    fn counts_and_weights() {
        let f = diamond();
        assert_eq!(f.num_blocks(), 4);
        assert_eq!(f.num_insts(), 8);
        assert_eq!(f.entry_freq(), 100);
        assert!(!f.is_cold());
    }

    #[test]
    fn cold_function_detection() {
        let mut f = diamond();
        for b in &mut f.blocks {
            b.freq = 0;
        }
        assert!(f.is_cold());
    }
}
