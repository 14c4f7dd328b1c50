//! Functions and intra-function CFG queries.

use crate::block::BasicBlock;
use crate::error::IrError;
use crate::ids::{BlockId, FunctionId, ModuleId};
use crate::inst::{Inst, Terminator};
use std::cell::Cell;
use std::sync::Arc;

/// A function: an entry block plus a list of basic blocks forming a CFG.
///
/// Invariants (checked by [`Function::validate`]):
/// * `blocks[i].id == BlockId(i)`;
/// * the entry block is `blocks[0]`;
/// * the blocks' spans tile the instruction array in block order;
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
    /// Every block's non-terminator instructions, in block order: one
    /// allocation per function, sized exactly. Built by
    /// [`crate::FunctionBuilder`], rebuilt by [`Function::edit_blocks`].
    pub(crate) insts: Box<[Inst]>,
}

thread_local! {
    /// [`Function::edit_blocks`]' buffers — the repacked array and one
    /// block's body — reused across edits, so an edit allocates only a
    /// function's new array, and only when its length changed.
    static EDIT_SCRATCH: Cell<(Vec<Inst>, Vec<Inst>)> =
        const { Cell::new((Vec::new(), Vec::new())) };
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

    /// Every block's non-terminator instructions, in block order.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// `block`'s non-terminator instructions, executed in order.
    ///
    /// # Panics
    ///
    /// Panics if `block` belongs to a longer function.
    pub fn insts_of(&self, block: &BasicBlock) -> &[Inst] {
        &self.insts[block.span()]
    }

    /// Number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total number of instructions, including terminators.
    pub fn num_insts(&self) -> usize {
        self.insts.len() + self.blocks.len()
    }

    /// Returns `true` if no block has a nonzero frequency.
    pub fn is_cold(&self) -> bool {
        self.blocks.iter().all(|b| b.freq == 0)
    }

    /// The one structural edit: visits the blocks in order, handing
    /// `edit` each block with a copy of its instructions it may change,
    /// and repacks the bodies into the function's array — in place when
    /// its length holds, else into a new exactly sized one. A block for
    /// which `edit` returns `false` is dropped; as ids are positions,
    /// every block after it must be dropped too.
    ///
    /// # Panics
    ///
    /// Panics if `edit` keeps a block after dropping one.
    ///
    /// ```
    /// use propeller_ir::{FunctionBuilder, Inst, ProgramBuilder, Terminator};
    ///
    /// let mut pb = ProgramBuilder::new();
    /// let m = pb.add_module("m.cc");
    /// let mut fb = FunctionBuilder::new("f");
    /// fb.add_block(vec![Inst::Alu], Terminator::Ret);
    /// pb.add_function(m, fb);
    /// let mut p = pb.finish().expect("valid");
    /// let f = &mut p.modules_mut()[0].functions[0];
    /// f.edit_blocks(|_, body| {
    ///     body.push(Inst::Load);
    ///     true
    /// });
    /// assert_eq!(f.insts_of(&f.blocks[0]), [Inst::Alu, Inst::Load]);
    /// ```
    pub fn edit_blocks(&mut self, mut edit: impl FnMut(&mut BasicBlock, &mut Vec<Inst>) -> bool) {
        // Taken, not borrowed, so an `edit` that edits another function
        // works (on fresh buffers).
        let (mut insts, mut body) = EDIT_SCRATCH.take();
        insts.clear();
        let mut kept = 0;
        for b in &mut self.blocks {
            body.clear();
            body.extend_from_slice(&self.insts[b.span()]);
            if !edit(b, &mut body) {
                continue;
            }
            assert_eq!(kept, b.id.index(), "a block kept after a dropped one");
            kept += 1;
            let start = insts.len();
            insts.extend_from_slice(&body);
            b.set_span(start..insts.len());
        }
        self.blocks.truncate(kept);
        if insts.len() == self.insts.len() {
            self.insts.copy_from_slice(&insts);
        } else {
            self.insts = insts.as_slice().into();
        }
        EDIT_SCRATCH.set((insts, body));
    }

    /// Checks structural invariants.
    ///
    /// # Errors
    ///
    /// Returns an [`IrError`] describing the first violated invariant:
    /// an empty function, a misnumbered block, a block whose span does
    /// not continue the previous one, a dangling branch target, or a
    /// branch probability outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), IrError> {
        if self.blocks.is_empty() {
            return Err(IrError::EmptyFunction(self.id));
        }
        let mut at = 0;
        for (i, b) in self.blocks.iter().enumerate() {
            if b.id.index() != i {
                return Err(IrError::MisnumberedBlock {
                    function: self.id,
                    expected: BlockId(i as u32),
                    found: b.id,
                });
            }
            let last = i + 1 == self.blocks.len();
            if b.start != at || b.end < b.start || (last && b.end as usize != self.insts.len()) {
                return Err(IrError::UntiledBlock {
                    function: self.id,
                    block: b.id,
                });
            }
            at = b.end;
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
    use crate::builder::FunctionBuilder;

    fn diamond() -> Function {
        // bb0 -> bb1 / bb2 -> bb3 -> ret
        let mut fb = FunctionBuilder::new("diamond");
        let cond = Terminator::CondBr {
            taken: BlockId(1),
            fallthrough: BlockId(2),
            prob_taken: 0.25,
        };
        let blocks = [
            fb.add_block([Inst::Alu], cond),
            fb.add_block([Inst::Load], Terminator::Jump(BlockId(3))),
            fb.add_block([Inst::Store], Terminator::Jump(BlockId(3))),
            fb.add_block([Inst::Call(FunctionId(9))], Terminator::Ret),
        ];
        for (b, freq) in blocks.into_iter().zip([100, 25, 75, 100]) {
            fb.set_block_freq(b, freq);
        }
        fb.finish(FunctionId(0), ModuleId(0))
    }

    #[test]
    fn validate_accepts_well_formed() {
        diamond().validate().unwrap();
    }

    #[test]
    fn validate_rejects_dangling_target() {
        let mut f = diamond();
        f.blocks[1].term = Terminator::Jump(BlockId(99));
        assert!(matches!(f.validate(), Err(IrError::DanglingTarget { .. })));
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
    fn validate_rejects_untiled_blocks() {
        let mut f = diamond();
        f.blocks.pop();
        for b in &mut f.blocks[1..] {
            b.term = Terminator::Ret;
        }
        assert!(matches!(f.validate(), Err(IrError::UntiledBlock { .. })));
    }

    #[test]
    fn blocks_read_their_span() {
        let f = diamond();
        let all = [
            Inst::Alu,
            Inst::Load,
            Inst::Store,
            Inst::Call(FunctionId(9)),
        ];
        assert_eq!(f.insts(), all);
        assert_eq!(f.insts_of(&f.blocks[2]), [Inst::Store]);
    }

    #[test]
    fn identity_edit_changes_nothing() {
        let mut f = diamond();
        f.edit_blocks(|_, _| true);
        assert_eq!(f, diamond());
    }

    #[test]
    fn edit_resizes_and_drops_a_suffix() {
        let mut f = diamond();
        f.edit_blocks(|b, body| {
            match b.id.index() {
                0 => body.clear(),
                1 => body.extend([Inst::Nop; 3]),
                _ => return false,
            }
            b.term = Terminator::Ret;
            true
        });
        f.validate().unwrap();
        assert_eq!(f.num_blocks(), 2);
        assert_eq!(f.insts_of(&f.blocks[0]), []);
        assert_eq!(
            f.insts_of(&f.blocks[1]),
            [Inst::Load, Inst::Nop, Inst::Nop, Inst::Nop]
        );
        assert_eq!(f.num_insts(), 4 + 2);
    }

    #[test]
    #[should_panic(expected = "a block kept after a dropped one")]
    fn edit_may_not_keep_a_block_after_a_dropped_one() {
        diamond().edit_blocks(|b, _| b.id.index() != 1);
    }

    #[test]
    fn counts_and_weights() {
        let f = diamond();
        assert_eq!(f.num_blocks(), 4);
        assert_eq!(f.num_insts(), 8);
        assert_eq!(f.blocks[0].freq, 100);
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
