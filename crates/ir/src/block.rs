//! Basic blocks.

use crate::ids::BlockId;
use crate::inst::Terminator;
use std::ops::Range;

/// A straight-line sequence of instructions ending in a [`Terminator`].
///
/// The instructions live in the owning [`crate::Function`]'s one array;
/// the block holds its span of it, and [`crate::Function::insts_of`]
/// reads them. Spans are set where a function is built or edited, never
/// by hand, so the blocks always tile the array in order.
#[derive(Clone, PartialEq, Debug)]
pub struct BasicBlock {
    /// The block's intra-function id (its index in the function's block
    /// list).
    pub id: BlockId,
    /// First instruction of the block's span in the function's array.
    pub(crate) start: u32,
    /// One past the block's last non-terminator instruction.
    pub(crate) end: u32,
    /// The terminating control transfer.
    pub term: Terminator,
    /// Whether this block is an exception landing pad (§4.5 of the paper:
    /// landing pads are grouped together and may need a leading nop).
    pub is_landing_pad: bool,
    /// Estimated execution frequency from the (instrumented-PGO style)
    /// profile embedded in the IR. Post-link hardware profiles are
    /// collected separately by the simulator; this field models the
    /// compile-time profile that PGO already consumed.
    pub freq: u64,
}

impl BasicBlock {
    /// A block over `span` of its function's array, with zero frequency
    /// and no landing-pad marker.
    pub(crate) fn new(id: BlockId, span: Range<usize>, term: Terminator) -> Self {
        let mut b = BasicBlock {
            id,
            start: 0,
            end: 0,
            term,
            is_landing_pad: false,
            freq: 0,
        };
        b.set_span(span);
        b
    }

    /// The block's span of its function's instruction array.
    pub(crate) fn span(&self) -> Range<usize> {
        self.start as usize..self.end as usize
    }

    /// Moves the block to `span` of its function's instruction array.
    ///
    /// # Panics
    ///
    /// Panics if the span ends past `u32::MAX`.
    pub(crate) fn set_span(&mut self, span: Range<usize>) {
        let at = |i| u32::try_from(i).expect("a function holds fewer than 2^32 instructions");
        self.start = at(span.start);
        self.end = at(span.end);
    }

    /// Number of instructions including the terminator.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize + 1
    }

    /// A block always contains at least its terminator.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Successor blocks and probabilities (delegates to the terminator).
    pub fn successors(&self) -> impl Iterator<Item = (BlockId, f64)> {
        self.term.successors()
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::FunctionBuilder;
    use crate::ids::FunctionId;
    use crate::inst::{Inst, Terminator};

    fn sample() -> crate::Function {
        let mut fb = FunctionBuilder::new("f");
        fb.add_block(
            [Inst::Alu, Inst::Call(FunctionId(3)), Inst::Load],
            Terminator::Ret,
        );
        fb.finish(FunctionId(0), crate::ModuleId(0))
    }

    #[test]
    fn len_counts_terminator() {
        let f = sample();
        assert_eq!(f.blocks[0].len(), 4);
        assert!(!f.blocks[0].is_empty());
    }

    #[test]
    fn defaults() {
        let f = sample();
        let b = &f.blocks[0];
        assert!(!b.is_landing_pad);
        assert_eq!(b.freq, 0);
    }
}
