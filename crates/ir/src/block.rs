//! Basic blocks.

use crate::ids::BlockId;
use crate::inst::{Inst, Terminator};

/// A straight-line sequence of instructions ending in a [`Terminator`].
#[derive(Clone, PartialEq, Debug)]
pub struct BasicBlock {
    /// The block's intra-function id (its index in the function's block
    /// list).
    pub id: BlockId,
    /// Non-terminator instructions, executed in order.
    pub insts: Vec<Inst>,
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
    /// Creates a block with the given instructions and terminator,
    /// zero frequency, and no landing-pad marker.
    pub fn new(id: BlockId, insts: Vec<Inst>, term: Terminator) -> Self {
        BasicBlock {
            id,
            insts,
            term,
            is_landing_pad: false,
            freq: 0,
        }
    }

    /// Number of instructions including the terminator.
    pub fn len(&self) -> usize {
        self.insts.len() + 1
    }

    /// A block always contains at least its terminator.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Successor blocks and probabilities (delegates to the terminator).
    pub fn successors(&self) -> Vec<(BlockId, f64)> {
        self.term.successors()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FunctionId;

    fn sample() -> BasicBlock {
        BasicBlock::new(
            BlockId(0),
            vec![Inst::Alu, Inst::Call(FunctionId(3)), Inst::Load],
            Terminator::Ret,
        )
    }

    #[test]
    fn len_counts_terminator() {
        assert_eq!(sample().len(), 4);
        assert!(!sample().is_empty());
    }

    #[test]
    fn defaults() {
        let b = sample();
        assert!(!b.is_landing_pad);
        assert_eq!(b.freq, 0);
    }
}
