//! Synthetic instructions and block terminators.

use crate::ids::{BlockId, FunctionId};
use std::fmt;

/// A non-terminator instruction in the synthetic ISA.
///
/// Instructions carry no operands beyond what layout optimization needs:
/// calls name their callee so the call graph and inter-procedural layout
/// can be computed, everything else is opaque "work". Encoded byte sizes
/// are defined by the codegen crate.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Inst {
    /// Register-to-register arithmetic/logic.
    Alu,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Direct call to another function.
    Call(FunctionId),
    /// Software prefetch of another function's entry line (the §3.5
    /// post-link prefetch-insertion optimization; inserted by the
    /// pipeline, not by frontends).
    Prefetch(FunctionId),
    /// One-byte padding instruction.
    Nop,
}

impl Inst {
    /// Number of instruction kinds: every [`Inst::kind`] is below it.
    pub const KINDS: usize = 6;

    /// The variant's position in declaration order, for tables indexed
    /// by kind. It is the enum's own tag, so reading it costs no branch:
    /// a walk over a random instruction mix that looks its per-kind
    /// answer up in a table does not mispredict the way a `match` on
    /// every instruction does.
    pub const fn kind(self) -> usize {
        match self {
            Inst::Alu => 0,
            Inst::Load => 1,
            Inst::Store => 2,
            Inst::Call(_) => 3,
            Inst::Prefetch(_) => 4,
            Inst::Nop => 5,
        }
    }

    /// Returns the callee for a call instruction, if any.
    pub fn callee(self) -> Option<FunctionId> {
        match self {
            Inst::Call(f) => Some(f),
            _ => None,
        }
    }

    /// Returns any function this instruction references (call target
    /// or prefetch target).
    pub fn referenced_function(self) -> Option<FunctionId> {
        match self {
            Inst::Call(f) | Inst::Prefetch(f) => Some(f),
            _ => None,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Alu => write!(f, "alu"),
            Inst::Load => write!(f, "load"),
            Inst::Store => write!(f, "store"),
            Inst::Call(callee) => write!(f, "call {callee}"),
            Inst::Prefetch(target) => write!(f, "prefetch {target}"),
            Inst::Nop => write!(f, "nop"),
        }
    }
}

/// The control-flow-transferring instruction ending a basic block.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum Terminator {
    /// Unconditional jump to another block of the same function.
    Jump(BlockId),
    /// Two-way conditional branch.
    ///
    /// `prob_taken` is the *static* probability that control transfers to
    /// `taken`; the remainder falls through to `fallthrough`. This drives
    /// both frequency propagation and the execution simulator.
    CondBr {
        /// Target when the branch is taken.
        taken: BlockId,
        /// Target when the branch falls through.
        fallthrough: BlockId,
        /// Probability of taking the branch, in `[0, 1]`.
        prob_taken: f64,
    },
    /// Return to the caller.
    Ret,
}

impl Terminator {
    /// Returns all successor blocks with their transfer probabilities:
    /// the taken target first, then the fall-through. At most two, held
    /// inline, so walking them allocates nothing.
    pub fn successors(&self) -> impl Iterator<Item = (BlockId, f64)> {
        let pair = match *self {
            Terminator::Jump(t) => [Some((t, 1.0)), None],
            Terminator::CondBr {
                taken,
                fallthrough,
                prob_taken,
            } => [
                Some((taken, prob_taken)),
                Some((fallthrough, 1.0 - prob_taken)),
            ],
            Terminator::Ret => [None, None],
        };
        pair.into_iter().flatten()
    }

    /// Returns `true` if control leaves the function here.
    pub fn is_return(&self) -> bool {
        matches!(self, Terminator::Ret)
    }
}

impl fmt::Display for Terminator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Terminator::Jump(t) => write!(f, "jmp {t}"),
            Terminator::CondBr {
                taken,
                fallthrough,
                prob_taken,
            } => write!(f, "br {taken} (p={prob_taken:.2}) else {fallthrough}"),
            Terminator::Ret => write!(f, "ret"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn callee_extraction() {
        assert_eq!(Inst::Call(FunctionId(4)).callee(), Some(FunctionId(4)));
        assert_eq!(Inst::Alu.callee(), None);
        assert_eq!(Inst::Nop.callee(), None);
    }

    #[test]
    fn successor_probabilities_sum_to_one() {
        let t = Terminator::CondBr {
            taken: BlockId(1),
            fallthrough: BlockId(2),
            prob_taken: 0.3,
        };
        assert_eq!(t.successors().count(), 2);
        let total: f64 = t.successors().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jump_has_single_successor() {
        let succs: Vec<_> = Terminator::Jump(BlockId(5)).successors().collect();
        assert_eq!(succs, [(BlockId(5), 1.0)]);
    }

    #[test]
    fn ret_has_no_successors() {
        assert_eq!(Terminator::Ret.successors().next(), None);
        assert!(Terminator::Ret.is_return());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Inst::Call(FunctionId(1)).to_string(), "call f1");
        assert_eq!(Terminator::Jump(BlockId(2)).to_string(), "jmp bb2");
    }
}
