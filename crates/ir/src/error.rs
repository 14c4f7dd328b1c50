//! IR validation errors.

use crate::ids::{BlockId, FunctionId};
use std::error::Error;
use std::fmt;

/// An invariant violation detected while validating IR.
#[derive(Clone, PartialEq, Debug)]
pub enum IrError {
    /// A function has no basic blocks.
    EmptyFunction(FunctionId),
    /// `blocks[i].id != i`.
    MisnumberedBlock {
        /// Function containing the block.
        function: FunctionId,
        /// The id implied by the block's position.
        expected: BlockId,
        /// The id actually stored on the block.
        found: BlockId,
    },
    /// A block's instructions do not start where the previous block's
    /// end, or the last block does not end the function's array.
    UntiledBlock {
        /// Function containing the block.
        function: FunctionId,
        /// The block whose span is out of place.
        block: BlockId,
    },
    /// A terminator names a block that does not exist.
    DanglingTarget {
        /// Function containing the branch.
        function: FunctionId,
        /// Block whose terminator is broken.
        block: BlockId,
        /// The nonexistent target.
        target: BlockId,
    },
    /// A branch probability is outside `[0, 1]` or NaN.
    BadProbability {
        /// Function containing the branch.
        function: FunctionId,
        /// Block whose terminator is broken.
        block: BlockId,
        /// The offending probability.
        prob: f64,
    },
    /// A call instruction names a function that does not exist.
    UnknownCallee {
        /// The calling function.
        function: FunctionId,
        /// The nonexistent callee.
        callee: FunctionId,
    },
    /// Two functions share a symbol name.
    DuplicateName(String),
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::EmptyFunction(id) => write!(f, "function {id} has no blocks"),
            IrError::MisnumberedBlock {
                function,
                expected,
                found,
            } => write!(
                f,
                "function {function}: block at index {expected} carries id {found}"
            ),
            IrError::UntiledBlock { function, block } => write!(
                f,
                "function {function}: block {block} does not continue its predecessor's instructions"
            ),
            IrError::DanglingTarget {
                function,
                block,
                target,
            } => write!(
                f,
                "function {function}: block {block} branches to nonexistent {target}"
            ),
            IrError::BadProbability {
                function,
                block,
                prob,
            } => write!(
                f,
                "function {function}: block {block} has branch probability {prob}"
            ),
            IrError::UnknownCallee { function, callee } => {
                write!(f, "function {function} calls nonexistent {callee}")
            }
            IrError::DuplicateName(name) => write!(f, "duplicate function name {name:?}"),
        }
    }
}

impl Error for IrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            IrError::EmptyFunction(FunctionId(1)),
            IrError::DuplicateName("x".into()),
            IrError::UnknownCallee {
                function: FunctionId(0),
                callee: FunctionId(5),
            },
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }
}
