//! Codegen errors.

use propeller_ir::{BlockId, FunctionId};
use std::error::Error;
use std::fmt;

/// An error raised while lowering IR to object code.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CodegenError {
    /// A cluster map does not cover every block of a function exactly
    /// once.
    BadClusterPartition {
        /// The function whose clusters are inconsistent.
        function: FunctionId,
        /// A block that is missing from or duplicated in the partition.
        block: BlockId,
    },
    /// A cluster map names a block the function does not have.
    UnknownBlock {
        /// The function whose clusters are inconsistent.
        function: FunctionId,
        /// The nonexistent block.
        block: BlockId,
    },
    /// A cluster map entry, or a call or prefetch, references a
    /// function the program does not have.
    UnknownFunction(FunctionId),
    /// A branch displacement overflowed the 32-bit long form (function
    /// fragment larger than 2 GiB; cannot occur with realistic inputs
    /// but is checked rather than silently truncated).
    DisplacementOverflow {
        /// The function containing the branch.
        function: FunctionId,
    },
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::BadClusterPartition { function, block } => write!(
                f,
                "cluster map for {function} does not partition blocks (at {block})"
            ),
            CodegenError::UnknownBlock { function, block } => {
                write!(f, "cluster map for {function} names nonexistent {block}")
            }
            CodegenError::UnknownFunction(id) => {
                write!(f, "function {id} is not in the program")
            }
            CodegenError::DisplacementOverflow { function } => {
                write!(f, "branch displacement overflow in {function}")
            }
        }
    }
}

impl Error for CodegenError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_ids() {
        let e = CodegenError::BadClusterPartition {
            function: FunctionId(3),
            block: BlockId(1),
        };
        assert!(e.to_string().contains("f3"));
        assert!(e.to_string().contains("bb1"));
    }
}
