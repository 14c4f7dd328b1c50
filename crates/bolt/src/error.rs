//! BOLT driver errors.

use std::error::Error;
use std::fmt;

/// Failure modes of the monolithic rewriter.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BoltError {
    /// The input binary was linked without static relocations
    /// (`.rela`); disassembly-driven rewriting needs them (§5.3:
    /// "static relocations necessary to ease disassembly and binary
    /// rewriting").
    MissingRelocations,
    /// No text symbols were found to anchor function discovery.
    NoFunctions,
}

impl fmt::Display for BoltError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoltError::MissingRelocations => {
                write!(
                    f,
                    "input binary retains no static relocations; rebuild with --emit-relocs"
                )
            }
            BoltError::NoFunctions => write!(f, "no function symbols found in text"),
        }
    }
}

impl Error for BoltError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        assert!(BoltError::MissingRelocations.to_string().contains("relocs"));
        assert!(!BoltError::NoFunctions.to_string().is_empty());
    }
}
