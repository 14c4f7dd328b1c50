//! Link errors.

use std::error::Error;
use std::fmt;

/// An error raised while linking.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LinkError {
    /// Two objects define the same global symbol.
    DuplicateSymbol(String),
    /// A relocation references an undefined symbol.
    UndefinedSymbol {
        /// The missing symbol.
        symbol: String,
        /// The object containing the referencing relocation.
        object: String,
    },
    /// A relocated displacement does not fit its field.
    DisplacementOverflow {
        /// The symbol the branch targets.
        symbol: String,
    },
    /// Input metadata is corrupt: an undecodable section, or a
    /// relocation pointing outside its section.
    BadMetadata {
        /// The object containing the section.
        object: String,
        /// Description of the failure.
        detail: String,
    },
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::DuplicateSymbol(s) => write!(f, "duplicate global symbol {s:?}"),
            LinkError::UndefinedSymbol { symbol, object } => {
                write!(f, "undefined symbol {symbol:?} referenced from {object}")
            }
            LinkError::DisplacementOverflow { symbol } => {
                write!(f, "displacement to {symbol:?} overflows relocated field")
            }
            LinkError::BadMetadata { object, detail } => {
                write!(f, "bad metadata in {object}: {detail}")
            }
        }
    }
}

impl Error for LinkError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_symbol() {
        let e = LinkError::UndefinedSymbol {
            symbol: "foo".into(),
            object: "a.o".into(),
        };
        assert!(e.to_string().contains("foo"));
        assert!(e.to_string().contains("a.o"));
    }
}
