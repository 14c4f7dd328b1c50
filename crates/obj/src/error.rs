//! Object format errors.

use std::error::Error;
use std::fmt;

/// An error produced while decoding or validating an object file.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ObjError {
    /// The byte stream ended before a complete record was read.
    Truncated {
        /// What was being decoded.
        context: &'static str,
    },
    /// A magic number or enum tag had an unexpected value.
    BadTag {
        /// What was being decoded.
        context: &'static str,
        /// The offending value.
        value: u32,
    },
    /// A string field was not valid UTF-8.
    BadString,
}

impl fmt::Display for ObjError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjError::Truncated { context } => {
                write!(f, "truncated object file while decoding {context}")
            }
            ObjError::BadTag { context, value } => {
                write!(f, "bad tag {value} while decoding {context}")
            }
            ObjError::BadString => write!(f, "invalid utf-8 in object string table"),
        }
    }
}

impl Error for ObjError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(ObjError::Truncated { context: "symbol" }
            .to_string()
            .contains("symbol"));
        assert!(ObjError::BadTag {
            context: "flags",
            value: 9
        }
        .to_string()
        .contains('9'));
    }
}
