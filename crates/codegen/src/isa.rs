//! The synthetic instruction set ("SynthISA").
//!
//! A byte-encoded ISA rich enough to exhibit the code-layout phenomena
//! Propeller optimizes: pc-relative calls, conditional branches with
//! short (8-bit) and long (32-bit) displacement forms, unconditional
//! jumps in both forms, returns, and one-byte nops. Displacements are
//! relative to the *end* of the instruction, x86-style.
//!
//! The encoding is self-describing (every opcode determines the
//! instruction length), which is what makes the BOLT-style comparator's
//! linear disassembler possible.

use propeller_ir::{FunctionId, Inst};

/// Opcode bytes.
pub mod op {
    /// Register ALU operation (3 bytes).
    pub const ALU: u8 = 0x01;
    /// Memory load (4 bytes).
    pub const LOAD: u8 = 0x02;
    /// Memory store (4 bytes).
    pub const STORE: u8 = 0x03;
    /// Direct call, 32-bit pc-relative (5 bytes).
    pub const CALL: u8 = 0x04;
    /// Return (1 byte).
    pub const RET: u8 = 0x05;
    /// Unconditional jump, 8-bit displacement (2 bytes).
    pub const JMP_SHORT: u8 = 0x06;
    /// Unconditional jump, 32-bit displacement (5 bytes).
    pub const JMP_LONG: u8 = 0x07;
    /// Conditional branch, 8-bit displacement (2 bytes).
    pub const BR_SHORT: u8 = 0x08;
    /// Conditional branch, 32-bit displacement (6 bytes: opcode,
    /// condition byte, disp32).
    pub const BR_LONG: u8 = 0x09;
    /// Software prefetch of a code address, 32-bit pc-relative
    /// (5 bytes).
    pub const PREFETCH: u8 = 0x0A;
    /// No-op (1 byte).
    pub const NOP: u8 = 0x90;
}

/// Encoded instruction lengths in bytes.
pub mod len {
    /// Length of [`super::op::ALU`].
    pub const ALU: usize = 3;
    /// Length of [`super::op::LOAD`].
    pub const LOAD: usize = 4;
    /// Length of [`super::op::STORE`].
    pub const STORE: usize = 4;
    /// Length of [`super::op::CALL`].
    pub const CALL: usize = 5;
    /// Length of [`super::op::RET`].
    pub const RET: usize = 1;
    /// Length of [`super::op::JMP_SHORT`].
    pub const JMP_SHORT: usize = 2;
    /// Length of [`super::op::JMP_LONG`].
    pub const JMP_LONG: usize = 5;
    /// Length of [`super::op::BR_SHORT`].
    pub const BR_SHORT: usize = 2;
    /// Length of [`super::op::BR_LONG`].
    pub const BR_LONG: usize = 6;
    /// Length of [`super::op::PREFETCH`].
    pub const PREFETCH: usize = 5;
    /// Length of [`super::op::NOP`].
    pub const NOP: usize = 1;
}

/// `(length, opcode)` of every straight-line IR instruction, indexed by
/// [`Inst::kind`]. Operand bytes are emitted as zeros; a call's or a
/// prefetch's four are the displacement its relocation fills.
pub const INST_ENCODING: [(u8, u8); Inst::KINDS] = {
    let mut table = [(0, 0); Inst::KINDS];
    table[Inst::Alu.kind()] = (len::ALU as u8, op::ALU);
    table[Inst::Load.kind()] = (len::LOAD as u8, op::LOAD);
    table[Inst::Store.kind()] = (len::STORE as u8, op::STORE);
    table[Inst::Call(FunctionId(0)).kind()] = (len::CALL as u8, op::CALL);
    table[Inst::Prefetch(FunctionId(0)).kind()] = (len::PREFETCH as u8, op::PREFETCH);
    table[Inst::Nop.kind()] = (len::NOP as u8, op::NOP);
    table
};

/// A decoded instruction (the disassembler's view).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Decoded {
    /// Non-control-flow instruction of the given length.
    Straight {
        /// Total encoded length.
        len: usize,
    },
    /// Direct call with the given displacement (relative to instruction
    /// end).
    Call {
        /// Pc-relative displacement.
        disp: i64,
        /// Total encoded length.
        len: usize,
    },
    /// Unconditional jump.
    Jump {
        /// Pc-relative displacement.
        disp: i64,
        /// Total encoded length.
        len: usize,
    },
    /// Conditional branch (taken target; fall-through is the next
    /// instruction).
    CondBr {
        /// Pc-relative displacement of the taken target.
        disp: i64,
        /// Total encoded length.
        len: usize,
    },
    /// Return.
    Ret,
}

impl Decoded {
    /// The encoded length in bytes.
    pub fn len(&self) -> usize {
        match *self {
            Decoded::Straight { len }
            | Decoded::Call { len, .. }
            | Decoded::Jump { len, .. }
            | Decoded::CondBr { len, .. } => len,
            Decoded::Ret => len::RET,
        }
    }

    /// Instructions always occupy at least one byte.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Decodes the instruction at the start of `bytes`.
///
/// Returns `None` if the bytes do not start with a valid instruction
/// (unknown opcode or truncated operand) — the situation that makes
/// disassembly of real binaries "an inexact science" (§1.1).
pub fn decode(bytes: &[u8]) -> Option<Decoded> {
    let opcode = *bytes.first()?;
    let need = |n: usize| if bytes.len() >= n { Some(n) } else { None };
    Some(match opcode {
        op::ALU => Decoded::Straight {
            len: need(len::ALU)?,
        },
        op::LOAD => Decoded::Straight {
            len: need(len::LOAD)?,
        },
        op::STORE => Decoded::Straight {
            len: need(len::STORE)?,
        },
        op::NOP => Decoded::Straight {
            len: need(len::NOP)?,
        },
        op::PREFETCH => Decoded::Straight {
            len: need(len::PREFETCH)?,
        },
        op::RET => Decoded::Ret,
        op::CALL => {
            need(len::CALL)?;
            Decoded::Call {
                disp: i32::from_le_bytes(bytes[1..5].try_into().unwrap()) as i64,
                len: len::CALL,
            }
        }
        op::JMP_SHORT => {
            need(len::JMP_SHORT)?;
            Decoded::Jump {
                disp: bytes[1] as i8 as i64,
                len: len::JMP_SHORT,
            }
        }
        op::JMP_LONG => {
            need(len::JMP_LONG)?;
            Decoded::Jump {
                disp: i32::from_le_bytes(bytes[1..5].try_into().unwrap()) as i64,
                len: len::JMP_LONG,
            }
        }
        op::BR_SHORT => {
            need(len::BR_SHORT)?;
            Decoded::CondBr {
                disp: bytes[1] as i8 as i64,
                len: len::BR_SHORT,
            }
        }
        op::BR_LONG => {
            need(len::BR_LONG)?;
            Decoded::CondBr {
                disp: i32::from_le_bytes(bytes[2..6].try_into().unwrap()) as i64,
                len: len::BR_LONG,
            }
        }
        _ => return None,
    })
}

/// Whether a displacement fits the short (8-bit) branch form.
pub fn fits_short(disp: i64) -> bool {
    i8::try_from(disp).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_straight_instructions() {
        assert_eq!(decode(&[op::ALU, 0, 0]), Some(Decoded::Straight { len: 3 }));
        assert_eq!(
            decode(&[op::LOAD, 0, 0, 0]),
            Some(Decoded::Straight { len: 4 })
        );
        assert_eq!(decode(&[op::NOP]), Some(Decoded::Straight { len: 1 }));
        assert_eq!(decode(&[op::RET]), Some(Decoded::Ret));
    }

    #[test]
    fn decode_control_flow() {
        let mut call = vec![op::CALL];
        call.extend((-10i32).to_le_bytes());
        assert_eq!(decode(&call), Some(Decoded::Call { disp: -10, len: 5 }));

        assert_eq!(
            decode(&[op::JMP_SHORT, 0xFE]),
            Some(Decoded::Jump { disp: -2, len: 2 })
        );

        let mut br = vec![op::BR_LONG, 0x00];
        br.extend(1000i32.to_le_bytes());
        assert_eq!(decode(&br), Some(Decoded::CondBr { disp: 1000, len: 6 }));
    }

    #[test]
    fn decode_rejects_unknown_and_truncated() {
        assert_eq!(decode(&[0xAB]), None);
        assert_eq!(decode(&[op::CALL, 1, 2]), None); // truncated operand
        assert_eq!(decode(&[]), None);
    }

    /// Every kind has an entry, and it is an instruction the decoder
    /// reads back at its stated length.
    #[test]
    fn inst_encoding_agrees_with_the_decoder() {
        for (kind, &(length, opcode)) in INST_ENCODING.iter().enumerate() {
            let mut bytes = vec![0; usize::from(length)];
            bytes[0] = opcode;
            let d = decode(&bytes).unwrap_or_else(|| panic!("kind {kind}: {opcode:#x}"));
            assert_eq!(d.len(), usize::from(length), "kind {kind}");
        }
    }

    #[test]
    fn short_form_range() {
        assert!(fits_short(127));
        assert!(fits_short(-128));
        assert!(!fits_short(128));
        assert!(!fits_short(-129));
    }
}
