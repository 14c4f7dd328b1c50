//! CFG reconstruction from disassembly.

use crate::disasm::DisassembledFunction;
use propeller_codegen::isa::Decoded;
use std::collections::BTreeSet;

/// A reconstructed block's terminator, in address terms.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum RecTerm {
    /// Execution continues into the next block (the block boundary
    /// exists only because the next address is a branch target).
    Fallthrough,
    /// Unconditional jump to the target address.
    Jump(u64),
    /// Conditional branch to `taken`; not-taken falls into the next
    /// block.
    Cond {
        /// Taken-target address.
        taken: u64,
    },
    /// Conditional branch followed by an unconditional jump.
    CondJump {
        /// Taken-target address.
        taken: u64,
        /// Jump target address (the rewired fall-through).
        ft: u64,
    },
    /// Return.
    Ret,
}

/// One reconstructed basic block.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RecBlock {
    /// Start address.
    pub addr: u64,
    /// Total size in bytes.
    pub size: u64,
    /// Bytes excluding the trailing control-transfer instructions.
    pub straight_bytes: u64,
    /// Call sites within the block: `(call address, target address)`.
    pub calls: Vec<(u64, u64)>,
    /// The terminator.
    pub term: RecTerm,
}

impl RecBlock {
    /// The address one past the block.
    pub fn end(&self) -> u64 {
        self.addr + self.size
    }
}

/// A reconstructed function CFG.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RecCfg {
    /// Function start address.
    pub addr: u64,
    /// Function extent.
    pub size: u64,
    /// Blocks in address order.
    pub blocks: Vec<RecBlock>,
}

impl RecCfg {
    /// Index of the block containing `addr`, if any.
    pub fn block_at(&self, addr: u64) -> Option<usize> {
        let i = self.blocks.partition_point(|b| b.addr <= addr);
        let b = i.checked_sub(1)?;
        (addr < self.blocks[b].end()).then_some(b)
    }

    /// Index of the block starting exactly at `addr`.
    pub fn block_starting_at(&self, addr: u64) -> Option<usize> {
        self.blocks.binary_search_by_key(&addr, |b| b.addr).ok()
    }
}

/// Modeled memory of one reconstructed block record.
pub const BYTES_PER_BLOCK_RECORD: u64 = 64;

/// Reconstructs the CFG of one disassembled (simple) function.
///
/// Returns `None` for non-simple functions.
pub fn reconstruct(d: &DisassembledFunction) -> Option<RecCfg> {
    if !d.simple || d.insts.is_empty() {
        return None;
    }
    let start = d.func.addr;
    let end = start + d.func.size;
    // Leaders: function entry, branch targets within the function, and
    // the instruction after any control transfer.
    let mut leaders: BTreeSet<u64> = BTreeSet::new();
    leaders.insert(start);
    for di in &d.insts {
        let next = di.addr + di.inst.len() as u64;
        match di.inst {
            Decoded::Jump { disp, .. } | Decoded::CondBr { disp, .. } => {
                let target = (next as i64 + disp) as u64;
                if (start..end).contains(&target) {
                    leaders.insert(target);
                }
                if next < end {
                    leaders.insert(next);
                }
            }
            Decoded::Ret if next < end => {
                leaders.insert(next);
            }
            _ => {}
        }
    }
    let bounds: Vec<u64> = leaders.into_iter().collect();
    let mut blocks = Vec::with_capacity(bounds.len());
    let mut inst_idx = 0usize;
    for (bi, &baddr) in bounds.iter().enumerate() {
        let bend = bounds.get(bi + 1).copied().unwrap_or(end);
        // Collect this block's instructions.
        let mut calls = Vec::new();
        let mut trailing: Vec<(u64, Decoded)> = Vec::new();
        while inst_idx < d.insts.len() && d.insts[inst_idx].addr < bend {
            let di = d.insts[inst_idx];
            match di.inst {
                Decoded::Call { disp, len } => {
                    let target = (di.addr as i64 + len as i64 + disp) as u64;
                    calls.push((di.addr, target));
                    trailing.clear();
                }
                Decoded::Jump { .. } | Decoded::CondBr { .. } | Decoded::Ret => {
                    trailing.push((di.addr, di.inst));
                }
                Decoded::Straight { .. } => trailing.clear(),
            }
            inst_idx += 1;
        }
        // Interpret the trailing control instructions.
        let resolve = |addr: u64, inst: &Decoded| -> u64 {
            let (disp, len) = match *inst {
                Decoded::Jump { disp, len } | Decoded::CondBr { disp, len } => (disp, len),
                _ => unreachable!(),
            };
            (addr as i64 + len as i64 + disp) as u64
        };
        let (term, branch_bytes) = match trailing.as_slice() {
            [] => (RecTerm::Fallthrough, 0u64),
            [(_, Decoded::Ret)] => (RecTerm::Ret, 1),
            [(a, j @ Decoded::Jump { len, .. })] => (RecTerm::Jump(resolve(*a, j)), *len as u64),
            [(a, c @ Decoded::CondBr { len, .. })] => (
                RecTerm::Cond {
                    taken: resolve(*a, c),
                },
                *len as u64,
            ),
            [(a, c @ Decoded::CondBr { len: cl, .. }), (b, j @ Decoded::Jump { len: jl, .. })] => (
                RecTerm::CondJump {
                    taken: resolve(*a, c),
                    ft: resolve(*b, j),
                },
                (*cl + *jl) as u64,
            ),
            // Anything stranger (e.g. padding after a ret inside the
            // extent): treat the last transfer alone, rest as bytes.
            many => {
                let (a, last) = many.last().expect("nonempty");
                match last {
                    Decoded::Ret => (RecTerm::Ret, 1),
                    Decoded::Jump { len, .. } => (RecTerm::Jump(resolve(*a, last)), *len as u64),
                    Decoded::CondBr { len, .. } => (
                        RecTerm::Cond {
                            taken: resolve(*a, last),
                        },
                        *len as u64,
                    ),
                    Decoded::Straight { .. } | Decoded::Call { .. } => (RecTerm::Fallthrough, 0),
                }
            }
        };
        let size = bend - baddr;
        blocks.push(RecBlock {
            addr: baddr,
            size,
            straight_bytes: size - branch_bytes,
            calls,
            term,
        });
    }
    Some(RecCfg {
        addr: start,
        size: end - start,
        blocks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disasm::{disassemble, discover_functions};
    use propeller_codegen::{codegen_module, CodegenOptions};
    use propeller_ir::{BlockId, FunctionBuilder, Inst, ProgramBuilder, Terminator};
    use propeller_linker::{link, LinkInput, LinkOptions};

    fn one_function_cfg() -> RecCfg {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m.cc");
        let mut callee = FunctionBuilder::new("callee");
        callee.add_block(Vec::new(), Terminator::Ret);
        let callee = pb.add_function(m, callee);
        let mut f = FunctionBuilder::new("subject");
        f.add_block(
            vec![Inst::Alu],
            Terminator::CondBr {
                taken: BlockId(2),
                fallthrough: BlockId(1),
                prob_taken: 0.1,
            },
        );
        f.add_block(vec![Inst::Call(callee)], Terminator::Jump(BlockId(3)));
        f.add_block(vec![Inst::Store; 2], Terminator::Jump(BlockId(3)));
        f.add_block(Vec::new(), Terminator::Ret);
        pb.add_function(m, f);
        let p = pb.finish().unwrap();
        let r = codegen_module(&p.modules()[0], &p, &CodegenOptions::baseline()).unwrap();
        let bin = link(
            &[LinkInput::new(r.object, r.debug_layout)],
            &LinkOptions::default(),
        )
        .unwrap();
        let funcs = discover_functions(&bin);
        let subject = funcs.iter().find(|f| f.name == "subject").unwrap();
        reconstruct(&disassemble(&bin, subject)).unwrap()
    }

    #[test]
    fn blocks_match_source_structure() {
        let cfg = one_function_cfg();
        // Source has 4 blocks; reconstruction may add a padding block
        // at the end but must find at least the 4 real leaders.
        assert!(cfg.blocks.len() >= 4, "{cfg:#?}");
        assert!(matches!(cfg.blocks[0].term, RecTerm::Cond { .. }));
        // bb1 ends in an explicit jump over bb2.
        assert!(matches!(cfg.blocks[1].term, RecTerm::Jump(_)));
        assert!(!cfg.blocks[1].calls.is_empty());
        // bb2 falls through into bb3 (jump to next was elided by the
        // compiler).
        assert!(matches!(
            cfg.blocks[2].term,
            RecTerm::Fallthrough | RecTerm::Jump(_)
        ));
    }

    #[test]
    fn cond_taken_target_resolves_to_block_leader() {
        let cfg = one_function_cfg();
        let RecTerm::Cond { taken } = cfg.blocks[0].term else {
            panic!();
        };
        assert!(cfg.block_starting_at(taken).is_some());
    }

    #[test]
    fn block_lookup() {
        let cfg = one_function_cfg();
        let b1 = &cfg.blocks[1];
        assert_eq!(cfg.block_at(b1.addr), Some(1));
        assert_eq!(cfg.block_at(b1.addr + 1), Some(1));
        assert_eq!(cfg.block_at(cfg.addr + cfg.size + 10), None);
    }

    #[test]
    fn straight_bytes_exclude_branches() {
        let cfg = one_function_cfg();
        for b in &cfg.blocks {
            assert!(b.straight_bytes <= b.size);
        }
        // bb0: 1 ALU (3 bytes) + short-or-long condbr.
        assert_eq!(cfg.blocks[0].straight_bytes, 3);
    }
}
