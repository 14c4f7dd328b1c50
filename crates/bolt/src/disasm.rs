//! Function discovery and linear disassembly.

use propeller_codegen::isa::{decode, Decoded};
use propeller_linker::LinkedBinary;

/// Modeled in-memory cost of one decoded instruction record (BOLT's
/// `MCInst` plus annotation storage).
pub const BYTES_PER_INST_RECORD: u64 = 80;

/// One discovered function.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DiscoveredFunction {
    /// Symbol name.
    pub name: String,
    /// Start address.
    pub addr: u64,
    /// Extent in bytes (to the next symbol or end of text).
    pub size: u64,
}

/// A decoded instruction at an address.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct DecodedInst {
    /// Instruction address.
    pub addr: u64,
    /// Decoded form.
    pub inst: Decoded,
}

/// The result of disassembling one function.
#[derive(Clone, PartialEq, Debug)]
pub struct DisassembledFunction {
    /// Discovery record.
    pub func: DiscoveredFunction,
    /// Instructions in address order; empty if the function was not
    /// *simple* (decoding failed somewhere — data in code, alignment
    /// islands...), in which case BOLT leaves it untouched.
    pub insts: Vec<DecodedInst>,
    /// Whether decoding covered the whole extent cleanly.
    pub simple: bool,
}

/// Discovers functions from the binary's symbol table: every global
/// symbol inside the text segment anchors a function; extents run to
/// the next symbol.
pub fn discover_functions(binary: &LinkedBinary) -> Vec<DiscoveredFunction> {
    let mut syms: Vec<(&str, u64)> = binary
        .symbols
        .iter()
        .filter(|&(_, &a)| a >= binary.text_start && a < binary.text_end)
        .map(|(n, &a)| (&**n, a))
        .collect();
    syms.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(b.0)));
    let mut out = Vec::with_capacity(syms.len());
    for (i, &(name, addr)) in syms.iter().enumerate() {
        // Co-located symbols (aliases) keep only the first.
        if i + 1 < syms.len() && syms[i + 1].1 == addr {
            continue;
        }
        let end = syms.get(i + 1).map(|&(_, a)| a).unwrap_or(binary.text_end);
        out.push(DiscoveredFunction {
            name: name.to_string(),
            addr,
            size: end - addr,
        });
    }
    out
}

/// Linearly disassembles one function's bytes.
///
/// Trailing nop padding (inserted by the linker between sections) is
/// tolerated; any other decode failure marks the function non-simple.
pub fn disassemble(binary: &LinkedBinary, func: &DiscoveredFunction) -> DisassembledFunction {
    let mut insts = Vec::new();
    let Some(bytes) = binary.read(func.addr, func.size as usize) else {
        return DisassembledFunction {
            func: func.clone(),
            insts: Vec::new(),
            simple: false,
        };
    };
    let mut off = 0usize;
    let mut simple = true;
    while off < bytes.len() {
        match decode(&bytes[off..]) {
            Some(d) => {
                insts.push(DecodedInst {
                    addr: func.addr + off as u64,
                    inst: d,
                });
                off += d.len();
            }
            None => {
                simple = false;
                break;
            }
        }
    }
    if !simple {
        insts.clear();
    }
    DisassembledFunction {
        func: func.clone(),
        insts,
        simple,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_codegen::{codegen_module, CodegenOptions};
    use propeller_ir::{BlockId, FunctionBuilder, Inst, ProgramBuilder, Terminator};
    use propeller_linker::{link, LinkInput, LinkOptions};

    fn binary() -> LinkedBinary {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m.cc");
        let mut f = FunctionBuilder::new("first");
        f.add_block(
            vec![Inst::Alu; 2],
            Terminator::CondBr {
                taken: BlockId(1),
                fallthrough: BlockId(1),
                prob_taken: 0.5,
            },
        );
        f.add_block(vec![Inst::Load], Terminator::Ret);
        pb.add_function(m, f);
        let mut g = FunctionBuilder::new("second");
        g.add_block(vec![Inst::Store], Terminator::Ret);
        pb.add_function(m, g);
        let p = pb.finish().unwrap();
        let r = codegen_module(&p.modules()[0], &p, &CodegenOptions::baseline()).unwrap();
        link(
            &[LinkInput::new(r.object, r.debug_layout)],
            &LinkOptions::default(),
        )
        .unwrap()
        .with_static_relocs()
    }

    #[test]
    fn discovery_orders_by_address_with_extents() {
        let bin = binary();
        let funcs = discover_functions(&bin);
        assert_eq!(funcs.len(), 2);
        assert_eq!(funcs[0].name, "first");
        assert_eq!(funcs[1].name, "second");
        assert_eq!(funcs[0].addr + funcs[0].size, funcs[1].addr);
        assert_eq!(funcs[1].addr + funcs[1].size, bin.text_end);
    }

    #[test]
    fn disassembly_decodes_whole_function() {
        let bin = binary();
        let funcs = discover_functions(&bin);
        let d = disassemble(&bin, &funcs[0]);
        assert!(d.simple);
        // 2x ALU + condbr + load + ret (+ possible alignment nops).
        assert!(d.insts.len() >= 5);
        assert!(matches!(
            d.insts.last().unwrap().inst,
            Decoded::Ret | Decoded::Straight { .. }
        ));
    }

    #[test]
    fn garbage_bytes_mark_function_non_simple() {
        let mut bin = binary();
        let funcs = discover_functions(&bin);
        // Corrupt the opcode byte of `first`'s second instruction
        // (operand bytes are opaque; only opcodes drive decoding).
        let off = (funcs[0].addr - bin.base + 3) as usize;
        bin.image[off] = 0xEE;
        let d = disassemble(&bin, &funcs[0]);
        assert!(!d.simple);
        assert!(d.insts.is_empty());
    }
}
