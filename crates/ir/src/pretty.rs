//! Human-readable IR listings (the `.ll`-style dump).

use crate::function::Function;
use crate::program::Program;
use std::fmt::Write;

/// Renders one function as an assembly-like listing.
///
/// ```
/// use propeller_ir::{pretty, FunctionBuilder, Inst, ProgramBuilder, Terminator};
///
/// let mut pb = ProgramBuilder::new();
/// let m = pb.add_module("m.cc");
/// let mut f = FunctionBuilder::new("f");
/// f.add_block(vec![Inst::Alu], Terminator::Ret);
/// pb.add_function(m, f);
/// let p = pb.finish().expect("valid");
/// let text = pretty::function_to_string(p.functions().next().expect("one"));
/// assert!(text.contains("define f"));
/// ```
pub fn function_to_string(f: &Function) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "define {} ({}) {{", f.name, f.id);
    for b in &f.blocks {
        let lp = if b.is_landing_pad { " ; landing pad" } else { "" };
        let _ = writeln!(out, "{}: ; freq={}{}", b.id, b.freq, lp);
        for i in f.insts_of(b) {
            let _ = writeln!(out, "    {i}");
        }
        let _ = writeln!(out, "    {}", b.term);
    }
    let _ = writeln!(out, "}}");
    out
}

/// Renders a whole program, module by module.
pub fn program_to_string(p: &Program) -> String {
    let mut out = String::new();
    for m in p.modules() {
        let _ = writeln!(out, "; module {} ({})", m.name, m.id);
        for f in &m.functions {
            out.push_str(&function_to_string(f));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FunctionBuilder, ProgramBuilder};
    use crate::ids::BlockId;
    use crate::inst::{Inst, Terminator};

    fn sample() -> Program {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("demo.cc");
        let mut f = FunctionBuilder::new("work");
        let b0 = f.add_block(
            vec![Inst::Alu, Inst::Load],
            Terminator::CondBr {
                taken: BlockId(1),
                fallthrough: BlockId(1),
                prob_taken: 0.25,
            },
        );
        f.set_block_freq(b0, 42);
        let lp = f.add_block(Vec::new(), Terminator::Ret);
        f.set_landing_pad(lp);
        pb.add_function(m, f);
        pb.finish().unwrap()
    }

    #[test]
    fn listing_contains_structure() {
        let p = sample();
        let text = program_to_string(&p);
        assert!(text.contains("; module demo.cc (m0)"));
        assert!(text.contains("define work (f0)"));
        assert!(text.contains("bb0: ; freq=42"));
        assert!(text.contains("    alu"));
        assert!(text.contains("br bb1 (p=0.25) else bb1"));
        assert!(text.contains("; landing pad"));
        assert!(text.trim_end().ends_with('}'));
    }

    #[test]
    fn every_block_listed_once() {
        let p = sample();
        let text = function_to_string(p.functions().next().unwrap());
        assert_eq!(text.matches("bb0:").count(), 1);
        assert_eq!(text.matches("bb1:").count(), 1);
    }
}
