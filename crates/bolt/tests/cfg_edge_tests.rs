//! CFG-reconstruction edge cases for the disassembly-driven comparator.

use propeller_bolt::cfg::{reconstruct, RecTerm};
use propeller_bolt::disasm::{disassemble, discover_functions};
use propeller_codegen::{codegen_module, CodegenOptions};
use propeller_ir::{BlockId, FunctionBuilder, Inst, ProgramBuilder, Terminator};
use propeller_linker::{link, LinkInput, LinkOptions, LinkedBinary};

fn link_single(f: FunctionBuilder) -> LinkedBinary {
    let mut pb = ProgramBuilder::new();
    let m = pb.add_module("m.cc");
    pb.add_function(m, f);
    let p = pb.finish().unwrap();
    let r = codegen_module(&p.modules()[0], &p, &CodegenOptions::baseline()).unwrap();
    link(
        &[LinkInput::new(r.object, r.debug_layout)],
        &LinkOptions::default(),
    )
    .unwrap()
}

#[test]
fn cond_plus_jump_pair_reconstructed() {
    // bb0's branch has neither successor adjacent: the compiler must
    // emit Jcc + JMP, and the disassembler must see a CondJump.
    let mut f = FunctionBuilder::new("pair");
    f.add_block(
        vec![Inst::Alu],
        Terminator::CondBr {
            taken: BlockId(2),
            fallthrough: BlockId(3),
            prob_taken: 0.5,
        },
    );
    f.add_block(vec![Inst::Load], Terminator::Ret); // unreachable filler
    f.add_block(vec![Inst::Store], Terminator::Ret);
    f.add_block(vec![Inst::Alu; 2], Terminator::Ret);
    let bin = link_single(f);
    let funcs = discover_functions(&bin);
    let d = disassemble(&bin, &funcs[0]);
    assert!(d.simple);
    let cfg = reconstruct(&d).unwrap();
    // The emitter produced Jcc taken; JMP ft. The address after the
    // Jcc is a leader (its fall-through target), so reconstruction
    // yields a Cond block whose fall-through successor is a bare Jump
    // block — the same CFG, split at the leader.
    let RecTerm::Cond { taken } = cfg.blocks[0].term else {
        panic!("expected Cond, got {:?}", cfg.blocks[0].term);
    };
    assert!(cfg.block_starting_at(taken).is_some());
    let jmp_block = &cfg.blocks[1];
    let RecTerm::Jump(ft) = jmp_block.term else {
        panic!("expected trailing Jump block, got {:?}", jmp_block.term);
    };
    assert!(cfg.block_starting_at(ft).is_some());
    assert_ne!(taken, ft);
    assert_eq!(jmp_block.straight_bytes, 0, "the jump block is only the jump");
    // The Cond block's straight bytes are the single ALU.
    assert_eq!(cfg.blocks[0].straight_bytes, 3);
}

#[test]
fn backward_loop_branch_reconstructed() {
    let mut f = FunctionBuilder::new("loopy");
    f.add_block(vec![Inst::Alu], Terminator::Jump(BlockId(1)));
    f.add_block(
        vec![Inst::Load],
        Terminator::CondBr {
            taken: BlockId(1),
            fallthrough: BlockId(2),
            prob_taken: 0.9,
        },
    );
    f.add_block(Vec::new(), Terminator::Ret);
    let bin = link_single(f);
    let funcs = discover_functions(&bin);
    let cfg = reconstruct(&disassemble(&bin, &funcs[0])).unwrap();
    // The loop head is a leader (target of the back edge).
    let head = cfg
        .blocks
        .iter()
        .find(|b| matches!(b.term, RecTerm::Cond { taken } if taken == b.addr))
        .expect("self-looping block found");
    assert!(head.straight_bytes > 0);
}

#[test]
fn non_simple_function_excluded_from_rewriting() {
    // Corrupt one function; run the full BOLT driver; the corrupt
    // function must keep its original layout.
    let mut pb = ProgramBuilder::new();
    let m = pb.add_module("m.cc");
    let bbb_id = propeller_ir::FunctionId(1);
    let mut a = FunctionBuilder::new("aaa_fine");
    let mut insts = vec![Inst::Alu; 4];
    insts.push(Inst::Call(bbb_id)); // a call keeps a relocation in the BM binary
    a.add_block(insts, Terminator::Ret);
    pb.add_function(m, a);
    let mut b = FunctionBuilder::new("bbb_corrupt");
    b.add_block(vec![Inst::Alu; 4], Terminator::Ret);
    pb.add_function(m, b);
    let p = pb.finish().unwrap();
    let r = codegen_module(&p.modules()[0], &p, &CodegenOptions::baseline()).unwrap();
    let mut bin = link(
        &[LinkInput::new(r.object, r.debug_layout)],
        &LinkOptions::default(),
    )
    .unwrap()
    .with_static_relocs();
    // Smash an opcode in bbb_corrupt.
    let addr = bin.symbol("bbb_corrupt").unwrap();
    let off = (addr - bin.base + 3) as usize;
    bin.image[off] = 0xEE;

    // An (empty-ish) profile naming both functions.
    let mut profile = propeller_profile::HardwareProfile::new("t");
    let aaa = bin.symbol("aaa_fine").unwrap();
    profile.samples.push(propeller_profile::LbrSample::new(vec![
        propeller_profile::LbrRecord {
            from: aaa + 1,
            to: aaa,
        };
        5
    ]));
    let out = propeller_bolt::run_bolt(&bin, &profile, &propeller_bolt::BoltOptions::default())
        .unwrap();
    assert_eq!(out.stats.simple_functions, 1);
    // bbb_corrupt's block stays at its original address.
    let orig = bin
        .layout
        .functions
        .iter()
        .find(|f| &*f.func_symbol == "bbb_corrupt")
        .unwrap()
        .blocks[0];
    let after = out
        .layout
        .functions
        .iter()
        .find(|f| &*f.func_symbol == "bbb_corrupt")
        .unwrap()
        .blocks[0];
    assert_eq!(orig, after);
}
