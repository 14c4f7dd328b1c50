//! Structural hashing of IR modules for the content-addressed cache.

use propeller_ir::{FunctionId, Inst, Module, Terminator};
use propeller_obj::{ContentHash, ContentHasher};

/// Each instruction kind's tag byte, indexed by [`Inst::kind`]. The
/// values are part of every cache key.
const INST_TAG: [u8; Inst::KINDS] = {
    let mut tag = [0; Inst::KINDS];
    tag[Inst::Alu.kind()] = 1;
    tag[Inst::Load.kind()] = 2;
    tag[Inst::Store.kind()] = 3;
    tag[Inst::Nop.kind()] = 4;
    tag[Inst::Call(FunctionId(0)).kind()] = 5;
    tag[Inst::Prefetch(FunctionId(0)).kind()] = 6;
    tag
};

/// Computes a content hash over everything a codegen action reads from
/// a module: names, block structure, instructions, terminators and
/// frequencies. Two modules with the same fingerprint compile to the
/// same object under the same options.
pub fn module_fingerprint(module: &Module) -> ContentHash {
    let mut h = ContentHash::of_bytes(module.name.as_bytes());
    for f in &module.functions {
        h = h.combine(ContentHash::of_bytes(f.name.as_bytes()));
        for b in &f.blocks {
            let mut block = ContentHasher::default();
            block.write(&b.freq.to_le_bytes());
            block.write(&[u8::from(b.is_landing_pad)]);
            for &i in f.insts_of(b) {
                block.write(&[INST_TAG[i.kind()]]);
                if let Some(target) = i.referenced_function() {
                    block.write(&target.0.to_le_bytes());
                }
            }
            match b.term {
                Terminator::Ret => block.write(&[10]),
                Terminator::Jump(t) => {
                    block.write(&[11]);
                    block.write(&t.0.to_le_bytes());
                }
                Terminator::CondBr {
                    taken,
                    fallthrough,
                    prob_taken,
                } => {
                    block.write(&[12]);
                    block.write(&taken.0.to_le_bytes());
                    block.write(&fallthrough.0.to_le_bytes());
                    block.write(&prob_taken.to_le_bytes());
                }
            }
            h = h.combine(block.finish());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_ir::{BlockId, FunctionBuilder, ProgramBuilder};

    fn program_with(freq: u64) -> propeller_ir::Program {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("a.cc");
        let mut f = FunctionBuilder::new("f");
        let b = f.add_block(vec![Inst::Alu], Terminator::Ret);
        f.set_block_freq(b, freq);
        pb.add_function(m, f);
        pb.finish().unwrap()
    }

    #[test]
    fn stable_for_identical_modules() {
        let a = program_with(5);
        let b = program_with(5);
        assert_eq!(
            module_fingerprint(&a.modules()[0]),
            module_fingerprint(&b.modules()[0])
        );
    }

    /// Recorded from the commit before fingerprints were streamed
    /// (PR 18). The value is a cache key and, through
    /// `ActionCache::lookup`, a fault-injector site: one
    /// changed bit is a different `chaos_report.json`.
    #[test]
    fn golden_vector_over_three_pinned_programs() {
        use propeller_synth::{generate, spec_by_name, GenParams};
        const GOLDEN: [u64; 3] = [
            0x438f_102a_16ca_782d,
            0x9ee6_e0b9_84ea_c149,
            0xb72b_6d22_fea5_8428,
        ];
        let pinned = [("clang", 0.004, 13, 12), ("mysql", 0.004, 7, 5), ("505.mcf", 1.0, 3, 9)];
        let got = pinned.map(|(spec, scale, seed, funcs_per_module)| {
            let params = GenParams {
                scale,
                seed,
                funcs_per_module,
                entry_points: 4,
            };
            let p = generate(&spec_by_name(spec).expect("built-in spec"), &params).program;
            p.modules()
                .iter()
                .fold(ContentHash::of_bytes(spec.as_bytes()), |h, m| {
                    h.combine(module_fingerprint(m))
                })
                .0
        });
        assert_eq!(got, GOLDEN, "got {got:#018x?}");
    }

    /// Every instruction and terminator tag plus the landing-pad byte,
    /// which the generated programs above do not all reach. Recorded
    /// with the vector above.
    #[test]
    fn golden_value_of_a_module_with_every_encoding() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("every.cc");
        let mut leaf = FunctionBuilder::new("leaf");
        leaf.add_block(vec![Inst::Nop], Terminator::Ret);
        let leaf = pb.add_function(m, leaf);
        let mut f = FunctionBuilder::new("every");
        let insts = vec![
            Inst::Alu,
            Inst::Load,
            Inst::Store,
            Inst::Nop,
            Inst::Call(leaf),
            Inst::Prefetch(leaf),
        ];
        let cond = Terminator::CondBr {
            taken: BlockId(2),
            fallthrough: BlockId(1),
            prob_taken: 0.25,
        };
        f.add_block(insts, cond);
        f.add_block(vec![], Terminator::Jump(BlockId(2)));
        let pad = f.add_block(vec![], Terminator::Ret);
        f.set_landing_pad(pad);
        f.set_block_freq(pad, 77);
        pb.add_function(m, f);
        let p = pb.finish().unwrap();
        let got = module_fingerprint(&p.modules()[0]).0;
        assert_eq!(got, 0xcf9a_d195_2b8f_fe01, "got {got:#018x}");
    }

    #[test]
    fn sensitive_to_frequency_changes() {
        let a = program_with(5);
        let b = program_with(6);
        assert_ne!(
            module_fingerprint(&a.modules()[0]),
            module_fingerprint(&b.modules()[0])
        );
    }
}
