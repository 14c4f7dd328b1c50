//! Lowering a function's blocks into encoded text sections.
//!
//! Two emission regimes exist, chosen per function:
//!
//! * **Resolved** (baseline, and functions without cluster directives):
//!   the whole function is one section; the assembler resolves every
//!   intra-function branch, choosing short forms where the displacement
//!   fits, and omits jumps to the next block (implicit fall-through).
//! * **Relocated** (basic block sections, §4.2): every control transfer
//!   carries a static relocation and uses the long encoding, fall-through
//!   jumps are kept explicit, and the section is marked `relaxable` so
//!   the linker may later delete redundant jumps and shrink branches.
//!
//! Emission is three passes over flat tables — nothing is hashed and
//! nothing is allocated per block, and the tables live in a [`Scratch`]
//! that a module's functions reuse:
//!
//! 1. **plan**: one [`BlockPlan`] per block in emission order — body
//!    size, up to two branch slots, return / fall-through flags;
//! 2. **resolve**: offsets and sizes are assigned over that slice, and
//!    in the resolved regime long branches shrink to a fixpoint;
//! 3. **emit**: bytes are written straight from the IR into a buffer of
//!    the now-known size, and each block's `.llvm_bb_addr_map` entry
//!    straight into the module's map.

use crate::error::CodegenError;
use crate::isa::{fits_short, len, op, INST_ENCODING};
use crate::layout::{BlockPlacement, ClusterName, FragmentLayout, FunctionClusters, FunctionLayout};
use propeller_ir::{BlockId, Function, Inst, Program, Terminator};
use propeller_obj::{BbAddrMapWriter, BbEntry, BbFlags, Reloc, RelocKind, Section, SectionKind};

/// The result of emitting one function.
#[derive(Clone, PartialEq, Debug)]
pub(crate) struct EmittedFunction {
    /// Fragments in cluster order: text sections, each defining the
    /// symbol that names it (function name, `<fn>.cold`, ...).
    pub fragments: Vec<Section>,
    /// Layout side table for the simulator; its fragments are parallel
    /// to `fragments`.
    pub layout: FunctionLayout,
    /// Number of branch sites that required static relocations.
    pub relocated_branches: usize,
}

impl EmittedFunction {
    /// Total text bytes across fragments.
    pub(crate) fn text_size(&self) -> usize {
        self.fragments.iter().map(Section::size).sum()
    }
}

/// The per-function tables of [`emit_function`], kept across a
/// module's functions so that each reuses the last one's capacity.
#[derive(Default)]
pub(crate) struct Scratch {
    pos: Vec<Pos>,
    plans: Vec<BlockPlan>,
    /// Where a cluster or section name is formatted before its one
    /// allocation.
    name: String,
}

/// A branch form decision.
#[derive(Copy, Clone, PartialEq, Debug)]
enum Form {
    Short,
    Long,
}

fn branch_len(cond: bool, form: Form) -> usize {
    match (cond, form) {
        (true, Form::Short) => len::BR_SHORT,
        (true, Form::Long) => len::BR_LONG,
        (false, Form::Short) => len::JMP_SHORT,
        (false, Form::Long) => len::JMP_LONG,
    }
}

/// A branch to another block at a block's end. `cond` distinguishes
/// Jcc from JMP.
#[derive(Copy, Clone)]
struct Branch {
    cond: bool,
    target: BlockId,
    form: Form,
}

/// Everything size assignment and emission need to know about one
/// block, so neither pass goes back to an intermediate item list.
#[derive(Copy, Clone)]
struct BlockPlan {
    block: BlockId,
    /// Bytes of the straight-line instructions.
    body: u32,
    /// Calls and prefetches among them: one relocation each.
    body_relocs: u32,
    /// The terminator's branches in emission order (a conditional
    /// branch first, then its unconditional partner).
    branches: [Option<Branch>; 2],
    ret: bool,
    /// Control reaches the next block of the cluster implicitly.
    fallthrough: bool,
    /// Offset within the cluster's section, as of the last [`assign`].
    offset: u32,
    /// Encoded size, as of the last [`assign`].
    size: u32,
}

/// Where a block was placed: `(cluster index, index into the plans)`.
type Pos = (u32, u32);

/// Emits `function` according to `clusters`, writing its
/// `.llvm_bb_addr_map` record into `addr_map` when one is given.
///
/// `relocate_branches` selects the relocated regime; it is required
/// (and asserted) whenever more than one cluster exists.
///
/// # Errors
///
/// Returns [`CodegenError::BadClusterPartition`] /
/// [`CodegenError::UnknownBlock`] if `clusters` is not a permutation of
/// the function's blocks, and [`CodegenError::UnknownFunction`] if the
/// function calls or prefetches a function the program does not have.
/// A failed function may have written part of its record to `addr_map`.
pub(crate) fn emit_function(
    function: &Function,
    program: &Program,
    clusters: &FunctionClusters,
    relocate_branches: bool,
    scratch: &mut Scratch,
    mut addr_map: Option<&mut BbAddrMapWriter>,
) -> Result<EmittedFunction, CodegenError> {
    assert!(
        relocate_branches || clusters.clusters.len() <= 1,
        "multi-cluster emission requires relocated branches"
    );
    let Scratch { pos, plans, name } = scratch;
    place_blocks(function, clusters, pos)?;
    plan_blocks(function, clusters, pos, plans);

    // Size assignment, cluster by cluster. In the relocated regime all
    // branches stay long; in the resolved regime (a single cluster)
    // they shrink to a fixpoint.
    let mut start = 0;
    for c in &clusters.clusters {
        let cluster = &mut plans[start..start + c.blocks.len()];
        let lp_nop = needs_landing_pad_nop(function, &c.blocks);
        assign(cluster, lp_nop);
        if !relocate_branches {
            shrink_branches(cluster, pos, lp_nop);
        }
        start += c.blocks.len();
    }

    // The layout's fragments double as the cluster symbol table that
    // section-crossing relocations name.
    let mut layout = FunctionLayout {
        function: function.id,
        func_symbol: function.name.clone(),
        fragments: clusters
            .clusters
            .iter()
            .map(|c| FragmentLayout {
                section_symbol: c.name.symbol_in(&function.name, name),
                blocks: Vec::new(),
            })
            .collect(),
    };
    if let Some(map) = addr_map.as_deref_mut() {
        map.function(&function.name, clusters.clusters.len());
    }

    // Byte emission with final offsets known for all clusters.
    let mut fragments = Vec::with_capacity(clusters.clusters.len());
    let mut relocated_branches = 0usize;
    let mut start = 0;
    for (ci, c) in clusters.clusters.iter().enumerate() {
        let cluster = &plans[start..start + c.blocks.len()];
        start += c.blocks.len();
        let symbol = layout.fragments[ci].section_symbol.clone();
        if let Some(map) = addr_map.as_deref_mut() {
            map.range(&function.name, &symbol, cluster.len());
        }
        let lp_nop = needs_landing_pad_nop(function, &c.blocks);
        let text_len = cluster
            .last()
            .map_or(u32::from(lp_nop), |p| p.offset + p.size);
        let num_relocs: u32 = cluster
            .iter()
            .map(|p| {
                let branches = p.branches.iter().flatten().count() as u32;
                p.body_relocs + if relocate_branches { branches } else { 0 }
            })
            .sum();
        let mut bytes: Vec<u8> = Vec::with_capacity(text_len as usize);
        let mut relocs: Vec<Reloc> = Vec::with_capacity(num_relocs as usize);
        if lp_nop {
            bytes.push(op::NOP);
        }
        let mut placements = Vec::with_capacity(cluster.len());
        for plan in cluster {
            debug_assert_eq!(bytes.len() as u32, plan.offset);
            let block = &function.blocks[plan.block.index()];
            // Straight-line code: opcodes from the table into the body's
            // zeroed slice; calls and prefetches get their relocation.
            let body_start = bytes.len();
            bytes.resize(body_start + plan.body as usize, 0);
            let mut at = body_start;
            for inst in function.insts_of(block) {
                let (length, opcode) = INST_ENCODING[inst.kind()];
                bytes[at] = opcode;
                if let Some(target) = inst.referenced_function() {
                    let callee = program
                        .function(target)
                        .ok_or(CodegenError::UnknownFunction(target))?;
                    relocs.push(Reloc::new(
                        at as u32 + 1,
                        RelocKind::CallPc32,
                        callee.name.clone(),
                        0,
                    ));
                }
                at += usize::from(length);
            }
            if plan.ret {
                bytes.push(op::RET);
            }
            for br in plan.branches.iter().flatten() {
                let (tci, tpos) = pos[br.target.index()];
                let target_offset = plans[tpos as usize].offset;
                let inst_end = bytes.len() as i64 + branch_len(br.cond, br.form) as i64;
                let disp = target_offset as i64 - inst_end;
                match br.form {
                    Form::Short => {
                        debug_assert!(!relocate_branches && fits_short(disp));
                        bytes.push(if br.cond { op::BR_SHORT } else { op::JMP_SHORT });
                        bytes.push(disp as i8 as u8);
                    }
                    Form::Long => {
                        if br.cond {
                            bytes.extend_from_slice(&[op::BR_LONG, 0]);
                        } else {
                            bytes.push(op::JMP_LONG);
                        }
                        if relocate_branches {
                            relocated_branches += 1;
                            relocs.push(Reloc::new(
                                bytes.len() as u32,
                                RelocKind::BranchPc32,
                                layout.fragments[tci as usize].section_symbol.clone(),
                                target_offset as i64,
                            ));
                            bytes.extend_from_slice(&[0; 4]);
                        } else {
                            debug_assert_eq!(tci as usize, ci, "resolved branches are intra-section");
                            let disp32 = i32::try_from(disp).map_err(|_| {
                                CodegenError::DisplacementOverflow {
                                    function: function.id,
                                }
                            })?;
                            bytes.extend_from_slice(&disp32.to_le_bytes());
                        }
                    }
                }
            }
            placements.push(BlockPlacement {
                block: plan.block,
                offset: plan.offset,
                size: plan.size,
            });
            if let Some(map) = addr_map.as_deref_mut() {
                let mut flags = BbFlags::default();
                if block.is_landing_pad {
                    flags = flags | BbFlags::LANDING_PAD;
                }
                if plan.ret {
                    flags = flags | BbFlags::RETURN;
                }
                if plan.fallthrough {
                    flags = flags | BbFlags::FALLTHROUGH;
                }
                map.entry(BbEntry {
                    bb_id: plan.block.0,
                    offset: plan.offset,
                    size: plan.size,
                    flags,
                });
            }
        }
        debug_assert_eq!(bytes.len() as u32, text_len);
        name.clear();
        name.push_str(".text.");
        name.push_str(&symbol);
        let mut section = Section::new(name.as_str(), SectionKind::Text, bytes);
        section.symbol = Some(symbol);
        section.relocs = relocs;
        section.relaxable = relocate_branches;
        // Non-primary cluster sections pack tightly (alignment 1) so
        // fall-through deletion across adjacent sections is possible.
        section.align = if matches!(c.name, ClusterName::Primary) { 16 } else { 1 };
        layout.fragments[ci].blocks = placements;
        fragments.push(section);
    }

    Ok(EmittedFunction {
        fragments,
        layout,
        relocated_branches,
    })
}

/// Plans every block into `plans`, in emission order: sizes its body
/// and decides which branches its terminator needs given what follows
/// it in its cluster. All branches start long.
fn plan_blocks(
    function: &Function,
    clusters: &FunctionClusters,
    pos: &[Pos],
    plans: &mut Vec<BlockPlan>,
) {
    plans.clear();
    for (ci, c) in clusters.clusters.iter().enumerate() {
        for &bid in &c.blocks {
            let block = &function.blocks[bid.index()];
            let (mut body, mut body_relocs) = (0u32, 0u32);
            for &inst in function.insts_of(block) {
                body += u32::from(INST_ENCODING[inst.kind()].0);
                body_relocs += u32::from(matches!(inst, Inst::Call(_) | Inst::Prefetch(_)));
            }
            let next = (ci as u32, plans.len() as u32 + 1);
            let next_in_cluster = |target: BlockId| pos[target.index()] == next;
            let long = |cond, target| {
                Some(Branch {
                    cond,
                    target,
                    form: Form::Long,
                })
            };
            let (branches, fallthrough) = match block.term {
                Terminator::Ret => ([None, None], false),
                Terminator::Jump(t) if next_in_cluster(t) => ([None, None], true),
                Terminator::Jump(t) => ([long(false, t), None], false),
                Terminator::CondBr {
                    taken, fallthrough: ft, ..
                } => {
                    if next_in_cluster(ft) {
                        ([long(true, taken), None], true)
                    } else if next_in_cluster(taken) {
                        // Invert the condition so the hot path falls
                        // through.
                        ([long(true, ft), None], true)
                    } else {
                        ([long(true, taken), long(false, ft)], false)
                    }
                }
            };
            plans.push(BlockPlan {
                block: bid,
                body,
                body_relocs,
                branches,
                ret: block.term.is_return(),
                fallthrough,
                offset: 0,
                size: 0,
            });
        }
    }
}

/// Assigns every block of one cluster its offset and size under the
/// current branch forms.
fn assign(cluster: &mut [BlockPlan], lp_nop: bool) {
    let mut cursor = u32::from(lp_nop);
    for p in cluster {
        p.offset = cursor;
        p.size = p.body + if p.ret { len::RET as u32 } else { 0 };
        for br in p.branches.iter().flatten() {
            p.size += branch_len(br.cond, br.form) as u32;
        }
        cursor += p.size;
    }
}

/// Shrinks the resolvable long branches of the function's only cluster
/// (so a [`Pos`] plan index indexes `cluster`) to a fixpoint, in at
/// most 8 sweeps. Within a sweep every position —
/// a branch's own and its target's — is the one the last [`assign`]
/// gave it: a shrink only takes effect in the next sweep's layout.
fn shrink_branches(cluster: &mut [BlockPlan], pos: &[Pos], lp_nop: bool) {
    for _ in 0..8 {
        let mut changed = false;
        for i in 0..cluster.len() {
            let mut cursor = cluster[i].offset + cluster[i].body;
            for slot in 0..2 {
                let Some(br) = cluster[i].branches[slot] else {
                    break;
                };
                if br.form == Form::Long {
                    let (_, tpos) = pos[br.target.index()];
                    let short_end = cursor as i64 + branch_len(br.cond, Form::Short) as i64;
                    let disp = cluster[tpos as usize].offset as i64 - short_end;
                    if fits_short(disp) {
                        cluster[i].branches[slot] = Some(Branch {
                            form: Form::Short,
                            ..br
                        });
                        changed = true;
                    }
                }
                cursor += branch_len(br.cond, br.form) as u32;
            }
        }
        if !changed {
            break;
        }
        assign(cluster, lp_nop);
    }
}

/// §4.5: if a fragment's first block is a landing pad, a nop must be
/// inserted so landing pads have nonzero offsets relative to `@LPStart`.
fn needs_landing_pad_nop(function: &Function, blocks: &[BlockId]) -> bool {
    blocks
        .first()
        .and_then(|b| function.block(*b))
        .is_some_and(|b| b.is_landing_pad)
}

/// Checks that `clusters` is a permutation of the function's blocks and
/// fills `pos` with each block's placement, indexed by block id.
fn place_blocks(
    function: &Function,
    clusters: &FunctionClusters,
    pos: &mut Vec<Pos>,
) -> Result<(), CodegenError> {
    const UNPLACED: Pos = (u32::MAX, u32::MAX);
    let n = function.num_blocks();
    pos.clear();
    pos.resize(n, UNPLACED);
    let mut placed = 0u32;
    for (ci, c) in clusters.clusters.iter().enumerate() {
        for &b in &c.blocks {
            if b.index() >= n {
                return Err(CodegenError::UnknownBlock {
                    function: function.id,
                    block: b,
                });
            }
            if pos[b.index()] != UNPLACED {
                return Err(CodegenError::BadClusterPartition {
                    function: function.id,
                    block: b,
                });
            }
            pos[b.index()] = (ci as u32, placed);
            placed += 1;
        }
    }
    if let Some(missing) = pos.iter().position(|&p| p == UNPLACED) {
        return Err(CodegenError::BadClusterPartition {
            function: function.id,
            block: BlockId(missing as u32),
        });
    }
    Ok(())
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{decode, Decoded};
    use propeller_ir::{FunctionBuilder, ProgramBuilder};
    use propeller_obj::BbAddrMap;
    use std::cell::RefCell;
    use std::sync::Arc;

    thread_local! {
        /// One scratch for every emission a test thread makes, so each
        /// starts from whatever the last one left behind.
        static SCRATCH: RefCell<Scratch> = RefCell::default();
    }

    /// [`emit_function`] with this thread's scratch.
    fn emit_into(
        f: &Function,
        p: &Program,
        clusters: &FunctionClusters,
        relocate: bool,
        map: Option<&mut BbAddrMapWriter>,
    ) -> Result<EmittedFunction, CodegenError> {
        SCRATCH.with(|s| emit_function(f, p, clusters, relocate, &mut s.borrow_mut(), map))
    }

    /// Emits without an address map.
    fn emit(
        f: &Function,
        p: &Program,
        clusters: &FunctionClusters,
        relocate: bool,
    ) -> Result<EmittedFunction, CodegenError> {
        emit_into(f, p, clusters, relocate, None)
    }

    /// Emits `f` as the only function of an address map, returning the
    /// map's bytes alongside.
    fn emit_mapped(
        f: &Function,
        p: &Program,
        clusters: &FunctionClusters,
        relocate: bool,
    ) -> Result<(EmittedFunction, Vec<u8>), CodegenError> {
        let mut map = BbAddrMapWriter::new(Vec::new(), 1);
        let e = emit_into(f, p, clusters, relocate, Some(&mut map))?;
        Ok((e, map.finish()))
    }

    /// Each fragment's address-map entries, as decoded from the record
    /// emission wrote.
    fn entries(
        f: &Function,
        p: &Program,
        clusters: &FunctionClusters,
        relocate: bool,
    ) -> Vec<Vec<BbEntry>> {
        let (_, bytes) = emit_mapped(f, p, clusters, relocate).unwrap();
        let mut map = BbAddrMap::default();
        map.decode_into(&bytes, Arc::from).unwrap();
        let record = map.functions.pop().unwrap();
        let ranges = map.ranges_of(&record);
        ranges.iter().map(|r| map.entries_of(r).to_vec()).collect()
    }

    /// Builds a program with one function shaped as:
    /// bb0: alu; condbr bb2 (p=.1) else bb1
    /// bb1: call f_leaf; jmp bb3
    /// bb2: alu x3; jmp bb3
    /// bb3: ret
    fn fixture() -> (Program, propeller_ir::FunctionId) {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m.cc");
        let mut leaf = FunctionBuilder::new("leaf");
        leaf.add_block(vec![Inst::Alu], Terminator::Ret);
        let leaf = pb.add_function(m, leaf);
        let mut f = FunctionBuilder::new("main_fn");
        f.add_block(
            vec![Inst::Alu],
            Terminator::CondBr {
                taken: BlockId(2),
                fallthrough: BlockId(1),
                prob_taken: 0.1,
            },
        );
        f.add_block(vec![Inst::Call(leaf)], Terminator::Jump(BlockId(3)));
        f.add_block(vec![Inst::Alu; 3], Terminator::Jump(BlockId(3)));
        f.add_block(Vec::new(), Terminator::Ret);
        let fid = pb.add_function(m, f);
        (pb.finish().unwrap(), fid)
    }

    fn original_clusters(f: &Function) -> FunctionClusters {
        FunctionClusters::single((0..f.num_blocks() as u32).map(BlockId).collect())
    }

    #[test]
    fn resolved_emission_uses_short_branches_and_fallthrough() {
        let (p, fid) = fixture();
        let f = p.function(fid).unwrap();
        let e = emit(f, &p, &original_clusters(f), false).unwrap();
        assert_eq!(e.fragments.len(), 1);
        assert_eq!(e.relocated_branches, 0);
        let sec = &e.fragments[0];
        let blocks = &e.layout.fragments[0].blocks;
        // bb0: alu(3) + br_short(2) = 5
        assert_eq!(blocks[0].size, 5);
        // bb1: call(5) + jmp_short(2) = 7
        assert_eq!(blocks[1].size, 7);
        // bb2: 3*alu(9) + fallthrough to bb3 -> no jump
        assert_eq!(blocks[2].size, 9);
        // bb3: ret
        assert_eq!(blocks[3].size, 1);
        // Only the call gets a relocation.
        assert_eq!(sec.relocs.len(), 1);
        assert_eq!(sec.relocs[0].kind, RelocKind::CallPc32);
        assert!(!sec.relaxable);
    }

    #[test]
    fn resolved_branch_displacements_are_correct() {
        let (p, fid) = fixture();
        let f = p.function(fid).unwrap();
        let e = emit(f, &p, &original_clusters(f), false).unwrap();
        let bytes = &e.fragments[0].bytes;
        // Decode bb0's branch at offset 3 (after one ALU).
        let d = decode(&bytes[3..]).unwrap();
        match d {
            Decoded::CondBr { disp, len } => {
                // Branch targets bb2 at offset 12; next inst at 3+len.
                assert_eq!(disp, 12 - (3 + len as i64));
            }
            other => panic!("expected condbr, got {other:?}"),
        }
    }

    #[test]
    fn relocated_emission_keeps_explicit_fallthroughs() {
        let (p, fid) = fixture();
        let f = p.function(fid).unwrap();
        // Split: hot cluster [0,1,3], cold cluster [2].
        let clusters = FunctionClusters::hot_cold(
            vec![BlockId(0), BlockId(1), BlockId(3)],
            vec![BlockId(2)],
        );
        let e = emit(f, &p, &clusters, true).unwrap();
        assert_eq!(e.fragments.len(), 2);
        let hot = &e.fragments[0];
        let cold = &e.fragments[1];
        assert_eq!(hot.symbol.as_deref(), Some("main_fn"));
        assert_eq!(cold.symbol.as_deref(), Some("main_fn.cold"));
        assert!(hot.relaxable);
        // Hot: bb0 alu(3)+br_long(6)=9; bb1 call(5)+jmp_long(5)=10 (jump
        // to bb3 is explicit because... bb3 IS next in cluster, so jump
        // omitted -> 5); bb3 ret(1).
        let [hot_blocks, cold_blocks] = [0, 1].map(|i| &e.layout.fragments[i].blocks);
        assert_eq!(hot_blocks[0].size, 9);
        assert_eq!(hot_blocks[1].size, 5);
        assert_eq!(hot_blocks[2].size, 1);
        // Cold: 3*alu(9) + explicit long jmp back to bb3 (5) = 14.
        assert_eq!(cold_blocks[0].size, 14);
        // Cold's jump carries a reloc to the hot section symbol with the
        // addend of bb3's offset (9+5=14).
        let r = cold
            .relocs
            .iter()
            .find(|r| r.kind == RelocKind::BranchPc32)
            .unwrap();
        assert_eq!(&*r.symbol, "main_fn");
        assert_eq!(r.addend, 14);
        // Branch relocation count: bb0's condbr + cold's jump.
        assert_eq!(e.relocated_branches, 2);
    }

    #[test]
    fn condition_inverted_when_taken_is_next() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m.cc");
        let mut f = FunctionBuilder::new("inv");
        f.add_block(
            Vec::new(),
            Terminator::CondBr {
                taken: BlockId(1),
                fallthrough: BlockId(2),
                prob_taken: 0.9,
            },
        );
        f.add_block(Vec::new(), Terminator::Ret);
        f.add_block(Vec::new(), Terminator::Ret);
        let fid = pb.add_function(m, f);
        let p = pb.finish().unwrap();
        let f = p.function(fid).unwrap();
        let e = emit(f, &p, &original_clusters(f), false).unwrap();
        let sec = &e.fragments[0];
        let blocks = &e.layout.fragments[0].blocks;
        // bb0 emits exactly one short branch (to bb2), falling through
        // to bb1.
        assert_eq!(blocks[0].size, 2);
        let d = decode(&sec.bytes[0..]).unwrap();
        match d {
            Decoded::CondBr { disp, len } => {
                assert_eq!(disp, blocks[2].offset as i64 - len as i64);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn landing_pad_nop_inserted() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m.cc");
        let mut f = FunctionBuilder::new("lp");
        f.add_block(Vec::new(), Terminator::Jump(BlockId(1)));
        let lp = f.add_block(Vec::new(), Terminator::Ret);
        f.set_landing_pad(lp);
        let fid = pb.add_function(m, f);
        let p = pb.finish().unwrap();
        let f = p.function(fid).unwrap();
        // Put the landing pad alone in a cold section: nop required.
        let clusters = FunctionClusters::hot_cold(vec![BlockId(0)], vec![BlockId(1)]);
        let e = emit(f, &p, &clusters, true).unwrap();
        assert_eq!(e.fragments[1].bytes[0], op::NOP);
        assert_eq!(e.layout.fragments[1].blocks[0].offset, 1);
        // And the bb entry reflects both the offset and the flag.
        let cold_entries = &entries(f, &p, &clusters, true)[1];
        assert_eq!(cold_entries[0].offset, 1);
        assert!(cold_entries[0].flags.contains(BbFlags::LANDING_PAD));
    }

    #[test]
    fn partition_validation() {
        let (p, fid) = fixture();
        let f = p.function(fid).unwrap();
        // Missing bb3.
        let c = FunctionClusters::single(vec![BlockId(0), BlockId(1), BlockId(2)]);
        assert!(matches!(
            emit(f, &p, &c, true),
            Err(CodegenError::BadClusterPartition { .. })
        ));
        // Unknown block.
        let c = FunctionClusters::single(vec![BlockId(0), BlockId(9)]);
        assert!(matches!(
            emit(f, &p, &c, true),
            Err(CodegenError::UnknownBlock { .. })
        ));
        // Duplicate block.
        let c = FunctionClusters::single(vec![BlockId(0), BlockId(0)]);
        assert!(matches!(
            emit(f, &p, &c, true),
            Err(CodegenError::BadClusterPartition { .. })
        ));
    }

    #[test]
    fn bb_entries_carry_fallthrough_and_return_flags() {
        let (p, fid) = fixture();
        let f = p.function(fid).unwrap();
        let entries = &entries(f, &p, &original_clusters(f), false)[0];
        // bb0 falls through to bb1 (condbr, fallthrough next).
        assert!(entries[0].flags.contains(BbFlags::FALLTHROUGH));
        // bb1 jumps explicitly: no fallthrough flag.
        assert!(!entries[1].flags.contains(BbFlags::FALLTHROUGH));
        // bb2 falls through to bb3.
        assert!(entries[2].flags.contains(BbFlags::FALLTHROUGH));
        // bb3 returns.
        assert!(entries[3].flags.contains(BbFlags::RETURN));
    }

    #[test]
    fn long_branches_used_when_displacement_large() {
        // A function whose branch must skip ~200 bytes of ALU work.
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m.cc");
        let mut f = FunctionBuilder::new("far");
        f.add_block(
            Vec::new(),
            Terminator::CondBr {
                taken: BlockId(2),
                fallthrough: BlockId(1),
                prob_taken: 0.5,
            },
        );
        f.add_block(vec![Inst::Alu; 100], Terminator::Jump(BlockId(2)));
        f.add_block(Vec::new(), Terminator::Ret);
        let fid = pb.add_function(m, f);
        let p = pb.finish().unwrap();
        let f = p.function(fid).unwrap();
        let e = emit(f, &p, &original_clusters(f), false).unwrap();
        let blocks = &e.layout.fragments[0].blocks;
        // bb0's branch skips 300 bytes of ALU: long form (6 bytes).
        assert_eq!(blocks[0].size, 6);
        match decode(&e.fragments[0].bytes).unwrap() {
            Decoded::CondBr { disp, len } => {
                assert_eq!(len, 6);
                assert_eq!(disp, blocks[2].offset as i64 - 6);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn whole_section_decodes_as_instruction_stream() {
        let (p, fid) = fixture();
        let f = p.function(fid).unwrap();
        let e = emit(f, &p, &original_clusters(f), false).unwrap();
        let bytes = &e.fragments[0].bytes;
        let mut off = 0;
        while off < bytes.len() {
            let d = decode(&bytes[off..]).unwrap_or_else(|| panic!("undecodable at {off}"));
            off += d.len();
        }
        assert_eq!(off, bytes.len());
    }

    /// The reference emitter's result in this module's types, with its
    /// fragments' address-map entries encoded as the function's record.
    /// Its per-fragment `layout` copy must be the function layout's
    /// fragment of the same index; its fragment `symbol` goes into the
    /// section's.
    fn lowered(r: reference::EmittedFunction) -> (EmittedFunction, Vec<u8>) {
        for (frag, fl) in r.fragments.iter().zip(&r.layout.fragments) {
            assert_eq!(&frag.layout, fl);
        }
        let func_symbol = &r.layout.func_symbol;
        let mut map = BbAddrMapWriter::new(Vec::new(), 1);
        map.function(func_symbol, r.fragments.len());
        for f in &r.fragments {
            map.range(func_symbol, &f.symbol, f.bb_entries.len());
            for &e in &f.bb_entries {
                map.entry(e);
            }
        }
        let function = EmittedFunction {
            fragments: r
                .fragments
                .into_iter()
                .map(|f| Section {
                    symbol: Some(f.symbol.into()),
                    ..f.section
                })
                .collect(),
            layout: r.layout,
            relocated_branches: r.relocated_branches,
        };
        (function, map.finish())
    }

    fn both(
        f: &Function,
        p: &Program,
        clusters: &FunctionClusters,
        relocate: bool,
    ) -> [Result<(EmittedFunction, Vec<u8>), CodegenError>; 2] {
        [
            emit_mapped(f, p, clusters, relocate),
            reference::emit_function(f, p, clusters, relocate).map(lowered),
        ]
    }

    /// A function whose block shapes are decoded from one random word
    /// each: empty bodies, mixed straight-line code with calls and
    /// prefetches, ALU runs sized around the short-branch range (so
    /// both forms and shrink cascades occur), landing pads, and
    /// terminators that target the next block, the one after it, the
    /// block itself, or anywhere — with `taken == fallthrough` allowed.
    fn random_function(raw: &[u64]) -> (Program, propeller_ir::FunctionId) {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m.cc");
        let leaves = ["leaf_a", "leaf_b"].map(|name| {
            let mut leaf = FunctionBuilder::new(name);
            leaf.add_block(vec![Inst::Alu], Terminator::Ret);
            pb.add_function(m, leaf)
        });
        let n = raw.len() as u64;
        let mut f = FunctionBuilder::new("subject");
        for (i, &w) in raw.iter().enumerate() {
            let i = i as u64;
            let count = (w >> 8) as usize;
            let insts = match w & 7 {
                0 | 1 => Vec::new(),
                2 | 3 => (0..1 + count % 6)
                    .map(|j| match (w >> (11 + 3 * j)) & 7 {
                        0 => Inst::Load,
                        1 => Inst::Store,
                        2 => Inst::Nop,
                        3 => Inst::Call(leaves[0]),
                        4 => Inst::Call(leaves[1]),
                        5 => Inst::Prefetch(leaves[0]),
                        _ => Inst::Alu,
                    })
                    .collect(),
                // 120..123 bytes: with a 2- or 6-byte branch behind it,
                // the span a shrink chain link needs.
                4 => {
                    let mut pad = vec![Inst::Alu; 40];
                    pad.extend(vec![Inst::Nop; count % 4]);
                    pad
                }
                5 => vec![Inst::Alu; 30 + count % 20],
                6 => vec![Inst::Alu; 50 + count % 80],
                _ => vec![Inst::Call(leaves[count % 2])],
            };
            let target = |choice: u64, anywhere: u64| {
                BlockId(match choice & 3 {
                    0 => (i + 1) % n,
                    1 => (i + 2) % n,
                    2 => i,
                    _ => anywhere % n,
                } as u32)
            };
            let taken = target(w >> 36, w >> 48);
            let term = match (w >> 33) & 7 {
                0 => Terminator::Ret,
                1 | 2 => Terminator::Jump(taken),
                _ => Terminator::CondBr {
                    taken,
                    fallthrough: match (w >> 38) & 3 {
                        1 => taken,
                        2 => target(3, w >> 56),
                        _ => target(0, 0),
                    },
                    prob_taken: 0.5,
                },
            };
            let b = f.add_block(insts, term);
            if (w >> 30) & 7 == 0 {
                f.set_landing_pad(b);
            }
        }
        let fid = pb.add_function(m, f);
        // Unchecked: a function without blocks is a case too.
        (pb.finish_unchecked(), fid)
    }

    /// Deals the blocks into `k` clusters (some possibly empty), in id
    /// order or shuffled; optionally a landing pad leads the last one.
    fn random_partition(f: &Function, raw: &[u64], k: usize, shape: u64) -> FunctionClusters {
        let names = match k {
            1 => vec![ClusterName::Primary],
            2 => vec![ClusterName::Primary, ClusterName::Cold],
            _ => vec![ClusterName::Primary, ClusterName::Numbered(1), ClusterName::Cold],
        };
        let mut clusters: Vec<crate::layout::Cluster> = names
            .into_iter()
            .map(|name| crate::layout::Cluster {
                name,
                blocks: Vec::new(),
            })
            .collect();
        for (i, &w) in raw.iter().enumerate() {
            clusters[(w >> 41) as usize % k].blocks.push(BlockId(i as u32));
        }
        if shape & 1 == 1 {
            for c in &mut clusters {
                c.blocks.sort_by_key(|b| (raw[b.index()] >> 20) & 0xffff);
            }
        }
        let last = &mut clusters[k - 1].blocks;
        if shape & 2 == 2 {
            if let Some(at) = last.iter().position(|b| f.blocks[b.index()].is_landing_pad) {
                last.swap(0, at);
            }
        }
        FunctionClusters { clusters }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The dense passes against the kept pre-rewrite emitter: the
        /// whole result equal, in both regimes, over one to three
        /// clusters, and the same error for a partition that drops,
        /// repeats or invents a block.
        #[test]
        fn matches_the_reference_emitter(
            raw in proptest::collection::vec(proptest::any::<u64>(), 0..41),
            shape in proptest::any::<u64>(),
        ) {
            let (p, fid) = random_function(&raw);
            let f = p.function(fid).unwrap();

            let single = random_partition(f, &raw, 1, shape);
            let [new, old] = both(f, &p, &single, false);
            proptest::prop_assert_eq!(new, old);
            let [new, old] = both(f, &p, &single, true);
            proptest::prop_assert_eq!(new, old);

            let mut split = random_partition(f, &raw, 2 + (shape >> 2) as usize % 2, shape >> 3);
            let [new, old] = both(f, &p, &split, true);
            proptest::prop_assert!(new.is_ok());
            proptest::prop_assert_eq!(new, old);

            let victim = &mut split.clusters[(shape >> 8) as usize % 2].blocks;
            let at = (shape >> 16) as usize % (victim.len() + 1);
            match ((shape >> 5) & 3, victim.get(at).copied()) {
                (0, Some(_)) => drop(victim.remove(at)),
                (1, Some(b)) => victim.push(b),
                (2, _) => victim.insert(at, BlockId(raw.len() as u32 + (shape >> 24) as u32 % 3)),
                _ => return Ok(()),
            }
            let [new, old] = both(f, &p, &split, true);
            proptest::prop_assert!(new.is_err());
            proptest::prop_assert_eq!(new, old);
        }
    }

    /// `links` branch-only blocks, each jumping over a 121-byte pad and
    /// the next link: link `i` reaches short range only once link
    /// `i + 1` has shrunk, so every sweep shrinks exactly one link,
    /// last first.
    fn shrink_chain(links: u32) -> (Program, propeller_ir::FunctionId) {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m.cc");
        let mut f = FunctionBuilder::new("chain");
        for i in 0..links {
            f.add_block(
                Vec::new(),
                Terminator::CondBr {
                    taken: BlockId(2 * i + 3),
                    fallthrough: BlockId(2 * i + 1),
                    prob_taken: 0.5,
                },
            );
            let mut pad = vec![Inst::Alu; 40];
            pad.push(Inst::Nop);
            f.add_block(pad, Terminator::Jump(BlockId(2 * i + 2)));
        }
        f.add_block(Vec::new(), Terminator::Jump(BlockId(2 * links + 1)));
        f.add_block(Vec::new(), Terminator::Ret);
        let fid = pb.add_function(m, f);
        (pb.finish().unwrap(), fid)
    }

    #[test]
    fn shrink_chains_take_one_sweep_per_link_and_stop_after_eight() {
        for links in [1, 2, 7, 8, 9, 12] {
            let (p, fid) = shrink_chain(links);
            let f = p.function(fid).unwrap();
            let [new, old] = both(f, &p, &original_clusters(f), false);
            assert_eq!(new, old, "{links} links");
            // Links beyond the eighth from the end never got their
            // sweep and keep the long form.
            let blocks = &new.unwrap().0.layout.fragments[0].blocks;
            for link in 0..links {
                let want = if link + 8 < links { 6 } else { 2 };
                assert_eq!(
                    blocks[2 * link as usize].size,
                    want,
                    "link {link} of {links}"
                );
            }
        }
    }

    /// A block's second branch is measured from where the sweep found
    /// it, even when the first branch shrank a moment earlier in the
    /// same sweep. Blocks: `pad` (122 bytes), `two` (`jcc` forward to
    /// `far`, `jmp` back to `pad`), a nop, `far` (120 bytes), then
    /// `links` backward links, each reaching short range once the block
    /// it targets — `two`, or the link before it — has fully shrunk.
    /// `two`'s `jmp` is 130 bytes from `pad` until its `jcc` has shrunk
    /// and the sizes were re-assigned, so it shrinks in sweep 2 and link
    /// `k` in sweep `2 + k`: the seventh link never gets its sweep. An
    /// emitter that let the `jmp` see the `jcc`'s new length would
    /// shrink everything one sweep earlier, the seventh link included.
    #[test]
    fn second_branch_of_a_block_is_measured_from_its_sweep_start_position() {
        let links = 7u32;
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m.cc");
        let mut f = FunctionBuilder::new("two_branches");
        let mut pad = vec![Inst::Alu; 40];
        pad.extend([Inst::Nop, Inst::Nop]);
        f.add_block(pad, Terminator::Jump(BlockId(1)));
        f.add_block(
            Vec::new(),
            Terminator::CondBr {
                taken: BlockId(3),
                fallthrough: BlockId(0),
                prob_taken: 0.5,
            },
        );
        f.add_block(vec![Inst::Nop], Terminator::Jump(BlockId(3)));
        f.add_block(vec![Inst::Alu; 40], Terminator::Jump(BlockId(4)));
        for k in 0..links {
            // Link k is block 4 + 2k and targets the previous link's
            // block (`two` for the first).
            f.add_block(
                Vec::new(),
                Terminator::CondBr {
                    taken: BlockId(if k == 0 { 1 } else { 2 + 2 * k }),
                    fallthrough: BlockId(5 + 2 * k),
                    prob_taken: 0.5,
                },
            );
            let mut pad = vec![Inst::Alu; 40];
            pad.push(Inst::Nop);
            f.add_block(pad, Terminator::Jump(BlockId(6 + 2 * k)));
        }
        f.add_block(Vec::new(), Terminator::Ret);
        let fid = pb.add_function(m, f);
        let p = pb.finish().unwrap();
        let f = p.function(fid).unwrap();
        let [new, old] = both(f, &p, &original_clusters(f), false);
        assert_eq!(new, old);
        let blocks = &new.unwrap().0.layout.fragments[0].blocks;
        assert_eq!(blocks[1].size, 4, "both of `two`'s branches shrank");
        for k in 0..links {
            let want = if k + 1 < links { 2 } else { 6 };
            assert_eq!(blocks[4 + 2 * k as usize].size, want, "link {k}");
        }
    }
}
