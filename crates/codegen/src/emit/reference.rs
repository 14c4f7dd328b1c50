//! The pre-PR-18 emitter, kept verbatim as the test oracle the dense
//! plan / resolve / emit passes are compared against: a `HashMap`
//! position table, a `HashMap` of branch forms probed in every size
//! pass, a `Vec<Item>` and a byte `Vec` per block, callee names cloned
//! twice. Its `EmittedFragment` still carries the per-fragment `layout`
//! copy nobody read. Do not optimise this file — its value is that it
//! is the old code.

use crate::error::CodegenError;
use crate::isa::{fits_short, len, op};
use crate::layout::{BlockPlacement, ClusterName, FragmentLayout, FunctionClusters, FunctionLayout};
use propeller_ir::{BlockId, Function, Inst, Program, Terminator};
use propeller_obj::{BbEntry, BbFlags, Reloc, RelocKind, Section, SectionKind};
use std::collections::HashMap;

/// One emitted text fragment plus its metadata.
#[derive(Clone, Debug)]
pub struct EmittedFragment {
    /// The text section (bytes, relocations).
    pub section: Section,
    /// Symbol naming the fragment (function name, `<fn>.cold`, ...).
    pub symbol: String,
    /// Block placements.
    pub layout: FragmentLayout,
    /// Basic block address map entries for this fragment.
    pub bb_entries: Vec<BbEntry>,
}

/// The result of emitting one function.
#[derive(Clone, Debug)]
pub struct EmittedFunction {
    /// Fragments in cluster order.
    pub fragments: Vec<EmittedFragment>,
    /// Layout side table for the simulator.
    pub layout: FunctionLayout,
    /// Number of branch sites that required static relocations.
    pub relocated_branches: usize,
}

/// An intermediate, pre-encoding item.
#[derive(Clone, Debug)]
enum Item {
    /// Straight-line bytes (ALU/LOAD/STORE/NOP encodings).
    Raw(Vec<u8>),
    /// Call needing a relocation.
    Call { callee_symbol: String },
    /// Software prefetch needing a relocation.
    Prefetch { target_symbol: String },
    /// A branch to another block. `cond` distinguishes Jcc from JMP.
    Branch { cond: bool, target: BlockId },
    /// Return.
    Ret,
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

/// Emits `function` according to `clusters`.
///
/// `relocate_branches` selects the relocated regime; it is required
/// (and asserted) whenever more than one cluster exists.
///
/// # Errors
///
/// Returns [`CodegenError::BadClusterPartition`] /
/// [`CodegenError::UnknownBlock`] if `clusters` is not a permutation of
/// the function's blocks.
pub fn emit_function(
    function: &Function,
    program: &Program,
    clusters: &FunctionClusters,
    relocate_branches: bool,
) -> Result<EmittedFunction, CodegenError> {
    assert!(
        relocate_branches || clusters.clusters.len() <= 1,
        "multi-cluster emission requires relocated branches"
    );
    validate_partition(function, clusters)?;

    // Cluster symbols and block -> (cluster, position) map.
    let cluster_symbols: Vec<String> = clusters
        .clusters
        .iter()
        .map(|c| c.name.symbol(&function.name).to_string())
        .collect();
    let mut pos: HashMap<BlockId, (usize, usize)> = HashMap::new();
    for (ci, c) in clusters.clusters.iter().enumerate() {
        for (bi, &b) in c.blocks.iter().enumerate() {
            pos.insert(b, (ci, bi));
        }
    }

    // Lower every block into items, planning branch emission.
    // per cluster: Vec<(BlockId, Vec<Item>, implicit_fallthrough)>
    let mut lowered: Vec<Vec<(BlockId, Vec<Item>, bool)>> = Vec::new();
    for (ci, c) in clusters.clusters.iter().enumerate() {
        let mut blocks = Vec::with_capacity(c.blocks.len());
        for (bi, &bid) in c.blocks.iter().enumerate() {
            let block = function.block(bid).expect("validated");
            let mut items = Vec::new();
            let mut raw = Vec::new();
            for inst in function.insts_of(block) {
                match inst {
                    Inst::Alu => raw.extend_from_slice(&[op::ALU, 0, 0]),
                    Inst::Load => raw.extend_from_slice(&[op::LOAD, 0, 0, 0]),
                    Inst::Store => raw.extend_from_slice(&[op::STORE, 0, 0, 0]),
                    Inst::Nop => raw.push(op::NOP),
                    Inst::Call(callee) => {
                        if !raw.is_empty() {
                            items.push(Item::Raw(std::mem::take(&mut raw)));
                        }
                        let callee_symbol = program
                            .function(*callee)
                            .expect("program validated")
                            .name
                            .to_string();
                        items.push(Item::Call { callee_symbol });
                    }
                    Inst::Prefetch(target) => {
                        if !raw.is_empty() {
                            items.push(Item::Raw(std::mem::take(&mut raw)));
                        }
                        let target_symbol = program
                            .function(*target)
                            .expect("program validated")
                            .name
                            .to_string();
                        items.push(Item::Prefetch { target_symbol });
                    }
                }
            }
            if !raw.is_empty() {
                items.push(Item::Raw(raw));
            }
            let next_in_cluster = |target: BlockId| pos.get(&target) == Some(&(ci, bi + 1));
            let mut fallthrough = false;
            match block.term {
                Terminator::Ret => items.push(Item::Ret),
                Terminator::Jump(t) => {
                    if next_in_cluster(t) {
                        fallthrough = true;
                    } else {
                        items.push(Item::Branch {
                            cond: false,
                            target: t,
                        });
                    }
                }
                Terminator::CondBr {
                    taken, fallthrough: ft, ..
                } => {
                    if next_in_cluster(ft) {
                        items.push(Item::Branch {
                            cond: true,
                            target: taken,
                        });
                        fallthrough = true;
                    } else if next_in_cluster(taken) {
                        // Invert the condition so the hot path falls
                        // through.
                        items.push(Item::Branch {
                            cond: true,
                            target: ft,
                        });
                        fallthrough = true;
                    } else {
                        items.push(Item::Branch {
                            cond: true,
                            target: taken,
                        });
                        items.push(Item::Branch {
                            cond: false,
                            target: ft,
                        });
                    }
                }
            }
            blocks.push((bid, items, fallthrough));
        }
        lowered.push(blocks);
        let _ = ci;
    }

    // Phase A: size assignment. Compute per-cluster block offsets.
    // In the relocated regime all branches are long. In the resolved
    // regime, iterate shrinking to a fixpoint.
    let mut offsets: Vec<Vec<u32>> = Vec::new(); // [cluster][block_pos]
    let mut sizes: Vec<Vec<u32>> = Vec::new();
    let mut forms_per_cluster: Vec<HashMap<(usize, usize), Form>> = Vec::new();
    for (ci, blocks) in lowered.iter().enumerate() {
        let lp_nop = needs_landing_pad_nop(function, &clusters.clusters[ci].blocks);
        // forms keyed by (block position, item index)
        let mut forms: HashMap<(usize, usize), Form> = HashMap::new();
        for (bi, (_, items, _)) in blocks.iter().enumerate() {
            for (ii, item) in items.iter().enumerate() {
                if matches!(item, Item::Branch { .. }) {
                    forms.insert((bi, ii), Form::Long);
                }
            }
        }
        let compute = |forms: &HashMap<(usize, usize), Form>| -> (Vec<u32>, Vec<u32>) {
            let mut offs = Vec::with_capacity(blocks.len());
            let mut szs = Vec::with_capacity(blocks.len());
            let mut cursor: u32 = if lp_nop { 1 } else { 0 };
            for (bi, (_, items, _)) in blocks.iter().enumerate() {
                offs.push(cursor);
                let mut size = 0u32;
                for (ii, item) in items.iter().enumerate() {
                    size += match item {
                        Item::Raw(b) => b.len() as u32,
                        Item::Call { .. } => len::CALL as u32,
                        Item::Prefetch { .. } => len::PREFETCH as u32,
                        Item::Ret => len::RET as u32,
                        Item::Branch { cond, .. } => branch_len(*cond, forms[&(bi, ii)]) as u32,
                    };
                }
                szs.push(size);
                cursor += size;
            }
            (offs, szs)
        };
        let (mut offs, mut szs) = compute(&forms);
        if !relocate_branches {
            // Shrink resolvable branches to a fixpoint.
            for _ in 0..8 {
                let mut changed = false;
                // Walk items computing each branch's end offset.
                for (bi, (_, items, _)) in blocks.iter().enumerate() {
                    let mut cursor = offs[bi];
                    for (ii, item) in items.iter().enumerate() {
                        let l = match item {
                            Item::Raw(b) => b.len() as u32,
                            Item::Call { .. } => len::CALL as u32,
                            Item::Prefetch { .. } => len::PREFETCH as u32,
                            Item::Ret => len::RET as u32,
                            Item::Branch { cond, .. } => {
                                branch_len(*cond, forms[&(bi, ii)]) as u32
                            }
                        };
                        if let Item::Branch { cond, target } = item {
                            if forms[&(bi, ii)] == Form::Long {
                                // Target must be intra-cluster in the
                                // resolved regime (single cluster).
                                let (_, tpos) = pos[target];
                                let short_end = cursor as i64
                                    + branch_len(*cond, Form::Short) as i64;
                                let disp = offs[tpos] as i64 - short_end;
                                if fits_short(disp) {
                                    forms.insert((bi, ii), Form::Short);
                                    changed = true;
                                }
                            }
                        }
                        cursor += l;
                    }
                }
                if !changed {
                    break;
                }
                let r = compute(&forms);
                offs = r.0;
                szs = r.1;
            }
        }
        offsets.push(offs);
        sizes.push(szs);
        forms_per_cluster.push(forms);
    }

    // Phase B: byte emission with final offsets known for all clusters.
    let mut fragments = Vec::with_capacity(clusters.clusters.len());
    let mut relocated_branches = 0usize;
    for (ci, blocks) in lowered.iter().enumerate() {
        let lp_nop = needs_landing_pad_nop(function, &clusters.clusters[ci].blocks);
        let forms = &forms_per_cluster[ci];
        let mut bytes: Vec<u8> = Vec::new();
        let mut relocs: Vec<Reloc> = Vec::new();
        if lp_nop {
            bytes.push(op::NOP);
        }
        let mut placements = Vec::with_capacity(blocks.len());
        let mut bb_entries = Vec::with_capacity(blocks.len());
        for (bi, (bid, items, implicit_ft)) in blocks.iter().enumerate() {
            let block_off = offsets[ci][bi];
            debug_assert_eq!(bytes.len() as u32, block_off);
            for (ii, item) in items.iter().enumerate() {
                match item {
                    Item::Raw(raw) => bytes.extend_from_slice(raw),
                    Item::Ret => bytes.push(op::RET),
                    Item::Call { callee_symbol } => {
                        bytes.push(op::CALL);
                        relocs.push(Reloc::new(
                            bytes.len() as u32,
                            RelocKind::CallPc32,
                            callee_symbol.clone(),
                            0,
                        ));
                        bytes.extend_from_slice(&[0; 4]);
                    }
                    Item::Prefetch { target_symbol } => {
                        bytes.push(op::PREFETCH);
                        relocs.push(Reloc::new(
                            bytes.len() as u32,
                            RelocKind::CallPc32,
                            target_symbol.clone(),
                            0,
                        ));
                        bytes.extend_from_slice(&[0; 4]);
                    }
                    Item::Branch { cond, target } => {
                        let (tci, tpos) = pos[target];
                        let form = forms[&(bi, ii)];
                        if relocate_branches {
                            debug_assert_eq!(form, Form::Long);
                            relocated_branches += 1;
                            if *cond {
                                bytes.extend_from_slice(&[op::BR_LONG, 0]);
                            } else {
                                bytes.push(op::JMP_LONG);
                            }
                            relocs.push(Reloc::new(
                                bytes.len() as u32,
                                RelocKind::BranchPc32,
                                cluster_symbols[tci].clone(),
                                offsets[tci][tpos] as i64,
                            ));
                            bytes.extend_from_slice(&[0; 4]);
                        } else {
                            debug_assert_eq!(tci, ci, "resolved branches are intra-section");
                            let inst_len = branch_len(*cond, form) as i64;
                            let disp =
                                offsets[tci][tpos] as i64 - (bytes.len() as i64 + inst_len);
                            match form {
                                Form::Short => {
                                    debug_assert!(fits_short(disp));
                                    bytes.push(if *cond { op::BR_SHORT } else { op::JMP_SHORT });
                                    bytes.push(disp as i8 as u8);
                                }
                                Form::Long => {
                                    let disp32 = i32::try_from(disp).map_err(|_| {
                                        CodegenError::DisplacementOverflow {
                                            function: function.id,
                                        }
                                    })?;
                                    if *cond {
                                        bytes.extend_from_slice(&[op::BR_LONG, 0]);
                                    } else {
                                        bytes.push(op::JMP_LONG);
                                    }
                                    bytes.extend_from_slice(&disp32.to_le_bytes());
                                }
                            }
                        }
                    }
                }
            }
            let size = sizes[ci][bi];
            placements.push(BlockPlacement {
                block: *bid,
                offset: block_off,
                size,
            });
            let block = function.block(*bid).expect("validated");
            let mut flags = BbFlags::default();
            if block.is_landing_pad {
                flags = flags | BbFlags::LANDING_PAD;
            }
            if block.term.is_return() {
                flags = flags | BbFlags::RETURN;
            }
            if *implicit_ft {
                flags = flags | BbFlags::FALLTHROUGH;
            }
            bb_entries.push(BbEntry {
                bb_id: bid.0,
                offset: block_off,
                size,
                flags,
            });
        }
        let symbol = cluster_symbols[ci].clone();
        let is_primary = matches!(clusters.clusters[ci].name, ClusterName::Primary);
        let mut section = Section::new(
            format!(".text.{symbol}"),
            SectionKind::Text,
            bytes,
        );
        section.relocs = relocs;
        section.relaxable = relocate_branches;
        // Non-primary cluster sections pack tightly (alignment 1) so
        // fall-through deletion across adjacent sections is possible.
        section.align = if is_primary { 16 } else { 1 };
        fragments.push(EmittedFragment {
            section,
            symbol: symbol.clone(),
            layout: FragmentLayout {
                section_symbol: symbol.into(),
                blocks: placements.clone(),
            },
            bb_entries,
        });
    }

    let layout = FunctionLayout {
        function: function.id,
        func_symbol: function.name.clone(),
        fragments: fragments.iter().map(|f| f.layout.clone()).collect(),
    };
    Ok(EmittedFunction {
        fragments,
        layout,
        relocated_branches,
    })
}

/// §4.5: if a fragment's first block is a landing pad, a nop must be
/// inserted so landing pads have nonzero offsets relative to `@LPStart`.
fn needs_landing_pad_nop(function: &Function, blocks: &[BlockId]) -> bool {
    blocks
        .first()
        .and_then(|b| function.block(*b))
        .is_some_and(|b| b.is_landing_pad)
}

fn validate_partition(
    function: &Function,
    clusters: &FunctionClusters,
) -> Result<(), CodegenError> {
    let n = function.num_blocks();
    let mut seen = vec![false; n];
    for c in &clusters.clusters {
        for &b in &c.blocks {
            if b.index() >= n {
                return Err(CodegenError::UnknownBlock {
                    function: function.id,
                    block: b,
                });
            }
            if seen[b.index()] {
                return Err(CodegenError::BadClusterPartition {
                    function: function.id,
                    block: b,
                });
            }
            seen[b.index()] = true;
        }
    }
    if let Some(missing) = seen.iter().position(|s| !s) {
        return Err(CodegenError::BadClusterPartition {
            function: function.id,
            block: BlockId(missing as u32),
        });
    }
    Ok(())
}
