//! The simulator's executable view: CFG structure married to final
//! addresses.

use propeller_ir::{Function, FunctionId, Inst, Program, Terminator};
use propeller_linker::FinalLayout;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// A terminator in simulator form (successors as indices into
/// [`ProgramImage::blocks`]).
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum SimTerm {
    /// Unconditional jump.
    Jump(u32),
    /// Conditional branch.
    Cond {
        /// Index of the taken-successor block.
        taken: u32,
        /// Index of the fall-through-successor block.
        ft: u32,
        /// Probability of choosing `taken`.
        p: f64,
    },
    /// Return.
    Ret,
}

/// One executable basic block.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct SimBlock {
    /// Final virtual address.
    pub addr: u64,
    /// Final size in bytes (post-relaxation).
    pub size: u32,
    /// Number of non-control instructions.
    pub straight_insts: u32,
    /// Number of branch instructions encoded at the block end (0-2),
    /// derived from the final size; relaxation-aware.
    pub branch_insts: u32,
    /// Its call sites: `[start, end)` in [`ProgramImage::calls`].
    pub calls: (u32, u32),
    /// Its software prefetches: `[start, end)` in
    /// [`ProgramImage::prefetches`].
    pub prefetches: (u32, u32),
    /// The terminator.
    pub term: SimTerm,
}

/// The whole executable, ready to simulate. Functions are indexed
/// densely in program order; function `f`'s blocks are
/// `blocks[first_block[f]..first_block[f + 1]]`, entry first.
#[derive(Clone, Debug)]
pub struct ProgramImage {
    /// Symbol names (diagnostics), by dense function index, shared with
    /// the IR.
    pub names: Vec<Arc<str>>,
    /// Where each function's blocks start in `blocks`, plus one last
    /// entry: the number of blocks.
    pub first_block: Vec<u32>,
    /// Every block of every function.
    pub blocks: Vec<SimBlock>,
    /// Every call site, in block order: `(byte offset of the call in
    /// its block, dense callee index)`.
    pub calls: Vec<(u32, u32)>,
    /// Dense indices of the functions software-prefetched, in block
    /// order.
    pub prefetches: Vec<u32>,
    /// `(IR function id, dense index)` sorted by id, one entry per id.
    /// Ids are dense in creation order (`propeller_ir::FunctionId`), so
    /// each id sits at its own position and a lookup is one probe; ids
    /// edited apart are found by binary search, so that an id never
    /// sizes an allocation.
    ids: Vec<(u32, u32)>,
    /// Lowest text address.
    pub text_start: u64,
    /// One past the highest text address.
    pub text_end: u64,
}

/// An inconsistency between the program and the linked layout.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ImageError {
    /// A function in the program has no layout (its object was linked
    /// without debug info).
    MissingFunction(Arc<str>),
    /// A block is missing from its function's layout.
    MissingBlock {
        /// Function name.
        function: Arc<str>,
        /// Block index.
        block: u32,
    },
    /// The derived branch byte count is not a valid encoding
    /// combination (corrupt layout).
    BadBranchBytes {
        /// Function name.
        function: Arc<str>,
        /// Block index.
        block: u32,
        /// The leftover byte count.
        bytes: i64,
    },
    /// The program has more functions than the image's dense `u32`
    /// indices (call targets, prefetch targets, call chains) can name.
    TooManyFunctions {
        /// How many functions the program has.
        count: usize,
    },
    /// A function calls or prefetches a function the program does not
    /// have.
    UnknownCallee {
        /// The calling function's name.
        function: Arc<str>,
        /// The id it names.
        callee: FunctionId,
    },
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::MissingFunction(n) => write!(f, "no layout for function {n}"),
            ImageError::MissingBlock { function, block } => {
                write!(f, "no layout for block bb{block} of {function}")
            }
            ImageError::BadBranchBytes {
                function,
                block,
                bytes,
            } => write!(
                f,
                "block bb{block} of {function} has {bytes} leftover branch bytes"
            ),
            ImageError::TooManyFunctions { count } => {
                write!(f, "program has {count} functions but image indices are u32")
            }
            ImageError::UnknownCallee { function, callee } => {
                write!(
                    f,
                    "{function} references {callee}, which the program does not have"
                )
            }
        }
    }
}

impl Error for ImageError {}

/// Encoded size of a straight-line instruction.
fn inst_bytes(i: &Inst) -> u32 {
    match i {
        Inst::Alu => 3,
        Inst::Load | Inst::Store => 4,
        Inst::Call(_) | Inst::Prefetch(_) => 5,
        Inst::Nop => 1,
    }
}

/// How many branch instructions a trailing byte count represents.
/// Valid values: 0; one of {2,5,6} for a single branch; one of
/// {4,7,8,11} for a conditional + jump pair.
fn branch_count(bytes: i64) -> Option<u32> {
    match bytes {
        0 => Some(0),
        2 | 5 | 6 => Some(1),
        4 | 7 | 8 | 11 => Some(2),
        _ => None,
    }
}

/// Looks `id` up in [`ProgramImage::ids`]: at its own position, else
/// by binary search.
fn index_in(ids: &[(u32, u32)], id: FunctionId) -> Option<usize> {
    let at = |pos: usize| ids.get(pos).filter(|e| e.0 == id.0);
    at(id.index())
        .or_else(|| at(ids.partition_point(|e| e.0 <= id.0).checked_sub(1)?))
        .map(|e| e.1 as usize)
}

/// Where the next entry of `arena` goes, as the `u32` blocks store.
fn end_of<T>(arena: &[T]) -> u32 {
    u32::try_from(arena.len()).expect("image arenas are u32-indexed")
}

impl ProgramImage {
    /// Builds the image from a program and the linker's final layout.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError`] if any function or block lacks layout
    /// information, sizes are inconsistent with the ISA, or a function
    /// calls or prefetches a function the program does not have.
    ///
    /// # Panics
    ///
    /// Panics if the program has more than `u32::MAX` blocks.
    pub fn build(program: &Program, layout: &FinalLayout) -> Result<Self, ImageError> {
        // `first_block[i]` is where function `i`'s blocks start, both
        // in `blocks` and in the placement table below.
        let mut first_block = Vec::with_capacity(program.num_functions() + 1);
        let mut num_blocks = 0usize;
        for f in program.functions() {
            first_block.push(num_blocks as u32);
            num_blocks += f.blocks.len();
        }
        first_block.push(num_blocks as u32);
        assert!(
            u32::try_from(num_blocks).is_ok(),
            "image block indices are u32"
        );
        let span = |i: usize| first_block[i] as usize..first_block[i + 1] as usize;
        let count = first_block.len() - 1;
        // Validate the width once at the boundary: every dense function
        // index below (call/prefetch targets here, call-chain entries
        // in the engine and attribution) is stored as `u32`, so the
        // `as u32` narrowings downstream are lossless by construction.
        if u32::try_from(count).is_err() {
            return Err(ImageError::TooManyFunctions { count });
        }
        // Of two functions with one id the later wins.
        let mut ids: Vec<_> = program.functions().map(|f| f.id.0).zip(0u32..).collect();
        ids.sort_unstable_by_key(|&(id, i)| (id, std::cmp::Reverse(i)));
        ids.dedup_by_key(|entry| entry.0);

        // Every block's `(addr, size)`, indexed by function then block
        // id. A function the layout names twice merges, later blocks
        // winning; entries for functions or blocks the program does not
        // have are ignored.
        let mut placed: Vec<Option<(u64, u32)>> = vec![None; num_blocks];
        let mut has_layout = vec![false; count];
        for fl in &layout.functions {
            let Some(i) = index_in(&ids, fl.function) else {
                continue;
            };
            has_layout[i] = true;
            let blocks = &mut placed[span(i)];
            for b in &fl.blocks {
                if let Some(slot) = blocks.get_mut(b.block.index()) {
                    *slot = Some((b.addr, b.size));
                }
            }
        }

        let dense = |f: &Function, id: FunctionId| {
            index_in(&ids, id)
                .map(|i| i as u32)
                .ok_or_else(|| ImageError::UnknownCallee {
                    function: f.name.clone(),
                    callee: id,
                })
        };
        let mut names = Vec::with_capacity(count);
        let mut blocks = Vec::with_capacity(num_blocks);
        let mut calls = Vec::new();
        let mut prefetches = Vec::new();
        let mut text_start = u64::MAX;
        let mut text_end = 0u64;
        for (i, f) in program.functions().enumerate() {
            if !has_layout[i] {
                return Err(ImageError::MissingFunction(f.name.clone()));
            }
            let blocks_placed = &placed[span(i)];
            let global = |b: propeller_ir::BlockId| first_block[i] + b.0;
            for b in &f.blocks {
                let (addr, size) = blocks_placed
                    .get(b.id.index())
                    .copied()
                    .flatten()
                    .ok_or_else(|| ImageError::MissingBlock {
                        function: f.name.clone(),
                        block: b.id.0,
                    })?;
                text_start = text_start.min(addr);
                text_end = text_end.max(addr + size as u64);
                // Size the block first: most blocks have no 5-byte
                // instruction, so nothing to record.
                let (mut straight, mut bytes, mut fives) = (0u32, 0u32, 0u32);
                for inst in f.insts_of(b) {
                    let n = inst_bytes(inst);
                    straight += 1;
                    bytes += n;
                    fives += u32::from(n == 5);
                }
                let (call0, prefetch0) = (end_of(&calls), end_of(&prefetches));
                if fives > 0 {
                    let mut off = 0u32;
                    for inst in f.insts_of(b) {
                        match inst {
                            Inst::Call(callee) => calls.push((off, dense(f, *callee)?)),
                            Inst::Prefetch(target) => prefetches.push(dense(f, *target)?),
                            _ => {}
                        }
                        off += inst_bytes(inst);
                    }
                }
                let ret = matches!(b.term, Terminator::Ret);
                let trailing = size as i64 - bytes as i64 - i64::from(ret);
                let branch_insts =
                    branch_count(trailing).ok_or_else(|| ImageError::BadBranchBytes {
                        function: f.name.clone(),
                        block: b.id.0,
                        bytes: trailing,
                    })?;
                let term = match b.term {
                    Terminator::Jump(t) => SimTerm::Jump(global(t)),
                    Terminator::CondBr {
                        taken,
                        fallthrough,
                        prob_taken,
                    } => SimTerm::Cond {
                        taken: global(taken),
                        ft: global(fallthrough),
                        p: prob_taken,
                    },
                    Terminator::Ret => SimTerm::Ret,
                };
                blocks.push(SimBlock {
                    addr,
                    size,
                    straight_insts: straight,
                    branch_insts: branch_insts + u32::from(ret),
                    calls: (call0, end_of(&calls)),
                    prefetches: (prefetch0, end_of(&prefetches)),
                    term,
                });
            }
            names.push(f.name.clone());
        }
        if text_start == u64::MAX {
            text_start = 0;
            text_end = 0;
        }
        Ok(ProgramImage {
            names,
            first_block,
            blocks,
            calls,
            prefetches,
            ids,
            text_start,
            text_end,
        })
    }

    /// The dense index of the function with IR id `id`.
    pub fn index_of(&self, id: FunctionId) -> Option<usize> {
        index_in(&self.ids, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_ir::{BlockId, FunctionBuilder, ProgramBuilder};
    use propeller_linker::{FinalBlock, FinalFunctionLayout};
    use std::collections::HashMap;

    /// A block as the pre-PR-22 image held it: its own two `Vec`s, and
    /// `term` naming successors by their index within the function.
    #[derive(Clone, PartialEq, Debug)]
    struct RefBlock {
        prefetches: Vec<u32>,
        addr: u64,
        size: u32,
        straight_insts: u32,
        branch_insts: u32,
        calls: Vec<(u32, u32)>,
        term: SimTerm,
    }

    #[derive(Clone, PartialEq, Debug)]
    struct RefFunction {
        name: Arc<str>,
        blocks: Vec<RefBlock>,
    }

    /// The nested image: functions, id map, text bounds.
    type Parts = (Vec<RefFunction>, HashMap<FunctionId, usize>, u64, u64);

    /// The pre-PR-18 builder, kept verbatim (but for the names of its
    /// result types) as the oracle the flat image is compared against:
    /// every block keyed through a `HashMap` per function inside a
    /// `HashMap` of functions, every block and function its own `Vec`s.
    fn build_reference(program: &Program, layout: &FinalLayout) -> Result<Parts, ImageError> {
        let mut placed: HashMap<propeller_ir::FunctionId, HashMap<u32, (u64, u32)>> =
            HashMap::new();
        for fl in &layout.functions {
            let entry = placed.entry(fl.function).or_default();
            for b in &fl.blocks {
                entry.insert(b.block.0, (b.addr, b.size));
            }
        }

        let mut fn_index = HashMap::new();
        for (i, f) in program.functions().enumerate() {
            fn_index.insert(f.id, i);
        }
        // Validate the width once at the boundary: every dense function
        // index below (call/prefetch targets here, call-chain entries
        // in the engine and attribution) is stored as `u32`, so the
        // `as u32` narrowings downstream are lossless by construction.
        if u32::try_from(fn_index.len()).is_err() {
            return Err(ImageError::TooManyFunctions {
                count: fn_index.len(),
            });
        }

        let mut functions = Vec::with_capacity(fn_index.len());
        let mut text_start = u64::MAX;
        let mut text_end = 0u64;
        for f in program.functions() {
            let blocks_placed = placed
                .get(&f.id)
                .ok_or_else(|| ImageError::MissingFunction(f.name.clone()))?;
            let mut blocks = Vec::with_capacity(f.blocks.len());
            for b in &f.blocks {
                let &(addr, size) =
                    blocks_placed
                        .get(&b.id.0)
                        .ok_or_else(|| ImageError::MissingBlock {
                            function: f.name.clone(),
                            block: b.id.0,
                        })?;
                text_start = text_start.min(addr);
                text_end = text_end.max(addr + size as u64);
                let mut calls = Vec::new();
                let mut prefetches = Vec::new();
                let mut off = 0u32;
                let mut straight = 0u32;
                for inst in f.insts_of(b) {
                    match inst {
                        // Lossless: the function count was checked
                        // against u32::MAX above.
                        Inst::Call(callee) => calls.push((off, fn_index[callee] as u32)),
                        Inst::Prefetch(target) => prefetches.push(fn_index[target] as u32),
                        _ => {}
                    }
                    straight += 1;
                    off += inst_bytes(inst);
                }
                let trailing =
                    size as i64 - off as i64 - i64::from(matches!(b.term, Terminator::Ret));
                let branch_insts =
                    branch_count(trailing).ok_or_else(|| ImageError::BadBranchBytes {
                        function: f.name.clone(),
                        block: b.id.0,
                        bytes: trailing,
                    })?;
                let term = match b.term {
                    Terminator::Jump(t) => SimTerm::Jump(t.0),
                    Terminator::CondBr {
                        taken,
                        fallthrough,
                        prob_taken,
                    } => SimTerm::Cond {
                        taken: taken.0,
                        ft: fallthrough.0,
                        p: prob_taken,
                    },
                    Terminator::Ret => SimTerm::Ret,
                };
                blocks.push(RefBlock {
                    prefetches,
                    addr,
                    size,
                    straight_insts: straight,
                    branch_insts: branch_insts + u32::from(matches!(b.term, Terminator::Ret)),
                    calls,
                    term,
                });
            }
            functions.push(RefFunction {
                name: f.name.clone(),
                blocks,
            });
        }
        if functions.is_empty() || text_start == u64::MAX {
            text_start = 0;
            text_end = 0;
        }
        Ok((functions, fn_index, text_start, text_end))
    }

    /// The flat image viewed as the nested one. The id map is probed
    /// with every id the program or the layout names.
    fn nested(image: &ProgramImage, program: &Program, layout: &FinalLayout) -> Parts {
        let functions = image
            .names
            .iter()
            .zip(image.first_block.windows(2))
            .map(|(name, w)| RefFunction {
                name: name.clone(),
                blocks: image.blocks[w[0] as usize..w[1] as usize]
                    .iter()
                    .map(|b| RefBlock {
                        prefetches: image.prefetches
                            [b.prefetches.0 as usize..b.prefetches.1 as usize]
                            .to_vec(),
                        addr: b.addr,
                        size: b.size,
                        straight_insts: b.straight_insts,
                        branch_insts: b.branch_insts,
                        calls: image.calls[b.calls.0 as usize..b.calls.1 as usize].to_vec(),
                        term: match b.term {
                            SimTerm::Jump(t) => SimTerm::Jump(t - w[0]),
                            SimTerm::Cond { taken, ft, p } => SimTerm::Cond {
                                taken: taken - w[0],
                                ft: ft - w[0],
                                p,
                            },
                            SimTerm::Ret => SimTerm::Ret,
                        },
                    })
                    .collect(),
            })
            .collect();
        let fn_index = program
            .functions()
            .map(|f| f.id)
            .chain(layout.functions.iter().map(|fl| fl.function))
            .filter_map(|id| Some((id, image.index_of(id)?)))
            .collect();
        (functions, fn_index, image.text_start, image.text_end)
    }

    /// Four functions of one to five blocks with calls and prefetches,
    /// and the layout a linker would give them: blocks back to back
    /// from 0x1000, all branches long.
    fn fixture() -> (Program, FinalLayout) {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m.cc");
        for (fi, num_blocks) in [3u32, 1, 5, 2].into_iter().enumerate() {
            let mut f = FunctionBuilder::new(format!("f{fi}"));
            for b in 0..num_blocks {
                let other = FunctionId((fi as u32 + 1 + b) % 4);
                let insts = match b % 3 {
                    0 => vec![Inst::Alu, Inst::Call(other), Inst::Load],
                    1 => vec![Inst::Prefetch(other), Inst::Nop, Inst::Call(other)],
                    _ => Vec::new(),
                };
                let term = if b + 1 == num_blocks {
                    Terminator::Ret
                } else if b % 2 == 0 {
                    Terminator::CondBr {
                        taken: BlockId(num_blocks - 1),
                        fallthrough: BlockId(b + 1),
                        prob_taken: 0.25,
                    }
                } else {
                    Terminator::Jump(BlockId(0))
                };
                f.add_block(insts, term);
            }
            pb.add_function(m, f);
        }
        let program = pb.finish().unwrap();
        let mut addr = 0x1000u64;
        let functions = program
            .functions()
            .map(|f| FinalFunctionLayout {
                function: f.id,
                func_symbol: f.name.clone(),
                blocks: f
                    .blocks
                    .iter()
                    .map(|b| {
                        let size = f.insts_of(b).iter().map(inst_bytes).sum::<u32>()
                            + match b.term {
                                Terminator::Ret => 1,
                                Terminator::Jump(_) => 5,
                                Terminator::CondBr { .. } => 6,
                            };
                        let placed = FinalBlock {
                            block: b.id,
                            addr,
                            size,
                        };
                        addr += u64::from(size);
                        placed
                    })
                    .collect(),
            })
            .collect();
        (program, FinalLayout { functions })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Same image or same error as the nested-map builder, over
        /// layouts damaged in up to four ways at once — so which of
        /// several errors surfaces is compared too.
        #[test]
        fn matches_the_reference_builder(
            damage in proptest::collection::vec(
                (0u8..8, proptest::any::<u16>(), proptest::any::<u16>()), 0..5),
        ) {
            let (program, mut layout) = fixture();
            for (kind, a, b) in damage {
                let fi = a as usize % layout.functions.len();
                let num_blocks = layout.functions[fi].blocks.len();
                let bi = b as usize % num_blocks.max(1);
                match kind {
                    // A function named twice: the copy is moved, and
                    // loses a block so that the merge is partial.
                    0 => {
                        let mut copy = layout.functions[fi].clone();
                        for blk in &mut copy.blocks {
                            blk.addr += 0x10_0000;
                        }
                        copy.blocks.truncate(bi);
                        layout.functions.push(copy);
                    }
                    // A function named but without any block.
                    1 => layout.functions[fi].blocks.clear(),
                    2 => drop(layout.functions.remove(fi)),
                    3 if num_blocks > 0 => drop(layout.functions[fi].blocks.remove(bi)),
                    // A block id the function does not have.
                    4 => layout.functions[fi].blocks.push(FinalBlock {
                        block: BlockId(num_blocks as u32 + u32::from(b % 3)),
                        addr: 0x10,
                        size: 1,
                    }),
                    // A function the program does not have.
                    5 => layout.functions.insert(fi, FinalFunctionLayout {
                        function: FunctionId(4 + u32::from(b)),
                        func_symbol: "foreign".into(),
                        blocks: vec![FinalBlock { block: BlockId(0), addr: 0, size: 1 }],
                    }),
                    6 if num_blocks > 0 => layout.functions[fi].blocks[bi].size += 1 + u32::from(a % 2),
                    _ => {}
                }
                if layout.functions.is_empty() {
                    break;
                }
            }
            let new = ProgramImage::build(&program, &layout)
                .map(|image| nested(&image, &program, &layout));
            proptest::prop_assert_eq!(new, build_reference(&program, &layout));
        }
    }

    /// Ids edited apart — one of them `u32::MAX` — are found by binary
    /// search: same image, and no allocation sized by an id.
    #[test]
    fn sparse_function_ids_match_the_reference_builder() {
        let (mut program, mut layout) = fixture();
        let renamed = |id: FunctionId| FunctionId([7, u32::MAX, 900_000, 12][id.index()]);
        for m in program.modules_mut() {
            for f in &mut m.functions {
                f.id = renamed(f.id);
                f.edit_blocks(|_, body| {
                    for inst in body {
                        match inst {
                            Inst::Call(id) | Inst::Prefetch(id) => *id = renamed(*id),
                            _ => {}
                        }
                    }
                    true
                });
            }
        }
        for fl in &mut layout.functions {
            fl.function = renamed(fl.function);
        }
        let image = ProgramImage::build(&program, &layout).unwrap();
        assert_eq!(image.ids, [(7, 0), (12, 3), (900_000, 2), (u32::MAX, 1)]);
        assert_eq!(image.index_of(FunctionId(u32::MAX)), Some(1));
        for absent in [0, 8, 899_999, u32::MAX - 1] {
            assert_eq!(image.index_of(FunctionId(absent)), None);
        }
        assert_eq!(
            nested(&image, &program, &layout),
            build_reference(&program, &layout).unwrap()
        );
        // The builder's own ids each sit at their own position.
        let (program, layout) = fixture();
        let image = ProgramImage::build(&program, &layout).unwrap();
        assert_eq!(image.ids, [(0, 0), (1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn an_earlier_missing_block_beats_a_later_missing_function() {
        let (program, mut layout) = fixture();
        layout.functions[0].blocks.remove(1);
        layout.functions.remove(2);
        let err = ProgramImage::build(&program, &layout).unwrap_err();
        assert_eq!(
            err,
            ImageError::MissingBlock {
                function: "f0".into(),
                block: 1
            }
        );
        assert_eq!(build_reference(&program, &layout).unwrap_err(), err);
    }

    #[test]
    fn branch_count_table() {
        assert_eq!(branch_count(0), Some(0));
        for b in [2, 5, 6] {
            assert_eq!(branch_count(b), Some(1));
        }
        for b in [4, 7, 8, 11] {
            assert_eq!(branch_count(b), Some(2));
        }
        for b in [1, 3, 9, 12, -1] {
            assert_eq!(branch_count(b), None, "bytes={b}");
        }
    }

    #[test]
    fn inst_byte_sizes_match_isa() {
        assert_eq!(inst_bytes(&Inst::Alu), 3);
        assert_eq!(inst_bytes(&Inst::Load), 4);
        assert_eq!(inst_bytes(&Inst::Store), 4);
        assert_eq!(inst_bytes(&Inst::Call(propeller_ir::FunctionId(0))), 5);
        assert_eq!(inst_bytes(&Inst::Nop), 1);
    }
}
