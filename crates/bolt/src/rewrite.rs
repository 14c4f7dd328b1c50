//! Binary rewriting: placing optimized code in a new text segment.
//!
//! BOLT cannot shrink or move the original `.text` (other code may
//! reference it), so optimized functions are *copied* into a fresh
//! segment — aligned to a 2 MiB boundary for hugepages — and the
//! original bytes stay behind. This is why BOLT-optimized binaries are
//! 30-150% larger (§5.3 / Figure 6), which this module reproduces in
//! its size accounting.

use crate::cfg::{RecCfg, RecTerm};
use propeller_codegen::isa::len;
use propeller_linker::{FinalLayout, LinkedBinary};
use std::collections::HashMap;

/// Layout plan for one optimized function.
#[derive(Clone, Debug)]
pub struct FunctionPlan {
    /// Index into the discovered-function/CFG arrays.
    pub func_idx: usize,
    /// Hot blocks (CFG block indices) in their new order; the entry
    /// block is first.
    pub hot_order: Vec<usize>,
    /// Cold blocks, moved to the shared cold region.
    pub cold: Vec<usize>,
}

/// Accounting results of the rewrite.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct RewriteStats {
    /// Bytes of newly emitted text (hot + cold regions).
    pub new_text_bytes: u64,
    /// Padding inserted to reach the segment alignment.
    pub alignment_padding: u64,
    /// Functions rewritten.
    pub optimized_functions: usize,
    /// Contiguous text fragments created (for CFI accounting).
    pub fragments: usize,
}

/// New encoded size of a reconstructed block given its successor
/// adjacency in the new layout.
fn new_block_size(cfg: &RecCfg, block: usize, next_in_layout: Option<usize>) -> u64 {
    let b = &cfg.blocks[block];
    let succ_of_addr = |addr: u64| cfg.block_starting_at(addr);
    let old_fallthrough = if block + 1 < cfg.blocks.len() {
        Some(block + 1)
    } else {
        None
    };
    let branch_bytes = match b.term {
        RecTerm::Ret => len::RET,
        RecTerm::Fallthrough => {
            if old_fallthrough == next_in_layout {
                0
            } else {
                len::JMP_LONG // must synthesize a jump to the old successor
            }
        }
        RecTerm::Jump(t) => {
            if succ_of_addr(t) == next_in_layout {
                0 // jump deleted: target follows
            } else {
                len::JMP_LONG
            }
        }
        RecTerm::Cond { taken } | RecTerm::CondJump { taken, .. } => {
            let taken_idx = succ_of_addr(taken);
            let ft_idx = match b.term {
                RecTerm::CondJump { ft, .. } => succ_of_addr(ft),
                _ => old_fallthrough,
            };
            if ft_idx == next_in_layout || taken_idx == next_in_layout {
                len::BR_LONG // single (possibly inverted) conditional
            } else {
                len::BR_LONG + len::JMP_LONG // conditional + jump pair
            }
        }
    };
    b.straight_bytes + branch_bytes as u64
}

/// Bytes the new text segment is aligned to: a 2 MiB hugepage, BOLT's
/// default (§5.3).
const SEGMENT_ALIGN: u64 = 2 << 20;

/// Applies the plans, producing the post-rewrite block layout and size
/// accounting.
///
/// The rewrite is modeled at layout granularity: every basic block of
/// every optimized function receives its new address and re-encoded
/// size; bytes are not materialized (the simulator consumes addresses,
/// not bytes).
pub fn rewrite(
    binary: &LinkedBinary,
    cfgs: &[Option<RecCfg>],
    plans: &[FunctionPlan],
    func_order: &[usize],
) -> (FinalLayout, RewriteStats) {
    let mut stats = RewriteStats::default();
    let old_end = binary.base + binary.image.len() as u64;
    let seg_base = old_end.div_ceil(SEGMENT_ALIGN) * SEGMENT_ALIGN;
    stats.alignment_padding = seg_base - old_end;

    let plan_by_func: HashMap<usize, &FunctionPlan> =
        plans.iter().map(|p| (p.func_idx, p)).collect();

    // Pass 1: assign new addresses to every (func, block) in the plan.
    // Hot regions first (in hfsort order), then all cold regions.
    let mut new_addr: HashMap<(usize, usize), u64> = HashMap::new();
    let mut new_size: HashMap<(usize, usize), u64> = HashMap::new();
    let mut cursor = seg_base;
    for &fi in func_order {
        let Some(plan) = plan_by_func.get(&fi) else {
            continue;
        };
        let cfg = cfgs[fi].as_ref().expect("planned functions have CFGs");
        cursor = cursor.div_ceil(16) * 16;
        for (i, &b) in plan.hot_order.iter().enumerate() {
            let next = plan.hot_order.get(i + 1).copied();
            let sz = new_block_size(cfg, b, next);
            new_addr.insert((fi, b), cursor);
            new_size.insert((fi, b), sz);
            cursor += sz;
        }
        stats.optimized_functions += 1;
        stats.fragments += 1;
    }
    for &fi in func_order {
        let Some(plan) = plan_by_func.get(&fi) else {
            continue;
        };
        if plan.cold.is_empty() {
            continue;
        }
        let cfg = cfgs[fi].as_ref().expect("planned functions have CFGs");
        for (i, &b) in plan.cold.iter().enumerate() {
            let next = plan.cold.get(i + 1).copied();
            let sz = new_block_size(cfg, b, next);
            new_addr.insert((fi, b), cursor);
            new_size.insert((fi, b), sz);
            cursor += sz;
        }
        stats.fragments += 1;
    }
    stats.new_text_bytes = cursor - seg_base;

    // Pass 2: patch the IR-level layout. Each reconstructed block is a
    // union of whole IR blocks; interior IR blocks keep their relative
    // offsets, the last one absorbs the branch re-encoding delta.
    let mut layout = binary.layout.clone();
    // Index IR blocks by address for fast range queries.
    let mut by_addr: Vec<(u64, usize, usize)> = Vec::new(); // (addr, func idx in layout, block idx)
    for (li, f) in layout.functions.iter().enumerate() {
        for (bi, b) in f.blocks.iter().enumerate() {
            by_addr.push((b.addr, li, bi));
        }
    }
    by_addr.sort_unstable();
    for (&(fi, b), &naddr) in &new_addr {
        let cfg = cfgs[fi].as_ref().expect("planned");
        let rb = &cfg.blocks[b];
        let nsize = new_size[&(fi, b)];
        let from = by_addr.partition_point(|&(a, _, _)| a < rb.addr);
        let mut covered: Vec<(usize, usize)> = Vec::new();
        for &(a, li, bi) in &by_addr[from..] {
            if a >= rb.end() {
                break;
            }
            covered.push((li, bi));
            let _ = a;
        }
        for (k, &(li, bi)) in covered.iter().enumerate() {
            let old = layout.functions[li].blocks[bi];
            let rel = old.addr - rb.addr;
            let blk = &mut layout.functions[li].blocks[bi];
            blk.addr = naddr + rel;
            if k == covered.len() - 1 {
                // Last covered IR block absorbs the size delta.
                blk.size = (nsize - rel) as u32;
            }
        }
    }
    (layout, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::RecBlock;

    fn cfg_with(blocks: Vec<RecBlock>) -> RecCfg {
        let addr = blocks[0].addr;
        let size = blocks.last().unwrap().end() - addr;
        RecCfg { addr, size, blocks }
    }

    #[test]
    fn jump_deleted_when_target_follows() {
        let cfg = cfg_with(vec![
            RecBlock {
                addr: 0x1000,
                size: 8, // 3 straight + 5 jump
                straight_bytes: 3,
                calls: Vec::new(),
                term: RecTerm::Jump(0x1010),
            },
            RecBlock {
                addr: 0x1008,
                size: 8,
                straight_bytes: 8,
                calls: Vec::new(),
                term: RecTerm::Fallthrough,
            },
            RecBlock {
                addr: 0x1010,
                size: 1,
                straight_bytes: 0,
                calls: Vec::new(),
                term: RecTerm::Ret,
            },
        ]);
        // New order: block 0 then block 2 (its jump target): jump dies.
        assert_eq!(new_block_size(&cfg, 0, Some(2)), 3);
        // Block 0 followed by something else: jump stays.
        assert_eq!(new_block_size(&cfg, 0, Some(1)), 8);
        // Fallthrough block moved away from its successor grows a jump.
        assert_eq!(new_block_size(&cfg, 1, Some(0)), 13);
        assert_eq!(new_block_size(&cfg, 1, Some(2)), 8);
        // Ret unchanged.
        assert_eq!(new_block_size(&cfg, 2, None), 1);
    }

    #[test]
    fn cond_inversion_and_pairing() {
        let cfg = cfg_with(vec![
            RecBlock {
                addr: 0,
                size: 9, // 3 + 6 (cond long)
                straight_bytes: 3,
                calls: Vec::new(),
                term: RecTerm::Cond { taken: 20 },
            },
            RecBlock {
                addr: 9,
                size: 11,
                straight_bytes: 11,
                calls: Vec::new(),
                term: RecTerm::Fallthrough,
            },
            RecBlock {
                addr: 20,
                size: 1,
                straight_bytes: 0,
                calls: Vec::new(),
                term: RecTerm::Ret,
            },
        ]);
        // Fall-through (1) follows: single cond.
        assert_eq!(new_block_size(&cfg, 0, Some(1)), 9);
        // Taken (2) follows: inverted single cond.
        assert_eq!(new_block_size(&cfg, 0, Some(2)), 9);
        // Neither follows: cond + jump.
        assert_eq!(new_block_size(&cfg, 0, None), 14);
    }
}
