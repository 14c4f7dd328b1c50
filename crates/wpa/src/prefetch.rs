//! Profile-guided software prefetch insertion points (§3.5).
//!
//! "Profile guided, post link software prefetch insertion is another
//! optimization that can be implemented in Propeller. The whole-program
//! analysis of cache miss profiles determine prefetch insertion points.
//! A summary-based directive can then drive the distributed code
//! generation actions that modify the objects and insert prefetch
//! instructions."
//!
//! The simulator collects a call-site code-miss profile (misses at
//! callee entry, keyed by call-site block address); this module maps it
//! through the BB address map into per-function directives the Phase 4
//! codegen actions consume.

use crate::mapper::AddressMapper;
use propeller_ir::{BlockId, FunctionId, Program};
use propeller_linker::LinkedBinary;
use std::collections::HashMap;

/// Per-function prefetch directives: `(block to insert into, function
/// whose entry to prefetch)`.
pub type PrefetchMap = HashMap<FunctionId, Vec<(BlockId, FunctionId)>>;

/// Derives prefetch directives from a call-miss profile.
///
/// `call_misses` maps `(call-site block address, callee entry address)`
/// to observed L1i miss counts; sites with at least `min_misses` get a
/// directive. At most `max_per_block` targets are kept per block (the
/// hottest-missing first).
pub fn prefetch_directives(
    program: &Program,
    binary: &LinkedBinary,
    call_misses: &HashMap<(u64, u64), u64>,
    min_misses: u64,
    max_per_block: usize,
) -> PrefetchMap {
    let mapper = AddressMapper::from_binary(binary);
    let name_to_id: HashMap<&str, FunctionId> =
        program.functions().map(|f| (&*f.name, f.id)).collect();

    // Collect candidates: (caller fn, block, target fn) -> misses.
    let mut candidates: HashMap<(FunctionId, u32, FunctionId), u64> = HashMap::new();
    for (&(site_addr, callee_addr), &misses) in call_misses {
        if misses < min_misses.max(1) {
            continue;
        }
        let Some(site) = mapper.lookup(site_addr) else {
            continue;
        };
        let Some(callee) = mapper.lookup(callee_addr) else {
            continue;
        };
        if callee.bb_id != 0 || callee.offset_in_block != 0 {
            continue; // not a function entry
        }
        let (Some(&caller_id), Some(&target_id)) = (
            name_to_id.get(site.func_symbol),
            name_to_id.get(callee.func_symbol),
        ) else {
            continue;
        };
        *candidates
            .entry((caller_id, site.bb_id, target_id))
            .or_insert(0) += misses;
    }

    // Group per (function, block), keep the hottest targets.
    let mut grouped: HashMap<(FunctionId, u32), Vec<(FunctionId, u64)>> = HashMap::new();
    for ((f, b, t), m) in candidates {
        grouped.entry((f, b)).or_default().push((t, m));
    }
    let mut out: PrefetchMap = HashMap::new();
    for ((f, b), mut targets) in grouped {
        targets.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        targets.truncate(max_per_block);
        let entry = out.entry(f).or_default();
        for (t, _) in targets {
            entry.push((BlockId(b), t));
        }
    }
    for v in out.values_mut() {
        v.sort();
    }
    out
}

/// Applies prefetch directives to a program, producing the augmented
/// program Phase 4 regenerates objects from: each directive inserts an
/// [`propeller_ir::Inst::Prefetch`] at the front of its block, giving
/// the fetch maximal lead time before the call.
pub fn apply_prefetches(program: &Program, directives: &PrefetchMap) -> Program {
    let mut augmented = program.clone();
    for module in augmented.modules_mut() {
        for f in &mut module.functions {
            let Some(list) = directives.get(&f.id) else {
                continue;
            };
            f.edit_blocks(|b, body| {
                for &(_, target) in list.iter().filter(|&&(block, _)| block == b.id) {
                    body.insert(0, propeller_ir::Inst::Prefetch(target));
                }
                true
            });
        }
    }
    augmented
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_codegen::{codegen_module, CodegenOptions};
    use propeller_ir::{FunctionBuilder, Inst, ProgramBuilder, Terminator};
    use propeller_linker::{link, LinkInput, LinkOptions};

    fn fixture() -> (Program, LinkedBinary, FunctionId, FunctionId) {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m.cc");
        let mut callee = FunctionBuilder::new("callee");
        callee.add_block(vec![Inst::Alu; 8], Terminator::Ret);
        let callee = pb.add_function(m, callee);
        let mut caller = FunctionBuilder::new("caller");
        caller.add_block(vec![Inst::Alu, Inst::Call(callee)], Terminator::Ret);
        let caller = pb.add_function(m, caller);
        let p = pb.finish().unwrap();
        let r = codegen_module(&p.modules()[0], &p, &CodegenOptions::with_labels()).unwrap();
        let bin = link(
            &[LinkInput::new(r.object, r.debug_layout)],
            &LinkOptions::default(),
        )
        .unwrap();
        (p, bin, caller, callee)
    }

    #[test]
    fn directives_map_miss_sites_to_blocks() {
        let (p, bin, caller, callee) = fixture();
        let caller_addr = bin.symbol("caller").unwrap();
        let callee_addr = bin.symbol("callee").unwrap();
        let mut misses = HashMap::new();
        misses.insert((caller_addr, callee_addr), 50u64);
        let map = prefetch_directives(&p, &bin, &misses, 10, 2);
        assert_eq!(map.len(), 1);
        assert_eq!(map[&caller], vec![(BlockId(0), callee)]);
    }

    #[test]
    fn threshold_filters_cold_sites() {
        let (p, bin, _, _) = fixture();
        let caller_addr = bin.symbol("caller").unwrap();
        let callee_addr = bin.symbol("callee").unwrap();
        let mut misses = HashMap::new();
        misses.insert((caller_addr, callee_addr), 3u64);
        let map = prefetch_directives(&p, &bin, &misses, 10, 2);
        assert!(map.is_empty());
    }

    #[test]
    fn non_entry_targets_ignored() {
        let (p, bin, _, _) = fixture();
        let caller_addr = bin.symbol("caller").unwrap();
        let callee_addr = bin.symbol("callee").unwrap();
        let mut misses = HashMap::new();
        misses.insert((caller_addr, callee_addr + 3), 500u64); // mid-function
        let map = prefetch_directives(&p, &bin, &misses, 10, 2);
        assert!(map.is_empty());
    }

    #[test]
    fn apply_inserts_at_block_front() {
        let (p, _, caller, callee) = fixture();
        let mut map = PrefetchMap::new();
        map.insert(caller, vec![(BlockId(0), callee)]);
        let augmented = apply_prefetches(&p, &map);
        let f = augmented.function(caller).unwrap();
        let before = p.function(caller).unwrap();
        assert_eq!(f.insts_of(&f.blocks[0])[0], Inst::Prefetch(callee));
        assert_eq!(
            f.insts_of(&f.blocks[0]).len(),
            before.insts_of(&before.blocks[0]).len() + 1
        );
        augmented.validate().unwrap();
    }
}
