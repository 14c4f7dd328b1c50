//! An allocation budget for `link`: every name the linked binary keeps
//! — its symbol map, final layout, placements, placed sections and the
//! merged address map — is a clone of an input object's `Arc<str>`, and
//! every per-section and per-function record lives in a link-wide array
//! (relocation targets, branch sites, the address map's functions,
//! ranges and entries), so what the link asks of the allocator is one
//! block list per function for its `FinalLayout` and a few tables for
//! the whole link. A name copied again, or a table per section, fails
//! here rather than in the benchmark's `kallocs_per_op`.
//!
//! This file holds one test, and the counter is per thread, so nothing
//! else is counted.

use propeller_codegen::{codegen_module, ClusterMap, CodegenOptions, FunctionClusters};
use propeller_ir::{BlockId, Program};
use propeller_linker::{link, LinkInput, LinkOptions, SymbolOrdering};
use propeller_synth::{generate, spec_by_name, GenParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `alloc` + `realloc` calls this thread made.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is passed to `System` unchanged; the counter is
// a `const`-initialised thread-local `Cell` without a destructor, so
// touching it neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn calls_during<R>(f: impl FnOnce() -> R) -> u64 {
    let before = CALLS.with(Cell::get);
    let r = f();
    let calls = CALLS.with(Cell::get) - before;
    drop(r);
    calls
}

/// Allocator calls per input symbol — per text section that defines
/// one — the link may make: what it needs on this input (labels 1.08,
/// relink 0.76) plus a quarter.
const CEILING: f64 = 1.35;

fn compile(p: &Program, cg: &CodegenOptions) -> Vec<LinkInput> {
    p.modules()
        .iter()
        .map(|m| {
            let r = codegen_module(m, p, cg).expect("codegen");
            LinkInput::new(r.object, r.debug_layout)
        })
        .collect()
}

#[test]
fn link_shares_names_instead_of_copying_them() {
    let spec = spec_by_name("clang").expect("built-in spec");
    let params = GenParams {
        scale: 0.004,
        seed: 13,
        funcs_per_module: 12,
        entry_points: 4,
    };
    let p = generate(&spec, &params).program;

    // Every function with more than one block split hot / cold, the hot
    // halves ordered first: a relink with relaxation and a dropped
    // address map for the objects left cold.
    let mut map = ClusterMap::new();
    let mut order = Vec::new();
    let split = p
        .functions()
        .filter(|f| f.id.0 % 2 == 0 && f.num_blocks() > 1);
    for f in split {
        let (hot, cold) = (0..f.num_blocks() as u32)
            .map(BlockId)
            .partition(|b| b.0 == 0 || f.blocks[b.index()].freq > 0);
        map.insert(f.id, FunctionClusters::hot_cold(hot, cold));
        order.push(f.name.clone());
    }
    let shapes = [
        (CodegenOptions::with_labels(), LinkOptions::default()),
        (
            CodegenOptions::with_clusters(map),
            LinkOptions {
                symbol_order: Some(SymbolOrdering::new(order)),
                relax: true,
                drop_cold_bb_addr_map: true,
                ..LinkOptions::default()
            },
        ),
    ];
    for (cg, opts) in shapes {
        let inputs = compile(&p, &cg);
        let symbols = inputs
            .iter()
            .flat_map(|i| i.object.sections())
            .filter(|s| s.symbol.is_some())
            .count();
        assert!(symbols >= 200, "only {symbols} symbols");
        let calls = calls_during(|| link(&inputs, &opts).expect("link"));
        let per_symbol = calls as f64 / symbols as f64;
        assert!(
            per_symbol <= CEILING,
            "{calls} allocator calls for {symbols} input symbols = {per_symbol:.2} per \
             symbol (ceiling {CEILING}), relax {}",
            opts.relax
        );
    }
}
