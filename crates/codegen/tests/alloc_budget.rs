//! An allocation budget for `codegen_module`: a module is planned into
//! flat tables a thread reuses across modules, then written once into
//! arrays reserved at their final sizes — one byte array and one
//! relocation array for the object, three arrays for its layout table —
//! so what it asks of the allocator is one section name per fragment
//! (and a symbol per non-primary cluster) plus a few arrays per module,
//! and it shares every other name with the IR instead of copying it. A
//! `Vec` per function or fragment (an earlier emitter made about nine
//! per function: 8.7 allocator calls per fragment on this input), a
//! table grown by doubling, or a returning name copy, fails here rather
//! than in the benchmark's `kallocs_per_op`.
//!
//! This file holds one test, and the counter is per thread, so nothing
//! else is counted.

mod common;

use common::{directives, program};
use propeller_codegen::{codegen_module, codegen_module_traced, CodegenOptions};
use propeller_telemetry::Telemetry;
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

/// Allocator calls the emitter may make per fragment: what it needs on
/// this input (labels 1.00 — the section name; clusters 1.14 — the
/// name, and the symbol of each non-primary cluster) plus a quarter.
const PER_FRAGMENT: f64 = 1.43;

/// And per module: what it needs (8 — the object's name, section list,
/// byte and relocation arrays, the `.rodata` section's name, and the
/// layout table's three arrays) plus a quarter.
const PER_MODULE: f64 = 10.0;

#[test]
fn codegen_allocates_per_fragment_not_per_function() {
    let p = program("clang", 0.004, 13, 12);
    let (map, _) = directives(&p);
    let modules = p.modules();
    let blocks: usize = modules.iter().map(|m| m.num_blocks()).sum();
    assert!(blocks >= 2000, "only {blocks} blocks");
    assert!(
        modules
            .iter()
            .flat_map(|m| &m.functions)
            .any(|f| map.get(f.id).is_some()),
        "no function of the program has directives"
    );

    let tel = Telemetry::disabled();
    let modes = [
        CodegenOptions::with_labels(),
        CodegenOptions::with_clusters(map),
    ];
    // The thread's plan grows to the largest module once; what is
    // budgeted is the steady state after it.
    for cg in &modes {
        for m in modules {
            codegen_module(m, &p, cg).expect("codegen");
        }
    }
    for cg in &modes {
        let (mut calls, mut fragments) = (0, 0);
        for m in modules {
            let mut stats = None;
            calls +=
                calls_during(|| stats = Some(codegen_module(m, &p, cg).expect("codegen").stats));
            fragments += stats.expect("ran").num_fragments;
            // A disabled telemetry handle costs a branch, not a span name.
            let traced =
                calls_during(|| codegen_module_traced(m, &p, cg, &tel, None).expect("codegen"));
            let plain = calls_during(|| codegen_module(m, &p, cg).expect("codegen"));
            assert_eq!(traced, plain, "the disabled handle allocated");
        }
        let budget = PER_FRAGMENT * fragments as f64 + PER_MODULE * modules.len() as f64;
        assert!(
            calls as f64 <= budget,
            "{calls} allocator calls for {fragments} fragments in {} modules (budget \
             {budget:.0}: {PER_FRAGMENT} per fragment, {PER_MODULE} per module) in {:?} mode",
            modules.len(),
            std::mem::discriminant(&cg.bb_sections)
        );
    }
}
