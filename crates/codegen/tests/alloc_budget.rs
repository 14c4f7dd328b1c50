//! An allocation budget for `codegen_module`: the emitter plans, sizes
//! and writes a function through a handful of flat tables, so what it
//! asks of the allocator grows with functions, fragments and
//! relocations — not with blocks — and it shares every symbol name
//! with the IR instead of copying it. A `Vec` per block (an earlier
//! emitter made several: 7.0 allocator calls per block on this input),
//! or a returning name copy, fails here rather than in the benchmark's
//! `kallocs_per_op`.
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

/// Allocator calls per block the emitter may make: what it needs on
/// this input (labels 0.45, clusters 0.47) plus a quarter. Copying a
/// name that the IR already holds, once per function or per call, costs
/// more than that quarter.
const CEILING: f64 = 0.58;

#[test]
fn codegen_allocates_per_function_not_per_block() {
    let p = program("clang", 0.004, 13, 12);
    let (map, _) = directives(&p);
    let module = p
        .modules()
        .iter()
        .max_by_key(|m| m.num_blocks())
        .expect("modules");
    let blocks = module.num_blocks();
    assert!(blocks >= 200, "only {blocks} blocks");
    assert!(
        module.functions.iter().any(|f| map.get(f.id).is_some()),
        "no function of {} has directives",
        module.name
    );

    let tel = Telemetry::disabled();
    for cg in [
        CodegenOptions::with_labels(),
        CodegenOptions::with_clusters(map),
    ] {
        let calls = calls_during(|| codegen_module(module, &p, &cg).expect("codegen"));
        let per_block = calls as f64 / blocks as f64;
        assert!(
            per_block <= CEILING,
            "{calls} allocator calls for {blocks} blocks = {per_block:.2} per block \
             (ceiling {CEILING}) in {:?} mode",
            std::mem::discriminant(&cg.bb_sections)
        );
        // A disabled telemetry handle costs a branch, not a span name.
        let traced =
            calls_during(|| codegen_module_traced(module, &p, &cg, &tel, None).expect("codegen"));
        assert_eq!(traced, calls, "the disabled handle allocated");
    }
}
