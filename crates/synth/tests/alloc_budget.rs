//! An allocation budget for the IR's life cycle: generating a program,
//! copying it and validating it. A function keeps every block's
//! instructions in one array and a terminator hands out its successors
//! inline, so what these ask of the allocator grows with functions and
//! modules — not with blocks. A `Vec` per block (an earlier IR made
//! one per block body, one per successor list and one per frequency
//! iteration: 14.2 allocator calls per function to clone, 3.2 per block
//! to generate and 7 337 to validate this input) fails here rather than
//! in the benchmark's `kallocs_per_op`.
//!
//! This file holds one test, and the counter is per thread, so nothing
//! else is counted.

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

fn calls_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = CALLS.with(Cell::get);
    let r = f();
    (CALLS.with(Cell::get) - before, r)
}

/// Allocator calls per function `Program::clone` may make: what it
/// needs on this input (2.17: the block list and the instruction array
/// of each function, the name and function list of each module) plus a
/// quarter. One array per block costs more than that quarter.
const CLONE_CEILING: f64 = 2.71;
/// Allocator calls per block `generate` may make: what it needs on
/// this input (0.38) plus a quarter.
const GENERATE_CEILING: f64 = 0.47;
/// Allocator calls `Program::validate` may make on this program: what
/// it needs (9, the name set's table) plus a quarter. One successor
/// list per block costs far more.
const VALIDATE_CEILING: u64 = 11;

#[test]
fn the_ir_allocates_per_function_not_per_block() {
    let spec = spec_by_name("clang").expect("built-in spec");
    let params = GenParams {
        scale: 0.004,
        seed: 13,
        funcs_per_module: 12,
        entry_points: 4,
    };
    let (generated, bench) = calls_during(|| generate(&spec, &params));
    let p = &bench.program;
    let stats = p.stats();
    assert!(
        stats.num_blocks >= 5_000,
        "only {} blocks",
        stats.num_blocks
    );

    let (cloned, copy) = calls_during(|| p.clone());
    assert!(copy.functions().eq(p.functions()), "the copy differs");
    drop(copy);
    let (validated, result) = calls_during(|| p.validate());
    result.expect("generated programs are valid");

    let clone_per_fn = cloned as f64 / stats.num_functions as f64;
    let generate_per_block = generated as f64 / stats.num_blocks as f64;
    let mut over = Vec::new();
    if clone_per_fn > CLONE_CEILING {
        over.push(format!(
            "clone: {cloned} calls for {} functions = {clone_per_fn:.2} per function \
             (ceiling {CLONE_CEILING})",
            stats.num_functions
        ));
    }
    if generate_per_block > GENERATE_CEILING {
        over.push(format!(
            "generate: {generated} calls for {} blocks = {generate_per_block:.2} per block \
             (ceiling {GENERATE_CEILING})",
            stats.num_blocks
        ));
    }
    if validated > VALIDATE_CEILING {
        over.push(format!(
            "validate: {validated} calls (ceiling {VALIDATE_CEILING})"
        ));
    }
    assert!(over.is_empty(), "{}", over.join("; "));
}
