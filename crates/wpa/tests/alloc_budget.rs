//! An allocation budget for `exttsp::order_nodes`: every candidate pair
//! is evaluated straight from the neighbour lists into the heap, with
//! the scratch buffers of the thread reused across pairs and calls, so
//! a merge asks the allocator for nothing but the growth of the chains,
//! neighbour lists and heap it changes. A list of pairs collected per
//! rescan, or a result vector per evaluation, fails here rather than in
//! the benchmark's `kallocs_per_op`.
//!
//! This file holds one test, and the counter is per thread, so nothing
//! else is counted.

use propeller_telemetry::Telemetry;
use propeller_wpa::exttsp::{order_nodes, Edge, ExtTspParams, MergeLog, Node};
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

/// Allocator calls per node a warm `order_nodes` may make: what it
/// needs on this graph (4.39: 1 755 calls for 400 nodes and 399
/// merges) plus a quarter. Collecting each rescan's pairs and each
/// evaluation's results costs two calls per merge and one per stale
/// requeue more (6.79).
const CEILING: f64 = 5.5;

#[test]
fn merges_evaluate_pairs_without_collecting_them() {
    // A heavy path through every node, so that chains grow long and
    // nearly every node takes part in a merge, plus lighter shortcuts
    // and back edges, so that chains meet many others and queued pairs
    // go stale.
    let n = 400u32;
    let nodes: Vec<Node> = (0..n)
        .map(|id| Node {
            id,
            size: 8 + id % 13 * 4,
            count: 1 + u64::from(id) * 37 % 500,
        })
        .collect();
    let edges: Vec<Edge> = (0..n - 1)
        .map(|i| (i, i + 1, 1000 + u64::from(i) * 53 % 900))
        .chain((0..n / 2).map(|i| (i * 7 % n, (i * 13 + 5) % n, 40 + u64::from(i) % 60)))
        .chain((0..n / 4).map(|i| ((i * 11 + 3) % n, i * 3 % n, 25)))
        .filter(|&(src, dst, _)| src != dst)
        .map(|(src, dst, weight)| Edge { src, dst, weight })
        .collect();
    let (params, tel) = (ExtTspParams::default(), Telemetry::disabled());

    // The first call grows the thread's scratch buffers.
    let mut log = MergeLog::default();
    let first = order_nodes(&nodes, &edges, 0, &params, &tel, Some(&mut log));
    assert!(log.merges.len() >= 300, "only {} merges", log.merges.len());

    let mut second = Vec::new();
    let calls = calls_during(|| second = order_nodes(&nodes, &edges, 0, &params, &tel, None));
    assert_eq!(first, second, "the layout is a function of the input");
    let per_node = calls as f64 / f64::from(n);
    assert!(
        per_node <= CEILING,
        "{calls} allocator calls for {n} nodes = {per_node:.2} per node (ceiling {CEILING})"
    );
}
