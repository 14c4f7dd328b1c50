//! An allocation budget for `translate_profile`: it asks the allocator
//! for one record buffer per sample and a handful of tables per call —
//! nothing per record (the pre-PR-19 translator cloned a `String` per
//! record end), and nothing sized by a number read from its input (a
//! block id in the new binary's layout is data, not a length).
//!
//! This file holds one test, and the counters are per thread, so nothing
//! else is counted.

use propeller_codegen::{codegen_module, CodegenOptions};
use propeller_fleet::translate_profile;
use propeller_ir::{BlockId, Program};
use propeller_linker::{link, FinalBlock, LinkInput, LinkOptions, LinkedBinary};
use propeller_profile::SamplingConfig;
use propeller_sim::{collect_profile, ProgramImage, UarchConfig, Workload};
use propeller_synth::{evolve, generate, spec_by_name, DriftParams, GenParams};
use propeller_wpa::AddressMapper;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `(alloc + realloc calls, bytes asked for)` of this thread.
    static ASKED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn count(bytes: usize) {
    ASKED.with(|c| c.set((c.get().0 + 1, c.get().1 + bytes as u64)));
}

// SAFETY: every request is passed to `System` unchanged; the counter is
// a `const`-initialised thread-local `Cell` without a destructor, so
// touching it neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `f`'s result with the allocator calls and bytes it asked for.
fn asked_during<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let before = ASKED.with(Cell::get);
    let r = f();
    let after = ASKED.with(Cell::get);
    (r, after.0 - before.0, after.1 - before.1)
}

fn link_program(p: &Program) -> LinkedBinary {
    let inputs: Vec<LinkInput> = p
        .modules()
        .iter()
        .map(|m| {
            let r = codegen_module(m, p, &CodegenOptions::with_labels()).expect("codegen");
            LinkInput::new(r.object, r.debug_layout)
        })
        .collect();
    link(&inputs, &LinkOptions::default()).expect("link")
}

#[test]
fn translation_allocates_per_sample_and_never_by_block_id() {
    // One release pair of the benchmark's program and one machine's
    // collection on the old binary.
    let spec = spec_by_name("clang").expect("built-in spec");
    let old = generate(
        &spec,
        &GenParams {
            scale: 0.003,
            ..GenParams::for_spec(&spec)
        },
    );
    let new = evolve(
        &old,
        &DriftParams {
            drift: 0.05,
            seed: 5,
            release: 1,
        },
    );
    let (old_bin, mut new_bin) = (link_program(&old.program), link_program(&new.program));
    let image = ProgramImage::build(&old.program, &old_bin.layout).expect("image");
    let (profile, _) = collect_profile(
        &image,
        &Workload::new(old.entries.clone(), 30_000),
        &UarchConfig::default(),
        SamplingConfig::default(),
    );
    let mapper = AddressMapper::from_binary(&old_bin);
    let samples = profile.samples.len() as u64;
    assert!(profile.num_records() as u64 > 10 * samples, "{samples} samples");

    let ((translated, stats), calls, _) =
        asked_during(|| translate_profile(&profile, &mapper, &new_bin));
    assert!(stats.survival_rate() > 0.9, "{stats:?}");
    assert_eq!(translated.samples.len() as u64 + stats.samples_dropped, samples);
    assert!(
        calls <= samples + 64,
        "{calls} allocator calls for {samples} samples of {} records",
        stats.records_in
    );

    // A corrupt layout: one block of the hottest function claims the
    // largest id there is. The translation stays proportional to the
    // layout's length.
    let hot = new_bin
        .layout
        .functions
        .iter_mut()
        .max_by_key(|f| f.blocks.len())
        .expect("functions");
    hot.blocks.push(FinalBlock {
        block: BlockId(u32::MAX),
        addr: 0x40,
        size: 8,
    });
    let ((_, hostile), calls, bytes) =
        asked_during(|| translate_profile(&profile, &mapper, &new_bin));
    assert_eq!(hostile, stats, "an id nothing maps to changes nothing");
    assert!(calls <= samples + 64, "{calls} allocator calls");
    assert!(bytes < 1 << 20, "{bytes} bytes asked for");
}
