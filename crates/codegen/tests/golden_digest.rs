//! Pinned golden digests of `codegen_module` — the in-tree twin of the
//! benchmark's object digests, in the manner of
//! `crates/linker/tests/golden_digest.rs`.
//!
//! The constants were recorded from the commit *before* the emitter
//! became the dense plan / resolve / emit passes (PR 18). Each folds,
//! over every module of one program in one mode, the encoded object
//! (section bytes, relocations, block maps, symbols, the address map),
//! the [`DebugLayout`](propeller_codegen::DebugLayout) and the
//! [`ModuleStats`](propeller_codegen::ModuleStats), so a changed branch
//! form, relocation order, block offset or metadata byte shows up here
//! without running the benchmark.

mod common;

use common::{directives, program};
use propeller_codegen::{codegen_module, CodegenOptions};
use propeller_ir::Program;
use propeller_obj::ContentHash;

/// `(spec, scale, seed, funcs_per_module)` of each pinned program.
const PROGRAMS: [(&str, f64, u64, usize); 3] = [
    ("clang", 0.004, 13, 12),
    ("mysql", 0.004, 7, 5),
    ("505.mcf", 1.0, 3, 9),
];

/// `[baseline, labels, clusters]` per program.
const GOLDEN: [[u64; 3]; 3] = [
    [
        0xc617_d040_aeb6_0b76,
        0xbb7b_634b_7bc2_d722,
        0x9b85_af09_e163_7d2a,
    ],
    [
        0x3da3_e531_821d_d985,
        0x713a_fde4_9b45_b418,
        0x092c_7300_5de2_4776,
    ],
    [
        0x82c6_2385_8c87_8326,
        0x24d9_70b8_f951_50df,
        0x2394_1958_eb2d_e14d,
    ],
];

/// Folds every module's artifacts, in module order, into one hash;
/// also returns the relocated-branch total of the run.
fn digest(p: &Program, cg: &CodegenOptions) -> (u64, usize) {
    let mut h = ContentHash::of_bytes(b"codegen golden");
    let mut relocated = 0;
    for m in p.modules() {
        let r = codegen_module(m, p, cg).expect("codegen");
        relocated += r.stats.relocated_branches;
        let rest = format!("{:?}\n{:?}", r.debug_layout, r.stats);
        h = h.combine(ContentHash::of_parts([
            r.object.encode().as_slice(),
            rest.as_bytes(),
        ]));
    }
    (h.0, relocated)
}

#[test]
fn codegen_matches_the_digests_pinned_before_the_dense_emitter() {
    let mut got = [[0u64; 3]; 3];
    let mut most_fragments = 0;
    for (row, &(spec, scale, seed, fpm)) in got.iter_mut().zip(&PROGRAMS) {
        let p = program(spec, scale, seed, fpm);
        let (map, most) = directives(&p);
        assert!(map.len() >= 10, "{spec}: only {} clustered", map.len());
        most_fragments = most_fragments.max(most);

        let (baseline, r) = digest(&p, &CodegenOptions::baseline());
        assert_eq!(r, 0, "{spec}: baseline relocates no branch");
        let (labels, _) = digest(&p, &CodegenOptions::with_labels());
        let (clusters, r) = digest(&p, &CodegenOptions::with_clusters(map));
        assert!(r > 0, "{spec}: clusters mode relocated no branch");
        assert_ne!(baseline, labels, "{spec}: labels add the address map");
        *row = [baseline, labels, clusters];
    }
    assert_eq!(most_fragments, 3, "no three-fragment function pinned");
    assert_eq!(got, GOLDEN, "got {got:#018x?}");
}
