//! Pinned golden digests of `codegen_module` — the in-tree twin of the
//! benchmark's object digests, in the manner of
//! `crates/linker/tests/golden_digest.rs`.
//!
//! The constants were recorded from the commit *before* the emitter
//! became the dense plan / resolve / emit passes (PR 18). Each folds,
//! over every module of one program in one mode, the serialized object
//! (section bytes, relocations, block spans, symbols, the address map),
//! the [`DebugLayout`] and the
//! [`ModuleStats`](propeller_codegen::ModuleStats), so a changed branch
//! form, relocation order, block offset or metadata byte shows up here
//! without running the benchmark.
//!
//! [`encode`] writes the byte form objects had when the constants were
//! recorded, when an object still carried a per-section block map and
//! a symbol table: both are rebuilt here from what codegen emits now —
//! the block spans from the [`DebugLayout`]'s placements, and one
//! global function symbol per text section, at its start and as large
//! as the section.

mod common;

use common::{directives, program};
use propeller_codegen::{codegen_module, CodegenOptions, DebugLayout};
use propeller_ir::Program;
use propeller_obj::{ContentHash, ObjectFile, RelocKind, SectionKind};

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

/// Appends `s` length-prefixed.
fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// The pinned byte form of `object`, whose text sections are
/// `layout`'s fragments in order.
fn encode(object: &ObjectFile, layout: &DebugLayout) -> Vec<u8> {
    let u32_le = |v: u32| v.to_le_bytes();
    let mut spans = layout
        .functions
        .iter()
        .flat_map(|f| &f.fragments)
        .map(|frag| &frag.blocks);
    let mut out = Vec::new();
    out.extend_from_slice(&u32_le(0x504f_424a)); // "POBJ"
    put_str(&mut out, &object.name);
    out.extend_from_slice(&u32_le(object.sections().len() as u32));
    for s in object.sections() {
        put_str(&mut out, &s.name);
        out.push(match s.kind {
            SectionKind::Text => 0,
            SectionKind::BbAddrMap => 1,
            SectionKind::EhFrame => 2,
            SectionKind::RoData => 4,
        });
        out.extend_from_slice(&u32_le(s.align));
        out.extend_from_slice(&u32_le(s.bytes.len() as u32));
        out.extend_from_slice(&s.bytes);
        out.extend_from_slice(&u32_le(s.relocs.len() as u32));
        for r in &s.relocs {
            out.extend_from_slice(&u32_le(r.offset));
            out.push(match r.kind {
                RelocKind::CallPc32 => 0,
                RelocKind::BranchPc32 => 1,
            });
            put_str(&mut out, &r.symbol);
            out.extend_from_slice(&r.addend.to_le_bytes());
        }
        let blocks = match s.kind {
            SectionKind::Text => spans
                .next()
                .expect("a fragment per text section")
                .as_slice(),
            _ => &[],
        };
        out.extend_from_slice(&u32_le(blocks.len() as u32));
        for b in blocks {
            out.extend_from_slice(&u32_le(b.offset));
            out.extend_from_slice(&u32_le(b.size));
        }
        out.push(u8::from(s.relaxable));
    }
    assert!(spans.next().is_none(), "a fragment without a text section");
    let symbols: Vec<_> = object
        .sections()
        .iter()
        .enumerate()
        .filter_map(|(i, s)| Some((i, s.symbol.as_ref()?, s.size())))
        .collect();
    out.extend_from_slice(&u32_le(symbols.len() as u32));
    for (section, name, size) in symbols {
        put_str(&mut out, name);
        out.extend_from_slice(&u32_le(section as u32));
        out.extend_from_slice(&u32_le(0)); // offset
        out.extend_from_slice(&u32_le(size as u32));
        out.extend_from_slice(&[1, 0]); // global, function
    }
    out
}

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
            encode(&r.object, &r.debug_layout).as_slice(),
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
