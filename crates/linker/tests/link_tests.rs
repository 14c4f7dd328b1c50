//! End-to-end linker tests driving real codegen output.

use propeller_codegen::{
    codegen_module, isa::decode, isa::op, isa::Decoded, ClusterMap, CodegenOptions, DebugLayout,
    FunctionClusters,
};
use propeller_ir::{BlockId, FunctionBuilder, Inst, Program, ProgramBuilder, Terminator};
use propeller_linker::{link, LinkError, LinkInput, LinkOptions, SymbolOrdering};
use propeller_obj::{ObjectFile, Reloc, RelocKind, Section, SectionKind};

/// Two modules:
///  * `a.cc`: `hot` (4 blocks: entry condbr -> cold_path | fast; both ->
///    exit) calling `helper` from the fast path,
///  * `b.cc`: `helper` (1 block) and `frosty` (cold, 1 block).
fn fixture() -> Program {
    let mut pb = ProgramBuilder::new();
    let ma = pb.add_module("a.cc");
    let mb = pb.add_module("b.cc");

    let mut helper = FunctionBuilder::new("helper");
    let b = helper.add_block(vec![Inst::Alu; 2], Terminator::Ret);
    helper.set_block_freq(b, 500);
    let helper_id = pb.add_function(mb, helper);

    let mut frosty = FunctionBuilder::new("frosty");
    frosty.add_block(vec![Inst::Alu; 8], Terminator::Ret);
    pb.add_function(mb, frosty);

    let mut hot = FunctionBuilder::new("hot");
    let entry = hot.add_block(
        vec![Inst::Load],
        Terminator::CondBr {
            taken: BlockId(1),
            fallthrough: BlockId(2),
            prob_taken: 0.02,
        },
    );
    let cold_path = hot.add_block(vec![Inst::Store; 6], Terminator::Jump(BlockId(3)));
    let fast = hot.add_block(vec![Inst::Call(helper_id)], Terminator::Jump(BlockId(3)));
    let exit = hot.add_block(vec![Inst::Alu], Terminator::Ret);
    hot.set_block_freq(entry, 1000);
    hot.set_block_freq(cold_path, 20);
    hot.set_block_freq(fast, 980);
    hot.set_block_freq(exit, 1000);
    pb.add_function(ma, hot);

    pb.finish().unwrap()
}

fn compile(p: &Program, opts: &CodegenOptions) -> Vec<LinkInput> {
    p.modules()
        .iter()
        .map(|m| {
            let r = codegen_module(m, p, opts).unwrap();
            LinkInput::new(r.object, r.debug_layout)
        })
        .collect()
}

fn split_hot_clusters(p: &Program) -> ClusterMap {
    let hot = p.functions().find(|f| &*f.name == "hot").unwrap().id;
    let mut map = ClusterMap::new();
    map.insert(
        hot,
        FunctionClusters::hot_cold(
            vec![BlockId(0), BlockId(2), BlockId(3)],
            vec![BlockId(1)],
        ),
    );
    map
}

#[test]
fn baseline_link_resolves_calls() {
    let p = fixture();
    let inputs = compile(&p, &CodegenOptions::baseline());
    let bin = link(&inputs, &LinkOptions::default()).unwrap();
    // Find the call in `hot`'s fast block and decode its displacement.
    let hot_layout = bin
        .layout
        .functions
        .iter()
        .find(|f| &*f.func_symbol == "hot")
        .unwrap();
    let fast = hot_layout
        .blocks
        .iter()
        .find(|b| b.block == BlockId(2))
        .unwrap();
    let bytes = bin.read(fast.addr, fast.size as usize).unwrap();
    match decode(bytes).unwrap() {
        Decoded::Call { disp, len } => {
            let target = (fast.addr + len as u64) as i64 + disp;
            assert_eq!(target as u64, bin.symbol("helper").unwrap());
        }
        other => panic!("expected call, got {other:?}"),
    }
}

#[test]
fn blocks_are_contiguous_and_sized_in_baseline() {
    let p = fixture();
    let inputs = compile(&p, &CodegenOptions::baseline());
    let bin = link(&inputs, &LinkOptions::default()).unwrap();
    for f in &bin.layout.functions {
        for w in f.blocks.windows(2) {
            assert_eq!(
                w[0].addr + w[0].size as u64,
                w[1].addr,
                "baseline blocks of {} are contiguous",
                f.func_symbol
            );
        }
    }
}

#[test]
fn symbol_ordering_reorders_text() {
    let p = fixture();
    let inputs = compile(&p, &CodegenOptions::baseline());
    let natural = link(&inputs, &LinkOptions::default()).unwrap();
    // In input order, `hot` (module a) precedes `helper` (module b).
    assert!(natural.symbol("hot").unwrap() < natural.symbol("helper").unwrap());

    let order = SymbolOrdering::new(["helper".to_string(), "hot".to_string()]);
    let opts = LinkOptions {
        symbol_order: Some(order),
        ..LinkOptions::default()
    };
    let ordered = link(&inputs, &opts).unwrap();
    assert!(ordered.symbol("helper").unwrap() < ordered.symbol("hot").unwrap());
    // Unlisted `frosty` lands after all listed symbols.
    assert!(ordered.symbol("frosty").unwrap() > ordered.symbol("hot").unwrap());
}

#[test]
fn relaxation_deletes_fallthrough_jump_to_adjacent_cold_section() {
    let p = fixture();
    let inputs = compile(&p, &CodegenOptions::with_clusters(split_hot_clusters(&p)));
    // Order: hot primary immediately followed by hot.cold. The primary
    // section's tail... the cold section ends with `jmp bb3` (an
    // explicit fall-through back into the primary), which cannot be
    // deleted. But the primary's entry condbr targets the cold cluster.
    // Place hot.cold directly after hot: the branch from bb0 to bb1
    // stays a branch, but bb2->bb3 inside the primary is implicit.
    // The deletable case: order [hot, hot.cold] makes nothing adjacent-
    // fallthrough; order [hot.cold placed right after its jump target]
    // doesn't exist here. Instead verify shrinking: the condbr to the
    // cold section right behind the 11-byte primary easily fits i8.
    let order = SymbolOrdering::new(["hot".to_string(), "hot.cold".to_string()]);
    let opts = LinkOptions {
        symbol_order: Some(order),
        relax: true,
        ..LinkOptions::default()
    };
    let bin = link(&inputs, &opts).unwrap();
    assert!(
        bin.stats.shrunk_branches >= 1,
        "condbr into adjacent cold section should shrink: {:?}",
        bin.stats
    );

    // Control transfers still hit the right targets after relaxation.
    let hot_layout = bin
        .layout
        .functions
        .iter()
        .find(|f| &*f.func_symbol == "hot")
        .unwrap();
    let entry = hot_layout.blocks.iter().find(|b| b.block == BlockId(0)).unwrap();
    let cold = hot_layout.blocks.iter().find(|b| b.block == BlockId(1)).unwrap();
    let bytes = bin.read(entry.addr, entry.size as usize).unwrap();
    // Skip the load (4 bytes), decode the branch.
    match decode(&bytes[4..]).unwrap() {
        Decoded::CondBr { disp, len } => {
            let target = (entry.addr + 4 + len as u64) as i64 + disp;
            assert_eq!(target as u64, cold.addr, "branch retargeted correctly");
        }
        other => panic!("expected condbr, got {other:?}"),
    }
}

#[test]
fn relaxation_deletes_tail_jump_when_target_follows() {
    // Craft a function split so the hot cluster ends in an explicit
    // jump to the cold cluster placed immediately after.
    let mut pb = ProgramBuilder::new();
    let m = pb.add_module("m.cc");
    let mut f = FunctionBuilder::new("split_fn");
    f.add_block(vec![Inst::Alu], Terminator::Jump(BlockId(1)));
    f.add_block(vec![Inst::Alu; 2], Terminator::Ret);
    let fid = pb.add_function(m, f);
    let p = pb.finish().unwrap();

    let mut map = ClusterMap::new();
    map.insert(
        fid,
        FunctionClusters::hot_cold(vec![BlockId(0)], vec![BlockId(1)]),
    );
    let inputs = compile(&p, &CodegenOptions::with_clusters(map));
    let order = SymbolOrdering::new(["split_fn".to_string(), "split_fn.cold".to_string()]);

    let unrelaxed = link(
        &inputs,
        &LinkOptions {
            symbol_order: Some(order.clone()),
            relax: false,
            ..LinkOptions::default()
        },
    )
    .unwrap();
    let relaxed = link(
        &inputs,
        &LinkOptions {
            symbol_order: Some(order),
            relax: true,
            ..LinkOptions::default()
        },
    )
    .unwrap();

    assert_eq!(relaxed.stats.deleted_jumps, 1, "{:?}", relaxed.stats);
    assert!(relaxed.stats.text_bytes < unrelaxed.stats.text_bytes);

    // After deletion, bb0 ends exactly where bb1 begins.
    let f = relaxed
        .layout
        .functions
        .iter()
        .find(|f| &*f.func_symbol == "split_fn")
        .unwrap();
    let b0 = f.blocks.iter().find(|b| b.block == BlockId(0)).unwrap();
    let b1 = f.blocks.iter().find(|b| b.block == BlockId(1)).unwrap();
    assert_eq!(b0.addr + b0.size as u64, b1.addr);
    // And bb0 is just the ALU instruction: jump gone.
    assert_eq!(b0.size, 3);
}

#[test]
fn duplicate_symbol_rejected() {
    let p = fixture();
    let mut inputs = compile(&p, &CodegenOptions::baseline());
    inputs.push(inputs[0].clone());
    assert!(matches!(
        link(&inputs, &LinkOptions::default()),
        Err(LinkError::DuplicateSymbol(_))
    ));
}

#[test]
fn undefined_symbol_rejected() {
    let p = fixture();
    let inputs = compile(&p, &CodegenOptions::baseline());
    // Drop module b (defines helper) -> hot's call is dangling.
    let partial = vec![inputs[0].clone()];
    assert!(matches!(
        link(&partial, &LinkOptions::default()),
        Err(LinkError::UndefinedSymbol { .. })
    ));
}

#[test]
fn bb_addr_map_merged_or_stripped() {
    let p = fixture();
    let inputs = compile(&p, &CodegenOptions::with_labels());
    let kept = link(&inputs, &LinkOptions::default()).unwrap();
    assert_eq!(kept.bb_addr_map.functions.len(), 3);
    assert!(kept.size_breakdown.bb_addr_map > 0);

    // A baseline binary carries no map: its objects never emit one.
    let inputs = compile(&p, &CodegenOptions::baseline());
    let baseline = link(&inputs, &LinkOptions::default()).unwrap();
    assert!(baseline.bb_addr_map.functions.is_empty());
    assert_eq!(baseline.size_breakdown.bb_addr_map, 0);
}

#[test]
fn cold_object_maps_dropped_in_relink() {
    let p = fixture();
    // Module a is regenerated with clusters (hot); module b comes from
    // the cache with labels metadata (cold).
    let hot_opts = CodegenOptions::with_clusters(split_hot_clusters(&p));
    let cold_opts = CodegenOptions::with_labels();
    let ra = codegen_module(&p.modules()[0], &p, &hot_opts).unwrap();
    let rb = codegen_module(&p.modules()[1], &p, &cold_opts).unwrap();
    let inputs = vec![
        LinkInput::new(ra.object, ra.debug_layout),
        LinkInput::new(rb.object, rb.debug_layout),
    ];
    let bin = link(
        &inputs,
        &LinkOptions {
            drop_cold_bb_addr_map: true,
            ..LinkOptions::default()
        },
    )
    .unwrap();
    // Only module a's map survives (helper+frosty dropped).
    let names: Vec<_> = bin
        .bb_addr_map
        .functions
        .iter()
        .map(|f| &*f.symbol)
        .collect();
    assert_eq!(names, vec!["hot"]);
}

#[test]
fn static_relocs_grow_file_size() {
    let p = fixture();
    let inputs = compile(&p, &CodegenOptions::baseline());
    let plain = link(&inputs, &LinkOptions::default()).unwrap();
    let bm = plain.clone().with_static_relocs();
    assert!(bm.size_breakdown.relocs > plain.size_breakdown.relocs);
    assert!(bm.size_breakdown.total() > plain.size_breakdown.total());
}

#[test]
fn relaxed_image_decodes_cleanly() {
    let p = fixture();
    let inputs = compile(&p, &CodegenOptions::with_clusters(split_hot_clusters(&p)));
    let order = SymbolOrdering::new([
        "hot".to_string(),
        "helper".to_string(),
        "hot.cold".to_string(),
        "frosty".to_string(),
    ]);
    let bin = link(
        &inputs,
        &LinkOptions {
            symbol_order: Some(order),
            relax: true,
            ..LinkOptions::default()
        },
    )
    .unwrap();
    // Every byte of text decodes as a valid instruction stream.
    let mut addr = bin.text_start;
    while addr < bin.text_end {
        let bytes = bin.read(addr, (bin.text_end - addr).min(8) as usize).unwrap();
        let d = decode(bytes).unwrap_or_else(|| panic!("undecodable at {addr:#x}"));
        addr += d.len() as u64;
    }
}

#[test]
fn link_stats_model_memory_as_twice_inputs() {
    let p = fixture();
    let inputs = compile(&p, &CodegenOptions::baseline());
    let bin = link(&inputs, &LinkOptions::default()).unwrap();
    assert_eq!(bin.stats.modeled_peak_memory, 2 * bin.stats.input_bytes);
    assert!(bin.stats.input_bytes > 0);
}

#[test]
fn map_report_lists_every_section() {
    let p = fixture();
    let inputs = compile(&p, &CodegenOptions::with_labels());
    let bin = link(&inputs, &LinkOptions::default()).unwrap();
    let map = bin.map_report();
    assert!(map.contains("Link map for a.out"));
    for s in &bin.sections {
        assert!(map.contains(&*s.name), "missing section {} in map", s.name);
    }
    assert!(map.contains("inputs"));
}

/// One object, two 8-byte non-relaxable text sections `.text.a` / `.text.b`
/// (16-aligned, so `b` sits 16 bytes after `a`) defining `a` and `b`.
/// `b`'s bytes are a recognisable pattern no relocation should touch.
fn two_section_object() -> ObjectFile {
    let mut obj = ObjectFile::new("hostile.o");
    for (name, fill) in [("a", op::NOP), ("b", 0xAB)] {
        let mut text = Section::new(format!(".text.{name}"), SectionKind::Text, vec![fill; 8]);
        text.symbol = Some(name.into());
        obj.add_section(text);
    }
    obj
}

/// An input whose layout table lists no function.
fn opaque(object: ObjectFile) -> LinkInput {
    LinkInput::new(object, DebugLayout::default())
}

fn assert_bad_metadata(obj: ObjectFile, needle: &str) {
    for relax in [false, true] {
        let opts = LinkOptions {
            relax,
            ..LinkOptions::default()
        };
        match link(&[opaque(obj.clone())], &opts) {
            Err(LinkError::BadMetadata { object, detail }) => {
                assert_eq!(object, "hostile.o");
                assert!(detail.contains(needle), "{detail}");
            }
            other => panic!("expected BadMetadata, got {other:?}"),
        }
    }
}

#[test]
fn relocation_offset_outside_its_section_is_rejected() {
    // The well-formed object links, and `b` keeps its bytes.
    let bin = link(
        &[opaque(two_section_object())],
        &LinkOptions::default(),
    )
    .unwrap();
    assert_eq!(bin.read(bin.symbol("b").unwrap(), 8).unwrap(), [0xAB; 8]);

    // 16 would land the field on `.text.b`'s slot in the image (it used
    // to be written there without complaint); 5 straddles the section
    // end; 1000 is past the image (it used to panic).
    for offset in [16, 5, 1000, u32::MAX] {
        let mut obj = two_section_object();
        obj.sections_mut()[0]
            .relocs
            .push(Reloc::new(offset, RelocKind::CallPc32, "a", 0));
        assert_bad_metadata(obj, "outside");
    }
}

#[test]
fn relocation_target_before_its_section_is_rejected() {
    // `b - 1` and `b + i64::MIN`: negative section offsets, which a
    // release build used to wrap into a huge address.
    for addend in [-1, i64::MIN, i64::MAX] {
        let mut obj = two_section_object();
        obj.sections_mut()[0]
            .relocs
            .push(Reloc::new(0, RelocKind::CallPc32, "b", addend));
        assert_bad_metadata(obj, "addend");
    }
}
