//! The link action.

use crate::binary::{
    modeled_peak_memory, FinalBlock, FinalFunctionLayout, FinalLayout, LinkStats, LinkedBinary,
    PlacedSection, SymbolPlacement,
};
use crate::error::LinkError;
use crate::ordering::SymbolOrdering;
use crate::relax::{parse_sites, relax, Sec, Sections, SiteState, Target};
use propeller_codegen::isa::op;
use propeller_codegen::DebugLayout;
use propeller_obj::{BbAddrMap, ObjectFile, Reloc, RelocKind, SectionKind, SizeBreakdown, Table};
use propeller_telemetry::{SpanId, Telemetry};
use std::collections::HashMap;
use std::sync::Arc;

/// One input to the link: an object file plus the codegen layout side
/// table used to build the simulator's [`FinalLayout`].
#[derive(Clone, Debug)]
pub struct LinkInput {
    /// The relocatable object.
    pub object: ObjectFile,
    /// The codegen layout table for this object's functions; a function
    /// it does not list is missing from the simulator's table.
    pub debug_layout: DebugLayout,
}

impl LinkInput {
    /// Wraps an object with its layout table.
    pub fn new(object: ObjectFile, debug_layout: DebugLayout) -> Self {
        LinkInput {
            object,
            debug_layout,
        }
    }
}

/// A borrowed [`LinkInput`] — all the link reads. A caller whose objects
/// live elsewhere (the pipeline's cached `Arc<CodegenResult>`s) links
/// through [`link_refs_traced`] without copying them.
#[derive(Copy, Clone, Debug)]
pub struct LinkInputRef<'a> {
    /// The relocatable object.
    pub object: &'a ObjectFile,
    /// The codegen layout table for this object's functions.
    pub debug_layout: &'a DebugLayout,
}

impl<'a> LinkInputRef<'a> {
    /// Borrows an object with its layout table.
    pub fn new(object: &'a ObjectFile, debug_layout: &'a DebugLayout) -> Self {
        LinkInputRef {
            object,
            debug_layout,
        }
    }
}

impl<'a> From<&'a LinkInput> for LinkInputRef<'a> {
    fn from(input: &'a LinkInput) -> Self {
        LinkInputRef {
            object: &input.object,
            debug_layout: &input.debug_layout,
        }
    }
}

/// Options for one link action.
#[derive(Clone, Debug)]
pub struct LinkOptions {
    /// Output binary name.
    pub output_name: String,
    /// Global text layout (the `ld_prof.txt` symbol ordering file);
    /// `None` keeps input order.
    pub symbol_order: Option<SymbolOrdering>,
    /// Run the §4.2 relaxation pass over relaxable sections.
    pub relax: bool,
    /// Drop `.llvm_bb_addr_map` sections coming from objects with no
    /// relaxable text ("Any address map metadata sections in the cold
    /// native objects are dropped by the linker", §3.4).
    pub drop_cold_bb_addr_map: bool,
    /// Base virtual address.
    pub base: u64,
}

impl Default for LinkOptions {
    fn default() -> Self {
        LinkOptions {
            output_name: "a.out".into(),
            symbol_order: None,
            relax: false,
            drop_cold_bb_addr_map: false,
            base: 0x40_0000,
        }
    }
}

/// Links objects into a binary.
///
/// # Errors
///
/// Returns [`LinkError`] on duplicate or undefined global symbols,
/// displacement overflow, or corrupt metadata (an undecodable address
/// map, a relocation pointing outside its section).
pub fn link(inputs: &[LinkInput], opts: &LinkOptions) -> Result<LinkedBinary, LinkError> {
    let refs: Vec<LinkInputRef> = inputs.iter().map(LinkInputRef::from).collect();
    link_refs_traced(&refs, opts, &Telemetry::disabled(), None)
}

/// [`link`] over borrowed inputs, plus telemetry: a `link:<output>`
/// span under `parent` with `link.ordering` / `link.relax` /
/// `link.emit` stage children, a `link.relax_iterations` counter
/// (fixpoint sweeps), and `link.deleted_jumps` / `link.shrunk_branches`
/// counters.
///
/// # Errors
///
/// Same as [`link`].
pub fn link_refs_traced(
    inputs: &[LinkInputRef],
    opts: &LinkOptions,
    tel: &Telemetry,
    parent: Option<SpanId>,
) -> Result<LinkedBinary, LinkError> {
    if !tel.is_enabled() {
        return link_impl(inputs, opts, tel, None);
    }
    let mut link_span = tel.span_under(format!("link:{}", opts.output_name), parent);
    let link_id = link_span.id();
    let bin = link_impl(inputs, opts, tel, link_id)?;
    link_span.set_peak_bytes(bin.stats.modeled_peak_memory);
    Ok(bin)
}

fn link_impl(
    inputs: &[LinkInputRef],
    opts: &LinkOptions,
    tel: &Telemetry,
    link_id: Option<SpanId>,
) -> Result<LinkedBinary, LinkError> {
    // Flatten sections and build the link's one symbol table: each
    // section that names a symbol defines it at its start. The table
    // holds each symbol's section index until addresses are assigned,
    // then its address, and becomes the output's symbol map; its keys,
    // like every name the output keeps, are clones of the inputs' `Arc`s.
    let all_sections = || inputs.iter().flat_map(|i| i.object.sections());
    let n_symbols = all_sections().filter(|s| s.symbol.is_some()).count();
    let mut sections = Sections {
        secs: Vec::with_capacity(all_sections().count()),
        ..Sections::default()
    };
    let mut symbols: HashMap<Arc<str>, u64> = HashMap::with_capacity(n_symbols);
    let mut obj_has_relaxable: Vec<bool> = Vec::with_capacity(inputs.len());
    let mut input_bytes = 0u64;
    let mut total_relocs = 0usize;
    // What the merged address map will hold: each kept object's map
    // has one record per layout function, one range per fragment and
    // one entry per placement. A wrong count only costs capacity.
    let (mut map_functions, mut map_ranges, mut map_entries) = (0, 0, 0);
    for input in inputs {
        let obj = input.object;
        input_bytes += obj.size_breakdown().total() as u64;
        let mut has_relaxable = false;
        let mut has_map = false;
        for s in obj.sections() {
            total_relocs += s.relocs.len();
            has_map |= s.kind == SectionKind::BbAddrMap;
            if let Some(name) = &s.symbol {
                if symbols
                    .insert(name.clone(), sections.secs.len() as u64)
                    .is_some()
                {
                    return Err(LinkError::DuplicateSymbol(name.to_string()));
                }
            }
            let sec = Sec::new(obj, s);
            has_relaxable |= sec.is_relaxable_text();
            sections.secs.push(sec);
        }
        obj_has_relaxable.push(has_relaxable);
        if has_map && (has_relaxable || !opts.drop_cold_bb_addr_map) {
            let layout = input.debug_layout;
            map_functions += layout.functions().len();
            map_ranges += layout.fragments().len();
            map_entries += layout.blocks().len();
        }
    }
    let section_of = |symbol: &str| symbols.get(symbol).map(|&i| i as usize);

    // Resolve every relocation that will be applied, once: from here on
    // targets are indices, not names. An undefined symbol stays `None`
    // until a stage needs it, which then reports it as it always has.
    sections.targets = Table::with_capacity(total_relocs);
    for sec in sections
        .secs
        .iter_mut()
        .filter(|s| s.input.kind.is_loaded())
    {
        for r in sec.relocs() {
            sections
                .targets
                .push(resolve_reloc(section_of, r, &sec.obj.name)?);
        }
        sec.targets = sections.targets.close();
    }

    // Text ordering: symbol-ordering-file rank first, then input order.
    let mut text_order: Vec<usize> = (0..sections.secs.len())
        .filter(|&i| sections.secs[i].input.kind == SectionKind::Text)
        .collect();
    {
        let _ordering_span = tel.span_under("link.ordering", link_id);
        if let Some(order) = &opts.symbol_order {
            text_order.sort_by_cached_key(|&i| {
                let rank = sections.secs[i]
                    .input
                    .symbol
                    .as_ref()
                    .and_then(|name| order.rank(name))
                    .unwrap_or(usize::MAX);
                (rank, i)
            });
        }
    }

    // Relaxation.
    let (deleted, shrunk) = if opts.relax {
        let _relax_span = tel.span_under("link.relax", link_id);
        let branches = (sections.secs.iter())
            .filter(|s| s.is_relaxable_text())
            .flat_map(|s| s.relocs())
            .filter(|r| r.kind == RelocKind::BranchPc32)
            .count();
        sections.sites = Table::with_capacity(branches);
        for s in sections.secs.iter_mut().filter(|s| s.is_relaxable_text()) {
            s.sites = parse_sites(s.obj, s.input, &mut sections.sites)?;
        }
        let (deleted, shrunk, iters) = relax(&mut sections, &text_order, opts.base)?;
        if tel.is_enabled() {
            tel.counter_add("link.relax_iterations", iters);
            tel.counter_add("link.deleted_jumps", deleted);
            tel.counter_add("link.shrunk_branches", shrunk);
        }
        (deleted, shrunk)
    } else {
        (0, 0)
    };

    let text_end = sections.assign_addresses(&text_order, opts.base);
    // The image covers [image_start, image_end): the span of the loaded
    // sections. `image_start` is the link base whenever a section sits
    // there, which alignment of the first one can prevent.
    let loaded = || sections.secs.iter().filter(|s| s.input.kind.is_loaded());
    let image_start = loaded().map(|s| s.addr).min().unwrap_or(opts.base);
    let image_end = loaded()
        .map(|s| s.addr + sections.final_size(s) as u64)
        .max()
        .unwrap_or(opts.base);

    // Emit the image.
    let emit_span = tel.span_under("link.emit", link_id);
    let mut image = vec![op::NOP; (image_end - opts.base) as usize];
    let mut padding = 0u64;
    {
        // Account padding between text sections.
        let mut prev_end = opts.base;
        for &i in &text_order {
            let sec = &sections.secs[i];
            padding += sec.addr - prev_end;
            prev_end = sec.addr + sections.final_size(sec) as u64;
        }
    }
    for sec in loaded() {
        let start = (sec.addr - image_start) as usize;
        let out = &mut image[start..start + sections.final_size(sec) as usize];
        emit_section(out, &sections, sec)?;
    }
    drop(emit_span);

    // Merge metadata and compute the size breakdown.
    let mut bb_addr_map = BbAddrMap::with_capacity(map_functions, map_ranges, map_entries);
    // The merged map's encoded size, grown as each section is appended:
    // what an empty map takes (its function count) to start.
    let mut map_bytes = bb_addr_map.encoded_len();
    let mut breakdown = SizeBreakdown {
        text: (text_end - opts.base) as usize,
        ..SizeBreakdown::default()
    };
    for (input, &obj_relaxable) in inputs.iter().zip(&obj_has_relaxable) {
        let obj = input.object;
        for s in obj.sections() {
            let bytes = obj.bytes_of(s);
            match s.kind {
                SectionKind::Text => {}
                SectionKind::EhFrame => breakdown.eh_frame += bytes.len(),
                SectionKind::BbAddrMap => {
                    if opts.drop_cold_bb_addr_map && !obj_relaxable {
                        continue;
                    }
                    // A name the symbol table defines is shared, not copied.
                    let name = |sym: &str| {
                        symbols
                            .get_key_value(sym)
                            .map_or_else(|| Arc::from(sym), |(name, _)| name.clone())
                    };
                    let first_range = bb_addr_map.ranges().len();
                    map_bytes += bb_addr_map.decode_into(bytes, name).map_err(|e| {
                        LinkError::BadMetadata {
                            object: obj.name.clone(),
                            detail: e.to_string(),
                        }
                    })?;
                    // Codegen wrote offsets into the input sections; where
                    // relaxation moved bytes, each entry moves as its
                    // `FinalLayout` block does below. Without branch sites
                    // nothing moved.
                    if sections.sites.is_empty() {
                        continue;
                    }
                    for r in first_range..bb_addr_map.ranges().len() {
                        let r = &bb_addr_map.ranges()[r];
                        let Some(sec) = section_of(&r.symbol) else {
                            continue;
                        };
                        let sec = &sections.secs[sec];
                        for e in bb_addr_map.entries_mut(r.entries) {
                            let before = e.encoded_len();
                            (e.offset, e.size) = sections.new_span(sec, e.offset, e.size);
                            map_bytes = map_bytes + e.encoded_len() - before;
                        }
                    }
                }
                SectionKind::RoData => breakdown.other += bytes.len(),
            }
        }
    }
    if !bb_addr_map.functions().is_empty() {
        breakdown.bb_addr_map = map_bytes;
    }

    // Final per-block layout.
    let mut layout = FinalLayout::default();
    let n_functions = inputs.iter().map(|i| i.debug_layout.functions().len());
    layout.functions.reserve_exact(n_functions.sum());
    // The span of `sections.secs` holding the current input's sections.
    let mut own = 0..0;
    for input in inputs {
        own = own.end..own.end + input.object.sections().len();
        let debug_layout = input.debug_layout;
        let bad = |detail: String| LinkError::BadMetadata {
            object: input.object.name.clone(),
            detail,
        };
        for fl in debug_layout.functions() {
            let fragments = debug_layout.fragments_of(fl);
            let mut blocks = Vec::with_capacity(fragments.iter().map(|f| f.blocks.len()).sum());
            for frag in fragments {
                // Placements are offsets into the section the fragment's
                // symbol starts, which must be one of this object's.
                let symbol = &frag.section_symbol;
                let sec = section_of(symbol).ok_or_else(|| LinkError::UndefinedSymbol {
                    symbol: symbol.to_string(),
                    object: input.object.name.clone(),
                })?;
                if !own.contains(&sec) {
                    return Err(bad(format!(
                        "its layout places blocks at {symbol:?}, which {} defines",
                        sections.secs[sec].obj.name
                    )));
                }
                let sec = &sections.secs[sec];
                let sec_len = sec.bytes().len() as u64;
                for p in debug_layout.blocks_of(frag) {
                    if u64::from(p.offset) + u64::from(p.size) > sec_len {
                        return Err(bad(format!(
                            "its layout places block {} at {}..{} of {symbol:?}, past the \
                             {sec_len}-byte section's end",
                            p.block.0,
                            p.offset,
                            u64::from(p.offset) + u64::from(p.size)
                        )));
                    }
                    let (start, size) = sections.new_span(sec, p.offset, p.size);
                    blocks.push(FinalBlock {
                        block: p.block,
                        addr: sec.addr + start as u64,
                        size,
                    });
                }
            }
            layout.functions.push(FinalFunctionLayout {
                function: fl.function,
                func_symbol: fl.func_symbol.clone(),
                blocks,
            });
        }
    }

    // Every symbol's section index becomes its address.
    for at in symbols.values_mut() {
        *at = sections.secs[*at as usize].addr;
    }

    // Per-symbol placement provenance: where each text section landed
    // in the final order, and what relaxation did to its bytes.
    let placements = text_order
        .iter()
        .enumerate()
        .map(|(pos, &i)| {
            let s = &sections.secs[i];
            let mut deleted_jumps = 0u32;
            let mut shrunk_branches = 0u32;
            for site in sections.sites(s) {
                match site.state {
                    SiteState::Deleted => deleted_jumps += 1,
                    SiteState::Short => shrunk_branches += 1,
                    SiteState::Long => {}
                }
            }
            SymbolPlacement {
                symbol: s.input.symbol.as_ref().unwrap_or(&s.input.name).clone(),
                order: pos as u32,
                addr: s.addr,
                input_size: s.bytes().len() as u64,
                final_size: sections.final_size(s) as u64,
                deleted_jumps,
                shrunk_branches,
            }
        })
        .collect();

    let placed = sections
        .secs
        .iter()
        .map(|s| PlacedSection {
            name: s.input.name.clone(),
            kind: s.input.kind,
            addr: s.addr,
            size: sections.final_size(s) as u64,
        })
        .collect();

    let stats = LinkStats {
        input_bytes,
        relocations: total_relocs as u64,
        text_bytes: (text_end - opts.base),
        padding_bytes: padding,
        deleted_jumps: deleted,
        shrunk_branches: shrunk,
        modeled_peak_memory: modeled_peak_memory(input_bytes),
    };

    Ok(LinkedBinary {
        name: opts.output_name.clone(),
        base: opts.base,
        image,
        text_start: opts.base,
        text_end,
        sections: placed,
        symbols,
        bb_addr_map,
        size_breakdown: breakdown,
        layout,
        placements,
        stats,
    })
}

/// Looks up `r`'s symbol, which starts its section, and takes the
/// addend as the offset into it. `Ok(None)` is an undefined symbol; a
/// target before its section's start, or past what an offset can hold,
/// is corrupt metadata.
fn resolve_reloc(
    section_of: impl Fn(&str) -> Option<usize>,
    r: &Reloc,
    object: &str,
) -> Result<Option<Target>, LinkError> {
    let Some(sec) = section_of(&r.symbol) else {
        return Ok(None);
    };
    let off = u32::try_from(r.addend).map_err(|_| LinkError::BadMetadata {
        object: object.to_string(),
        detail: format!(
            "relocation at {} against {:?} has addend {}, which points outside any section",
            r.offset, r.symbol, r.addend
        ),
    })?;
    Ok(Some(Target {
        sec: sec as u32,
        off,
    }))
}

/// Emits one loaded section into `out` — its slot in the image, exactly
/// its final size — applying relocations and relaxation decisions.
fn emit_section(out: &mut [u8], sections: &Sections, sec: &Sec) -> Result<(), LinkError> {
    let bytes = sec.bytes();
    let relocs = sec.relocs();
    let sites = sections.sites(sec);
    if sites.is_empty() {
        out.copy_from_slice(bytes);
    } else {
        // Rebuild: walk original bytes around the relaxed branch sites.
        let mut at = 0usize;
        let mut cursor = 0usize;
        for site in sites {
            put(out, &mut at, &bytes[cursor..site.inst_start as usize]);
            let symbol = &relocs[site.reloc as usize].symbol;
            let target = sections.resolve(sections.target(sec, site.reloc as usize)?);
            let inst_addr = sec.addr + at as u64;
            let overflow = || LinkError::DisplacementOverflow {
                symbol: symbol.to_string(),
            };
            match site.state {
                SiteState::Deleted => {}
                SiteState::Short => {
                    let disp = target as i64 - (inst_addr as i64 + site.short_len() as i64);
                    let d8 = i8::try_from(disp).map_err(|_| overflow())?;
                    let opcode = if site.cond {
                        op::BR_SHORT
                    } else {
                        op::JMP_SHORT
                    };
                    put(out, &mut at, &[opcode, d8 as u8]);
                }
                SiteState::Long => {
                    let disp = target as i64 - (inst_addr as i64 + site.orig_len as i64);
                    let d32 = i32::try_from(disp).map_err(|_| overflow())?;
                    if site.cond {
                        put(out, &mut at, &[op::BR_LONG, 0]);
                    } else {
                        put(out, &mut at, &[op::JMP_LONG]);
                    }
                    put(out, &mut at, &d32.to_le_bytes());
                }
            }
            cursor = (site.inst_start + site.orig_len) as usize;
        }
        put(out, &mut at, &bytes[cursor..]);
        debug_assert_eq!(at, out.len());
    }
    // Patch relocations at their (possibly moved) offsets; relaxed
    // branches were rewritten above.
    for (k, r) in relocs.iter().enumerate() {
        if r.kind == RelocKind::BranchPc32 && !sites.is_empty() {
            continue;
        }
        let target = sections.resolve(sections.target(sec, k)?);
        let pos = sections.new_offset(sec, r.offset) as usize;
        // Checked against the section's own slot, so a relocation
        // offset past its end cannot reach a neighbour's bytes.
        let field = out
            .get_mut(pos..pos.saturating_add(r.kind.width()))
            .ok_or_else(|| LinkError::BadMetadata {
                object: sec.obj.name.clone(),
                detail: format!(
                    "relocation at {} in {} points outside the {}-byte section",
                    r.offset,
                    sec.input.name,
                    bytes.len()
                ),
            })?;
        write_field(field, target, sec.addr + pos as u64, &r.symbol)?;
    }
    Ok(())
}

/// Copies `chunk` to `out[*at..]` and advances `at` past it.
fn put(out: &mut [u8], at: &mut usize, chunk: &[u8]) {
    out[*at..*at + chunk.len()].copy_from_slice(chunk);
    *at += chunk.len();
}

/// Writes the 32-bit displacement from the end of the field at
/// `field_addr` to `target`: both relocation kinds are pc-relative.
fn write_field(
    slice: &mut [u8],
    target: u64,
    field_addr: u64,
    symbol: &str,
) -> Result<(), LinkError> {
    let disp = target as i64 - (field_addr as i64 + slice.len() as i64);
    let d = i32::try_from(disp).map_err(|_| LinkError::DisplacementOverflow {
        symbol: symbol.to_string(),
    })?;
    slice.copy_from_slice(&d.to_le_bytes());
    Ok(())
}
