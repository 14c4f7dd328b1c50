//! The link action.

use crate::binary::{
    FinalBlock, FinalFunctionLayout, FinalLayout, LinkStats, LinkedBinary, PlacedSection,
    SymbolPlacement,
};
use crate::error::LinkError;
use crate::ordering::SymbolOrdering;
use crate::relax::{assign_addresses, parse_sites, relax, resolve, Sec, SiteState, Target};
use propeller_codegen::isa::op;
use propeller_codegen::DebugLayout;
use propeller_obj::{
    BbAddrMap, ObjectFile, Reloc, RelocKind, SectionKind, SizeBreakdown, SymbolKind,
};
use propeller_telemetry::{SpanId, Telemetry};
use std::collections::HashMap;

/// One input to the link: an object file plus (optionally) the codegen
/// layout side table used to build the simulator's [`FinalLayout`].
#[derive(Clone, Debug)]
pub struct LinkInput {
    /// The relocatable object.
    pub object: ObjectFile,
    /// The codegen layout table for this object's functions.
    pub debug_layout: Option<DebugLayout>,
}

impl LinkInput {
    /// Wraps an object with its layout table.
    pub fn new(object: ObjectFile, debug_layout: DebugLayout) -> Self {
        LinkInput {
            object,
            debug_layout: Some(debug_layout),
        }
    }

    /// Wraps an object without layout info (its functions will be
    /// missing from the simulator's table).
    pub fn opaque(object: ObjectFile) -> Self {
        LinkInput {
            object,
            debug_layout: None,
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
    pub debug_layout: Option<&'a DebugLayout>,
}

impl<'a> LinkInputRef<'a> {
    /// Borrows an object with its layout table.
    pub fn new(object: &'a ObjectFile, debug_layout: &'a DebugLayout) -> Self {
        LinkInputRef {
            object,
            debug_layout: Some(debug_layout),
        }
    }
}

impl<'a> From<&'a LinkInput> for LinkInputRef<'a> {
    fn from(input: &'a LinkInput) -> Self {
        LinkInputRef {
            object: &input.object,
            debug_layout: input.debug_layout.as_ref(),
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
    /// Retain static relocations in the output as a `.rela` section
    /// (the "BM" metadata binary BOLT-style rewriters require, §5.3).
    pub retain_relocs: bool,
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
            retain_relocs: false,
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
/// map, a relocation or symbol pointing outside its section or object).
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
    // Flatten sections and build the global symbol table. Sections stay
    // borrowed; `primary_symbol[i]` is the function symbol naming the
    // start of section `i`, if one does.
    let n_sections = inputs.iter().map(|i| i.object.sections().len()).sum();
    let n_symbols = inputs.iter().map(|i| i.object.symbols().len()).sum();
    let mut secs: Vec<Sec> = Vec::with_capacity(n_sections);
    let mut symtab: HashMap<&str, Target> = HashMap::with_capacity(n_symbols);
    let mut primary_symbol: Vec<Option<&str>> = vec![None; n_sections];
    let mut obj_has_relaxable: Vec<bool> = Vec::with_capacity(inputs.len());
    let mut input_bytes = 0u64;
    let mut total_relocs = 0usize;
    for (oi, input) in inputs.iter().enumerate() {
        let obj = input.object;
        input_bytes += obj.size_breakdown().total() as u64;
        let mut has_relaxable = false;
        let sec_base = secs.len();
        for s in obj.sections() {
            total_relocs += s.relocs.len();
            let sec = Sec::new(oi, s);
            has_relaxable |= sec.is_relaxable_text();
            secs.push(sec);
        }
        obj_has_relaxable.push(has_relaxable);
        for sym in obj.symbols() {
            if !sym.global {
                continue;
            }
            if sym.section.index() >= obj.sections().len() {
                return Err(LinkError::BadMetadata {
                    object: obj.name.clone(),
                    detail: format!(
                        "symbol {:?} is defined in {}, but the object has {} section(s)",
                        sym.name,
                        sym.section,
                        obj.sections().len()
                    ),
                });
            }
            let gidx = sec_base + sym.section.index();
            let def = Target {
                sec: gidx as u32,
                off: sym.offset,
            };
            if symtab.insert(&sym.name, def).is_some() {
                return Err(LinkError::DuplicateSymbol(sym.name.clone()));
            }
            if sym.kind == SymbolKind::Func && sym.offset == 0 {
                primary_symbol[gidx] = Some(&sym.name);
            }
        }
    }

    // Resolve every relocation that will be applied, once: from here on
    // targets are indices, not names. An undefined symbol stays `None`
    // until a stage needs it, which then reports it as it always has.
    for sec in secs.iter_mut().filter(|s| s.input.kind.is_loaded()) {
        let object = &inputs[sec.obj_idx].object.name;
        // Not `collect`: through `Result` it loses the size hint and
        // reallocates as it grows.
        sec.targets.reserve_exact(sec.input.relocs.len());
        for r in &sec.input.relocs {
            sec.targets.push(resolve_reloc(&symtab, r, object)?);
        }
    }

    // Text ordering: symbol-ordering-file rank first, then input order.
    let mut text_order: Vec<usize> = (0..secs.len())
        .filter(|&i| secs[i].input.kind == SectionKind::Text)
        .collect();
    {
        let _ordering_span = tel.span_under("link.ordering", link_id);
        if let Some(order) = &opts.symbol_order {
            text_order.sort_by_cached_key(|&i| {
                let rank = primary_symbol[i]
                    .and_then(|name| order.rank(name))
                    .unwrap_or(usize::MAX);
                (rank, i)
            });
        }
    }

    // Relaxation.
    let (deleted, shrunk) = if opts.relax {
        let _relax_span = tel.span_under("link.relax", link_id);
        for s in secs.iter_mut().filter(|s| s.is_relaxable_text()) {
            s.sites = parse_sites(s.input)?;
        }
        let (deleted, shrunk, iters) = relax(&mut secs, &text_order, opts.base)?;
        if tel.is_enabled() {
            tel.counter_add("link.relax_iterations", iters);
            tel.counter_add("link.deleted_jumps", deleted);
            tel.counter_add("link.shrunk_branches", shrunk);
        }
        (deleted, shrunk)
    } else {
        (0, 0)
    };

    let text_end = assign_addresses(&mut secs, &text_order, opts.base);
    // The image covers [image_start, image_end): the span of the loaded
    // sections. `image_start` is the link base whenever a section sits
    // there, which alignment of the first one can prevent.
    let loaded = || secs.iter().filter(|s| s.input.kind.is_loaded());
    let image_start = loaded().map(|s| s.addr).min().unwrap_or(opts.base);
    let image_end = loaded()
        .map(|s| s.addr + s.final_size() as u64)
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
            padding += secs[i].addr - prev_end;
            prev_end = secs[i].addr + secs[i].final_size() as u64;
        }
    }
    for sec in loaded() {
        let start = (sec.addr - image_start) as usize;
        let out = &mut image[start..start + sec.final_size() as usize];
        emit_section(out, &secs, sec, &inputs[sec.obj_idx].object.name)?;
    }
    drop(emit_span);

    // Build the output symbol map.
    let symbols = symtab
        .iter()
        .map(|(&name, &def)| (name.to_string(), resolve(&secs, def)))
        .collect();

    // Merge metadata and compute the size breakdown.
    let mut bb_addr_map = BbAddrMap::default();
    let mut breakdown = SizeBreakdown {
        text: (text_end - opts.base) as usize,
        ..SizeBreakdown::default()
    };
    for s in &secs {
        let bytes = &s.input.bytes;
        match s.input.kind {
            SectionKind::Text => {}
            SectionKind::EhFrame => breakdown.eh_frame += bytes.len(),
            SectionKind::BbAddrMap => {
                if opts.drop_cold_bb_addr_map && !obj_has_relaxable[s.obj_idx] {
                    continue;
                }
                let decoded = BbAddrMap::decode(bytes).map_err(|e| LinkError::BadMetadata {
                    object: inputs[s.obj_idx].object.name.clone(),
                    detail: e.to_string(),
                })?;
                bb_addr_map.merge(decoded);
            }
            SectionKind::Rela => breakdown.relocs += bytes.len(),
            SectionKind::RoData | SectionKind::DebugRanges | SectionKind::Other => {
                breakdown.other += bytes.len()
            }
        }
    }
    if !bb_addr_map.functions.is_empty() {
        breakdown.bb_addr_map = bb_addr_map.encoded_len();
    }
    if opts.retain_relocs {
        breakdown.relocs += total_relocs * 24;
    }

    // Final per-block layout.
    let mut layout = FinalLayout::default();
    for input in inputs {
        let Some(dl) = input.debug_layout else {
            continue;
        };
        for fl in &dl.functions {
            let mut blocks = Vec::with_capacity(fl.fragments.iter().map(|f| f.blocks.len()).sum());
            for frag in &fl.fragments {
                let def = symtab.get(frag.section_symbol.as_str()).ok_or_else(|| {
                    LinkError::UndefinedSymbol {
                        symbol: frag.section_symbol.clone(),
                        object: input.object.name.clone(),
                    }
                })?;
                debug_assert_eq!(def.off, 0, "fragment symbols name section starts");
                let sec = &secs[def.sec as usize];
                for p in &frag.blocks {
                    let start = sec.new_offset(p.offset);
                    let end = sec.new_offset(p.offset + p.size);
                    blocks.push(FinalBlock {
                        block: p.block,
                        addr: sec.addr + start as u64,
                        size: end - start,
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

    // Per-symbol placement provenance: where each text section landed
    // in the final order, and what relaxation did to its bytes.
    let placements = text_order
        .iter()
        .enumerate()
        .map(|(pos, &i)| {
            let s = &secs[i];
            let mut deleted_jumps = 0u32;
            let mut shrunk_branches = 0u32;
            for site in &s.sites {
                match site.state {
                    SiteState::Deleted => deleted_jumps += 1,
                    SiteState::Short => shrunk_branches += 1,
                    SiteState::Long => {}
                }
            }
            SymbolPlacement {
                symbol: primary_symbol[i].unwrap_or(&s.input.name).to_string(),
                order: pos as u32,
                addr: s.addr,
                input_size: s.input.bytes.len() as u64,
                final_size: s.final_size() as u64,
                deleted_jumps,
                shrunk_branches,
            }
        })
        .collect();

    let placed = secs
        .iter()
        .map(|s| PlacedSection {
            name: s.input.name.clone(),
            kind: s.input.kind,
            addr: s.addr,
            size: s.final_size() as u64,
        })
        .collect();

    let stats = LinkStats {
        input_bytes,
        text_bytes: (text_end - opts.base),
        padding_bytes: padding,
        deleted_jumps: deleted,
        shrunk_branches: shrunk,
        modeled_peak_memory: 2 * input_bytes,
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

/// Looks up `r`'s symbol and folds in the addend. `Ok(None)` is an
/// undefined symbol; a target before its section's start, or past what
/// an offset can hold, is corrupt metadata.
fn resolve_reloc(
    symtab: &HashMap<&str, Target>,
    r: &Reloc,
    object: &str,
) -> Result<Option<Target>, LinkError> {
    let Some(def) = symtab.get(r.symbol.as_str()) else {
        return Ok(None);
    };
    let off = (def.off as i64)
        .checked_add(r.addend)
        .and_then(|off| u32::try_from(off).ok())
        .ok_or_else(|| LinkError::BadMetadata {
            object: object.to_string(),
            detail: format!(
                "relocation at {} against {:?} has addend {}, which points outside any section",
                r.offset, r.symbol, r.addend
            ),
        })?;
    Ok(Some(Target { sec: def.sec, off }))
}

/// Emits one loaded section into `out` — its slot in the image, exactly
/// its final size — applying relocations and relaxation decisions.
fn emit_section(out: &mut [u8], secs: &[Sec], sec: &Sec, obj_name: &str) -> Result<(), LinkError> {
    let bytes = &sec.input.bytes;
    let relocs = &sec.input.relocs;
    if sec.sites.is_empty() {
        out.copy_from_slice(bytes);
    } else {
        // Rebuild: walk original bytes around the relaxed branch sites.
        let mut at = 0usize;
        let mut cursor = 0usize;
        for site in &sec.sites {
            put(out, &mut at, &bytes[cursor..site.inst_start as usize]);
            let symbol = &relocs[site.reloc as usize].symbol;
            let target = resolve(secs, sec.target(site.reloc as usize, obj_name)?);
            let inst_addr = sec.addr + at as u64;
            let overflow = || LinkError::DisplacementOverflow {
                symbol: symbol.clone(),
            };
            match site.state {
                SiteState::Deleted => {}
                SiteState::Short => {
                    let disp = target as i64 - (inst_addr as i64 + 2);
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
        if r.kind == RelocKind::BranchPc32 && !sec.sites.is_empty() {
            continue;
        }
        let target = resolve(secs, sec.target(k, obj_name)?);
        let pos = sec.new_offset(r.offset) as usize;
        // Checked against the section's own slot, so a relocation
        // offset past its end cannot reach a neighbour's bytes.
        let field = out
            .get_mut(pos..pos.saturating_add(r.kind.width()))
            .ok_or_else(|| LinkError::BadMetadata {
                object: obj_name.to_string(),
                detail: format!(
                    "relocation at {} in {} points outside the {}-byte section",
                    r.offset,
                    sec.input.name,
                    bytes.len()
                ),
            })?;
        write_field(field, r.kind, target, sec.addr + pos as u64, &r.symbol)?;
    }
    Ok(())
}

/// Copies `chunk` to `out[*at..]` and advances `at` past it.
fn put(out: &mut [u8], at: &mut usize, chunk: &[u8]) {
    out[*at..*at + chunk.len()].copy_from_slice(chunk);
    *at += chunk.len();
}

fn write_field(
    slice: &mut [u8],
    kind: RelocKind,
    target: u64,
    field_addr: u64,
    symbol: &str,
) -> Result<(), LinkError> {
    match kind {
        RelocKind::CallPc32 | RelocKind::BranchPc32 => {
            let disp = target as i64 - (field_addr as i64 + 4);
            let d = i32::try_from(disp).map_err(|_| LinkError::DisplacementOverflow {
                symbol: symbol.to_string(),
            })?;
            slice.copy_from_slice(&d.to_le_bytes());
        }
        RelocKind::BranchPc8 => {
            let disp = target as i64 - (field_addr as i64 + 1);
            let d = i8::try_from(disp).map_err(|_| LinkError::DisplacementOverflow {
                symbol: symbol.to_string(),
            })?;
            slice.copy_from_slice(&[d as u8]);
        }
        RelocKind::Abs64 => slice.copy_from_slice(&target.to_le_bytes()),
    }
    Ok(())
}
