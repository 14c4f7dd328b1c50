//! Internal section state and the §4.2 relaxation pass.
//!
//! "After code layout has been performed, a bespoke linker relaxation
//! pass removes fall-through branches. Additionally it shrinks branch
//! instructions where the offset can be encoded in fewer bytes."
//!
//! Only sections emitted with basic block sections are `relaxable`:
//! every control transfer in them carries a relocation, so the linker
//! may move bytes freely while keeping the block placements coherent.

use crate::error::LinkError;
use propeller_codegen::isa::{fits_short, len, op};
use propeller_obj::{ObjectFile, Reloc, RelocKind, Section, SectionKind, Span, Table};

/// Where a relocation's `symbol + addend` points, in input coordinates:
/// resolved once per link, so no later stage hashes a symbol name.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) struct Target {
    /// Index of the defining section in the flattened section list.
    pub sec: u32,
    /// Pre-relaxation offset within that section.
    pub off: u32,
}

/// A branch site inside a relaxable section.
#[derive(Clone, Debug)]
pub(crate) struct Site {
    /// Offset of the instruction start (original, pre-relaxation).
    pub inst_start: u32,
    /// Original encoded length (6 for cond, 5 for jmp).
    pub orig_len: u32,
    /// Conditional branch (`true`) or unconditional jump (`false`).
    pub cond: bool,
    /// Index of the branch's relocation among the section's relocations
    /// (and of its resolved target in the section's span of
    /// [`Sections::targets`]).
    pub reloc: u32,
    /// Current form decision.
    pub state: SiteState,
}

/// The relaxation state of one branch site.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum SiteState {
    /// Long form (as emitted).
    Long,
    /// Shrunk to the short form.
    Short,
    /// Deleted (redundant fall-through jump).
    Deleted,
}

impl Site {
    /// Encoded length of the short form.
    pub fn short_len(&self) -> u32 {
        if self.cond {
            len::BR_SHORT as u32
        } else {
            len::JMP_SHORT as u32
        }
    }

    /// Current encoded length under `state`.
    pub fn cur_len(&self) -> u32 {
        match self.state {
            SiteState::Long => self.orig_len,
            SiteState::Short => self.short_len(),
            SiteState::Deleted => 0,
        }
    }

    /// Bytes saved relative to the original encoding.
    pub fn savings(&self) -> u32 {
        self.orig_len - self.cur_len()
    }
}

/// A section being linked: the borrowed input plus what the link adds
/// to it — its address, and spans of the link-wide arrays in
/// [`Sections`] holding its resolved relocation targets and branch
/// sites.
#[derive(Clone, Debug)]
pub(crate) struct Sec<'a> {
    /// The owning input object, which holds the section's contents.
    pub obj: &'a ObjectFile,
    /// The input section: name, kind, alignment, and the spans of
    /// `obj`'s arrays holding its bytes and relocations.
    pub input: &'a Section,
    /// The span of [`Sections::targets`] holding the target of each of
    /// the section's relocations. Filled for loaded sections only — the
    /// others' relocations are never applied.
    pub targets: Span<Option<Target>>,
    /// The span of [`Sections::sites`] holding the section's branch
    /// sites (relaxable sections only), sorted by `inst_start`.
    pub sites: Span<Site>,
    /// Assigned virtual address.
    pub addr: u64,
}

impl<'a> Sec<'a> {
    /// Wraps `obj`'s section `input`; targets, sites and address come
    /// later.
    pub fn new(obj: &'a ObjectFile, input: &'a Section) -> Self {
        Sec {
            obj,
            input,
            targets: Span::default(),
            sites: Span::default(),
            addr: 0,
        }
    }

    /// Whether the relaxation pass may rewrite this section.
    pub fn is_relaxable_text(&self) -> bool {
        self.input.relaxable && self.input.kind == SectionKind::Text
    }

    /// The section's raw contents.
    pub fn bytes(&self) -> &'a [u8] {
        self.obj.bytes_of(self.input)
    }

    /// The section's relocations.
    pub fn relocs(&self) -> &'a [Reloc] {
        self.obj.relocs_of(self.input)
    }
}

/// Every section of the link with the link-wide arrays their spans
/// index: two allocations for all sections' targets and sites, not two
/// per section.
#[derive(Debug, Default)]
pub(crate) struct Sections<'a> {
    /// The flattened input sections, object after object.
    pub secs: Vec<Sec<'a>>,
    /// Resolved relocation targets, `None` where the symbol is
    /// undefined.
    pub targets: Table<Option<Target>>,
    /// Parsed branch sites.
    pub sites: Table<Site>,
}

impl<'a> Sections<'a> {
    /// `sec`'s branch sites.
    pub(crate) fn sites(&self, sec: &Sec) -> &[Site] {
        &self.sites[sec.sites]
    }

    /// Maps an original offset in `sec` to its post-relaxation offset.
    pub(crate) fn new_offset(&self, sec: &Sec, orig: u32) -> u32 {
        let saved: u32 = self
            .sites(sec)
            .iter()
            .take_while(|s| s.inst_start + s.orig_len <= orig)
            .map(Site::savings)
            .sum();
        orig - saved
    }

    /// `(offset, size)` of `sec`'s input bytes `offset..offset + size`
    /// after relaxation.
    pub(crate) fn new_span(&self, sec: &Sec, offset: u32, size: u32) -> (u32, u32) {
        let start = self.new_offset(sec, offset);
        (
            start,
            self.new_offset(sec, offset.saturating_add(size)) - start,
        )
    }

    /// `sec`'s final size after relaxation.
    pub(crate) fn final_size(&self, sec: &Sec) -> u32 {
        self.new_offset(sec, sec.bytes().len() as u32)
    }

    /// Whether `sec`'s site `site_idx` is the final instruction of the
    /// section (the only position where a fall-through jump can be
    /// deleted).
    pub(crate) fn is_tail(&self, sec: &Sec, site_idx: usize) -> bool {
        let s = &self.sites(sec)[site_idx];
        !s.cond && s.inst_start + s.orig_len == sec.bytes().len() as u32
    }

    /// The resolved target of `sec`'s relocation `reloc`, `None` where
    /// its symbol is undefined.
    pub(crate) fn target_of(&self, sec: &Sec, reloc: usize) -> Option<Target> {
        self.targets[sec.targets][reloc]
    }

    /// [`Sections::target_of`], with an undefined symbol an error
    /// naming `sec`'s object as the referrer.
    pub(crate) fn target(&self, sec: &Sec, reloc: usize) -> Result<Target, LinkError> {
        self.target_of(sec, reloc)
            .ok_or_else(|| LinkError::UndefinedSymbol {
                symbol: sec.relocs()[reloc].symbol.to_string(),
                object: sec.obj.name.clone(),
            })
    }

    /// The final virtual address of a resolved target.
    pub(crate) fn resolve(&self, target: Target) -> u64 {
        let sec = &self.secs[target.sec as usize];
        sec.addr + self.new_offset(sec, target.off) as u64
    }

    /// Assigns addresses to text sections in `text_order`, then to
    /// rodata. Returns one past the last text byte.
    pub(crate) fn assign_addresses(&mut self, text_order: &[usize], base: u64) -> u64 {
        let mut cursor = base;
        for &i in text_order {
            let size = self.final_size(&self.secs[i]);
            let sec = &mut self.secs[i];
            let align = sec.input.align.max(1) as u64;
            cursor = cursor.div_ceil(align) * align;
            sec.addr = cursor;
            cursor += size as u64;
        }
        let text_end = cursor;
        for s in self.secs.iter_mut() {
            if s.input.kind == SectionKind::RoData {
                cursor = cursor.div_ceil(16) * 16;
                s.addr = cursor;
                cursor += s.bytes().len() as u64;
            }
        }
        text_end
    }
}

/// Parses branch sites out of `obj`'s relaxable section `section`'s
/// relocations onto `sites`, sorted by `inst_start`, and returns their
/// span.
///
/// The instruction form is recovered from the bytes preceding the
/// relocated field: a `JMP_LONG` opcode immediately precedes the field
/// for jumps; a `BR_LONG` opcode two bytes before (with a zero condition
/// byte between) identifies conditional branches.
pub(crate) fn parse_sites(
    obj: &ObjectFile,
    section: &Section,
    sites: &mut Table<Site>,
) -> Result<Span<Site>, LinkError> {
    let bad = |detail: String| LinkError::BadMetadata {
        object: obj.name.clone(),
        detail: format!("{}: {detail}", section.name),
    };
    let bytes = obj.bytes_of(section);
    for (reloc, r) in obj.relocs_of(section).iter().enumerate() {
        if r.kind != RelocKind::BranchPc32 {
            continue;
        }
        let off = r.offset as usize;
        // A field reaching past the section would make the opcode peeks
        // below, and the byte walk at emit, index out of bounds —
        // corrupt metadata must surface as a typed error, not a panic.
        if off.saturating_add(r.kind.width()) > bytes.len() {
            return Err(bad(format!(
                "branch relocation at {} points outside the {}-byte section",
                r.offset,
                bytes.len()
            )));
        }
        // In-bounds by the check above: `off - 1`/`off - 2` < `off`
        // < `bytes.len()`.
        let (back, cond, orig_len) = if off >= 1 && bytes[off - 1] == op::JMP_LONG {
            (1, false, len::JMP_LONG)
        } else if off >= 2 && bytes[off - 2] == op::BR_LONG {
            (2, true, len::BR_LONG)
        } else {
            return Err(bad(format!(
                "branch relocation at {} has no branch opcode",
                r.offset
            )));
        };
        sites.push(Site {
            inst_start: r.offset - back,
            orig_len: orig_len as u32,
            cond,
            reloc: reloc as u32,
            state: SiteState::Long,
        });
    }
    let span = sites.close();
    let sites = &mut sites[span];
    sites.sort_by_key(|s| s.inst_start);
    // Emit copies the bytes between consecutive sites; overlapping ones
    // would hand it a reversed range.
    if let Some(w) = sites
        .windows(2)
        .find(|w| w[0].inst_start + w[0].orig_len > w[1].inst_start)
    {
        return Err(bad(format!(
            "branch instructions at {} and {} overlap",
            w[0].inst_start, w[1].inst_start
        )));
    }
    Ok(span)
}

/// Runs the relaxation fixpoint: fall-through jump deletion plus branch
/// shrinking. Returns `(deleted, shrunk, iterations)` — the counts plus
/// how many Jacobi sweeps the fixpoint took.
///
/// Decisions are recomputed from scratch each iteration against the
/// previous iteration's addresses (Jacobi style) until stable, then
/// verified. Non-convergence is not an error: if the loop fails to
/// stabilize or verify, the pass falls back to the always-correct
/// all-long, no-deletion state.
pub(crate) fn relax(
    sections: &mut Sections,
    text_order: &[usize],
    base: u64,
) -> Result<(u64, u64, u64), LinkError> {
    const MAX_ITERS: usize = 64;
    // Which section follows each one in the text order.
    let mut next_in_order: Vec<Option<usize>> = vec![None; sections.secs.len()];
    for w in text_order.windows(2) {
        next_in_order[w[0]] = Some(w[1]);
    }

    let mut stable = false;
    let mut iters = 0u64;
    // `(index in sections.sites, state)` of each decision that changed.
    let mut new_states: Vec<(usize, SiteState)> = Vec::new();
    for _ in 0..MAX_ITERS {
        iters += 1;
        sections.assign_addresses(text_order, base);
        // Compute fresh decisions against current addresses.
        for &si in text_order {
            let sec = &sections.secs[si];
            if !sec.input.relaxable {
                continue;
            }
            for (k, site) in sections.sites(sec).iter().enumerate() {
                let target = sections.resolve(sections.target(sec, site.reloc as usize)?);
                let state = if sections.is_tail(sec, k)
                    && tail_deletable(sections, si, k, next_in_order[si])
                {
                    SiteState::Deleted
                } else {
                    let site_addr = sec.addr + sections.new_offset(sec, site.inst_start) as u64;
                    let disp = target as i64 - (site_addr as i64 + site.short_len() as i64);
                    if fits_short(disp) {
                        SiteState::Short
                    } else {
                        SiteState::Long
                    }
                };
                if state != site.state {
                    new_states.push((sec.sites.range().start + k, state));
                }
            }
        }
        if new_states.is_empty() {
            stable = true;
            break;
        }
        for (i, st) in new_states.drain(..) {
            sections.sites[i].state = st;
        }
    }

    if stable {
        sections.assign_addresses(text_order, base);
        if verify(sections, text_order, &next_in_order)? {
            let mut deleted = 0;
            let mut shrunk = 0;
            for site in sections.sites.iter() {
                match site.state {
                    SiteState::Deleted => deleted += 1,
                    SiteState::Short => shrunk += 1,
                    SiteState::Long => {}
                }
            }
            return Ok((deleted, shrunk, iters));
        }
    }
    // Fallback: no relaxation (always correct).
    for site in sections.sites.iter_mut() {
        site.state = SiteState::Long;
    }
    sections.assign_addresses(text_order, base);
    Ok((0, 0, iters))
}

/// A tail jump is deletable when control would reach its target by
/// simply falling off the end of the section: the target must be the
/// first byte of the section that immediately follows in the layout,
/// and no alignment padding may separate the two.
///
/// The check is structural (next-section identity plus a zero-gap
/// alignment condition) rather than comparing addresses, because the
/// target's address itself shifts when the jump is deleted.
fn tail_deletable(
    sections: &Sections,
    sec_idx: usize,
    site_idx: usize,
    next_idx: Option<usize>,
) -> bool {
    let Some(ni) = next_idx else {
        return false;
    };
    let sec = &sections.secs[sec_idx];
    let sites = sections.sites(sec);
    let site = &sites[site_idx];
    let Some(target) = sections.target_of(sec, site.reloc as usize) else {
        return false;
    };
    if target.sec as usize != ni {
        return false;
    }
    let tsec = &sections.secs[ni];
    if sections.new_offset(tsec, target.off) != 0 {
        return false;
    }
    // End address of this section assuming the tail jump is deleted:
    // every other site's current savings apply, plus this site's full
    // length. The next section must start exactly there (no padding).
    let saved: u32 = sites
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != site_idx)
        .map(|(_, s)| s.savings())
        .sum();
    let end = sec.addr + (sec.bytes().len() as u32 - saved - site.orig_len) as u64;
    end.is_multiple_of(tsec.input.align.max(1) as u64)
}

/// Checks every decision against final addresses.
fn verify(
    sections: &Sections,
    text_order: &[usize],
    next_in_order: &[Option<usize>],
) -> Result<bool, LinkError> {
    for &si in text_order {
        let sec = &sections.secs[si];
        if !sec.input.relaxable {
            continue;
        }
        for (k, site) in sections.sites(sec).iter().enumerate() {
            let target = sections.resolve(sections.target(sec, site.reloc as usize)?);
            match site.state {
                SiteState::Deleted => {
                    let ok = sections.is_tail(sec, k)
                        && tail_deletable(sections, si, k, next_in_order[si]);
                    if !ok {
                        return Ok(false);
                    }
                }
                SiteState::Short => {
                    let site_addr = sec.addr + sections.new_offset(sec, site.inst_start) as u64;
                    let disp = target as i64 - (site_addr as i64 + site.short_len() as i64);
                    if !fits_short(disp) {
                        return Ok(false);
                    }
                }
                SiteState::Long => {}
            }
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An object `x.o` of one text section `.text.x` holding `bytes`
    /// and `relocs`.
    fn object(bytes: &[u8], relocs: &[Reloc]) -> ObjectFile {
        let mut obj = ObjectFile::new("x.o");
        let (content, relocations) = obj.content_mut();
        content.extend_from_slice(bytes);
        relocations.extend_from_slice(relocs);
        obj.push_section(Section::new(".text.x", SectionKind::Text));
        obj
    }

    /// An object of one relaxable text section of `size` zero bytes.
    fn text(size: usize, align: u32) -> ObjectFile {
        let mut obj = ObjectFile::new("t.o");
        obj.content_mut().0.extend(std::iter::repeat_n(0, size));
        let mut s = Section::new(".text.t", SectionKind::Text);
        s.align = align;
        s.relaxable = true;
        obj.push_section(s);
        obj
    }

    /// `obj`'s one section, wrapped.
    fn sec(obj: &ObjectFile) -> Sec<'_> {
        Sec::new(obj, &obj.sections()[0])
    }

    /// A link of `obj`'s one section, holding `sites`.
    fn one_section(obj: &ObjectFile, sites: Vec<Site>) -> Sections<'_> {
        let mut l = Sections::default();
        l.sites.extend(sites);
        l.secs.push(Sec {
            sites: l.sites.close(),
            ..sec(obj)
        });
        l
    }

    fn jmp_site(inst_start: u32, state: SiteState) -> Site {
        Site {
            inst_start,
            orig_len: 5,
            cond: false,
            reloc: 0,
            state,
        }
    }

    #[test]
    fn new_offset_accounts_for_savings() {
        let input = text(20, 1);
        let mut l = one_section(&input, vec![jmp_site(5, SiteState::Short)]);
        let s = &l.secs[0];
        // Site at [5,10) shrunk to 2 bytes: savings 3.
        assert_eq!(l.new_offset(s, 0), 0);
        assert_eq!(l.new_offset(s, 5), 5);
        assert_eq!(l.new_offset(s, 10), 7);
        assert_eq!(l.new_offset(s, 20), 17);
        assert_eq!(l.final_size(s), 17);
        l.sites[0].state = SiteState::Deleted;
        assert_eq!(l.final_size(&l.secs[0]), 15);
        l.sites[0].state = SiteState::Long;
        assert_eq!(l.final_size(&l.secs[0]), 20);
    }

    #[test]
    fn tail_detection() {
        let input = text(20, 1);
        let l = one_section(&input, vec![jmp_site(15, SiteState::Long)]);
        assert!(l.is_tail(&l.secs[0], 0));
        let l = one_section(&input, vec![jmp_site(5, SiteState::Long)]);
        assert!(!l.is_tail(&l.secs[0], 0));
    }

    /// [`parse_sites`] of `obj`'s one section.
    fn parse(obj: &ObjectFile, sites: &mut Table<Site>) -> Result<Span<Site>, LinkError> {
        parse_sites(obj, &obj.sections()[0], sites)
    }

    #[test]
    fn parse_sites_recovers_forms() {
        let mut bytes = vec![op::ALU, 0, 0];
        bytes.extend_from_slice(&[op::BR_LONG, 0, 0, 0, 0, 0]); // cond at 3
        bytes.extend_from_slice(&[op::JMP_LONG, 0, 0, 0, 0]); // jmp at 9
        let obj = object(
            &bytes,
            &[
                Reloc::new(4, RelocKind::CallPc32, "c", 0), // ignored
                Reloc::new(10, RelocKind::BranchPc32, "b", 4),
                Reloc::new(5, RelocKind::BranchPc32, "a", 0),
            ],
        );
        // Appended after what is there.
        let mut sites = Table::default();
        sites.push(jmp_site(0, SiteState::Long));
        sites.close();
        let span = parse(&obj, &mut sites).unwrap();
        assert_eq!(span.range(), 1..3);
        assert_eq!(sites[0].inst_start, 0);
        let sites = &sites[span];
        assert!(sites[0].cond);
        assert_eq!(sites[0].inst_start, 3);
        assert_eq!(sites[0].orig_len, 6);
        assert!(!sites[1].cond);
        assert_eq!(sites[1].inst_start, 9);
        assert_eq!(sites[1].orig_len, 5);
        // Sorted by address, each still naming its own relocation.
        let relocs = obj.relocs_of(&obj.sections()[0]);
        assert_eq!(&*relocs[sites[0].reloc as usize].symbol, "a");
        assert_eq!(relocs[sites[1].reloc as usize].addend, 4);
    }

    #[test]
    fn parse_sites_rejects_garbage() {
        let obj = object(&[0u8; 8], &[Reloc::new(4, RelocKind::BranchPc32, "a", 0)]);
        // The object is named as the object, the section in the detail.
        match parse(&obj, &mut Table::default()) {
            Err(LinkError::BadMetadata { object, detail }) => {
                assert_eq!(object, "x.o");
                assert!(detail.contains(".text.x"), "{detail}");
            }
            other => panic!("expected BadMetadata, got {other:?}"),
        }
    }

    #[test]
    fn parse_sites_rejects_out_of_bounds_reloc_without_panicking() {
        // A relocation whose field starts or ends past the section
        // bytes used to index out of bounds (the opcode peek, or emit's
        // byte walk); it must come back as typed corrupt-metadata.
        for off in [5u32, 8, 9, 100, u32::MAX] {
            let obj = object(
                &[op::JMP_LONG; 8],
                &[Reloc::new(off, RelocKind::BranchPc32, "a", 0)],
            );
            let err = parse(&obj, &mut Table::default()).unwrap_err();
            match err {
                LinkError::BadMetadata { detail, .. } => {
                    assert!(detail.contains("outside"), "{detail}");
                }
                other => panic!("expected BadMetadata, got {other:?}"),
            }
        }
    }

    #[test]
    fn parse_sites_rejects_overlapping_branches() {
        // Two "jumps" two bytes apart: the second opcode sits inside
        // the first one's displacement field.
        let obj = object(
            &[op::JMP_LONG; 12],
            &[
                Reloc::new(1, RelocKind::BranchPc32, "a", 0),
                Reloc::new(3, RelocKind::BranchPc32, "b", 0),
            ],
        );
        match parse(&obj, &mut Table::default()).unwrap_err() {
            LinkError::BadMetadata { detail, .. } => {
                assert!(detail.contains("overlap"), "{detail}")
            }
            other => panic!("expected BadMetadata, got {other:?}"),
        }
    }

    #[test]
    fn assign_addresses_respects_alignment() {
        let (a, b) = (text(10, 1), text(5, 16));
        let mut l = Sections {
            secs: vec![sec(&a), sec(&b)],
            ..Sections::default()
        };
        let end = l.assign_addresses(&[0, 1], 0x1000);
        assert_eq!(l.secs[0].addr, 0x1000);
        assert_eq!(l.secs[1].addr, 0x1010);
        assert_eq!(end, 0x1015);
    }
}
