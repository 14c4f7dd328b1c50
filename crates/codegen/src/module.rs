//! Module-level code generation: one distributed build action.

use crate::emit::Plan;
use crate::error::CodegenError;
use crate::layout::{DebugLayout, FunctionClusters};
use crate::options::{BbSectionsMode, CodegenOptions};
use propeller_ir::{BlockId, Function, Module, Program};
use propeller_obj::{ObjectFile, Section, SectionKind};
use std::cell::RefCell;
use std::sync::Arc;

/// Aggregate statistics from one codegen action; used by the build
/// system's cost model.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct ModuleStats {
    /// Functions emitted.
    pub num_functions: usize,
    /// Text section fragments emitted.
    pub num_fragments: usize,
    /// Total text bytes emitted.
    pub text_bytes: usize,
    /// Branches emitted with static relocations (§4.2).
    pub relocated_branches: usize,
}

/// The artifacts of one codegen action.
#[derive(Clone, Debug)]
pub struct CodegenResult {
    /// The relocatable object.
    pub object: ObjectFile,
    /// Side table with every block's placement (the simulator's "debug
    /// info").
    pub debug_layout: DebugLayout,
    /// Cost-model statistics.
    pub stats: ModuleStats,
}

/// Number of callee-saved registers a function's CFI must describe;
/// deterministic per function so CFI sizes are stable across builds.
fn callee_saved_regs(f: &Function) -> usize {
    (f.id.0 % 5) as usize
}

/// Bytes of one CIE record.
const CIE_BYTES: usize = 24;
/// Base bytes of one FDE record (§4.4: one FDE per contiguous fragment).
const FDE_BASE_BYTES: usize = 40;
/// Extra FDE bytes per callee-saved register whose save slot must be
/// re-described when the CFA is redefined for a fragment.
const FDE_PER_REG_BYTES: usize = 8;
/// Size of a module's read-only data, as a fraction of its text size
/// (models string tables, vtables, jump tables...).
const RODATA_FRACTION: f64 = 0.30;

/// Compiles one module to an object file.
///
/// This is the Phase 2 / Phase 4 backend action of the paper's workflow:
/// deterministic, independent of every other module, and therefore
/// distributable and cacheable by content hash.
///
/// # Errors
///
/// Returns [`CodegenError`] if a cluster directive references unknown
/// blocks/functions or fails to partition a function.
pub fn codegen_module(
    module: &Module,
    program: &Program,
    opts: &CodegenOptions,
) -> Result<CodegenResult, CodegenError> {
    codegen_module_traced(
        module,
        program,
        opts,
        &propeller_telemetry::Telemetry::disabled(),
        None,
    )
}

/// [`codegen_module`], plus telemetry: a `codegen:<module>` span under
/// `parent` carrying the emit's wall time, a `codegen.modules` counter,
/// and a `codegen.text_bytes` histogram of emitted text sizes.
///
/// The explicit `parent` matters because the pipeline runs these
/// actions on worker threads, where thread-local span nesting cannot
/// see the phase span.
///
/// # Errors
///
/// Same as [`codegen_module`].
pub fn codegen_module_traced(
    module: &Module,
    program: &Program,
    opts: &CodegenOptions,
    tel: &propeller_telemetry::Telemetry,
    parent: Option<propeller_telemetry::SpanId>,
) -> Result<CodegenResult, CodegenError> {
    if !tel.is_enabled() {
        return codegen_module_impl(module, program, opts);
    }
    let _span = tel.span_under(format!("codegen:{}", module.name), parent);
    let result = codegen_module_impl(module, program, opts);
    if let Ok(r) = &result {
        tel.counter_add("codegen.modules", 1);
        tel.observe("codegen.text_bytes", r.stats.text_bytes as f64);
    }
    result
}

/// What [`codegen_module`] keeps across calls on one thread, so that a
/// module allocates nothing per block or per function: the module plan
/// and the encoded address map, which grow to the largest module the
/// thread has compiled and are then reused, and the identity partition
/// that functions without a cluster directive are planned by.
struct Scratch {
    plan: Plan,
    map: Vec<u8>,
    identity: FunctionClusters,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch {
        plan: Plan::default(),
        map: Vec::new(),
        identity: FunctionClusters::single(Vec::new()),
    });
    /// The names every object's `.eh_frame` and `.llvm_bb_addr_map`
    /// sections share.
    static SECTION_NAMES: [Arc<str>; 2] = [".eh_frame".into(), ".llvm_bb_addr_map".into()];
}

fn codegen_module_impl(
    module: &Module,
    program: &Program,
    opts: &CodegenOptions,
) -> Result<CodegenResult, CodegenError> {
    // Directives for other modules are fine (the caller may pass a
    // whole-program map), but every id must name a function of the
    // program. Ids are dense, so checking the largest checks them all.
    if let BbSectionsMode::Clusters(map) = &opts.bb_sections {
        if let Some(fid) = map.max_function {
            program
                .function(fid)
                .ok_or(CodegenError::UnknownFunction(fid))?;
        }
    }
    SCRATCH.with_borrow_mut(|scratch| {
        scratch.plan.clear();
        let result = write_module(module, program, opts, scratch);
        // The plan holds cluster names: drop them with the call.
        scratch.plan.clear();
        result
    })
}

/// Plans every function of `module` into the scratch's plan, then
/// writes the object into arrays reserved at their final sizes, and the
/// layout table and statistics from the same tables.
fn write_module(
    module: &Module,
    program: &Program,
    opts: &CodegenOptions,
    scratch: &mut Scratch,
) -> Result<CodegenResult, CodegenError> {
    let Scratch {
        plan,
        map,
        identity,
    } = scratch;
    let functions = module.functions.as_slice();
    let mut fde_bytes_total = 0usize;
    for f in functions {
        let directive = match &opts.bb_sections {
            BbSectionsMode::Clusters(map) => map.get(f.id),
            _ => None,
        };
        let (clusters, relocate) = match directive {
            Some(clusters) => (clusters, true),
            None => {
                // Emitted in the original block order.
                let blocks = &mut identity.clusters[0].blocks;
                blocks.clear();
                blocks.extend((0..f.num_blocks() as u32).map(BlockId));
                (&*identity, false)
            }
        };
        plan.plan_function(f, clusters, relocate)?;
        fde_bytes_total +=
            clusters.clusters.len() * (FDE_BASE_BYTES + FDE_PER_REG_BYTES * callee_saved_regs(f));
    }
    let stats = ModuleStats {
        num_functions: functions.len(),
        num_fragments: plan.num_fragments(),
        text_bytes: plan.text_bytes,
        relocated_branches: plan.relocated_branches,
    };

    // Every section's size is known before one is written: one CIE
    // plus one FDE per fragment (§4.4), the address map (§3.2), encoded
    // from the plan, and read-only data proportional to text.
    let eh_size = if stats.num_fragments > 0 {
        CIE_BYTES + fde_bytes_total
    } else {
        0
    };
    let wants_map = opts.wants_bb_addr_map() && !functions.is_empty();
    map.clear();
    if wants_map {
        *map = plan.write_map(functions, std::mem::take(map));
    }
    let map_size = map.len();
    let ro_size = (stats.text_bytes as f64 * RODATA_FRACTION).round() as usize;
    let num_sections = stats.num_fragments
        + usize::from(eh_size > 0)
        + usize::from(wants_map)
        + usize::from(ro_size > 0);
    let mut name = String::with_capacity(module.name.len() + 2);
    name.push_str(&module.name);
    name.push_str(".o");
    let mut object = ObjectFile::with_capacity(
        name,
        num_sections,
        stats.text_bytes + eh_size + map_size + ro_size,
        plan.num_relocs,
    );

    plan.write_text(functions, program, &mut object)?;
    let [eh_frame, bb_addr_map] = SECTION_NAMES.with(|names| names.clone());
    // .eh_frame: contents are opaque; only the size matters to the
    // evaluation.
    if eh_size > 0 {
        let bytes = object.content_mut().0;
        bytes.extend(std::iter::repeat_n(0, eh_size));
        object.push_section(Section::new(eh_frame, SectionKind::EhFrame));
    }
    if wants_map {
        object.content_mut().0.extend_from_slice(map);
        object.push_section(Section::new(bb_addr_map, SectionKind::BbAddrMap));
    }
    if ro_size > 0 {
        let bytes = object.content_mut().0;
        bytes.extend((0..ro_size).map(|i| (i as u8).wrapping_mul(31)));
        let name = plan.name(".rodata.", &module.name);
        object.push_section(Section::new(name, SectionKind::RoData));
    }
    debug_assert_eq!(
        object.sections().last().map_or(0, |s| s.bytes.range().end),
        stats.text_bytes + eh_size + map_size + ro_size
    );

    Ok(CodegenResult {
        object,
        debug_layout: plan.layout(functions),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::ClusterMap;
    use propeller_ir::{FunctionBuilder, Inst, ProgramBuilder, Terminator};
    use propeller_obj::BbAddrMap;
    use std::sync::Arc;

    fn build_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("mod_a.cc");
        let mut leaf = FunctionBuilder::new("leaf");
        leaf.add_block(vec![Inst::Alu; 2], Terminator::Ret);
        let leaf = pb.add_function(m, leaf);
        let mut f = FunctionBuilder::new("hot_fn");
        f.add_block(
            vec![Inst::Call(leaf)],
            Terminator::CondBr {
                taken: BlockId(1),
                fallthrough: BlockId(2),
                prob_taken: 0.01,
            },
        );
        f.add_block(vec![Inst::Alu; 4], Terminator::Jump(BlockId(2)));
        f.add_block(Vec::new(), Terminator::Ret);
        pb.add_function(m, f);
        pb.finish().unwrap()
    }

    /// Whether one of `object`'s sections defines `symbol`.
    fn defines(object: &ObjectFile, symbol: &str) -> bool {
        object
            .sections()
            .iter()
            .any(|s| s.symbol.as_deref() == Some(symbol))
    }

    #[test]
    fn baseline_emits_function_sections_without_metadata() {
        let p = build_program();
        let r = codegen_module(&p.modules()[0], &p, &CodegenOptions::baseline()).unwrap();
        let text: Vec<_> = r
            .object
            .sections()
            .iter()
            .filter(|s| s.kind == SectionKind::Text)
            .collect();
        assert_eq!(text.len(), 2); // one per function
        assert!(r
            .object
            .sections()
            .iter()
            .all(|s| s.kind != SectionKind::BbAddrMap));
        assert!(defines(&r.object, "hot_fn"));
        assert_eq!(r.stats.num_functions, 2);
        assert_eq!(r.stats.relocated_branches, 0);
    }

    #[test]
    fn labels_mode_adds_addr_map_without_changing_text() {
        let p = build_program();
        let base = codegen_module(&p.modules()[0], &p, &CodegenOptions::baseline()).unwrap();
        let pm = codegen_module(&p.modules()[0], &p, &CodegenOptions::with_labels()).unwrap();
        assert_eq!(base.stats.text_bytes, pm.stats.text_bytes);
        let map_sec = pm
            .object
            .sections()
            .iter()
            .find(|s| s.kind == SectionKind::BbAddrMap)
            .expect("labels mode emits the map");
        let mut decoded = BbAddrMap::default();
        decoded
            .decode_into(pm.object.bytes_of(map_sec), Arc::from)
            .unwrap();
        assert_eq!(decoded.functions().len(), 2);
        let hot = decoded
            .functions()
            .iter()
            .find(|f| &*f.symbol == "hot_fn")
            .unwrap();
        let ranges = decoded.ranges_of(hot);
        let blocks: usize = ranges.iter().map(|r| decoded.entries_of(r).len()).sum();
        assert_eq!(blocks, 3);
        // PM binary is strictly larger than baseline.
        assert!(pm.object.size_breakdown().total() > base.object.size_breakdown().total());
    }

    #[test]
    fn clusters_mode_splits_listed_functions_only() {
        let p = build_program();
        let hot_fn = p.functions().find(|f| &*f.name == "hot_fn").unwrap().id;
        let mut map = ClusterMap::new();
        map.insert(
            hot_fn,
            FunctionClusters::hot_cold(vec![BlockId(0), BlockId(2)], vec![BlockId(1)]),
        );
        let r = codegen_module(&p.modules()[0], &p, &CodegenOptions::with_clusters(map)).unwrap();
        assert!(defines(&r.object, "hot_fn.cold"));
        assert!(!defines(&r.object, "leaf.cold"));
        // Fragments: leaf(1) + hot_fn(2).
        assert_eq!(r.stats.num_fragments, 3);
        // The split function's sections are relaxable, leaf's is not.
        let by_name = |n: &str| {
            r.object
                .sections()
                .iter()
                .find(|s| *s.name == format!(".text.{n}"))
                .unwrap()
        };
        assert!(by_name("hot_fn").relaxable);
        assert!(by_name("hot_fn.cold").relaxable);
        assert!(!by_name("leaf").relaxable);
    }

    #[test]
    fn eh_frame_grows_with_fragments() {
        let p = build_program();
        let base = codegen_module(&p.modules()[0], &p, &CodegenOptions::baseline()).unwrap();
        let hot_fn = p.functions().find(|f| &*f.name == "hot_fn").unwrap().id;
        let mut map = ClusterMap::new();
        map.insert(
            hot_fn,
            FunctionClusters::hot_cold(vec![BlockId(0), BlockId(2)], vec![BlockId(1)]),
        );
        let split =
            codegen_module(&p.modules()[0], &p, &CodegenOptions::with_clusters(map)).unwrap();
        let eh = |r: &CodegenResult| r.object.size_breakdown().eh_frame;
        assert!(eh(&split) > eh(&base), "extra fragment => extra FDE");
    }

    #[test]
    fn unknown_function_in_cluster_map_rejected() {
        let p = build_program();
        let mut map = ClusterMap::new();
        for id in [99, 7, 140, 12] {
            map.insert(
                propeller_ir::FunctionId(id),
                FunctionClusters::single(vec![BlockId(0)]),
            );
        }
        // Of several unknown ids, the largest is reported, whatever
        // order the map iterates in.
        let err = codegen_module(&p.modules()[0], &p, &CodegenOptions::with_clusters(map));
        assert_eq!(
            err.err(),
            Some(CodegenError::UnknownFunction(propeller_ir::FunctionId(140)))
        );
    }

    #[test]
    fn deterministic_output() {
        let p = build_program();
        let a = codegen_module(&p.modules()[0], &p, &CodegenOptions::with_labels()).unwrap();
        let b = codegen_module(&p.modules()[0], &p, &CodegenOptions::with_labels()).unwrap();
        assert_eq!(a.object, b.object);
    }
}
