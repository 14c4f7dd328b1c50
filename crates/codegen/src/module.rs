//! Module-level code generation: one distributed build action.

use crate::emit::{emit_function, Scratch};
use crate::error::CodegenError;
use crate::layout::{DebugLayout, FunctionClusters};
use crate::options::{BbSectionsMode, CodegenOptions};
use propeller_ir::{BlockId, Function, Module, Program};
use propeller_obj::{BbAddrMapWriter, ObjectFile, Section, SectionKind};

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

fn codegen_module_impl(
    module: &Module,
    program: &Program,
    opts: &CodegenOptions,
) -> Result<CodegenResult, CodegenError> {
    if let BbSectionsMode::Clusters(map) = &opts.bb_sections {
        for (fid, _) in map.iter() {
            // Directives for other modules are fine (the caller may pass
            // a whole-program map); directives for unknown functions are
            // not detectable here, so only validate the ones we own via
            // emission below. Ensure ids at least exist in the program.
            if program.function(fid).is_none() {
                return Err(CodegenError::UnknownFunction(fid));
            }
        }
    }

    let mut object = ObjectFile::new(format!("{}.o", module.name));
    let mut debug_layout = DebugLayout {
        functions: Vec::with_capacity(module.functions.len()),
    };
    let mut stats = ModuleStats::default();
    let mut addr_map = opts
        .wants_bb_addr_map()
        .then(|| BbAddrMapWriter::new(Vec::new(), module.functions.len()));
    let mut fde_bytes_total = 0usize;
    // Functions without a cluster directive are emitted in their
    // original block order: this one plan, refilled per function.
    let mut identity = FunctionClusters::single(Vec::new());
    let mut scratch = Scratch::default();

    for f in &module.functions {
        let directive = match &opts.bb_sections {
            BbSectionsMode::Clusters(map) => map.get(f.id),
            _ => None,
        };
        let (clusters, relocate) = match directive {
            Some(clusters) => (clusters, true),
            None => {
                let blocks = &mut identity.clusters[0].blocks;
                blocks.clear();
                blocks.extend((0..f.num_blocks() as u32).map(BlockId));
                (&identity, false)
            }
        };
        let emitted =
            emit_function(f, program, clusters, relocate, &mut scratch, addr_map.as_mut())?;
        stats.num_functions += 1;
        stats.num_fragments += emitted.fragments.len();
        stats.text_bytes += emitted.text_size();
        stats.relocated_branches += emitted.relocated_branches;
        fde_bytes_total +=
            emitted.fragments.len() * (FDE_BASE_BYTES + FDE_PER_REG_BYTES * callee_saved_regs(f));

        for section in emitted.fragments {
            object.add_section(section);
        }
        debug_layout.functions.push(emitted.layout);
    }

    // .eh_frame: one CIE plus one FDE per fragment (§4.4). Contents are
    // opaque; only the size matters to the evaluation.
    if stats.num_fragments > 0 {
        let eh = Section::new(
            ".eh_frame",
            SectionKind::EhFrame,
            vec![0u8; CIE_BYTES + fde_bytes_total],
        );
        object.add_section(eh);
    }

    // .llvm_bb_addr_map (§3.2), written as the functions were emitted.
    if let Some(map) = addr_map.filter(|_| !module.functions.is_empty()) {
        object.add_section(Section::new(
            ".llvm_bb_addr_map",
            SectionKind::BbAddrMap,
            map.finish(),
        ));
    }

    // Read-only data proportional to text.
    let ro_size = (stats.text_bytes as f64 * RODATA_FRACTION).round() as usize;
    if ro_size > 0 {
        let bytes: Vec<u8> = (0..ro_size).map(|i| (i as u8).wrapping_mul(31)).collect();
        object.add_section(Section::new(
            format!(".rodata.{}", module.name),
            SectionKind::RoData,
            bytes,
        ));
    }

    Ok(CodegenResult {
        object,
        debug_layout,
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
        decoded.decode_into(&map_sec.bytes, Arc::from).unwrap();
        assert_eq!(decoded.functions.len(), 2);
        let hot = decoded
            .functions
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
        let r = codegen_module(
            &p.modules()[0],
            &p,
            &CodegenOptions::with_clusters(map),
        )
        .unwrap();
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
        let split = codegen_module(
            &p.modules()[0],
            &p,
            &CodegenOptions::with_clusters(map),
        )
        .unwrap();
        let eh = |r: &CodegenResult| r.object.size_breakdown().eh_frame;
        assert!(eh(&split) > eh(&base), "extra fragment => extra FDE");
    }

    #[test]
    fn unknown_function_in_cluster_map_rejected() {
        let p = build_program();
        let mut map = ClusterMap::new();
        map.insert(
            propeller_ir::FunctionId(99),
            FunctionClusters::single(vec![BlockId(0)]),
        );
        let err = codegen_module(&p.modules()[0], &p, &CodegenOptions::with_clusters(map));
        assert!(matches!(err, Err(CodegenError::UnknownFunction(_))));
    }

    #[test]
    fn deterministic_output() {
        let p = build_program();
        let a = codegen_module(&p.modules()[0], &p, &CodegenOptions::with_labels()).unwrap();
        let b = codegen_module(&p.modules()[0], &p, &CodegenOptions::with_labels()).unwrap();
        assert_eq!(a.object, b.object);
    }
}
