//! The build-action cost model.
//!
//! Converts work sizes (instructions compiled, bytes linked, profile
//! bytes converted, dynamic-CFG edges analyzed, text bytes
//! disassembled) into modeled CPU seconds. The rates are calibrated so
//! full-scale extrapolations land in the regime the paper reports
//! (Table 5, Fig. 9): warehouse-scale links take tens of seconds,
//! profile conversion takes minutes on multi-gigabyte profiles, and
//! BOLT's disassemble-everything pass scales with text size while
//! Propeller's relink does not.

/// Frontend + middle-end seconds per IR instruction (Phase 1).
const COMPILE_SECS_PER_INST: f64 = 3.0e-4;
/// Backend codegen seconds per IR instruction (Phases 2 and 4).
const CODEGEN_SECS_PER_INST: f64 = 2.0e-4;
/// Link seconds per input byte.
const LINK_SECS_PER_BYTE: f64 = 4.0e-8;
/// Profile-conversion seconds per raw profile byte (Phase 3).
const PROFILE_CONVERSION_SECS_PER_BYTE: f64 = 1.0e-7;
/// Whole-program-analysis seconds per dynamic-CFG edge (Phase 3).
const WPA_SECS_PER_EDGE: f64 = 1.0e-6;
/// Disassembly seconds per text byte (BOLT's mandatory first step;
/// Propeller never pays this).
const DISASSEMBLY_SECS_PER_BYTE: f64 = 4.0e-8;

/// CPU seconds to compile `insts` IR instructions to optimized IR.
pub fn compile_secs(insts: u64) -> f64 {
    insts as f64 * COMPILE_SECS_PER_INST
}

/// CPU seconds of backend code generation for `insts` instructions.
pub fn codegen_secs(insts: u64) -> f64 {
    insts as f64 * CODEGEN_SECS_PER_INST
}

/// CPU seconds to link `input_bytes` of object-file input.
pub fn link_secs(input_bytes: u64) -> f64 {
    input_bytes as f64 * LINK_SECS_PER_BYTE
}

/// CPU seconds to convert `raw_bytes` of raw LBR profile into
/// aggregated branch counters.
pub fn profile_conversion_secs(raw_bytes: u64) -> f64 {
    raw_bytes as f64 * PROFILE_CONVERSION_SECS_PER_BYTE
}

/// CPU seconds of whole-program analysis over `dcfg_edges` dynamic
/// CFG edges.
pub fn wpa_secs(dcfg_edges: u64) -> f64 {
    dcfg_edges as f64 * WPA_SECS_PER_EDGE
}

/// CPU seconds to disassemble `text_bytes` of machine code.
pub fn disassembly_secs(text_bytes: u64) -> f64 {
    text_bytes as f64 * DISASSEMBLY_SECS_PER_BYTE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_are_linear_in_work() {
        assert!((codegen_secs(2_000) - 2.0 * codegen_secs(1_000)).abs() < 1e-12);
        assert!((link_secs(1 << 30) - 2.0 * link_secs(1 << 29)).abs() < 1e-12);
        assert_eq!(wpa_secs(0), 0.0);
    }

    #[test]
    fn compile_costs_more_than_codegen() {
        // Phase 1 (frontend + middle-end optimization) dominates the
        // backend run — that ordering is what makes Propeller's
        // "rerun only backends" phase cheap relative to a full build.
        assert!(compile_secs(1_000_000) > codegen_secs(1_000_000));
    }
}
