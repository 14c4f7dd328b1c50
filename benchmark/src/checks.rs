//! Output checks that do not rest on the code path under test alone.

use propeller_ir::Program;
use propeller_linker::FinalLayout;
use propeller_obj::ContentHash;
use propeller_sim::SimReport;
use std::collections::HashMap;

pub fn digest(bytes: &[u8]) -> u64 {
    ContentHash::of_bytes(bytes).0
}

/// Retired-trace equivalence: the optimized binary must execute every
/// function's blocks exactly as often as the baseline binary does under
/// the same load — layout may move code, never change what runs.
pub fn retired_trace_equal(base: &SimReport, opt: &SimReport) -> Result<(), String> {
    let (Some(b), Some(o)) = (&base.attribution, &opt.attribution) else {
        return Err("attribution was not collected".into());
    };
    let by_name: HashMap<&str, u64> = o
        .symbols
        .iter()
        .map(|s| (s.name.as_str(), s.total.blocks))
        .collect();
    if b.symbols.len() != o.symbols.len() {
        return Err(format!(
            "baseline attributes {} functions, optimized {}",
            b.symbols.len(),
            o.symbols.len()
        ));
    }
    for s in &b.symbols {
        match by_name.get(s.name.as_str()) {
            Some(&n) if n == s.total.blocks => {}
            other => {
                return Err(format!(
                    "{}: baseline executed {} blocks, optimized {:?}",
                    s.name, s.total.blocks, other
                ))
            }
        }
    }
    if base.counters.blocks != opt.counters.blocks || base.counters.blocks == 0 {
        return Err(format!(
            "retired blocks differ or are zero: baseline {}, optimized {}",
            base.counters.blocks, opt.counters.blocks
        ));
    }
    Ok(())
}

/// The shipped layout places every block of every function of
/// `program` exactly once.
pub fn layout_is_permutation(program: &Program, layout: &FinalLayout) -> Result<(), String> {
    if layout.functions.len() != program.num_functions() {
        return Err(format!(
            "layout has {} functions, program {}",
            layout.functions.len(),
            program.num_functions()
        ));
    }
    let mut seen = vec![false; program.num_functions()];
    for fl in &layout.functions {
        let f = program
            .function(fl.function)
            .ok_or_else(|| format!("layout names unknown function {}", fl.function))?;
        if std::mem::replace(&mut seen[fl.function.index()], true) {
            return Err(format!("function {} placed twice", f.name));
        }
        let mut ids: Vec<u32> = fl.blocks.iter().map(|b| b.block.0).collect();
        ids.sort_unstable();
        if !ids.iter().copied().eq(0..f.num_blocks() as u32) {
            return Err(format!(
                "{}: placed blocks are not a permutation of its blocks",
                f.name
            ));
        }
    }
    Ok(())
}
