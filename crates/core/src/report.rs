//! Pipeline reports.

use propeller_buildsys::{CacheStats, PhaseReport};
use propeller_faults::DegradationLedger;
use propeller_sim::{AttributedCounters, CounterSet};
use propeller_wpa::WpaStats;

/// Wall/CPU time and memory of the four phases (the Table 5 columns).
#[derive(Copy, Clone, PartialEq, Debug, Default)]
pub struct PhaseTimes {
    /// Phase 1: compile + cache optimized IR.
    pub phase1: PhaseReport,
    /// Phase 2: metadata build (backends + link).
    pub phase2: PhaseReport,
    /// Phase 3: profile conversion + whole-program analysis.
    pub phase3: PhaseReport,
    /// Phase 4: hot codegen + relink.
    pub phase4: PhaseReport,
}

impl PhaseTimes {
    /// Total wall-clock seconds across phases.
    pub fn total_wall_secs(&self) -> f64 {
        self.phase1.wall_secs
            + self.phase2.wall_secs
            + self.phase3.wall_secs
            + self.phase4.wall_secs
    }

    /// These times with the *measured* pool timings (`wall_us`,
    /// `busy_us`) zeroed — the deterministic view [`PropellerReport`]
    /// embeds. Measured wall-clock differs between identical runs, so
    /// it must never participate in replay equality or serialized
    /// reports; it stays on [`crate::Propeller::times`] for the doctor
    /// and human-facing output.
    pub fn modeled_only(&self) -> PhaseTimes {
        let strip = |mut p: PhaseReport| {
            p.wall_us = 0;
            p.busy_us = 0;
            p
        };
        PhaseTimes {
            phase1: strip(self.phase1),
            phase2: strip(self.phase2),
            phase3: strip(self.phase3),
            phase4: strip(self.phase4),
        }
    }
}

/// The summary a [`crate::Propeller::run_all`] invocation returns.
#[derive(Clone, PartialEq, Debug)]
pub struct PropellerReport {
    /// Per-phase times and memory.
    pub times: PhaseTimes,
    /// IR-cache statistics from Phase 1 (the §2.1 ">90% hit rate"
    /// incremental-release effect shows up here).
    pub ir_cache: CacheStats,
    /// Object-cache statistics across phases 2 and 4 (Phase 4's hit
    /// rate is the "% Cold" effect: cold objects come from cache).
    pub object_cache: CacheStats,
    /// Fraction of modules re-code-generated in Phase 4.
    pub hot_module_fraction: f64,
    /// Hot functions found by WPA.
    pub hot_functions: usize,
    /// Full Phase 3 whole-program-analysis statistics (coverage inputs:
    /// skipped functions, unmapped addresses, DCFG size).
    pub wpa: WpaStats,
    /// Relaxation statistics of the final relink.
    pub deleted_jumps: u64,
    /// Branches shrunk by the final relink.
    pub shrunk_branches: u64,
    /// Name of the optimized output.
    pub optimized_binary_name: String,
    /// Exact account of every degradation the run performed — clean
    /// (all-zero, optimized layout) unless the configured fault plan
    /// actually fired.
    pub degradation: DegradationLedger,
    /// Per-symbol attribution of the Phase 3 profiling run, when
    /// [`crate::PropellerOptions::attribution`] requested it — the
    /// `perf report` view of the very execution the layout was
    /// derived from.
    pub profile_attribution: Option<AttributedCounters>,
}

/// Baseline-vs-optimized measurement from the simulator.
#[derive(Clone, PartialEq, Debug)]
pub struct EvalReport {
    /// Counters on the baseline (PGO+ThinLTO-equivalent) binary.
    pub baseline: CounterSet,
    /// Counters on the Propeller-optimized binary.
    pub optimized: CounterSet,
}

impl EvalReport {
    /// Percent speedup of optimized over baseline (Table 3 metric).
    pub fn speedup_pct(&self) -> f64 {
        self.optimized.speedup_pct_over(&self.baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_phases() {
        let mut t = PhaseTimes::default();
        t.phase1.wall_secs = 1.0;
        t.phase3.wall_secs = 2.5;
        assert!((t.total_wall_secs() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn eval_speedup_delegates() {
        let base = CounterSet {
            insts: 100,
            cycles: 200,
            ..CounterSet::default()
        };
        let opt = CounterSet {
            insts: 100,
            cycles: 100,
            ..CounterSet::default()
        };
        let e = EvalReport {
            baseline: base,
            optimized: opt,
        };
        assert!((e.speedup_pct() - 100.0).abs() < 1e-9);
    }
}
