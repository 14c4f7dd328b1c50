//! Performance counters and simulation reports.

use crate::attr::{AttributedCounters, FoldedStacks};
use crate::heatmap::HeatMap;
use propeller_profile::HardwareProfile;

/// The hardware events the simulator counts; each maps onto a Table 4
/// event of the paper.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct CounterSet {
    /// Instructions retired.
    pub insts: u64,
    /// Basic blocks executed.
    pub blocks: u64,
    /// Total cycles (from the front-end penalty model).
    pub cycles: u64,
    /// Taken branch instructions — `br_inst_retired.near_taken` (B2).
    pub taken_branches: u64,
    /// Not-taken (fall-through) control transfers.
    pub fallthroughs: u64,
    /// L1 i-cache misses — `frontend_retired.l1i_miss` (I1).
    pub l1i_misses: u64,
    /// L2 code read misses — `l2_rqsts.code_rd_miss` (I2).
    pub l2_code_misses: u64,
    /// Code misses served from memory — `offcore code rd` (I3).
    pub l3_code_misses: u64,
    /// First-level iTLB misses — `icache_64b.iftag_miss` (T1).
    pub itlb_misses: u64,
    /// STLB misses causing a page walk — `frontend_retired.itlb_miss`
    /// (T2).
    pub stlb_walks: u64,
    /// Front-end resteers from BTB misses — `baclears.any` (B1).
    pub baclears: u64,
    /// DSB (uop cache) window misses.
    pub dsb_misses: u64,
    /// Software prefetch instructions executed.
    pub prefetches: u64,
}

impl CounterSet {
    /// True when the run retired no work at all (no instructions and
    /// no cycles). Every ratio metric below treats an empty run as
    /// neutral — 0.0 IPC, 0.0% speedup, 0.0% delta — rather than
    /// letting a zero denominator make it look infinitely fast or
    /// slow.
    pub fn is_empty(&self) -> bool {
        self.insts == 0 && self.cycles == 0
    }

    /// Instructions per cycle; 0.0 for an empty run.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts as f64 / self.cycles as f64
        }
    }

    /// Relative speedup of `self` over `baseline` in percent, measured
    /// in cycles per instruction at equal work (the Table 3 metric:
    /// positive means `self` is faster). If either run is empty the
    /// comparison is meaningless and reports 0.0 instead of ±∞.
    pub fn speedup_pct_over(&self, baseline: &CounterSet) -> f64 {
        if self.cycles == 0 || baseline.cycles == 0 {
            return 0.0;
        }
        let own = self.cycles as f64 / self.insts.max(1) as f64;
        let base = baseline.cycles as f64 / baseline.insts.max(1) as f64;
        (base / own - 1.0) * 100.0
    }

    /// Percent change of `metric(self)` relative to `metric(baseline)`,
    /// normalized per instruction (negative = reduction). Reports 0.0
    /// when the baseline count is zero or either run is empty.
    pub fn delta_pct(&self, baseline: &CounterSet, metric: impl Fn(&CounterSet) -> u64) -> f64 {
        if self.is_empty() || baseline.is_empty() {
            return 0.0;
        }
        let own = metric(self) as f64 / self.insts.max(1) as f64;
        let base = metric(baseline) as f64 / baseline.insts.max(1) as f64;
        if base == 0.0 {
            0.0
        } else {
            (own / base - 1.0) * 100.0
        }
    }
}

/// Everything one simulation run produces.
#[derive(Clone, Debug, Default)]
pub struct SimReport {
    /// Event counts.
    pub counters: CounterSet,
    /// LBR profile, if sampling was enabled.
    pub profile: Option<HardwareProfile>,
    /// Instruction-access heat map, if requested.
    pub heatmap: Option<HeatMap>,
    /// Call-site code-miss counts keyed by `(call-site block address,
    /// callee entry address)`, if requested (§3.5 prefetch analysis).
    pub call_misses: Option<std::collections::HashMap<(u64, u64), u64>>,
    /// Per-symbol/per-block attributed counters, if requested. The
    /// per-event sums equal [`SimReport::counters`] exactly.
    pub attribution: Option<AttributedCounters>,
    /// Folded call stacks weighted by attributed cycles (flamegraph
    /// input), if attribution was requested.
    pub folded: Option<FoldedStacks>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_math() {
        let base = CounterSet {
            insts: 1000,
            cycles: 2000,
            ..CounterSet::default()
        };
        let opt = CounterSet {
            insts: 1000,
            cycles: 1000,
            ..CounterSet::default()
        };
        assert!((opt.speedup_pct_over(&base) - 100.0).abs() < 1e-9);
        assert!((base.speedup_pct_over(&base)).abs() < 1e-9);
    }

    #[test]
    fn delta_pct_normalizes_per_inst() {
        let base = CounterSet {
            insts: 1000,
            l1i_misses: 100,
            ..CounterSet::default()
        };
        let opt = CounterSet {
            insts: 2000,     // twice the work...
            l1i_misses: 100, // ...same misses => 50% reduction per inst
            ..CounterSet::default()
        };
        assert!((opt.delta_pct(&base, |c| c.l1i_misses) + 50.0).abs() < 1e-9);
    }

    #[test]
    fn ipc_zero_when_no_cycles() {
        assert_eq!(CounterSet::default().ipc(), 0.0);
    }

    #[test]
    fn empty_runs_are_neutral_in_every_ratio() {
        let empty = CounterSet::default();
        let real = CounterSet {
            insts: 1000,
            cycles: 1500,
            l1i_misses: 10,
            ..CounterSet::default()
        };
        assert!(empty.is_empty());
        assert!(!real.is_empty());
        // An empty run must not look infinitely fast or slow.
        assert_eq!(empty.speedup_pct_over(&real), 0.0);
        assert_eq!(real.speedup_pct_over(&empty), 0.0);
        assert_eq!(empty.speedup_pct_over(&empty), 0.0);
        assert_eq!(empty.delta_pct(&real, |c| c.l1i_misses), 0.0);
        assert_eq!(real.delta_pct(&empty, |c| c.l1i_misses), 0.0);
        assert_eq!(empty.ipc(), 0.0);
        // All finite — no ∞/NaN escapes the guards.
        for v in [
            empty.speedup_pct_over(&real),
            real.speedup_pct_over(&empty),
            empty.delta_pct(&real, |c| c.l1i_misses),
        ] {
            assert!(v.is_finite());
        }
    }
}
