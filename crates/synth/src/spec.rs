//! Benchmark specifications (the paper's Table 2 plus behavioral
//! attributes referenced elsewhere in the evaluation).

/// Benchmark family.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum BenchKind {
    /// Warehouse-scale application built on the distributed build
    /// system.
    WarehouseScale,
    /// Open-source workload built on a workstation.
    OpenSource,
    /// SPEC2017 integer benchmark.
    Spec2017,
}

/// Full-scale characteristics and behavioral attributes of one
/// benchmark.
#[derive(Clone, PartialEq, Debug)]
pub struct BenchmarkSpec {
    /// Benchmark name as used in the paper.
    pub name: &'static str,
    /// Family.
    pub kind: BenchKind,
    /// The Table 3 performance metric label.
    pub metric: &'static str,
    /// `.text` size in bytes (Table 2).
    pub text_bytes: u64,
    /// Function count (Table 2).
    pub funcs: u64,
    /// Basic block count (Table 2).
    pub blocks: u64,
    /// Fraction of object files that are wholly cold (Table 2, "% Cold").
    pub cold_object_fraction: f64,
    /// Fraction of functions that are hot under the representative
    /// workload (derived: cold objects bound it above).
    pub hot_function_fraction: f64,
    /// Whether the deployment maps text with 2 MiB hugepages (§5.5:
    /// Search only).
    pub hugepages: bool,
    /// Whether the binary contains restartable-sequence or
    /// FIPS-integrity-checked code that a disassembly-driven rewriter
    /// corrupts (§5.8; Spanner, Superroot and Bigtable crash at
    /// startup under BOLT in Table 3).
    pub bolt_startup_crash: bool,
    /// Per-action RAM limit override in GiB (Superroot gets 24, §5).
    pub action_ram_gib: u64,
    /// Scale factor applied by the experiment harness when generating
    /// the program (1.0 = full size).
    pub default_scale: f64,
}

impl BenchmarkSpec {
    /// Average text bytes per basic block at full scale.
    pub fn bytes_per_block(&self) -> f64 {
        self.text_bytes as f64 / self.blocks as f64
    }

    /// Average blocks per function at full scale.
    pub fn blocks_per_function(&self) -> f64 {
        self.blocks as f64 / self.funcs as f64
    }
}

/// All benchmarks of the evaluation, in the paper's Table 2 order,
/// with the eight SPEC2017 integer benchmarks expanded
/// (520.omnetpp is excluded: "fails to build with clang", §5.4).
pub fn all_specs() -> Vec<BenchmarkSpec> {
    let wsc = |name,
               metric,
               text_mb: u64,
               funcs_k: u64,
               blocks_m: f64,
               cold,
               hot,
               hp,
               crash,
               ram,
               scale| {
        BenchmarkSpec {
            name,
            kind: BenchKind::WarehouseScale,
            metric,
            text_bytes: text_mb * 1024 * 1024,
            funcs: funcs_k * 1000,
            blocks: (blocks_m * 1e6) as u64,
            cold_object_fraction: cold,
            hot_function_fraction: hot,
            hugepages: hp,
            bolt_startup_crash: crash,
            action_ram_gib: ram,
            default_scale: scale,
        }
    };
    let spec = |name, text_kb: u64, funcs: u64, blocks: u64, cold: f64, hot: f64| BenchmarkSpec {
        name,
        kind: BenchKind::Spec2017,
        metric: "Runtime",
        text_bytes: text_kb * 1024,
        funcs,
        blocks,
        cold_object_fraction: cold,
        hot_function_fraction: hot,
        hugepages: false,
        bolt_startup_crash: false,
        action_ram_gib: 12,
        default_scale: 1.0,
    };
    vec![
        BenchmarkSpec {
            name: "clang",
            kind: BenchKind::OpenSource,
            metric: "Walltime",
            text_bytes: 72 * 1024 * 1024,
            funcs: 160_000,
            blocks: 2_100_000,
            cold_object_fraction: 0.67,
            hot_function_fraction: 0.12,
            hugepages: false,
            bolt_startup_crash: false,
            action_ram_gib: 12,
            default_scale: 1.0 / 30.0,
        },
        BenchmarkSpec {
            name: "mysql",
            kind: BenchKind::OpenSource,
            metric: "Latency",
            text_bytes: 26 * 1024 * 1024,
            funcs: 61_000,
            blocks: 1_400_000,
            cold_object_fraction: 0.93,
            hot_function_fraction: 0.04,
            hugepages: false,
            bolt_startup_crash: false,
            action_ram_gib: 12,
            default_scale: 1.0 / 20.0,
        },
        wsc(
            "spanner",
            "Latency",
            175,
            562,
            7.8,
            0.83,
            0.08,
            false,
            true,
            12,
            1.0 / 100.0,
        ),
        wsc(
            "search",
            "QPS",
            413,
            1_700,
            18.0,
            0.95,
            0.03,
            true,
            false,
            12,
            1.0 / 200.0,
        ),
        wsc(
            "bigtable",
            "QPS",
            93,
            368,
            4.2,
            0.88,
            0.06,
            false,
            true,
            12,
            1.0 / 50.0,
        ),
        wsc(
            "superroot",
            "QPS",
            598,
            2_700,
            30.0,
            0.82,
            0.07,
            false,
            true,
            24,
            1.0 / 300.0,
        ),
        spec("500.perlbench", 2048, 2_500, 75_000, 0.40, 0.30),
        spec("502.gcc", 4096, 12_000, 107_000, 0.21, 0.35),
        spec("505.mcf", 34, 80, 1_000, 0.88, 0.50),
        spec("523.xalancbmk", 3072, 9_000, 90_000, 0.35, 0.25),
        spec("525.x264", 1024, 1_500, 30_000, 0.45, 0.35),
        spec("531.deepsjeng", 120, 200, 3_000, 0.60, 0.50),
        spec("541.leela", 300, 500, 8_000, 0.55, 0.40),
        spec("557.xz", 200, 300, 5_000, 0.70, 0.45),
    ]
}

/// Looks up a spec by name.
pub fn spec_by_name(name: &str) -> Option<BenchmarkSpec> {
    all_specs().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_benchmarks() {
        let specs = all_specs();
        assert_eq!(specs.len(), 14);
        assert_eq!(
            specs
                .iter()
                .filter(|s| s.kind == BenchKind::Spec2017)
                .count(),
            8
        );
        assert_eq!(
            specs
                .iter()
                .filter(|s| s.kind == BenchKind::WarehouseScale)
                .count(),
            4
        );
    }

    #[test]
    fn table2_invariants() {
        for s in all_specs() {
            assert!(s.text_bytes > 0, "{}", s.name);
            assert!(s.blocks > s.funcs, "{}", s.name);
            assert!((0.0..=1.0).contains(&s.cold_object_fraction), "{}", s.name);
            assert!((0.0..1.0).contains(&s.hot_function_fraction), "{}", s.name);
            assert!(
                s.bytes_per_block() > 10.0 && s.bytes_per_block() < 64.0,
                "{}",
                s.name
            );
            assert!(s.default_scale > 0.0 && s.default_scale <= 1.0);
        }
    }

    #[test]
    fn crash_injection_matches_table3() {
        let crashing: Vec<_> = all_specs()
            .into_iter()
            .filter(|s| s.bolt_startup_crash)
            .map(|s| s.name)
            .collect();
        assert_eq!(crashing, vec!["spanner", "bigtable", "superroot"]);
        assert!(spec_by_name("search").unwrap().hugepages);
        assert_eq!(spec_by_name("superroot").unwrap().action_ram_gib, 24);
    }

    #[test]
    fn lookup_by_name() {
        assert!(spec_by_name("clang").is_some());
        assert!(spec_by_name("505.mcf").is_some());
        assert!(spec_by_name("nope").is_none());
    }
}
