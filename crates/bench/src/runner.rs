//! The shared benchmark runner: one call produces every binary and
//! measurement a table/figure binary needs.

use propeller::{Propeller, PropellerOptions};
use propeller_bolt::{run_bolt, BoltError, BoltOptions, BoltOutput};
use propeller_buildsys::{cost, MachineConfig, GIB};
use propeller_codegen::{codegen_module, CodegenOptions};
use propeller_ir::ProgramStats;
use propeller_linker::{link, LinkInput, LinkOptions, LinkedBinary};
use propeller_profile::{HardwareProfile, SamplingConfig};
use propeller_sim::{simulate, CounterSet, HeatMap, ProgramImage, SimOptions, UarchConfig, Workload};
use propeller_synth::{generate, spec_by_name, BenchKind, BenchmarkSpec, GenParams};
use propeller_telemetry::Telemetry;
use propeller_wpa::WpaStats;
use std::sync::Arc;

/// Experiment configuration shared by all harness binaries.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Extra multiplier on each spec's default scale (pass `< 1.0` for
    /// quicker runs).
    pub scale_mult: f64,
    /// Blocks executed while profiling.
    pub profile_budget: u64,
    /// Blocks executed per evaluation run.
    pub eval_budget: u64,
    /// Workload/generation seed.
    pub seed: u64,
    /// Telemetry handle threaded into the pipeline; disabled by
    /// default, so uninstrumented runs pay one branch per site.
    pub tel: Telemetry,
    /// Arm full layout-decision provenance collection in Phase 3.
    /// Off by default; arming never changes any layout or report.
    pub provenance: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            scale_mult: 1.0,
            profile_budget: 500_000,
            eval_budget: 800_000,
            seed: 0xA5_2023,
            tel: Telemetry::disabled(),
            provenance: false,
        }
    }
}

impl RunConfig {
    /// Reads `PROPELLER_QUICK=1` from the environment for fast smoke
    /// runs of the harness binaries.
    pub fn from_env() -> Self {
        let mut cfg = RunConfig::default();
        if std::env::var("PROPELLER_QUICK").is_ok_and(|v| v == "1") {
            cfg.scale_mult = 0.25;
            cfg.profile_budget = 80_000;
            cfg.eval_budget = 120_000;
        }
        cfg
    }
}

/// Everything measured for one benchmark.
pub struct BenchArtifacts {
    /// The benchmark's spec.
    pub spec: BenchmarkSpec,
    /// Scale actually generated at.
    pub scale: f64,
    /// Aggregate program characteristics of the generated program.
    pub program_stats: ProgramStats,
    /// The Propeller pipeline (owns the program and all its binaries).
    pub pipeline: Propeller,
    /// Pipeline summary.
    pub report: propeller::PropellerReport,
    /// The PGO+ThinLTO-equivalent baseline binary.
    pub baseline: Arc<LinkedBinary>,
    /// Baseline with retained relocations — BOLT's required input
    /// ("BM").
    pub bm: LinkedBinary,
    /// The BOLT run (may legitimately fail).
    pub bolt: Result<BoltOutput, BoltError>,
    /// The profile both optimizers consumed.
    pub profile: HardwareProfile,
    /// WPA statistics.
    pub wpa_stats: WpaStats,
    /// Counters: baseline / Propeller / BOLT (None when BOLT failed or
    /// its output crashes at startup).
    pub base_counters: CounterSet,
    /// Propeller-optimized counters.
    pub prop_counters: CounterSet,
    /// BOLT-optimized counters.
    pub bolt_counters: Option<CounterSet>,
    /// Microarchitecture used for all simulations.
    pub uarch: UarchConfig,
    /// Evaluation workload.
    pub workload: Workload,
}

impl BenchArtifacts {
    /// Extrapolates a memory/work figure measured at `scale` back to
    /// Table 2 scale (all such figures are linear in program size).
    pub fn full_scale(&self, v: u64) -> u64 {
        (v as f64 / self.scale) as u64
    }

    /// The per-action memory limit for this benchmark's build.
    pub fn action_ram_limit(&self) -> u64 {
        self.spec.action_ram_gib * GIB
    }

    /// Simulates a layout and returns the counters plus an optional
    /// heat map (used by Figures 7 and 8).
    pub fn simulate_layout(
        &self,
        layout: &propeller_linker::FinalLayout,
        heatmap: Option<(usize, usize)>,
    ) -> (CounterSet, Option<HeatMap>) {
        let img = ProgramImage::build(self.pipeline.program(), layout).expect("image");
        let r = simulate(
            &img,
            &self.workload,
            &self.uarch,
            &SimOptions {
                sampling: None,
                heatmap,
                collect_call_misses: false,
                attribution: false,
            },
        );
        (r.counters, r.heatmap)
    }

    /// Simulates a layout with caller-chosen collection options and
    /// returns the full report — attribution tables, folded stacks,
    /// heat maps, whatever `opts` requested. The evaluation workload
    /// is identical to [`BenchArtifacts::simulate_layout`]'s, so
    /// counters match the `*_counters` fields exactly.
    pub fn simulate_layout_full(
        &self,
        layout: &propeller_linker::FinalLayout,
        opts: &SimOptions,
    ) -> propeller_sim::SimReport {
        let img = ProgramImage::build(self.pipeline.program(), layout).expect("image");
        simulate(&img, &self.workload, &self.uarch, opts)
    }

    /// The three comparable layouts as `(label, layout)` — baseline
    /// always, Propeller always, BOLT when its output runs.
    pub fn comparable_layouts(&self) -> Vec<(&'static str, &propeller_linker::FinalLayout)> {
        let mut out = vec![
            ("baseline", &self.baseline.layout),
            (
                "propeller",
                &self.pipeline.po_binary().expect("phase 4 ran").layout,
            ),
        ];
        if let Ok(b) = &self.bolt {
            if !b.crash_on_startup {
                out.push(("bolt", &b.layout));
            }
        }
        out
    }

    /// Full-scale build/optimization wall times (Figure 9 / Table 5).
    pub fn full_scale_times(&self) -> FullScaleTimes {
        let insts_full = self.full_scale(self.program_stats.num_insts as u64);
        let input_bytes_full =
            self.full_scale(self.baseline.stats.input_bytes);
        let text_full = self.full_scale(self.baseline.text_end - self.baseline.text_start);
        let hot = self.report.hot_module_fraction;
        // Per-module work is scale-invariant (module size is fixed);
        // module count scales. Distributed wall time is bounded by the
        // longest single action plus scheduler throughput over the
        // action count (§2.1: ~15M actions/day fleet-wide).
        let modules_full = self.full_scale(self.program_stats.num_modules as u64);
        let module_cpu = cost::codegen_secs(
            self.program_stats.num_insts as u64 / self.program_stats.num_modules.max(1) as u64,
        );
        const QUEUE_ACTIONS_PER_SEC: f64 = 3000.0;
        let on_machine = |cpu: f64, max_single: f64, actions: u64| -> f64 {
            match self.spec.kind {
                BenchKind::WarehouseScale => {
                    2.0 + max_single + actions as f64 / QUEUE_ACTIONS_PER_SEC
                }
                _ => (cpu / 72.0).max(max_single),
            }
        };
        let backends_all = on_machine(cost::codegen_secs(insts_full), module_cpu, modules_full);
        let backends_hot = on_machine(
            cost::codegen_secs((insts_full as f64 * hot) as u64),
            module_cpu,
            (modules_full as f64 * hot) as u64,
        );
        let link = cost::link_secs(input_bytes_full);
        // The relink drops the cold objects' address-map sections, so
        // it processes fewer bytes than the Phase 2 link (§3.4).
        let pm_map_bytes = self.full_scale(
            self.pipeline
                .pm_binary()
                .map(|b| b.size_breakdown.bb_addr_map as u64)
                .unwrap_or(0),
        );
        let cold = 1.0 - hot;
        let relink =
            cost::link_secs(input_bytes_full.saturating_sub((pm_map_bytes as f64 * cold) as u64));
        let convert = cost::profile_conversion_secs(self.full_scale(self.profile.raw_size_bytes()));
        let wpa = cost::wpa_secs(self.full_scale(self.wpa_stats.dcfg_edges as u64));
        let bolt = match &self.bolt {
            Ok(o) => {
                cost::disassembly_secs(text_full)
                    + cost::wpa_secs(self.full_scale(o.stats.blocks_reconstructed))
                    + cost::link_secs(self.full_scale(o.stats.new_text_bytes) + text_full)
            }
            Err(_) => 0.0,
        };
        let bolt_convert = cost::disassembly_secs(text_full)
            + cost::profile_conversion_secs(self.full_scale(self.profile.raw_size_bytes()));
        FullScaleTimes {
            backends_all,
            backends_hot,
            link,
            relink,
            convert,
            wpa,
            bolt,
            bolt_convert,
            compile_frontend: on_machine(
                cost::compile_secs(insts_full),
                cost::compile_secs(
                    self.program_stats.num_insts as u64
                        / self.program_stats.num_modules.max(1) as u64,
                ),
                modules_full,
            ),
        }
    }
}

/// Modeled wall-clock seconds for the build/optimization steps at
/// Table 2 scale.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct FullScaleTimes {
    /// Backend codegen of every module (baseline / Phase 2).
    pub backends_all: f64,
    /// Backend codegen of hot modules only (Phase 4).
    pub backends_hot: f64,
    /// Baseline link.
    pub link: f64,
    /// Phase 4 relink.
    pub relink: f64,
    /// Phase 3 profile conversion.
    pub convert: f64,
    /// Phase 3 whole-program analysis.
    pub wpa: f64,
    /// `llvm-bolt` runtime (disassemble + optimize + rewrite).
    pub bolt: f64,
    /// `perf2bolt` runtime (disassemble + convert).
    pub bolt_convert: f64,
    /// Phase 1 frontend compile.
    pub compile_frontend: f64,
}

/// Runs the full experiment for one named benchmark.
///
/// # Panics
///
/// Panics if `name` is unknown or any infallible pipeline step fails —
/// harness binaries want loud failures.
pub fn run_benchmark(name: &str, cfg: &RunConfig) -> BenchArtifacts {
    let spec = spec_by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let scale = (spec.default_scale * cfg.scale_mult).min(1.0);
    let gen = generate(&spec, &GenParams { scale, seed: cfg.seed, ..GenParams::for_spec(&spec) });
    let program_stats = gen.program.stats();

    let machine = match spec.kind {
        BenchKind::WarehouseScale => MachineConfig::Distributed {
            ram_limit: spec.action_ram_gib * GIB,
            dispatch_secs: 2.0,
        },
        _ => MachineConfig::workstation(),
    };
    let uarch = if spec.hugepages {
        UarchConfig::with_hugepages()
    } else {
        UarchConfig::default()
    };
    let opts = PropellerOptions {
        sampling: SamplingConfig { period: 53 },
        profile_budget: cfg.profile_budget,
        uarch,
        machine,
        seed: cfg.seed,
        provenance: cfg.provenance,
        ..PropellerOptions::default()
    };
    let mut pipeline = Propeller::new(gen.program, gen.entries.clone(), opts);
    pipeline.set_telemetry(cfg.tel.clone());
    let report = pipeline.run_all().expect("pipeline");
    let baseline = pipeline.build_baseline().expect("baseline");
    let profile = pipeline.profile().expect("profiled").clone();
    let wpa_stats = pipeline.wpa_output().expect("wpa").stats;

    // BM: the baseline relinked with --emit-relocs for BOLT.
    let bm = {
        let program = pipeline.program();
        let inputs: Vec<LinkInput> = program
            .modules()
            .iter()
            .map(|m| {
                let r = codegen_module(m, program, &CodegenOptions::baseline()).expect("codegen");
                LinkInput::new(r.object, r.debug_layout)
            })
            .collect();
        link(
            &inputs,
            &LinkOptions {
                output_name: "app.bm".into(),
                retain_relocs: true,
                ..LinkOptions::default()
            },
        )
        .expect("bm link")
    };
    let bolt = run_bolt(
        &bm,
        &profile,
        &BoltOptions {
            input_has_integrity_checks: spec.bolt_startup_crash,
            ..BoltOptions::default()
        },
    );

    let mut workload = Workload::new(gen.entries, cfg.eval_budget);
    workload.seed = cfg.seed;

    let sim_of = |layout: &propeller_linker::FinalLayout| -> CounterSet {
        let img = ProgramImage::build(pipeline.program(), layout).expect("image");
        simulate(&img, &workload, &uarch, &SimOptions::default()).counters
    };
    let base_counters = sim_of(&baseline.layout);
    let prop_counters = sim_of(&pipeline.po_binary().expect("po").layout);
    let bolt_counters = match &bolt {
        Ok(out) if !out.crash_on_startup => Some(sim_of(&out.layout)),
        _ => None,
    };

    BenchArtifacts {
        spec,
        scale,
        program_stats,
        pipeline,
        report,
        baseline,
        bm,
        bolt,
        profile,
        wpa_stats,
        base_counters,
        prop_counters,
        bolt_counters,
        uarch,
        workload,
    }
}

/// Compares several WPA configurations on one benchmark against the
/// baseline, using one shared profile (for the §4.6/§4.7 ablations).
///
/// Returns the baseline counters plus `(label, counters, wpa stats)`
/// for every variant.
///
/// # Panics
///
/// Panics on any pipeline failure — ablation binaries want loud
/// failures.
pub fn run_layout_variants(
    name: &str,
    cfg: &RunConfig,
    variants: &[(&str, propeller_wpa::WpaOptions)],
) -> (CounterSet, Vec<(String, CounterSet, WpaStats)>) {
    use propeller_wpa::run_wpa;
    let spec = spec_by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let scale = (spec.default_scale * cfg.scale_mult).min(1.0);
    let gen = generate(&spec, &GenParams { scale, seed: cfg.seed, ..GenParams::for_spec(&spec) });
    let uarch = if spec.hugepages {
        UarchConfig::with_hugepages()
    } else {
        UarchConfig::default()
    };
    let compile = |cg: &CodegenOptions, lk: &LinkOptions| -> LinkedBinary {
        let inputs: Vec<LinkInput> = gen
            .program
            .modules()
            .iter()
            .map(|m| {
                let r = codegen_module(m, &gen.program, cg).expect("codegen");
                LinkInput::new(r.object, r.debug_layout)
            })
            .collect();
        link(&inputs, lk).expect("link")
    };
    let pm = compile(&CodegenOptions::with_labels(), &LinkOptions::default());
    let mut workload = Workload::new(gen.entries.clone(), cfg.eval_budget);
    workload.seed = cfg.seed;
    let mut profile_workload = workload.clone();
    profile_workload.block_budget = cfg.profile_budget;
    let pm_img = ProgramImage::build(&gen.program, &pm.layout).expect("image");
    let profile = simulate(
        &pm_img,
        &profile_workload,
        &uarch,
        &SimOptions {
            sampling: Some(SamplingConfig { period: 101 }),
            heatmap: None,
            collect_call_misses: false,
            attribution: false,
        },
    )
    .profile
    .expect("sampling");

    let baseline = compile(&CodegenOptions::baseline(), &LinkOptions::default());
    let base_img = ProgramImage::build(&gen.program, &baseline.layout).expect("image");
    let base = simulate(&base_img, &workload, &uarch, &SimOptions::default()).counters;

    let mut out = Vec::new();
    for (label, wpa_opts) in variants {
        let wpa = run_wpa(&gen.program, &pm, &profile, wpa_opts);
        let po = compile(
            &CodegenOptions::with_clusters(wpa.cluster_map.clone()),
            &LinkOptions {
                symbol_order: Some(wpa.symbol_order.clone()),
                relax: true,
                drop_cold_bb_addr_map: true,
                ..LinkOptions::default()
            },
        );
        let img = ProgramImage::build(&gen.program, &po.layout).expect("image");
        let counters = simulate(&img, &workload, &uarch, &SimOptions::default()).counters;
        out.push((label.to_string(), counters, wpa.stats));
    }
    (base, out)
}

/// The benchmarks most binaries iterate over, in the paper's order.
pub fn default_benchmarks() -> Vec<&'static str> {
    vec!["clang", "mysql", "spanner", "search", "bigtable", "superroot"]
}

/// The SPEC2017 subset.
pub fn spec_benchmarks() -> Vec<&'static str> {
    vec![
        "500.perlbench",
        "502.gcc",
        "505.mcf",
        "523.xalancbmk",
        "525.x264",
        "531.deepsjeng",
        "541.leela",
        "557.xz",
    ]
}
