//! The shared benchmark runner: one call produces every binary and
//! measurement a paper-artifact row needs.

use propeller::{BuildCaches, EvalReport, PipelineError, Propeller, PropellerOptions};
use propeller_bolt::{run_bolt, BoltError, BoltOptions, BoltOutput};
use propeller_buildsys::{cost, MachineConfig, DISPATCH_SECS, GIB};
use propeller_linker::{FinalLayout, LinkedBinary};
use propeller_profile::SamplingConfig;
use propeller_sim::{simulate, CounterSet, ProgramImage, SimOptions, SimReport, UarchConfig};
use propeller_synth::{generate, BenchKind, BenchmarkSpec, GenParams, GeneratedBenchmark};
use propeller_telemetry::Telemetry;
use propeller_wpa::WpaStats;
use std::sync::Arc;

/// Branches per LBR sample in [`run_benchmark`]'s profiling run.
const COMPARISON_PERIOD: u64 = 53;

/// Blocks executed while profiling.
const PROFILE_BUDGET: u64 = 500_000;

/// Blocks executed per evaluation run.
const EVAL_BUDGET: u64 = 800_000;

/// Experiment configuration shared by all harness rows.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Extra multiplier on each spec's default scale (pass `< 1.0` for
    /// quicker runs).
    pub scale_mult: f64,
    /// Workload/generation seed.
    pub seed: u64,
    /// Arm full layout-decision provenance collection in Phase 3.
    /// Off by default; arming never changes any layout or report.
    pub provenance: bool,
}

/// The scale a harness run generates `spec` at: its default times
/// `mult`, never above Table 2 size.
pub fn scaled(spec: &BenchmarkSpec, mult: f64) -> f64 {
    (spec.default_scale * mult).min(1.0)
}

/// Generates `spec`'s synthetic program at an absolute `scale`.
pub fn generate_at(spec: &BenchmarkSpec, scale: f64, seed: u64) -> GeneratedBenchmark {
    generate(
        spec,
        &GenParams {
            scale,
            seed,
            ..GenParams::for_spec(spec)
        },
    )
}

/// Pipeline options of a harness run: the machine the paper built
/// `spec` on and the µarch it ran on, sampled every `period` branches.
fn harness_options(spec: &BenchmarkSpec, cfg: &RunConfig, period: u64) -> PropellerOptions {
    let machine = match spec.kind {
        BenchKind::WarehouseScale => MachineConfig::Distributed {
            ram_limit: spec.action_ram_gib * GIB,
        },
        _ => MachineConfig::workstation(),
    };
    let uarch = if spec.hugepages {
        UarchConfig::with_hugepages()
    } else {
        UarchConfig::default()
    };
    PropellerOptions {
        sampling: SamplingConfig { period },
        profile_budget: PROFILE_BUDGET,
        uarch,
        machine,
        seed: cfg.seed,
        provenance: cfg.provenance,
        ..PropellerOptions::default()
    }
}

/// Everything measured for one benchmark.
pub struct BenchArtifacts {
    /// The benchmark's spec.
    pub spec: BenchmarkSpec,
    /// Scale actually generated at.
    pub scale: f64,
    /// The Propeller pipeline (owns the program and all its binaries).
    pub pipeline: Propeller,
    /// Pipeline summary.
    pub report: propeller::PropellerReport,
    /// The PGO+ThinLTO-equivalent baseline with its static relocations
    /// kept — BOLT's required input ("BM"). The baseline itself is this
    /// binary without `size_breakdown.relocs`: same layout, stats and
    /// text range.
    pub bm: LinkedBinary,
    /// The BOLT run (may legitimately fail).
    pub bolt: Result<BoltOutput, BoltError>,
    /// Counters: baseline / Propeller / BOLT (None when BOLT failed or
    /// its output crashes at startup).
    pub base_counters: CounterSet,
    /// Propeller-optimized counters.
    pub prop_counters: CounterSet,
    /// BOLT-optimized counters.
    pub bolt_counters: Option<CounterSet>,
    /// Microarchitecture used for all simulations.
    pub uarch: UarchConfig,
}

impl BenchArtifacts {
    /// Extrapolates a memory/work figure measured at `scale` back to
    /// Table 2 scale (all such figures are linear in program size).
    pub fn full_scale(&self, v: u64) -> u64 {
        (v as f64 / self.scale) as u64
    }

    /// The Phase 2 metadata binary.
    pub fn pm(&self) -> Result<&LinkedBinary, PipelineError> {
        self.pipeline
            .pm_binary()
            .ok_or(PipelineError::PhaseOrder { needs: "phase 2" })
    }

    /// The Phase 4 optimized binary.
    pub fn po(&self) -> Result<&LinkedBinary, PipelineError> {
        self.pipeline
            .po_binary()
            .ok_or(PipelineError::PhaseOrder { needs: "phase 4" })
    }

    /// Simulates a layout on the evaluation workload under `uarch` with
    /// caller-chosen collection options and returns the full report —
    /// attribution tables, folded stacks, heat maps, whatever `opts`
    /// requested. On [`BenchArtifacts::uarch`] with default options the
    /// counters match the `*_counters` fields exactly.
    pub fn simulate_layout(
        &self,
        layout: &FinalLayout,
        uarch: &UarchConfig,
        opts: &SimOptions,
    ) -> Result<SimReport, PipelineError> {
        simulate_on(&self.pipeline, layout, uarch, opts)
    }

    /// BOLT's output, when its rewrite succeeded and the binary it
    /// wrote starts.
    pub fn bolt_runnable(&self) -> Option<&BoltOutput> {
        runnable(&self.bolt)
    }

    /// The three comparable layouts as `(label, layout)` — baseline
    /// always, Propeller always, BOLT when its output runs.
    pub fn comparable_layouts(&self) -> Result<Vec<(&'static str, &FinalLayout)>, PipelineError> {
        let mut out = vec![
            ("baseline", &self.bm.layout),
            ("propeller", &self.po()?.layout),
        ];
        out.extend(self.bolt_runnable().map(|b| ("bolt", &b.layout)));
        Ok(out)
    }

    /// Full-scale build/optimization wall times (Figure 9 / Table 5).
    ///
    /// # Errors
    ///
    /// [`PipelineError::PhaseOrder`] before Phase 4 has linked.
    pub fn full_scale_times(&self) -> Result<FullScaleTimes, PipelineError> {
        let stats = self.pipeline.program().stats();
        let insts_full = self.full_scale(stats.num_insts as u64);
        let input_bytes_full = self.full_scale(self.bm.stats.input_bytes);
        let text_full = self.full_scale(self.bm.text_end - self.bm.text_start);
        let hot = self.report.hot_module_fraction;
        // Per-module work is scale-invariant (module size is fixed);
        // module count scales. Distributed wall time is bounded by the
        // longest single action plus scheduler throughput over the
        // action count (§2.1: ~15M actions/day fleet-wide).
        let modules_full = self.full_scale(stats.num_modules as u64);
        let module_insts = stats.num_insts as u64 / stats.num_modules.max(1) as u64;
        let module_cpu = cost::codegen_secs(module_insts);
        const QUEUE_ACTIONS_PER_SEC: f64 = 3000.0;
        let on_machine = |cpu: f64, max_single: f64, actions: u64| -> f64 {
            match self.spec.kind {
                BenchKind::WarehouseScale => {
                    DISPATCH_SECS + max_single + actions as f64 / QUEUE_ACTIONS_PER_SEC
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
        // The relink reads every input object whole — the hot modules'
        // new ones with their maps, the cached cold ones — and only
        // drops the cold maps from its output (§3.4).
        let relink = cost::link_secs(self.full_scale(self.po()?.stats.input_bytes));
        let profile_bytes = self.pipeline.profile().map_or(0, |p| p.raw_size_bytes());
        let convert = cost::profile_conversion_secs(self.full_scale(profile_bytes));
        let wpa = cost::wpa_secs(self.full_scale(self.report.wpa.dcfg_edges as u64));
        let bolt = match &self.bolt {
            Ok(o) => {
                cost::disassembly_secs(text_full)
                    + cost::wpa_secs(self.full_scale(o.stats.blocks_reconstructed))
                    + cost::link_secs(self.full_scale(o.stats.new_text_bytes) + text_full)
            }
            Err(_) => 0.0,
        };
        Ok(FullScaleTimes {
            backends_all,
            backends_hot,
            link,
            relink,
            convert,
            wpa,
            bolt,
            compile_frontend: on_machine(
                cost::compile_secs(insts_full),
                cost::compile_secs(module_insts),
                modules_full,
            ),
        })
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
    /// Phase 1 frontend compile.
    pub compile_frontend: f64,
}

/// A BOLT run's output, when the rewrite succeeded and its binary starts.
fn runnable(bolt: &Result<BoltOutput, BoltError>) -> Option<&BoltOutput> {
    bolt.as_ref().ok().filter(|b| !b.crash_on_startup)
}

/// Runs the evaluation workload over `layout` of `pipeline`'s program.
fn simulate_on(
    pipeline: &Propeller,
    layout: &FinalLayout,
    uarch: &UarchConfig,
    opts: &SimOptions,
) -> Result<SimReport, PipelineError> {
    let img = ProgramImage::build(pipeline.program(), layout)?;
    Ok(simulate(&img, &pipeline.workload(EVAL_BUDGET), uarch, opts))
}

/// Runs the full experiment for one benchmark.
///
/// # Errors
///
/// Propagates any pipeline or image-construction failure.
pub fn run_benchmark(
    spec: &BenchmarkSpec,
    cfg: &RunConfig,
) -> Result<BenchArtifacts, PipelineError> {
    let scale = scaled(spec, cfg.scale_mult);
    let gen = generate_at(spec, scale, cfg.seed);
    let opts = harness_options(spec, cfg, COMPARISON_PERIOD);
    let uarch = opts.uarch;
    let mut pipeline = Propeller::new(gen.program, gen.entries, opts);
    let report = pipeline.run_all()?;
    let profile = pipeline
        .profile()
        .ok_or(PipelineError::PhaseOrder { needs: "phase 3" })?;
    // BM: the baseline (PM without its address map) as linked with
    // --emit-relocs, for BOLT.
    let pm = pipeline
        .pm_binary()
        .ok_or(PipelineError::PhaseOrder { needs: "phase 2" })?;
    let bm = pm.without_bb_addr_map("app.bm").with_static_relocs();
    let bolt = run_bolt(
        &bm,
        profile,
        &BoltOptions {
            input_has_integrity_checks: spec.bolt_startup_crash,
        },
    );

    let eval = pipeline.evaluate(EVAL_BUDGET)?;
    let bolt_counters = runnable(&bolt)
        .map(|b| simulate_on(&pipeline, &b.layout, &uarch, &SimOptions::default()))
        .transpose()?
        .map(|r| r.counters);

    Ok(BenchArtifacts {
        spec: spec.clone(),
        scale,
        pipeline,
        report,
        bm,
        bolt,
        base_counters: eval.baseline,
        prop_counters: eval.optimized,
        bolt_counters,
        uarch,
    })
}

/// One configuration's outcome in [`run_variants`].
pub struct VariantRun {
    /// The caller's label for the configuration.
    pub label: String,
    /// Baseline and optimized counters on the evaluation workload.
    pub eval: EvalReport,
    /// WPA statistics.
    pub wpa_stats: WpaStats,
    /// Measured wall seconds of the whole-program analysis.
    pub wpa_wall_secs: f64,
}

/// What one variant changes in the harness's pipeline options.
pub type OptionsPatch = fn(&mut PropellerOptions);

/// Compares several pipeline configurations on one benchmark against
/// the baseline (the §3.5/§4.6/§4.7 ablations): one pipeline per
/// variant, differing only in what its patch sets, profiled at one
/// sample per `period` branches. They share one set of build caches, so
/// the metadata build happens once and every variant
/// analyses the same profile of the same `PM` binary.
///
/// # Errors
///
/// Propagates the first pipeline failure.
pub fn run_variants(
    spec: &BenchmarkSpec,
    cfg: &RunConfig,
    period: u64,
    variants: &[(&str, OptionsPatch)],
) -> Result<Vec<VariantRun>, PipelineError> {
    let gen = generate_at(spec, scaled(spec, cfg.scale_mult), cfg.seed);
    let program = Arc::new(gen.program);
    let caches = BuildCaches::new();
    let mut out = Vec::with_capacity(variants.len());
    for (label, patch) in variants {
        let mut opts = harness_options(spec, cfg, period);
        patch(&mut opts);
        let mut pipeline =
            Propeller::with_caches(program.clone(), gen.entries.clone(), opts, caches.clone());
        // Armed only to time the analysis; telemetry changes no output.
        pipeline.set_telemetry(Telemetry::enabled());
        let report = pipeline.run_all()?;
        let eval = pipeline.evaluate(EVAL_BUDGET)?;
        let trace = pipeline.telemetry().drain();
        let wpa_wall_secs = trace.find("wpa").map_or(0.0, |s| s.dur_us as f64 / 1e6);
        out.push(VariantRun {
            label: label.to_string(),
            eval,
            wpa_stats: report.wpa,
            wpa_wall_secs,
        });
    }
    Ok(out)
}

/// The benchmarks most artifacts iterate over, in the paper's order.
pub const DEFAULT_BENCHMARKS: [&str; 6] = [
    "clang",
    "mysql",
    "spanner",
    "search",
    "bigtable",
    "superroot",
];

/// The SPEC2017 subset.
pub const SPEC_BENCHMARKS: [&str; 8] = [
    "500.perlbench",
    "502.gcc",
    "505.mcf",
    "523.xalancbmk",
    "525.x264",
    "531.deepsjeng",
    "541.leela",
    "557.xz",
];

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_synth::spec_by_name;

    #[test]
    fn relink_is_the_link_of_every_object_the_relink_read() {
        let spec = spec_by_name("spanner").expect("built-in spec");
        let cfg = RunConfig {
            scale_mult: 0.05,
            seed: 3,
            provenance: false,
        };
        let a = run_benchmark(&spec, &cfg).unwrap();
        let po = a.po().unwrap();
        let ft = a.full_scale_times().unwrap();
        assert_eq!(
            ft.relink,
            cost::link_secs(a.full_scale(po.stats.input_bytes))
        );
        // The hot objects' new maps make it read more than the baseline.
        assert!(po.stats.input_bytes > a.bm.stats.input_bytes);
        assert!(ft.relink > ft.link);
    }
}
