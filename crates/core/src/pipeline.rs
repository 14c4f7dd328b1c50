//! The four-phase Propeller pipeline.

use crate::error::PipelineError;
use crate::fingerprint::module_fingerprint;
use crate::report::{EvalReport, PhaseTimes, PropellerReport};
use parking_lot::Mutex;
use propeller_buildsys::{
    cost, ActionCache, ActionSpec, CacheEvent, Executor, MachineConfig, PhaseReport, PoolStats,
    MAX_ATTEMPTS,
};
use propeller_codegen::{
    codegen_module_traced, CodegenError, CodegenOptions, CodegenResult, FunctionClusters,
};
use propeller_faults::{DegradationLedger, FaultInjector, FaultKind, FaultPlan, LayoutMode};
use propeller_ir::{FunctionId, Module, Program};
use propeller_linker::{link_refs_traced, LinkInputRef, LinkOptions, LinkedBinary};
use propeller_obj::{ContentHash, ContentHasher};
use propeller_profile::{
    degrade_profile, salvage_profile, AggregatedProfile, HardwareProfile, SamplingConfig,
};
use propeller_sim::{
    simulate_traced, CounterSet, ProgramImage, SimOptions, SimReport, UarchConfig, Workload,
};
use propeller_telemetry::{Span, SpanId, Telemetry};
use propeller_wpa::{
    apply_prefetches, prefetch_directives, run_wpa_agg_traced, WpaOptions, WpaOutput,
};
use std::borrow::Cow;
use std::sync::Arc;

/// What [`Propeller::codegen_batch`] hands back: artifacts in plan
/// order, the action specs for the misses, and the pool's measured
/// timing.
type CodegenBatch = (Vec<Arc<CodegenResult>>, Vec<ActionSpec>, PoolStats);

/// One cache miss computed on the worker pool: its submission-order
/// plan position, its cache key, and the codegen outcome.
type ComputedModule = (usize, ContentHash, Result<Arc<CodegenResult>, CodegenError>);

/// Pipeline configuration.
#[derive(Clone, Debug)]
pub struct PropellerOptions {
    /// Whole-program-analysis configuration.
    pub wpa: WpaOptions,
    /// LBR sampling configuration for the profiling run.
    pub sampling: SamplingConfig,
    /// Basic blocks to execute while profiling (the "representative
    /// load" duration).
    pub profile_budget: u64,
    /// Microarchitecture the workload runs on.
    pub uarch: UarchConfig,
    /// Machine the build runs on (distributed by default).
    pub machine: MachineConfig,
    /// Workload seed.
    pub seed: u64,
    /// §3.5 software prefetch insertion: `Some(min_misses)` enables
    /// the pass, inserting prefetches at call sites whose callee entry
    /// missed the L1i at least `min_misses` times during profiling.
    pub prefetch: Option<u64>,
    /// Scheduled faults for chaos testing. The default (empty) plan
    /// injects nothing and the pipeline takes the exact legacy code
    /// path — zero-fault runs are bit-identical to builds without a
    /// fault layer.
    pub faults: FaultPlan,
    /// Figure-7 heat-map resolution `(address buckets, time buckets)`
    /// for the Phase 3 profiling run; `None` (the default) collects no
    /// heat map.
    pub heatmap: Option<(usize, usize)>,
    /// Attribute the Phase 3 profiling run's events to symbols and
    /// blocks (the `perf report` view); off by default.
    pub attribution: bool,
    /// Record full layout decision provenance during Phase 3: every
    /// Ext-TSP merge evaluated (accepted and rejected), and which
    /// profile edges funded each CFG edge weight. Off by default;
    /// arming never changes the layout or any default report.
    pub provenance: bool,
    /// Worker threads of the codegen pool of Phases 2/4 (fleet's own
    /// `jobs` sets this and also widens its machine collection and
    /// lanes); Ext-TSP runs on one thread at every value. Defaults to
    /// the machine's available parallelism; `1` forces the exact serial
    /// legacy path. Every output is bit-identical at every value —
    /// results are always reduced in submission order.
    pub jobs: usize,
}

impl Default for PropellerOptions {
    fn default() -> Self {
        PropellerOptions {
            wpa: WpaOptions::default(),
            sampling: SamplingConfig::default(),
            profile_budget: 200_000,
            uarch: UarchConfig::default(),
            machine: MachineConfig::distributed(),
            seed: 0x5eed,
            prefetch: None,
            faults: FaultPlan::none(),
            heatmap: None,
            attribution: false,
            provenance: false,
            jobs: propeller_buildsys::default_jobs(),
        }
    }
}

/// Minimum fraction of LBR records that must survive salvage for the
/// WPA layout to be trusted. Below the floor, the hot functions are
/// marked cold and the relink falls back to the identity symbol order
/// (a correct, baseline-equivalent layout).
const PROFILE_FLOOR: f64 = 0.25;

/// Content-addressed build caches, shareable between pipeline
/// instances: successive releases of the same application reuse each
/// other's IR and object artifacts exactly the way the paper's
/// distributed build system does (§2.1, ">90% hit rate").
#[derive(Clone, Default)]
pub struct BuildCaches {
    ir: Arc<Mutex<ActionCache<ContentHash>>>,
    obj: Arc<Mutex<ActionCache<Arc<CodegenResult>>>>,
}

impl BuildCaches {
    /// Creates empty caches.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy that shares nothing but the artifacts themselves: what
    /// these caches hold now can be looked up in it, and nothing looked
    /// up in or inserted into it is seen by, or counted against, the
    /// original.
    pub fn snapshot(&self) -> Self {
        BuildCaches {
            ir: Arc::new(Mutex::new(self.ir.lock().clone())),
            obj: Arc::new(Mutex::new(self.obj.lock().clone())),
        }
    }

    /// Object-cache statistics (cumulative across every pipeline
    /// sharing these caches).
    pub fn object_stats(&self) -> propeller_buildsys::CacheStats {
        self.obj.lock().stats()
    }

    /// IR-cache statistics (cumulative across every pipeline sharing
    /// these caches).
    pub fn ir_stats(&self) -> propeller_buildsys::CacheStats {
        self.ir.lock().stats()
    }

    /// Bound both caches to `capacity` live entries each (FIFO
    /// pressure eviction). `None` restores the unbounded default.
    pub fn set_capacity(&self, capacity: Option<usize>) {
        self.ir.lock().set_capacity(capacity);
        self.obj.lock().set_capacity(capacity);
    }

    /// Attribute subsequent cache traffic to `tenant`. The relink
    /// service calls this serially before each job; batch runs never
    /// touch it, so their traffic lands on tenant 0.
    pub fn set_tenant(&self, tenant: u32) {
        self.ir.lock().set_owner(tenant);
        self.obj.lock().set_owner(tenant);
    }

    /// Object-cache counters attributed to `tenant`.
    pub fn tenant_object_stats(&self, tenant: u32) -> propeller_buildsys::CacheStats {
        self.obj.lock().owner_stats(tenant)
    }

    /// IR-cache counters attributed to `tenant`.
    pub fn tenant_ir_stats(&self, tenant: u32) -> propeller_buildsys::CacheStats {
        self.ir.lock().owner_stats(tenant)
    }

    /// How many of `tenant`'s entries (both caches) were lost to
    /// pressure eviction.
    pub fn tenant_pressure_evictions(&self, tenant: u32) -> u64 {
        self.ir.lock().owner_evictions(tenant) + self.obj.lock().owner_evictions(tenant)
    }

    /// Force-evict the `n` oldest entries from the object cache (the
    /// `evict-storm` fault). Returns how many were actually evicted.
    pub fn evict_oldest_objects(&self, n: usize) -> u64 {
        self.obj.lock().evict_oldest(n)
    }

    /// Live entries in (ir, obj).
    pub fn len(&self) -> (usize, usize) {
        (self.ir.lock().len(), self.obj.lock().len())
    }

    /// True when both caches are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == (0, 0)
    }
}

/// The pipeline driver. Owns the program, the build caches, and all
/// intermediate artifacts.
pub struct Propeller {
    program: Arc<Program>,
    entries: Vec<(FunctionId, f64)>,
    opts: PropellerOptions,
    executor: Executor,
    caches: BuildCaches,
    fingerprints: Vec<ContentHash>,
    compiled: bool,
    pm_binary: Option<Arc<LinkedBinary>>,
    /// The Phase 3 profiling run, whole: the `perf record` profile (what
    /// survived salvage, under a fault plan) beside the `perf stat`
    /// counters of the same execution — profile-quality audits compare
    /// the two — and whichever of heat map (the Figure 7 "before"
    /// picture: the PM binary still has the baseline layout), symbol
    /// attribution, folded stacks and call-site misses the options
    /// requested.
    profiling_run: Option<SimReport>,
    wpa_output: Option<WpaOutput>,
    po_binary: Option<Arc<LinkedBinary>>,
    /// The program Phase 4 regenerated from (prefetch-augmented when
    /// the §3.5 pass is enabled).
    phase4_program: Option<Arc<Program>>,
    times: PhaseTimes,
    hot_module_fraction: f64,
    tel: Telemetry,
    /// Present iff the options schedule any fault; `None` keeps every
    /// hot path on the exact legacy branch.
    injector: Option<Arc<FaultInjector>>,
    /// Running account of every degradation this pipeline performed.
    ledger: DegradationLedger,
}

fn tag(s: &str) -> ContentHash {
    ContentHash::of_bytes(s.as_bytes())
}

fn clusters_hash(clusters: &FunctionClusters) -> ContentHash {
    let mut h = ContentHasher::default();
    for c in &clusters.clusters {
        h.write(&[0xC1]);
        for b in &c.blocks {
            h.write(&b.0.to_le_bytes());
        }
    }
    h.finish()
}

/// Instructions in a module — what the cost model charges its compile
/// and codegen actions for.
fn module_insts(module: &Module) -> u64 {
    module.functions.iter().map(|f| f.num_insts() as u64).sum()
}

/// Instructions of cache-miss modules every pool worker of a codegen
/// batch must have before the batch is fanned out. Spawning and joining
/// scoped threads costs more than a small batch gains: on the
/// benchmark's 2-core host `serve_mix` (batches of one ≈ 25 k-instruction
/// program at most) took 0.101 s per op fanned out at `jobs = 2` against
/// 0.095 s at `jobs = 1`, and `fleet_drift` (≈ 70 k) 0.222 s against
/// 0.200 s; capped like this `jobs = 2` reads 0.093 s and 0.205 s, and
/// `cold_build` (≈ 800 k instructions in its Phase 2 batch, both
/// workers) is not slower (EXPERIMENTS.md, PR 18).
const INSTS_PER_WORKER: u64 = 1 << 16;

impl Propeller {
    /// Creates a pipeline over `program` with the given workload entry
    /// points and fresh build caches.
    pub fn new(program: Program, entries: Vec<(FunctionId, f64)>, opts: PropellerOptions) -> Self {
        Self::with_caches(program, entries, opts, BuildCaches::new())
    }

    /// Creates a pipeline that shares `caches` with other pipelines —
    /// the incremental-release scenario: a later build of a slightly
    /// changed program hits the cache for every unchanged module.
    /// Pipelines over one program can share it as an `Arc`.
    pub fn with_caches(
        program: impl Into<Arc<Program>>,
        entries: Vec<(FunctionId, f64)>,
        opts: PropellerOptions,
        caches: BuildCaches,
    ) -> Self {
        let program = program.into();
        let mut opts = opts;
        // One knob arms every provenance collector.
        opts.wpa.provenance = opts.provenance;
        let injector = if opts.faults.is_none() {
            None
        } else {
            Some(Arc::new(FaultInjector::new(opts.faults.clone(), opts.seed)))
        };
        let mut executor = Executor::new(opts.machine).with_jobs(opts.jobs);
        if let Some(inj) = &injector {
            executor = executor.with_faults(inj.clone());
        }
        let fingerprints = program.modules().iter().map(module_fingerprint).collect();
        Propeller {
            program,
            entries,
            opts,
            executor,
            caches,
            fingerprints,
            compiled: false,
            pm_binary: None,
            profiling_run: None,
            wpa_output: None,
            po_binary: None,
            phase4_program: None,
            times: PhaseTimes::default(),
            hot_module_fraction: 0.0,
            tel: Telemetry::disabled(),
            injector,
            ledger: DegradationLedger::default(),
        }
    }

    /// Attaches a telemetry handle; every later phase records spans and
    /// metrics into it. The default (disabled) handle costs one branch
    /// per instrumentation site.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// The pipeline's telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// The program under optimization.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The Phase 2 metadata binary, if built.
    pub fn pm_binary(&self) -> Option<&LinkedBinary> {
        self.pm_binary.as_deref()
    }

    /// The Phase 4 optimized binary, if built.
    pub fn po_binary(&self) -> Option<&LinkedBinary> {
        self.po_binary.as_deref()
    }

    /// The collected hardware profile, if Phase 3 ran.
    pub fn profile(&self) -> Option<&HardwareProfile> {
        self.profiling_run.as_ref()?.profile.as_ref()
    }

    /// The WPA output, if Phase 3 ran.
    pub fn wpa_output(&self) -> Option<&WpaOutput> {
        self.wpa_output.as_ref()
    }

    /// Simulator counters of the Phase 3 profiling run, if it ran.
    pub fn profiled_counters(&self) -> Option<&CounterSet> {
        self.profiling_run.as_ref().map(|run| &run.counters)
    }

    /// Heat map of the Phase 3 profiling run, if
    /// [`PropellerOptions::heatmap`] requested one and Phase 3 ran.
    pub fn profile_heatmap(&self) -> Option<&propeller_sim::HeatMap> {
        self.profiling_run.as_ref()?.heatmap.as_ref()
    }

    /// Symbol attribution of the Phase 3 profiling run, if
    /// [`PropellerOptions::attribution`] requested it and Phase 3 ran.
    pub fn profile_attribution(&self) -> Option<&propeller_sim::AttributedCounters> {
        self.profiling_run.as_ref()?.attribution.as_ref()
    }

    /// Folded call stacks of the Phase 3 profiling run, if
    /// [`PropellerOptions::attribution`] requested them and Phase 3
    /// ran. [`propeller_sim::FoldedStacks::to_text`] is the flamegraph
    /// input format.
    pub fn profile_folded(&self) -> Option<&propeller_sim::FoldedStacks> {
        self.profiling_run.as_ref()?.folded.as_ref()
    }

    /// The program Phase 4 regenerated from (prefetch-augmented when
    /// that pass is on), if Phase 4 ran.
    pub fn phase4_program(&self) -> Option<&Arc<Program>> {
        self.phase4_program.as_ref()
    }

    /// The pipeline's configuration.
    pub fn options(&self) -> &PropellerOptions {
        &self.opts
    }

    /// The degradation ledger accumulated so far. Clean unless the
    /// configured fault plan actually fired.
    pub fn degradation(&self) -> &DegradationLedger {
        &self.ledger
    }

    /// The fault injector, when the options schedule faults.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }

    /// Runs modeled actions on the executor and books what their retries
    /// cost in the ledger.
    fn run_actions(
        &mut self,
        actions: &[ActionSpec],
        parent: Option<SpanId>,
    ) -> Result<PhaseReport, PipelineError> {
        let (report, res) = self.executor.run_phase(actions, &self.tel, parent)?;
        self.ledger.action_retries += res.retries;
        self.ledger.action_timeouts += res.timeouts;
        self.ledger.retry_backoff_secs += res.backoff_secs;
        Ok(report)
    }

    /// Folds one verified cache lookup's outcome into the ledger. A
    /// corrupt or evicted entry forces a rebuild (the caller recomputes
    /// on the reported miss), so both count one `cache_rebuilds`.
    fn absorb_cache_event(&mut self, event: CacheEvent) {
        match event {
            CacheEvent::CorruptInvalidated => {
                self.ledger.cache_corruptions += 1;
                self.ledger.cache_rebuilds += 1;
            }
            CacheEvent::Evicted => {
                self.ledger.cache_evictions += 1;
                self.ledger.cache_rebuilds += 1;
            }
            CacheEvent::Hit | CacheEvent::Miss => {}
        }
    }

    /// Per-phase times so far.
    pub fn times(&self) -> &PhaseTimes {
        &self.times
    }

    /// A simulator workload over this pipeline's entries.
    pub fn workload(&self, block_budget: u64) -> Workload {
        let mut w = Workload::new(self.entries.clone(), block_budget);
        w.seed = self.opts.seed;
        w
    }

    /// Phase 1: compile modules to optimized IR and cache them.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Build`] if an action exceeds the
    /// machine's memory limit.
    pub fn phase1_compile(&mut self) -> Result<PhaseReport, PipelineError> {
        let mut span = self.tel.span("phase1.compile");
        let injector = self.injector.clone();
        let mut actions = Vec::new();
        let mut events = Vec::new();
        for (m, &fp) in self.program.modules().iter().zip(&self.fingerprints) {
            let (artifact, event) = self.caches.ir.lock().lookup(fp, injector.as_deref());
            events.push(event);
            if artifact.is_none() {
                // Miss (incl. a corrupt or evicted entry that was just
                // invalidated): recompile and re-insert a clean entry.
                self.caches.ir.lock().insert(fp, fp);
                actions.push(ActionSpec::new(
                    format!("compile {}", m.name),
                    cost::compile_secs(module_insts(m)),
                    64 << 20,
                ));
            }
        }
        for e in events {
            self.absorb_cache_event(e);
        }
        let report = self.run_actions(&actions, span.id())?;
        span.set_sim_secs(report.wall_secs);
        span.set_peak_bytes(report.max_action_memory);
        self.compiled = true;
        self.times.phase1 = report;
        Ok(report)
    }

    /// Runs a batch of codegen actions through the object cache,
    /// computing cache misses in parallel (the distributed backend
    /// actions of Phases 2 and 4 are independent by construction).
    ///
    /// `plan` is `(module index, cache key, options)` per module, in
    /// link order; returns the artifacts in the same order, the action
    /// specs for the misses, and the pool's measured timing.
    fn codegen_batch(
        &mut self,
        program: &Program,
        plan: Vec<(usize, ContentHash, Arc<CodegenOptions>)>,
        parent: Option<SpanId>,
    ) -> Result<CodegenBatch, PipelineError> {
        let mut artifacts: Vec<Option<Arc<CodegenResult>>> = vec![None; plan.len()];
        let mut misses: Vec<(usize, ContentHash, Arc<CodegenOptions>)> = Vec::new();
        let injector = self.injector.clone();
        let mut events = Vec::new();
        {
            // Lookups run under the lock in plan order, so fault rolls
            // against cache entries are deterministic regardless of
            // worker interleaving below.
            let mut cache = self.caches.obj.lock();
            for (pos, (_, key, cg)) in plan.iter().enumerate() {
                let (artifact, event) = cache.lookup(*key, injector.as_deref());
                events.push(event);
                match artifact {
                    Some(artifact) => artifacts[pos] = Some(artifact),
                    // A corrupt/evicted entry surfaces as a miss here,
                    // so the rebuild below re-inserts a clean artifact.
                    None => misses.push((pos, *key, cg.clone())),
                }
            }
        }
        for e in events {
            self.absorb_cache_event(e);
        }

        let modules = program.modules();
        // Workers record their spans under the caller's phase span via
        // the explicit parent — thread-local nesting does not cross the
        // pool boundary — and stamp their lane id so Chrome traces show
        // one row per worker. The pool writes each result into its
        // submission-order slot and hands the slots back in that order,
        // so the fold below (cache inserts, action list, f64 cost sums)
        // is identical no matter how threads interleave; `jobs == 1`
        // runs the items inline, the exact legacy path.
        let tel = self.tel.clone();
        let plan_ref = &plan;
        // The pool is only as wide as the misses can pay for
        // ([`INSTS_PER_WORKER`]) — a function of the batch alone, so the
        // same batch takes the same path on every run.
        let miss_insts: u64 = misses
            .iter()
            .map(|(pos, ..)| module_insts(&modules[plan[*pos].0]))
            .sum();
        let affordable = usize::try_from(miss_insts / INSTS_PER_WORKER).unwrap_or(usize::MAX);
        let (computed, pool): (Vec<ComputedModule>, PoolStats) = self
            .executor
            .clone()
            .with_jobs(self.executor.jobs().min(affordable))
            .execute_indexed("codegen batch", &misses, |w, _i, (pos, key, cg)| {
                let module_idx = plan_ref[*pos].0;
                let r = tel
                    .with_worker(w as u64, || {
                        codegen_module_traced(&modules[module_idx], program, cg, &tel, parent)
                    })
                    .map(Arc::new);
                (*pos, *key, r)
            })?;

        let mut actions = Vec::with_capacity(computed.len());
        {
            let mut cache = self.caches.obj.lock();
            for (pos, key, result) in computed {
                let artifact = result?;
                cache.insert(key, artifact.clone());
                let module = &modules[plan[pos].0];
                actions.push(ActionSpec::new(
                    format!("codegen {}", module.name),
                    cost::codegen_secs(module_insts(module)),
                    (64 << 20) + artifact.stats.text_bytes as u64 * 8,
                ));
                artifacts[pos] = Some(artifact);
            }
        }
        // Every plan position was filled either by a cache hit above
        // or by the miss loop; an empty slot would mean a worker
        // dropped a module, which must surface as a typed error rather
        // than a panic.
        let artifacts = artifacts
            .into_iter()
            .map(|a| {
                a.ok_or(PipelineError::Internal {
                    what: "codegen batch left an artifact slot unfilled",
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((artifacts, actions, pool))
    }

    /// Backends, then link — the one way this pipeline makes a binary
    /// (§3.1 over every module for `PM`; §3.4 for `PO`, whose cold
    /// objects the batch finds in the cache). `plan` is
    /// [`Propeller::codegen_batch`]'s. `(link_action, spent)` puts the
    /// build on the cost model: the link action's name, plus modeled
    /// actions already spent that produced no object.
    fn build_binary(
        &mut self,
        program: &Program,
        plan: Vec<(usize, ContentHash, Arc<CodegenOptions>)>,
        link: &LinkOptions,
        (link_action, mut spent): (&str, Vec<ActionSpec>),
        parent: Option<SpanId>,
    ) -> Result<(Arc<LinkedBinary>, PhaseReport), PipelineError> {
        let (artifacts, mut actions, pool) = self.codegen_batch(program, plan, parent)?;
        let inputs: Vec<LinkInputRef> = artifacts
            .iter()
            .map(|a| LinkInputRef::new(&a.object, &a.debug_layout))
            .collect();
        // Under a fault plan the order is part of the result: the
        // codegen actions roll before the link runs, its action after.
        actions.append(&mut spent);
        let mut report = self.run_actions(&actions, parent)?;
        let bin = link_refs_traced(&inputs, link, &self.tel, parent)?;
        let link_cost = cost::link_secs(bin.stats.input_bytes);
        let action = ActionSpec::new(link_action, link_cost, bin.stats.modeled_peak_memory);
        report = report.then(&self.run_actions(&[action], parent)?);
        // Measured pool timing rides in PhaseReport only — never the run
        // report, whose bytes must not depend on real clocks.
        report.wall_us = pool.wall_us;
        report.busy_us = pool.busy_us;
        Ok((Arc::new(bin), report))
    }

    /// Phase 2: code-generate every module with BB address map
    /// metadata and link the `PM` binary.
    ///
    /// # Errors
    ///
    /// Propagates codegen, link and build-system failures.
    pub fn phase2_build_metadata(&mut self) -> Result<PhaseReport, PipelineError> {
        if !self.compiled {
            return Err(PipelineError::PhaseOrder { needs: "phase 1" });
        }
        let mut span = self.tel.span("phase2.build_metadata");
        let cg = Arc::new(CodegenOptions::with_labels());
        let plan: Vec<_> = (0..self.program.num_modules())
            .map(|i| (i, self.fingerprints[i].combine(tag("labels")), cg.clone()))
            .collect();
        let link = LinkOptions {
            output_name: "app.pm".into(),
            ..LinkOptions::default()
        };
        let charge = ("link app.pm", Vec::new());
        let (bin, report) =
            self.build_binary(&self.program.clone(), plan, &link, charge, span.id())?;
        self.times.phase2 = report;
        span.set_sim_secs(report.wall_secs);
        span.set_peak_bytes(report.max_action_memory);
        self.pm_binary = Some(bin);
        Ok(report)
    }

    /// What every Phase 3 starts with: the `PM` binary to analyse
    /// against, and the phase's span.
    fn begin_phase3(&self, span: &'static str) -> Result<(Arc<LinkedBinary>, Span), PipelineError> {
        Ok((self.pm()?.clone(), self.tel.span(span)))
    }

    /// What every Phase 3 ends with: `wpa` becomes the layout Phase 4
    /// relinks by. `analysis` is the modeled action that produced it —
    /// its name and the raw profile bytes it converted — or `None` when
    /// nothing was analysed and the phase cost nothing.
    fn finish_phase3(
        &mut self,
        mut span: Span,
        wpa: WpaOutput,
        analysis: Option<(&str, u64)>,
    ) -> Result<PhaseReport, PipelineError> {
        let report = match analysis {
            Some((action, profile_bytes)) => {
                let cpu = cost::profile_conversion_secs(profile_bytes)
                    + cost::wpa_secs(wpa.stats.dcfg_edges as u64);
                let action = ActionSpec::new(action, cpu, wpa.stats.modeled_peak_memory);
                self.run_actions(&[action], span.id())?
            }
            None => PhaseReport::default(),
        };
        self.times.phase3 = report;
        span.set_sim_secs(report.wall_secs);
        span.set_peak_bytes(report.max_action_memory);
        self.wpa_output = Some(wpa);
        Ok(report)
    }

    /// Phase 3: run the workload under the profiler, then whole-program
    /// analysis.
    ///
    /// # Errors
    ///
    /// Propagates build-system failures (e.g. WPA exceeding the
    /// per-action memory limit) and image-construction failures.
    pub fn phase3_profile_and_analyze(&mut self) -> Result<PhaseReport, PipelineError> {
        let (pm, span) = self.begin_phase3("phase3.profile_and_analyze")?;
        let span_id = span.id();
        let image = ProgramImage::build(&self.program, &pm.layout)?;
        let mut run = simulate_traced(
            &image,
            &self.workload(self.opts.profile_budget),
            &self.opts.uarch,
            &SimOptions {
                sampling: Some(self.opts.sampling),
                heatmap: self.opts.heatmap,
                collect_call_misses: self.opts.prefetch.is_some(),
                attribution: self.opts.attribution,
            },
            &self.tel,
            span_id,
        );
        let profile = run.profile.as_mut().ok_or(PipelineError::Internal {
            what: "profiler returned no profile despite sampling being enabled",
        })?;
        // Model in-flight profile damage, then salvage what survives:
        // corrupt records are dropped, truncated samples keep their
        // committed prefix. The pipeline continues on whatever is
        // left — possibly nothing.
        let mut survival = 1.0f64;
        if let Some(inj) = &self.injector {
            let stats = degrade_profile(profile, inj);
            let (salvaged, stats) = salvage_profile(profile, pm.text_start..pm.text_end, stats);
            stats.record_into(&mut self.ledger);
            survival = stats.survival_rate();
            *profile = salvaged;
        }
        let agg = {
            let _s = self.tel.span_under("wpa.aggregate_profile", span_id);
            AggregatedProfile::from_profile(profile)
        };
        let profile_bytes = profile.raw_size_bytes();
        self.profiling_run = Some(run);
        let wpa = run_wpa_agg_traced(
            &self.program,
            &pm,
            &agg,
            profile_bytes,
            &self.opts.wpa,
            &self.tel,
            span_id,
        );
        // Coverage floor: when too little of the profile survived, the
        // layout it implies cannot be trusted. Mark the affected hot
        // functions cold and fall back to the identity symbol order —
        // Phase 4 then reuses every Phase 2 artifact and the relink
        // yields a correct, baseline-equivalent binary.
        let wpa = if survival < PROFILE_FLOOR {
            self.ledger.functions_marked_cold += wpa.stats.hot_functions as u64;
            self.ledger.layout_mode = LayoutMode::IdentityFallback;
            if self.tel.is_enabled() {
                self.tel.counter_add("faults.layout_fallbacks", 1);
            }
            WpaOutput::identity_fallback(wpa.stats)
        } else {
            wpa
        };
        self.finish_phase3(span, wpa, Some(("whole-program analysis", profile_bytes)))
    }

    /// Phase 3 variant for the fleet lifecycle: whole-program analysis
    /// over an externally collected (and typically multi-machine
    /// merged, possibly stale) aggregated profile, skipping the local
    /// profiling run entirely.
    ///
    /// `profile_bytes` is the modeled raw size of the samples behind
    /// `agg`, used for the conversion-cost and memory models. The
    /// pipeline's own profiling run stays empty — this phase consumes
    /// samples collected on *other* machines (and possibly an older
    /// binary, translated into this one's address space).
    ///
    /// # Errors
    ///
    /// Propagates build-system failures, as
    /// [`Propeller::phase3_profile_and_analyze`] does.
    pub fn phase3_analyze_merged(
        &mut self,
        agg: &AggregatedProfile,
        profile_bytes: u64,
    ) -> Result<PhaseReport, PipelineError> {
        let (pm, span) = self.begin_phase3("phase3.analyze_merged")?;
        let wpa = run_wpa_agg_traced(
            &self.program,
            &pm,
            agg,
            profile_bytes,
            &self.opts.wpa,
            &self.tel,
            span.id(),
        );
        let analysis = ("whole-program analysis (merged profile)", profile_bytes);
        self.finish_phase3(span, wpa, Some(analysis))
    }

    /// Phase 3 variant for the fleet lifecycle's *reuse* decision: skip
    /// analysis and adopt the identity layout, so Phase 4 becomes an
    /// all-cold relink that reuses every Phase 2 artifact from the
    /// cache and ships a correct, baseline-equivalent binary.
    ///
    /// This is what "don't re-optimize this release" means in the
    /// release loop: when the only available profile is too stale to
    /// trust (skew above threshold), shipping the unoptimized layout is
    /// strictly safer than optimizing for the wrong distribution.
    ///
    /// # Errors
    ///
    /// Fails if Phase 2 has not produced the metadata binary yet.
    pub fn phase3_reuse_layout(&mut self) -> Result<PhaseReport, PipelineError> {
        let (_, span) = self.begin_phase3("phase3.reuse_layout")?;
        self.finish_phase3(span, WpaOutput::identity_fallback(Default::default()), None)
    }

    /// Phase 4: regenerate hot modules with basic block sections, reuse
    /// cold objects from the cache, and relink with the global order.
    ///
    /// # Errors
    ///
    /// Propagates codegen, link and build-system failures.
    pub fn phase4_relink(&mut self) -> Result<PhaseReport, PipelineError> {
        let Some(wpa) = self.wpa_output.as_ref() else {
            return Err(PipelineError::PhaseOrder { needs: "phase 3" });
        };
        let cluster_map = wpa.cluster_map.clone();
        let symbol_order = wpa.symbol_order.clone();
        let mut span = self.tel.span("phase4.relink");
        let span_id = span.id();

        // §3.5: insert software prefetches at miss-heavy call sites,
        // then regenerate hot modules from the augmented IR (the
        // paper's "summary-based directive" driving the distributed
        // codegen actions).
        let call_misses = self
            .profiling_run
            .as_ref()
            .and_then(|run| run.call_misses.as_ref());
        let phase4_program: Arc<Program> = match (self.opts.prefetch, call_misses) {
            (Some(min_misses), Some(misses)) => {
                // Phase 3 required the PM binary, so it exists here;
                // stay typed rather than panicking if that invariant
                // ever breaks.
                let directives =
                    prefetch_directives(&self.program, self.pm()?, misses, min_misses, 2);
                Arc::new(apply_prefetches(&self.program, &directives))
            }
            _ => self.program.clone(),
        };
        // Without prefetch insertion Phase 4 regenerates from the very
        // program `with_caches` fingerprinted.
        let phase4_fingerprints: Cow<[ContentHash]> = if Arc::ptr_eq(&phase4_program, &self.program)
        {
            Cow::Borrowed(&self.fingerprints)
        } else {
            Cow::Owned(
                phase4_program
                    .modules()
                    .iter()
                    .map(module_fingerprint)
                    .collect(),
            )
        };

        // A module is hot iff any of its functions has directives.
        let mut hot_modules = 0usize;
        let labels = Arc::new(CodegenOptions::with_labels());
        let clusters_cg = Arc::new(CodegenOptions::with_clusters(cluster_map.clone()));
        let injector = self.injector.clone();
        let mut plan = Vec::with_capacity(phase4_program.num_modules());
        // Modeled cost of hot re-codegens that permanently failed:
        // every budgeted attempt ran and died, so the wasted work still
        // lands in the phase's time accounting.
        let mut failed_actions = Vec::new();
        for (i, (module, fp)) in phase4_program
            .modules()
            .iter()
            .zip(phase4_fingerprints.iter())
            .enumerate()
        {
            let directive_hash = module
                .functions
                .iter()
                .filter_map(|f| cluster_map.get(f.id).map(clusters_hash))
                .fold(None::<ContentHash>, |acc, h| {
                    Some(acc.map_or(h, |a| a.combine(h)))
                });
            let (key, cg) = match directive_hash {
                Some(dh) => {
                    let permanent_failure = injector.as_deref().is_some_and(|inj| {
                        inj.fires(FaultKind::PermanentCodegenFailure, &module.name)
                    });
                    if permanent_failure {
                        // Per-object graceful degradation: the hot
                        // re-codegen cannot succeed on any worker, so
                        // this object ships the cached baseline
                        // (Phase 2 labels) codegen instead. The module
                        // keeps its PM layout — correct, just not
                        // cluster-optimized. If that cached artifact
                        // is itself corrupt or evicted, codegen_batch
                        // rebuilds it (a counted cache rebuild).
                        failed_actions.push(ActionSpec::new(
                            format!("codegen {} (permanent failure)", module.name),
                            f64::from(MAX_ATTEMPTS) * cost::codegen_secs(module_insts(module)),
                            64 << 20,
                        ));
                        self.ledger.objects_fallen_back += 1;
                        (fp.combine(tag("labels")), labels.clone())
                    } else {
                        hot_modules += 1;
                        (fp.combine(tag("clusters")).combine(dh), clusters_cg.clone())
                    }
                }
                // Module without cluster directives: its Phase 4
                // inputs are identical to the Phase 2 action's, so this
                // is a cache hit — the paper's "cold object files are
                // retrieved from the cache". The phase-4 fingerprint is
                // used so a module touched only by prefetch insertion
                // is correctly regenerated instead.
                None => (fp.combine(tag("labels")), labels.clone()),
            };
            plan.push((i, key, cg));
        }
        self.hot_module_fraction = hot_modules as f64 / self.program.num_modules().max(1) as f64;
        let link = LinkOptions {
            output_name: "app.propeller".into(),
            symbol_order: Some(symbol_order),
            relax: true,
            drop_cold_bb_addr_map: true,
            ..LinkOptions::default()
        };
        let charge = ("relink app.propeller", failed_actions);
        let (bin, report) = self.build_binary(&phase4_program, plan, &link, charge, span_id)?;
        self.times.phase4 = report;
        span.set_sim_secs(report.wall_secs);
        span.set_peak_bytes(report.max_action_memory);
        self.po_binary = Some(bin);
        self.phase4_program = Some(phase4_program);
        Ok(report)
    }

    /// Runs all four phases.
    ///
    /// # Errors
    ///
    /// Propagates the first failing phase's error.
    pub fn run_all(&mut self) -> Result<PropellerReport, PipelineError> {
        self.phase1_compile()?;
        self.phase2_build_metadata()?;
        self.phase3_profile_and_analyze()?;
        self.phase4_relink()?;
        // The phases above just ran, so these artifacts exist; stay
        // typed rather than panicking if that invariant ever breaks.
        let (Some(wpa), Some(po)) = (&self.wpa_output, &self.po_binary) else {
            return Err(PipelineError::PhaseOrder { needs: "phase 4" });
        };
        // Counters merge by addition, so cache statistics are recorded
        // exactly once per run, not per lookup.
        self.caches.ir_stats().record_metrics(&self.tel, "cache.ir");
        self.caches
            .object_stats()
            .record_metrics(&self.tel, "cache.obj");
        // A clean ledger records nothing, keeping zero-fault traces
        // identical to pre-fault-layer output.
        if !self.ledger.is_clean() {
            self.ledger.record_metrics(&self.tel, "faults");
        }
        Ok(PropellerReport {
            times: self.times.modeled_only(),
            ir_cache: self.caches.ir_stats(),
            object_cache: self.caches.object_stats(),
            hot_module_fraction: self.hot_module_fraction,
            hot_functions: wpa.stats.hot_functions,
            wpa: wpa.stats,
            deleted_jumps: po.stats.deleted_jumps,
            shrunk_branches: po.stats.shrunk_branches,
            optimized_binary_name: po.name.clone(),
            degradation: self.ledger.clone(),
            profile_attribution: self.profile_attribution().cloned(),
        })
    }

    /// The Phase 2 binary, or the phase-order error naming it.
    fn pm(&self) -> Result<&Arc<LinkedBinary>, PipelineError> {
        self.pm_binary
            .as_ref()
            .ok_or(PipelineError::PhaseOrder { needs: "phase 2" })
    }

    /// The plain baseline binary — the PGO+ThinLTO equivalent all
    /// evaluations compare against. Labels mode lays code out exactly
    /// as the plain build does and adds only the address map, which is
    /// not loaded, so the baseline is the `PM` binary without its map.
    ///
    /// # Errors
    ///
    /// Fails if Phase 2 has not run.
    pub fn build_baseline(&self) -> Result<Arc<LinkedBinary>, PipelineError> {
        Ok(Arc::new(self.pm()?.without_bb_addr_map("app.baseline")))
    }

    /// Simulates baseline and optimized binaries under the same
    /// workload and reports both counter sets.
    ///
    /// # Errors
    ///
    /// Fails if Phase 4 has not run, or image construction fails.
    pub fn evaluate(&self, block_budget: u64) -> Result<EvalReport, PipelineError> {
        let (base, opt) = self.evaluate_with(block_budget, &SimOptions::default())?;
        Ok(EvalReport {
            baseline: base.counters,
            optimized: opt.counters,
        })
    }

    /// [`Propeller::evaluate`] with caller-chosen collection options —
    /// the same workload runs over the baseline and optimized images,
    /// and both full [`SimReport`]s come back (counters
    /// plus whatever attribution/heat-map/flamegraph data `opts`
    /// requested). The baseline half runs on the `PM` layout, which is
    /// the baseline's ([`Propeller::build_baseline`]).
    ///
    /// # Errors
    ///
    /// Fails if Phase 4 has not run, or image construction fails.
    pub fn evaluate_with(
        &self,
        block_budget: u64,
        sim_opts: &SimOptions,
    ) -> Result<(SimReport, SimReport), PipelineError> {
        let pm = self.pm()?;
        let span = self.tel.span("evaluate");
        let base = self.simulate_on(&self.program, pm, block_budget, sim_opts, span.id())?;
        let opt = self.evaluate_optimized(block_budget, sim_opts, span.id())?;
        Ok((base, opt))
    }

    /// The optimized half of [`Propeller::evaluate_with`] alone, its
    /// `simulate` span under `parent`: for a caller that already holds
    /// the baseline's counters — another pipeline over the same program,
    /// seed, microarchitecture and budget measured them.
    ///
    /// # Errors
    ///
    /// Fails if Phase 4 has not run, or image construction fails.
    pub fn evaluate_optimized(
        &self,
        block_budget: u64,
        sim_opts: &SimOptions,
        parent: Option<SpanId>,
    ) -> Result<SimReport, PipelineError> {
        let (Some(po), Some(program)) = (&self.po_binary, &self.phase4_program) else {
            return Err(PipelineError::PhaseOrder { needs: "phase 4" });
        };
        self.simulate_on(program, po, block_budget, sim_opts, parent)
    }

    /// Runs this pipeline's workload over `binary`'s layout of `program`.
    fn simulate_on(
        &self,
        program: &Program,
        binary: &LinkedBinary,
        block_budget: u64,
        sim_opts: &SimOptions,
        parent: Option<SpanId>,
    ) -> Result<SimReport, PipelineError> {
        let image = ProgramImage::build(program, &binary.layout)?;
        Ok(simulate_traced(
            &image,
            &self.workload(block_budget),
            &self.opts.uarch,
            sim_opts,
            &self.tel,
            parent,
        ))
    }
}
