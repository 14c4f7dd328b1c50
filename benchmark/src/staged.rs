//! The staged replica: the pipeline's layers called one by one through
//! each crate's public functions, every call inside a span.
//!
//! codegen (labels) → link PM → image → simulate/LBR → `run_wpa` →
//! codegen hot modules with clusters → link with symbol order + relax.
//! Its PO image must equal the pipeline's byte for byte; that is the
//! proof that the layers timed here are the layers the pipeline runs.

use crate::trace::Tracer;
use propeller::PropellerOptions;
use propeller_codegen::{codegen_module, CodegenOptions, CodegenResult};
use propeller_ir::{FunctionId, Program};
use propeller_linker::{link, FinalLayout, LinkInput, LinkOptions, LinkedBinary};
use propeller_profile::{AggregatedProfile, HardwareProfile};
use propeller_sim::{simulate, ProgramImage, SimOptions, SimReport, UarchConfig, Workload};
use propeller_telemetry::Telemetry;
use propeller_wpa::{run_wpa, run_wpa_agg_traced, WpaOptions, WpaOutput};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Work counts recorded at the same boundaries as the spans.
#[derive(Default)]
pub struct Counts(RefCell<BTreeMap<&'static str, f64>>);

impl Counts {
    pub fn add(&self, name: &'static str, v: f64) {
        *self.0.borrow_mut().entry(name).or_insert(0.0) += v;
    }

    /// Takes the counts gathered since the last call.
    pub fn take(&self) -> BTreeMap<&'static str, f64> {
        std::mem::take(&mut self.0.borrow_mut())
    }
}

pub struct Stage<'a> {
    pub tr: &'a Tracer,
    pub counts: &'a Counts,
}

/// A binary's text size.
pub fn text_kib(binary: &LinkedBinary) -> f64 {
    (binary.text_end - binary.text_start) as f64 / 1024.0
}

/// A load over `entries` drawn from `seed`.
pub fn workload(entries: &[(FunctionId, f64)], budget: u64, seed: u64) -> Workload {
    let mut w = Workload::new(entries.to_vec(), budget);
    w.seed = seed;
    w
}

fn inputs(objects: &[&CodegenResult]) -> Vec<LinkInput> {
    objects
        .iter()
        .map(|r| LinkInput::new(r.object.clone(), r.debug_layout.clone()))
        .collect()
}

impl Stage<'_> {
    /// Σ `codegen_module` over the modules `pick` selects; `None` for
    /// the others.
    pub fn codegen(
        &self,
        span: &'static str,
        program: &Program,
        opts: &CodegenOptions,
        pick: impl Fn(usize) -> bool,
    ) -> Result<Vec<Option<CodegenResult>>, String> {
        self.tr.span(span, || {
            program
                .modules()
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    if !pick(i) {
                        return Ok(None);
                    }
                    let r = codegen_module(m, program, opts).map_err(|e| e.to_string())?;
                    self.counts.add("codegen.modules", 1.0);
                    self.counts.add(
                        "codegen.obj_kib",
                        r.object.size_breakdown().total() as f64 / 1024.0,
                    );
                    Ok(Some(r))
                })
                .collect()
        })
    }

    pub fn link(
        &self,
        span: &'static str,
        objects: &[&CodegenResult],
        opts: &LinkOptions,
    ) -> Result<LinkedBinary, String> {
        let bin = self
            .tr
            .span(span, || link(&inputs(objects), opts))
            .map_err(|e| e.to_string())?;
        self.counts
            .add("linker.input_kib", bin.stats.input_bytes as f64 / 1024.0);
        Ok(bin)
    }

    pub fn image(&self, program: &Program, layout: &FinalLayout) -> Result<ProgramImage, String> {
        self.tr
            .span("sim.image_build", || ProgramImage::build(program, layout))
            .map_err(|e| e.to_string())
    }

    pub fn simulate(
        &self,
        span: &'static str,
        image: &ProgramImage,
        load: &Workload,
        uarch: &UarchConfig,
        opts: &SimOptions,
    ) -> SimReport {
        let (report, secs) = self.tr.timed(span, || simulate(image, load, uarch, opts));
        self.counts.add("sim.blocks", report.counters.blocks as f64);
        self.counts.add("sim.busy_s", secs);
        report
    }

    fn note_wpa(&self, out: &WpaOutput) {
        self.counts
            .add("wpa.hot_blocks", out.stats.hot_blocks as f64);
        self.counts
            .add("wpa.hot_functions", out.stats.hot_functions as f64);
        self.counts
            .add("wpa.dcfg_edges", out.stats.dcfg_edges as f64);
    }

    pub fn wpa(
        &self,
        program: &Program,
        pm: &LinkedBinary,
        profile: &HardwareProfile,
        opts: &WpaOptions,
    ) -> WpaOutput {
        let out = self
            .tr
            .span("wpa.run", || run_wpa(program, pm, profile, opts));
        self.note_wpa(&out);
        out
    }

    /// `run_wpa` over an already aggregated (merged) profile — the
    /// fleet's entry point.
    pub fn wpa_agg(
        &self,
        program: &Program,
        pm: &LinkedBinary,
        agg: &AggregatedProfile,
        profile_bytes: u64,
        opts: &WpaOptions,
    ) -> WpaOutput {
        let out = self.tr.span("wpa.run", || {
            run_wpa_agg_traced(
                program,
                pm,
                agg,
                profile_bytes,
                opts,
                &Telemetry::disabled(),
                None,
            )
        });
        self.note_wpa(&out);
        out
    }

    /// Phase 2 of the pipeline: every module with labels, linked as the
    /// metadata binary.
    pub fn build_pm(
        &self,
        program: &Program,
    ) -> Result<(Vec<CodegenResult>, LinkedBinary), String> {
        let labels: Vec<CodegenResult> = self
            .codegen(
                "codegen.pm",
                program,
                &CodegenOptions::with_labels(),
                |_| true,
            )?
            .into_iter()
            .flatten()
            .collect();
        let pm = self.link(
            "linker.pm_link",
            &labels.iter().collect::<Vec<_>>(),
            &LinkOptions {
                output_name: "app.pm".into(),
                ..LinkOptions::default()
            },
        )?;
        Ok((labels, pm))
    }

    /// Phase 4 of the pipeline: modules with a cluster directive are
    /// regenerated, the others reuse their labels object; the relink
    /// orders sections and relaxes branches.
    pub fn relink(
        &self,
        program: &Program,
        labels: &[CodegenResult],
        wpa: &WpaOutput,
    ) -> Result<LinkedBinary, String> {
        let hot: Vec<bool> = program
            .modules()
            .iter()
            .map(|m| {
                m.functions
                    .iter()
                    .any(|f| wpa.cluster_map.get(f.id).is_some())
            })
            .collect();
        let clustered = self.codegen(
            "codegen.po",
            program,
            &CodegenOptions::with_clusters(wpa.cluster_map.clone()),
            |i| hot[i],
        )?;
        let objects: Vec<&CodegenResult> = clustered
            .iter()
            .zip(labels)
            .map(|(hot, cold)| hot.as_ref().unwrap_or(cold))
            .collect();
        let po = self.link(
            "linker.po_link",
            &objects,
            &LinkOptions {
                output_name: "app.propeller".into(),
                symbol_order: Some(wpa.symbol_order.clone()),
                relax: true,
                drop_cold_bb_addr_map: true,
                ..LinkOptions::default()
            },
        )?;
        self.counts
            .add("linker.shrunk_branches", po.stats.shrunk_branches as f64);
        self.counts
            .add("linker.deleted_jumps", po.stats.deleted_jumps as f64);
        self.counts.add("linker.text_kib", text_kib(&po));
        Ok(po)
    }

    /// The whole chain for one program under `opts`, as `run_all` runs
    /// it.
    pub fn run_all(
        &self,
        program: &Program,
        entries: &[(FunctionId, f64)],
        opts: &PropellerOptions,
    ) -> Result<StagedRun, String> {
        let (labels, pm) = self.build_pm(program)?;
        let image = self.image(program, &pm.layout)?;
        let report = self.simulate(
            "sim.profile",
            &image,
            &workload(entries, opts.profile_budget, opts.seed),
            &opts.uarch,
            &SimOptions {
                sampling: Some(opts.sampling),
                ..SimOptions::default()
            },
        );
        let profile = report.profile.ok_or("sampling produced no profile")?;
        self.counts
            .add("profile.lbr_records", profile.num_records() as f64);
        // As `Propeller::with_caches` does: one knob drives the Ext-TSP
        // gain evaluation's worker count and arms provenance.
        let mut wpa_opts = opts.wpa.clone();
        wpa_opts.exttsp.jobs = opts.jobs;
        wpa_opts.provenance = opts.provenance;
        let wpa = self.wpa(program, &pm, &profile, &wpa_opts);
        let po = self.relink(program, &labels, &wpa)?;
        Ok(StagedRun { pm, profile, po })
    }

    /// `Propeller::evaluate` in stages: the baseline build, both
    /// images, and the same load over each.
    pub fn evaluate(
        &self,
        program: &Program,
        po: &LinkedBinary,
        load: &Workload,
        uarch: &UarchConfig,
        sim: &SimOptions,
    ) -> Result<(SimReport, SimReport), String> {
        let objects: Vec<CodegenResult> = self
            .codegen("codegen.base", program, &CodegenOptions::baseline(), |_| {
                true
            })?
            .into_iter()
            .flatten()
            .collect();
        let baseline = self.link(
            "linker.base_link",
            &objects.iter().collect::<Vec<_>>(),
            &LinkOptions {
                output_name: "app.baseline".into(),
                ..LinkOptions::default()
            },
        )?;
        let base_img = self.image(program, &baseline.layout)?;
        let opt_img = self.image(program, &po.layout)?;
        let base = self.simulate("sim.eval", &base_img, load, uarch, sim);
        let opt = self.simulate("sim.eval", &opt_img, load, uarch, sim);
        Ok((base, opt))
    }
}

pub struct StagedRun {
    pub pm: LinkedBinary,
    pub profile: HardwareProfile,
    pub po: LinkedBinary,
}
