//! `cold_build` and `refresh_interproc`: one clang-like program through
//! the four-phase pipeline.

use super::{clang, Audit, LayerRow, OpOut, Workload};
use crate::checks::{digest, layout_is_permutation, retired_trace_equal};
use crate::staged::{text_kib, Stage};
use propeller::{BuildCaches, Propeller, PropellerOptions, WpaOptions};
use propeller_profile::AggregatedProfile;
use propeller_sim::SimOptions;
use propeller_synth::GeneratedBenchmark;
use propeller_telemetry::Telemetry;
use propeller_wpa::{AddressMapper, Dcfg};
use std::time::Instant;

/// Blocks each evaluation run executes.
const EVAL_BUDGET: u64 = 300_000;
/// Alternating armed/unarmed op pairs per observer.
const OBSERVER_PAIRS: usize = 3;

pub struct Pipeline {
    bench: GeneratedBenchmark,
    wpa: WpaOptions,
    profile_budget: u64,
    load_seed: u64,
    /// `refresh_interproc`: Phases 1–2 run untimed inside each op and
    /// the timed region is Phases 3–4.
    refresh: bool,
    kept: Option<Propeller>,
}

struct Run {
    pipeline: Propeller,
    caches: BuildCaches,
    wall_s: f64,
}

fn spanned<R>(stage: Option<&Stage>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match stage {
        Some(s) => s.tr.span(name, f),
        None => f(),
    }
}

impl Pipeline {
    /// The cold cache-miss path: a fresh pipeline with fresh caches
    /// builds, profiles, analyses (intra-function) and relinks a
    /// ~72 k-block program. Linker and codegen do most of the work.
    pub fn cold_build() -> Self {
        Pipeline {
            bench: clang(0.035, 1),
            wpa: WpaOptions::default(),
            profile_budget: 200_000,
            load_seed: 5,
            refresh: false,
            kept: None,
        }
    }

    /// "A new profile arrived": recompute the inter-procedural layout
    /// and relink. Ext-TSP and the dynamic CFG do most of the work.
    pub fn refresh_interproc() -> Self {
        Pipeline {
            bench: clang(0.015, 3),
            wpa: WpaOptions::interprocedural(),
            profile_budget: 300_000,
            load_seed: 4,
            refresh: true,
            kept: None,
        }
    }

    fn options(&self, jobs: usize) -> PropellerOptions {
        PropellerOptions {
            wpa: self.wpa.clone(),
            profile_budget: self.profile_budget,
            seed: self.load_seed,
            jobs,
            ..PropellerOptions::default()
        }
    }

    /// One op. With `stage`, every pipeline call sits in a span.
    fn run(
        &self,
        opts: PropellerOptions,
        tel: Option<Telemetry>,
        stage: Option<&Stage>,
    ) -> Result<Run, String> {
        // The pipeline owns its program, so every op needs a copy; the
        // copy is the harness's cost, not the op's.
        let program = self.bench.program.clone();
        let entries = self.bench.entries.clone();
        let caches = BuildCaches::new();
        let e = |e: propeller::PipelineError| e.to_string();
        let start = Instant::now();
        let mut p = spanned(stage, "core.new", || {
            let mut p = Propeller::with_caches(program, entries, opts, caches.clone());
            if let Some(tel) = tel {
                p.set_telemetry(tel);
            }
            p
        });
        spanned(stage, "core.phase1", || p.phase1_compile()).map_err(e)?;
        spanned(stage, "core.phase2", || p.phase2_build_metadata()).map_err(e)?;
        let refresh_start = Instant::now();
        spanned(stage, "core.phase3", || p.phase3_profile_and_analyze()).map_err(e)?;
        spanned(stage, "core.phase4", || p.phase4_relink()).map_err(e)?;
        let wall_s = if self.refresh { refresh_start } else { start }
            .elapsed()
            .as_secs_f64();
        Ok(Run {
            pipeline: p,
            caches,
            wall_s,
        })
    }

    fn po_digest(p: &Propeller) -> Result<u64, String> {
        Ok(digest(
            &p.po_binary().ok_or("phase 4 shipped no binary")?.image,
        ))
    }

    /// Median overhead of arming one observer, from alternating
    /// armed/unarmed pairs at `--jobs 1`; the armed digest must equal
    /// the unarmed one.
    fn observer_overhead(
        &self,
        arm: impl Fn(&mut PropellerOptions) -> Option<Telemetry>,
    ) -> Result<(f64, f64), String> {
        let (mut armed, mut unarmed) = (Vec::new(), Vec::new());
        let mut digests = Vec::new();
        for pair in 0..OBSERVER_PAIRS {
            // Alternate which side runs first.
            for side in 0..2 {
                let is_armed = (pair + side) % 2 == 1;
                let mut opts = self.options(1);
                let tel = if is_armed { arm(&mut opts) } else { None };
                let run = self.run(opts, tel, None)?;
                digests.push(Self::po_digest(&run.pipeline)?);
                if is_armed { &mut armed } else { &mut unarmed }.push(run.wall_s);
            }
        }
        if digests.iter().any(|d| *d != digests[0]) {
            return Err("arming an observer changed the shipped binary".into());
        }
        let base = crate::stats::median(&unarmed);
        Ok(((crate::stats::median(&armed) / base - 1.0) * 100.0, base))
    }
}

impl Workload for Pipeline {
    fn op(&mut self, jobs: usize, keep: bool) -> Result<OpOut, String> {
        let run = self.run(self.options(jobs), None, None)?;
        let out = OpOut {
            wall_s: run.wall_s,
            digest: Self::po_digest(&run.pipeline)?,
            attempted: 1,
            failed: 0,
        };
        if keep {
            self.kept = Some(run.pipeline);
        }
        Ok(out)
    }

    fn audit(&mut self, _stage: &Stage) -> Audit {
        let mut a = Audit {
            blocks: self.bench.program.stats().num_blocks as u64,
            ..Audit::default()
        };
        let Some(p) = self.kept.as_mut() else {
            a.errors.push("no op was kept for the audit".into());
            return a;
        };
        let sim = SimOptions {
            attribution: true,
            ..SimOptions::default()
        };
        match p.evaluate_with(EVAL_BUDGET, &sim) {
            Ok((base, opt)) => {
                a.speedup_pct = opt.counters.speedup_pct_over(&base.counters);
                if let Err(e) = retired_trace_equal(&base, &opt) {
                    a.errors.push(e);
                }
            }
            Err(e) => a.errors.push(e.to_string()),
        }
        match p.po_binary() {
            Some(po) => {
                a.text_kib = text_kib(po);
                a.digests.push(("po_image".into(), digest(&po.image)));
                if let Err(e) = layout_is_permutation(p.program(), &po.layout) {
                    a.errors.push(e);
                }
            }
            None => a.errors.push("phase 4 shipped no binary".into()),
        }
        if let Some(pm) = p.pm_binary() {
            a.digests.push(("pm_image".into(), digest(&pm.image)));
        }
        a
    }

    fn traced_op(&mut self, stage: &Stage, jobs: usize) -> Result<LayerRow, String> {
        let (tr, op) = (stage.tr, stage.tr.op());
        let opts = self.options(jobs);
        let mut run = tr.span("op", || self.run(opts.clone(), None, Some(stage)))?;
        let p = &mut run.pipeline;

        let staged = tr.span("staged", || {
            stage.run_all(&self.bench.program, &self.bench.entries, &opts)
        })?;
        if staged.po.image != p.po_binary().ok_or("phase 4 shipped no binary")?.image {
            return Err("the staged replica's PO image differs from the pipeline's".into());
        }
        // The parts of `run_wpa` that are public on their own.
        let agg = tr.span("profile.aggregate", || {
            AggregatedProfile::from_profile(&staged.profile)
        });
        let mapper = tr.span("wpa.mapper", || AddressMapper::from_binary(&staged.pm));
        tr.span("wpa.dcfg", || Dcfg::build(&mapper, &agg));
        tr.span("core.baseline", || p.build_baseline().map(drop))
            .map_err(|e| e.to_string())?;
        tr.span("core.evaluate", || p.evaluate(EVAL_BUDGET).map(drop))
            .map_err(|e| e.to_string())?;

        // The timed region's phases against the replica's layers inside
        // that region; the remainder is the pipeline's own work
        // (executor, fingerprints, cache bookkeeping), not dropped.
        let outside = if self.refresh {
            tr.total(op, "codegen.pm") + tr.total(op, "linker.pm_link")
        } else {
            0.0
        };
        let layers = tr.children_total(op, "staged") - outside;
        let timed: &[&str] = if self.refresh {
            &["core.phase3", "core.phase4"]
        } else {
            &["core.phase1", "core.phase2", "core.phase3", "core.phase4"]
        };
        let phases: f64 = timed.iter().map(|phase| tr.total(op, phase)).sum();
        let mut row = LayerRow::new();
        // What `op` times: `cold_build`'s region starts at the
        // pipeline's construction.
        let new_s = if self.refresh {
            0.0
        } else {
            tr.total(op, "core.new")
        };
        row.insert("trace.traced_wall_s", new_s + phases);
        row.insert("core.self_s", phases - layers);
        row.insert("trace.coverage_pct", 100.0 * layers / phases);
        row.insert("synth.blocks", self.bench.program.stats().num_blocks as f64);
        let inside_wpa = ["profile.aggregate", "wpa.mapper", "wpa.dcfg"];
        row.insert(
            "wpa.layout_self_s",
            tr.total(op, "wpa.run")
                - inside_wpa
                    .iter()
                    .map(|part| tr.total(op, part))
                    .sum::<f64>(),
        );
        let (ir, obj) = (run.caches.ir_stats(), run.caches.object_stats());
        row.insert("buildsys.obj_lookups", obj.lookups as f64);
        row.insert("buildsys.obj_hit_ratio", obj.hit_rate());
        row.insert("buildsys.ir_hit_ratio", ir.hit_rate());
        let t = p.times();
        let pool_wall = (t.phase2.wall_us + t.phase4.wall_us) as f64 * jobs as f64;
        if pool_wall > 0.0 {
            row.insert(
                "buildsys.pool_busy_share",
                (t.phase2.busy_us + t.phase4.busy_us) as f64 / pool_wall,
            );
        }
        Ok(row)
    }

    fn traced_extras(&mut self, _stage: &Stage) -> Result<LayerRow, String> {
        let mut row = LayerRow::new();
        let (pct, base) = self.observer_overhead(|_| Some(Telemetry::enabled()))?;
        row.insert("telemetry.armed_overhead_pct", pct);
        row.insert("telemetry.unarmed_base_s", base);
        let (pct, base) = self.observer_overhead(|o| {
            o.provenance = true;
            None
        })?;
        row.insert("provenance.armed_overhead_pct", pct);
        row.insert("provenance.unarmed_base_s", base);
        Ok(row)
    }
}
