//! `serve_mix`: many tiny relink jobs through the multi-tenant service.

use super::{clang, Audit, LayerRow, OpOut, Workload};
use crate::checks::{digest, layout_is_permutation, retired_trace_equal};
use crate::staged::{text_kib, workload, Stage};
use propeller::{BuildCaches, Propeller, PropellerOptions};
use propeller_serve::{
    batch_binary, gen_traffic, CompletedJob, JobRequest, RelinkService, ServeOptions,
    ServiceReport, TrafficConfig,
};
use propeller_sim::SimOptions;
use std::collections::BTreeMap;
use std::time::Instant;

const BENCHMARK: &str = "clang";
const SCALE: f64 = 0.001;
const REQUESTS: usize = 20;
const TENANTS: usize = 4;
const PROGRAM_VARIANTS: usize = 2;
/// Entries per shared cache: fewer than the mix's working set, so
/// pressure evictions occur.
const CACHE_CAPACITY: usize = 20;
const PROFILE_BUDGET: u64 = 30_000;
const EVAL_BUDGET: u64 = 60_000;
const TRAFFIC_SEED: u64 = 2;
const SERVICE_SEED: u64 = 0x5E12_51CE;

pub struct ServeMix {
    traffic: Vec<JobRequest>,
    kept: Option<ServiceReport>,
}

/// `(tenant, program_seed)`: jobs with the same signature must ship the
/// same bytes.
type Signature = (u32, u64);

/// What the staged replica found for one signature.
struct Relinked {
    speedup_pct: f64,
    text_kib: f64,
    blocks: u64,
}

fn job_options(job: &CompletedJob) -> PropellerOptions {
    PropellerOptions {
        seed: job.job_seed,
        jobs: 1,
        profile_budget: PROFILE_BUDGET,
        ..PropellerOptions::default()
    }
}

/// The first completed job of every signature, in signature order.
fn by_signature(report: &ServiceReport) -> BTreeMap<Signature, &CompletedJob> {
    let mut firsts = BTreeMap::new();
    for job in &report.completed {
        firsts.entry((job.tenant, job.program_seed)).or_insert(job);
    }
    firsts
}

/// The service's core contract: a batch relink of the same job on
/// fresh caches ships the same bytes.
fn batch_matches(job: &CompletedJob) -> Result<(), String> {
    let bytes =
        batch_binary(BENCHMARK, SCALE, job, 1, PROFILE_BUDGET).map_err(|e| e.to_string())?;
    if bytes == job.image {
        Ok(())
    } else {
        Err(format!(
            "job {}: batch_binary differs from the service's image",
            job.id
        ))
    }
}

impl ServeMix {
    pub fn generate() -> Self {
        let traffic = gen_traffic(&TrafficConfig {
            benchmark: BENCHMARK.into(),
            scale: SCALE,
            seed: TRAFFIC_SEED,
            tenants: TENANTS,
            requests: REQUESTS,
            program_variants: PROGRAM_VARIANTS,
            // Every request must complete: nobody cancels, nothing is
            // oversized.
            cancel_every: 0,
            oversize_every: 0,
            ..TrafficConfig::default()
        });
        ServeMix {
            traffic,
            kept: None,
        }
    }

    fn options(jobs: usize) -> ServeOptions {
        ServeOptions {
            jobs,
            seed: SERVICE_SEED,
            cache_capacity: Some(CACHE_CAPACITY),
            profile_budget: PROFILE_BUDGET,
            // Room for every request and no deadline, so none is refused.
            queue_capacity: REQUESTS,
            deadline_secs: 1e9,
            ..ServeOptions::default()
        }
    }

    /// One job's relink layer by layer; its image must be the service's.
    /// `audited` adds the retired-trace check, whose symbol attribution
    /// slows the evaluation runs many times over.
    fn replica(stage: &Stage, job: &CompletedJob, audited: bool) -> Result<Relinked, String> {
        let bench = clang(SCALE, job.program_seed);
        let opts = job_options(job);
        let run = stage.run_all(&bench.program, &bench.entries, &opts)?;
        if run.po.image != job.image {
            return Err(format!(
                "job {}: the staged replica's image differs from the service's",
                job.id
            ));
        }
        let sim = SimOptions {
            attribution: audited,
            ..SimOptions::default()
        };
        let (base, opt) = stage.evaluate(
            &bench.program,
            &run.po,
            &workload(&bench.entries, EVAL_BUDGET, opts.seed),
            &opts.uarch,
            &sim,
        )?;
        if audited {
            retired_trace_equal(&base, &opt)?;
            layout_is_permutation(&bench.program, &run.po.layout)?;
        }
        Ok(Relinked {
            speedup_pct: opt.counters.speedup_pct_over(&base.counters),
            text_kib: text_kib(&run.po),
            blocks: bench.program.stats().num_blocks as u64,
        })
    }
}

impl Workload for ServeMix {
    fn op(&mut self, jobs: usize, keep: bool) -> Result<OpOut, String> {
        let t = Instant::now();
        let mut svc =
            RelinkService::new(BENCHMARK, SCALE, Self::options(jobs)).map_err(|e| e.to_string())?;
        let report = svc.run(&self.traffic).map_err(|e| e.to_string())?;
        let wall_s = t.elapsed().as_secs_f64();
        let mut shipped = report.ledger.to_json_string().into_bytes();
        for job in &report.completed {
            shipped.extend_from_slice(&job.id.to_le_bytes());
            shipped.extend_from_slice(&job.binary_digest.to_le_bytes());
        }
        let out = OpOut {
            wall_s,
            digest: digest(&shipped),
            attempted: REQUESTS as u64,
            failed: (REQUESTS - report.completed.len().min(REQUESTS)) as u64,
        };
        if keep {
            self.kept = Some(report);
        }
        Ok(out)
    }

    fn audit(&mut self, stage: &Stage) -> Audit {
        let mut a = Audit::default();
        let Some(report) = &self.kept else {
            a.errors.push("no op was kept for the audit".into());
            return a;
        };
        a.digests.push((
            "service_ledger".into(),
            digest(report.ledger.to_json_string().as_bytes()),
        ));
        if !report.ledger.accounts_exactly() {
            a.errors
                .push("the service ledger does not account exactly".into());
        }
        a.errors.extend(report.violations.iter().cloned());
        if report.ledger.totals().pressure_evictions == 0 {
            a.errors
                .push("no pressure eviction occurred: the cache bound is not exercised".into());
        }
        let firsts = by_signature(report);
        let mut relinked: BTreeMap<Signature, Relinked> = BTreeMap::new();
        for (&sig, &job) in &firsts {
            a.errors.extend(batch_matches(job).err());
            match Self::replica(stage, job, true) {
                Ok(r) => {
                    relinked.insert(sig, r);
                }
                Err(e) => a.errors.push(e),
            }
        }
        let mut shipped = Vec::new();
        for job in &report.completed {
            let sig = (job.tenant, job.program_seed);
            if firsts[&sig].image != job.image {
                a.errors
                    .push(format!("job {}: same signature, different bytes", job.id));
            }
            if let Some(r) = relinked.get(&sig) {
                a.speedup_pct += r.speedup_pct / report.completed.len() as f64;
                a.text_kib += r.text_kib;
                a.blocks += r.blocks;
            }
            shipped.extend_from_slice(&job.binary_digest.to_le_bytes());
        }
        a.digests.push(("job_images".into(), digest(&shipped)));
        a
    }

    fn traced_op(&mut self, stage: &Stage, jobs: usize) -> Result<LayerRow, String> {
        let (tr, op) = (stage.tr, stage.tr.op());
        let (svc, report) = tr.span("op", || {
            let mut svc = tr
                .span("serve.new", || {
                    RelinkService::new(BENCHMARK, SCALE, Self::options(jobs))
                })
                .map_err(|e| e.to_string())?;
            let report = tr
                .span("serve.run", || svc.run(&self.traffic))
                .map_err(|e| e.to_string())?;
            Ok::<_, String>((svc, report))
        })?;

        // What the same jobs cost outside the service: a batch relink
        // per signature on fresh caches (the first job of a signature),
        // and again on caches that relink just filled (its repeats).
        let mut warm_s: BTreeMap<Signature, f64> = BTreeMap::new();
        let mut cold_s: BTreeMap<Signature, f64> = BTreeMap::new();
        let mut blocks = 0;
        tr.span("staged", || {
            for (sig, job) in by_signature(&report) {
                let (matches, secs) = tr.timed("serve.batch_equiv", || batch_matches(job));
                matches?;
                cold_s.insert(sig, secs);
                let caches = BuildCaches::new();
                for pass in 0..2 {
                    let bench = clang(SCALE, job.program_seed);
                    let (done, secs) = tr.timed(
                        if pass == 0 {
                            "serve.cache_fill"
                        } else {
                            "serve.warm_relink"
                        },
                        || {
                            Propeller::with_caches(
                                bench.program,
                                bench.entries,
                                job_options(job),
                                caches.clone(),
                            )
                            .run_all()
                            .map(drop)
                        },
                    );
                    done.map_err(|e| e.to_string())?;
                    warm_s.insert(sig, secs);
                }
                blocks += Self::replica(stage, job, false)?.blocks;
            }
            Ok::<(), String>(())
        })?;

        let totals = report.ledger.totals();
        let run_s = tr.total(op, "serve.run");
        let mut seen = std::collections::BTreeSet::new();
        let work_est: f64 = report
            .completed
            .iter()
            .map(|job| {
                let sig = (job.tenant, job.program_seed);
                if seen.insert(sig) {
                    cold_s[&sig]
                } else {
                    warm_s[&sig]
                }
            })
            .sum();
        let mut row = LayerRow::new();
        row.insert("trace.traced_wall_s", tr.total(op, "op"));
        row.insert("synth.blocks", blocks as f64);
        row.insert("serve.jobs_completed", report.completed.len() as f64);
        row.insert("serve.retries", totals.retries as f64);
        row.insert(
            "serve.us_per_job",
            run_s * 1e6 / report.completed.len().max(1) as f64,
        );
        row.insert("serve.batch_work_est_s", work_est);
        row.insert("serve.sched_self_s", run_s - work_est);
        let (ir, obj) = (svc.caches().ir_stats(), svc.caches().object_stats());
        row.insert("buildsys.obj_lookups", obj.lookups as f64);
        row.insert("buildsys.obj_hit_ratio", obj.hit_rate());
        row.insert("buildsys.ir_hit_ratio", ir.hit_rate());
        Ok(row)
    }
}
