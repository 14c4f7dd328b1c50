//! `fleet_drift`: four releases of a drifting program through the fleet
//! loop — cross-release reuse on shared caches.

use super::{Audit, LayerRow, OpOut, Workload};
use crate::checks::{digest, layout_is_permutation, retired_trace_equal};
use crate::staged::{text_kib, workload, Stage};
use propeller::{SamplingConfig, UarchConfig, WpaOptions};
use propeller_doctor::audit_profile_with_reference;
use propeller_fleet::{run_fleet, translate_profile, FleetOptions, FleetReport};
use propeller_linker::LinkedBinary;
use propeller_profile::{
    merge_profiles, AggregatedProfile, HardwareProfile, MergeOptions, ProfileSource,
};
use propeller_sim::{SimOptions, Workload as Load};
use propeller_synth::{
    evolve, generate, spec_by_name, BenchmarkSpec, DriftParams, GenParams, GeneratedBenchmark,
};
use propeller_wpa::{AddressMapper, Dcfg};
use std::time::Instant;

const SCALE: f64 = 0.003;
const RELEASES: u32 = 4;
const MACHINES: usize = 4;
const DRIFT: f64 = 0.05;
const HISTORY_WINDOW: u32 = 3;
const PROFILE_BUDGET: u64 = 60_000;
const EVAL_BUDGET: u64 = 80_000;
/// Pinned: under this seed the policy takes both decisions (relink,
/// reuse, relink after the bootstrap).
const FLEET_SEED: u64 = 5;

pub struct FleetDrift {
    spec: BenchmarkSpec,
    kept: Option<FleetReport>,
}

/// What the oracle-arm replica shipped for one release.
struct Release {
    pm: LinkedBinary,
    po: LinkedBinary,
    profiles: Vec<HardwareProfile>,
    blocks: u64,
    speedup_pct: f64,
    errors: Vec<String>,
}

// The fleet derives each machine's collection seed and traffic share
// with private helpers; the replica needs the same values. The audit
// proves the copies faithful: the replica's oracle speedups must equal
// the report's to the last bit.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn machine_seed(m: usize) -> u64 {
    splitmix(FLEET_SEED ^ splitmix(0xF1EE7 + m as u64))
}

/// Zipf traffic shares (`1/(m+1)`), largest-remainder rounded.
fn machine_budgets() -> Vec<u64> {
    let weights: Vec<f64> = (0..MACHINES).map(|m| 1.0 / (m as f64 + 1.0)).collect();
    let total: f64 = weights.iter().sum();
    let mut budgets: Vec<u64> = weights
        .iter()
        .map(|w| (PROFILE_BUDGET as f64 * w / total).floor() as u64)
        .collect();
    let leftover = PROFILE_BUDGET - budgets.iter().sum::<u64>();
    for b in budgets.iter_mut().take(leftover as usize) {
        *b += 1;
    }
    budgets
}

impl FleetDrift {
    pub fn generate() -> Self {
        FleetDrift {
            spec: spec_by_name("clang").expect("clang is a built-in spec"),
            kept: None,
        }
    }

    fn options(jobs: usize) -> FleetOptions {
        FleetOptions {
            releases: RELEASES,
            machines: MACHINES,
            drift: DRIFT,
            seed: FLEET_SEED,
            history_window: HISTORY_WINDOW,
            profile_budget: PROFILE_BUDGET,
            eval_budget: EVAL_BUDGET,
            jobs,
            ..FleetOptions::default()
        }
    }

    /// The programs `run_fleet` evolves release over release.
    fn release_chain(&self, stage: &Stage) -> Vec<GeneratedBenchmark> {
        let mut chain = vec![stage.tr.span("synth.generate", || {
            generate(
                &self.spec,
                &GenParams {
                    scale: SCALE,
                    ..GenParams::for_spec(&self.spec)
                },
            )
        })];
        for release in 1..RELEASES {
            let next = stage.tr.span("synth.evolve", || {
                evolve(
                    &chain[chain.len() - 1],
                    &DriftParams {
                        drift: DRIFT,
                        seed: FLEET_SEED,
                        release,
                    },
                )
            });
            chain.push(next);
        }
        chain
    }

    /// The fleet's oracle arm for one release, layer by layer: build the
    /// metadata binary, collect on every machine, merge, analyse,
    /// relink, evaluate.
    ///
    /// `audited` adds the retired-trace check, whose symbol attribution
    /// slows the evaluation runs many times over: the audit pays for
    /// it, the traced pass does not.
    fn oracle_release(
        stage: &Stage,
        bench: &GeneratedBenchmark,
        audited: bool,
    ) -> Result<Release, String> {
        let tr = stage.tr;
        let (program, entries) = (&bench.program, &bench.entries);
        let uarch = UarchConfig::default();
        let (labels, pm) = stage.build_pm(program)?;
        let image = stage.image(program, &pm.layout)?;
        let sampling = SimOptions {
            sampling: Some(SamplingConfig::default()),
            ..SimOptions::default()
        };
        let mut profiles = Vec::new();
        for (m, budget) in machine_budgets().into_iter().enumerate() {
            let mut load = Load::new(entries.clone(), budget);
            load.seed = machine_seed(m);
            let report = stage.simulate("sim.profile", &image, &load, &uarch, &sampling);
            profiles.push(report.profile.ok_or("sampling produced no profile")?);
        }
        let sources: Vec<ProfileSource> = profiles
            .iter()
            .map(|p| {
                stage
                    .counts
                    .add("profile.lbr_records", p.num_records() as f64);
                let agg = tr.span("profile.aggregate", || AggregatedProfile::from_profile(p));
                ProfileSource {
                    agg,
                    weight: p.samples.len() as u64,
                    age: 0,
                }
            })
            .collect();
        let fresh = tr.span("profile.merge", || {
            merge_profiles(&sources, &MergeOptions::default())
        });
        let bytes = profiles.iter().map(HardwareProfile::raw_size_bytes).sum();
        let wpa = stage.wpa_agg(program, &pm, &fresh, bytes, &WpaOptions::default());
        let mapper = tr.span("wpa.mapper", || AddressMapper::from_binary(&pm));
        tr.span("wpa.dcfg", || Dcfg::build(&mapper, &fresh));
        let po = stage.relink(program, &labels, &wpa)?;
        let sim = SimOptions {
            attribution: audited,
            ..SimOptions::default()
        };
        let (base, opt) = stage.evaluate(
            program,
            &po,
            &workload(entries, EVAL_BUDGET, FLEET_SEED),
            &uarch,
            &sim,
        )?;
        let mut errors = Vec::new();
        if audited {
            errors.extend(retired_trace_equal(&base, &opt).err());
            errors.extend(layout_is_permutation(program, &po.layout).err());
        }
        Ok(Release {
            pm,
            po,
            profiles,
            blocks: program.stats().num_blocks as u64,
            speedup_pct: opt.counters.speedup_pct_over(&base.counters),
            errors,
        })
    }

    fn oracle_arm(&self, stage: &Stage, audited: bool) -> Result<Vec<Release>, String> {
        self.release_chain(stage)
            .iter()
            .map(|b| Self::oracle_release(stage, b, audited))
            .collect()
    }
}

impl Workload for FleetDrift {
    fn op(&mut self, jobs: usize, keep: bool) -> Result<OpOut, String> {
        let opts = Self::options(jobs);
        let t = Instant::now();
        let report = run_fleet(&self.spec, SCALE, &opts)?;
        let wall_s = t.elapsed().as_secs_f64();
        let out = OpOut {
            wall_s,
            digest: digest(report.to_json_string().as_bytes()),
            attempted: 1,
            failed: 0,
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
            "fleet_report".into(),
            digest(report.to_json_string().as_bytes()),
        ));
        let n = report.records.len().max(1) as f64;
        a.speedup_pct = report
            .records
            .iter()
            .map(|r| r.achieved_speedup_pct)
            .sum::<f64>()
            / n;
        if report.records.len() != RELEASES as usize {
            a.errors.push(format!(
                "the fleet shipped {} releases, not {RELEASES}",
                report.records.len()
            ));
        }
        let releases = match self.oracle_arm(stage, true) {
            Ok(r) => r,
            Err(e) => {
                a.errors.push(format!("oracle-arm replica: {e}"));
                return a;
            }
        };
        let mut shipped = Vec::new();
        for (rel, rec) in releases.iter().zip(&report.records) {
            if rel.speedup_pct != rec.oracle_speedup_pct {
                a.errors.push(format!(
                    "release {}: staged oracle arm gains {}%, the fleet reports {}%",
                    rec.release, rel.speedup_pct, rec.oracle_speedup_pct
                ));
            }
            a.errors.extend(rel.errors.iter().cloned());
            a.text_kib += text_kib(&rel.po);
            a.blocks += rel.blocks;
            shipped.extend_from_slice(&digest(&rel.po.image).to_le_bytes());
        }
        // The bootstrap release relinks against its own fresh
        // collection, so production and oracle must agree there.
        if let Some(first) = report.records.first() {
            if first.achieved_speedup_pct != first.oracle_speedup_pct {
                a.errors
                    .push("bootstrap release: production and oracle arms disagree".into());
            }
        }
        a.digests
            .push(("oracle_po_images".into(), digest(&shipped)));
        a
    }

    fn traced_op(&mut self, stage: &Stage, jobs: usize) -> Result<LayerRow, String> {
        let (tr, op) = (stage.tr, stage.tr.op());
        let opts = Self::options(jobs);
        let report = tr.span("op", || {
            tr.span("fleet.run", || run_fleet(&self.spec, SCALE, &opts))
        })?;
        let releases = tr.span("staged", || {
            let releases = self.oracle_arm(stage, false)?;
            // The skew audit's building block, on one release pair: the
            // first release's collection translated into the second
            // binary's address space, as reference for the fresh one.
            if let [r0, r1, ..] = releases.as_slice() {
                let old = AddressMapper::from_binary(&r0.pm);
                let (stale, _) = translate_profile(&r0.profiles[0], &old, &r1.pm);
                tr.span("doctor.audit", || {
                    audit_profile_with_reference(
                        &r1.pm,
                        &r1.profiles[0],
                        Some(&stale),
                        &WpaOptions::default(),
                        None,
                    )
                });
            }
            Ok::<_, String>(releases)
        })?;

        let mut row = LayerRow::new();
        let run_s = tr.total(op, "fleet.run");
        row.insert("trace.traced_wall_s", run_s);
        row.insert(
            "synth.blocks",
            releases.iter().map(|r| r.blocks as f64).sum(),
        );
        row.insert(
            "wpa.layout_self_s",
            tr.total(op, "wpa.run") - tr.total(op, "wpa.mapper") - tr.total(op, "wpa.dcfg"),
        );
        let decided = |d: &str| report.records.iter().filter(|r| r.decision == d).count() as f64;
        row.insert("fleet.releases", report.records.len() as f64);
        row.insert("fleet.relinks", decided("relink") + decided("bootstrap"));
        row.insert("fleet.reuses", decided("reuse"));
        let (hits, lookups) = report
            .records
            .iter()
            .fold((0, 0), |a, r| (a.0 + r.cache_hits, a.1 + r.cache_lookups));
        // The fleet's production arm is the only user of its caches.
        let hit_ratio = hits as f64 / lookups.max(1) as f64;
        row.insert("fleet.cache_hit_ratio", hit_ratio);
        row.insert("buildsys.obj_lookups", lookups as f64);
        row.insert("buildsys.obj_hit_ratio", hit_ratio);
        row.insert(
            "fleet.s_per_release",
            run_s / report.records.len().max(1) as f64,
        );
        Ok(row)
    }
}
