//! # The fleet loop: a continuous profile lifecycle across releases
//!
//! The paper's production story (§2, §5) is not one relink. Thousands
//! of machines serve traffic; LBR samples stream in continuously; and
//! every release is relinked against profiles collected on the
//! *previous* binary. This crate makes that loop a deterministic,
//! measurable simulation:
//!
//! 1. **Evolve** — release *k* is a seeded mutation of release *k−1*
//!    ([`propeller_synth::evolve`]): functions added/deleted, blocks
//!    resized, branch behavior drifting at a tunable rate;
//! 2. **Collect** — machines with unequal traffic shares each run the
//!    workload on release *k*'s metadata binary under their own seed,
//!    fanned out over the worker pool codegen uses
//!    (`Executor::execute_indexed`; profiles come back in machine
//!    order);
//! 3. **Merge** — per-machine profiles (current and up to
//!    [`FleetOptions::history_window`] past releases, translated across
//!    binaries) merge weighted by sample volume with age decay
//!    ([`propeller_profile::merge_profiles`]);
//! 4. **Decide** — the stale-profile skew score against the fresh
//!    distribution drives relink-vs-reuse
//!    ([`propeller_doctor::RelinkPolicy`]);
//! 5. **Relink** — the chosen Phase 3/4 runs against a *shared* action
//!    cache, so only drifted-hot objects regenerate release over
//!    release. The oracle arm (the same release relinked on its own
//!    fresh collection) builds on a [`BuildCaches::snapshot`] of that
//!    cache taken after production's Phase 2: every labels object is a
//!    hit, and nothing the oracle looks up or inserts reaches
//!    production's caches or their hit-rate accounting;
//! 6. **Ledger** — each release records achieved speedup vs an oracle
//!    fresh-profile relink, the skew, the decision, and the per-release
//!    cache hit rate: the speedup-vs-staleness curve the paper implies
//!    but never plots. Both arms hold the same program, seed,
//!    microarchitecture and budget, so the baseline (production's `PM`
//!    layout) is run once, by production's `evaluate`, and the oracle
//!    arm measures only its optimized binary against those counters.
//!
//! Steps 3 (past the fresh merge) to 6 are two lanes that share only
//! the fresh merge, the program and the entry points: *production* —
//! translate, stale merge, skew, decide, Phase 3/4, provenance,
//! `evaluate` — and *oracle* — Phases 1–4 on the snapshot, then
//! `evaluate_optimized`. With one worker (`two_lanes`) production runs
//! to completion, then the oracle, on the calling thread; with two or
//! more the oracle runs on a thread of its own beside production. The
//! fault injector, the cache accounting and the provenance document
//! live on production's lane only, which is always the calling thread.
//!
//! Everything is a pure function of `(spec, scale, options)`:
//! [`FleetReport::to_json_string`] is bit-identical across runs and
//! worker counts.

mod translate;

pub use translate::{translate_profile, TranslationStats};
use translate::{LayoutIndex, Translator};

use propeller::{
    splitmix64, BuildCaches, CounterSet, DegradationLedger, FaultPlan, PipelineError, Propeller,
    PropellerOptions,
};
use propeller_buildsys::{panic_message, Executor};
use propeller_doctor::{diff_docs, layout_skew, ProvenanceDoc, RelinkDecision, RelinkPolicy};
use propeller_profile::{
    merge_profiles_logged, AggregatedProfile, HardwareProfile, MergeOptions, MergeProvenance,
    ProfileSource,
};
use propeller_sim::{collect_profile, ProgramImage, SimOptions, Workload};
use propeller_synth::{evolve, generate, BenchmarkSpec, DriftParams, GenParams};
use propeller_telemetry::json::{arr, obj};
use propeller_telemetry::{JsonValue, TimeSeries};
use propeller_wpa::AddressMapper;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Fleet-loop configuration.
#[derive(Clone, PartialEq, Debug)]
pub struct FleetOptions {
    /// Releases to simulate (release 0 bootstraps on a fresh profile).
    pub releases: u32,
    /// Machines collecting samples each release, with Zipf-distributed
    /// traffic shares (machine `m` serves a `1/(m+1)` share).
    pub machines: usize,
    /// Release-over-release churn intensity in `[0, 1]`; `0.0` is the
    /// control arm (every release is the identical program).
    pub drift: f64,
    /// Master seed: generation, workloads, machine collection and
    /// mutation all derive from it.
    pub seed: u64,
    /// Relink-vs-reuse threshold on the skew score.
    pub policy: RelinkPolicy,
    /// How many past releases' profiles stay in the merge window.
    pub history_window: u32,
    /// Total profiling block budget per release, split across machines
    /// by traffic share.
    pub profile_budget: u64,
    /// Block budget for the speedup evaluation of each release.
    pub eval_budget: u64,
    /// Worker threads (bit-identical output at every value). It is the
    /// `jobs` of both arms' pipelines and the width of the pool the
    /// machines' collections fan out on; from 2 up, a release's oracle
    /// arm also runs beside its production arm instead of after it —
    /// two lanes, never more. At 1 no thread is spawned.
    pub jobs: usize,
    /// Arm layout provenance: each release collects a full decision
    /// record and its ledger row cites the top placement divergences
    /// from the previous release. Off by default; arming never changes
    /// any shipped layout or the default report bytes.
    pub provenance: bool,
    /// Fault plan injected into every *production* release build (the
    /// oracle arm always runs clean — it defines what a fault-free
    /// fleet would ship, so injecting there would move the yardstick).
    /// Each release's ledger row then carries the degradation its
    /// build survived. An empty plan changes nothing, bit-for-bit.
    pub faults: FaultPlan,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            releases: 6,
            machines: 4,
            drift: 0.0,
            seed: 0x5eed,
            policy: RelinkPolicy::default(),
            history_window: 3,
            profile_budget: 120_000,
            eval_budget: 400_000,
            jobs: 1,
            provenance: false,
            faults: FaultPlan::none(),
        }
    }
}

/// One release's row in the ledger.
#[derive(Clone, PartialEq, Debug)]
pub struct ReleaseRecord {
    /// Release index (0 = bootstrap).
    pub release: u32,
    /// Functions in this release's program.
    pub functions: usize,
    /// Skew of the merged stale profile against the fresh distribution
    /// (0 for the bootstrap release, which has no history).
    pub skew: f64,
    /// `"bootstrap"`, `"relink"` or `"reuse"`.
    pub decision: String,
    /// Speedup the shipped binary achieved over baseline, in percent.
    pub achieved_speedup_pct: f64,
    /// Speedup an oracle fresh-profile relink achieves, in percent.
    pub oracle_speedup_pct: f64,
    /// `oracle - achieved`: what staleness cost this release.
    pub gap_pct: f64,
    /// Hot functions in the layout actually shipped.
    pub hot_functions: usize,
    /// Object-cache lookups this release's build performed.
    pub cache_lookups: u64,
    /// Of those, hits against artifacts from earlier releases or
    /// phases.
    pub cache_hits: u64,
    /// `cache_hits / cache_lookups` for this release alone.
    pub cache_hit_rate: f64,
    /// LBR records entering cross-binary translation for the merge.
    pub translated_records: u64,
    /// Records dropped in translation (deleted functions, shrunk
    /// blocks, unmapped addresses).
    pub dropped_records: u64,
    /// Top placement divergences from the previous release (first
    /// diverging merge decision, then the biggest moved symbols).
    /// Collected only under [`FleetOptions::provenance`]; empty rows
    /// serialize without the member, keeping unarmed ledgers
    /// byte-identical to pre-provenance reports.
    pub divergences: Vec<String>,
    /// What this release's production build gave up surviving injected
    /// faults. Clean ledgers serialize without the member, so
    /// zero-fault fleet reports stay byte-identical to pre-fault ones.
    pub degradation: DegradationLedger,
}

impl ReleaseRecord {
    fn to_json(&self) -> JsonValue {
        obj([
            ("release", self.release.into()),
            ("functions", self.functions.into()),
            ("skew", self.skew.into()),
            ("decision", self.decision.as_str().into()),
            ("achieved_speedup_pct", self.achieved_speedup_pct.into()),
            ("oracle_speedup_pct", self.oracle_speedup_pct.into()),
            ("gap_pct", self.gap_pct.into()),
            ("hot_functions", self.hot_functions.into()),
            ("cache_lookups", self.cache_lookups.into()),
            ("cache_hits", self.cache_hits.into()),
            ("cache_hit_rate", self.cache_hit_rate.into()),
            ("translated_records", self.translated_records.into()),
            ("dropped_records", self.dropped_records.into()),
        ])
        .with(
            "divergences",
            (!self.divergences.is_empty()).then(|| arr(&self.divergences, |d| d.as_str().into())),
        )
        .with("degradation", self.degradation.to_json())
    }
}

/// The full ledger: one record per release plus the run's parameters.
#[derive(Clone, PartialEq, Debug)]
pub struct FleetReport {
    /// Benchmark name.
    pub benchmark: String,
    /// Program scale factor.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Churn intensity.
    pub drift: f64,
    /// Machines per release.
    pub machines: usize,
    /// Skew threshold the policy gated at.
    pub skew_threshold: f64,
    /// History window in releases.
    pub history_window: u32,
    /// Per-release records, in release order.
    pub records: Vec<ReleaseRecord>,
}

impl FleetReport {
    /// The report as a JSON value with a fixed member order.
    pub fn to_json(&self) -> JsonValue {
        obj([
            ("benchmark", self.benchmark.as_str().into()),
            ("scale", self.scale.into()),
            ("seed", self.seed.into()),
            ("drift", self.drift.into()),
            ("machines", self.machines.into()),
            ("skew_threshold", self.skew_threshold.into()),
            ("history_window", self.history_window.into()),
            ("records", arr(&self.records, ReleaseRecord::to_json)),
        ])
    }

    /// The pretty-printed JSON document (deterministic bytes).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// The speedup-vs-staleness curve as CSV, one row per release.
    pub fn curve_csv(&self) -> String {
        let mut out = String::from(
            "release,skew,decision,achieved_speedup_pct,oracle_speedup_pct,gap_pct,cache_hit_rate\n",
        );
        for r in &self.records {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{}",
                r.release,
                r.skew,
                r.decision,
                r.achieved_speedup_pct,
                r.oracle_speedup_pct,
                r.gap_pct,
                r.cache_hit_rate
            );
        }
        out
    }

    /// Whether the loop reached a steady state: every record from
    /// release `window + 1` on is identical (ignoring the release
    /// index).
    ///
    /// A zero-drift run must satisfy this — the same program, the same
    /// machine seeds and the same (fully warmed) history window can
    /// only produce the same row. Early releases are excluded because
    /// the window is still filling: release 1 merges one past release,
    /// release 2 merges two, and so on until `window` are in view.
    /// Release `window` itself merges with the steady age multiset for
    /// the first time, so its relink still pays cache misses for the
    /// newly-converged layout's artifacts; only the release after it
    /// repeats the whole row, cache accounting included.
    pub fn steady_after_warmup(&self, window: u32) -> bool {
        let from = window as usize + 1;
        let mut rows = self.records.iter().skip(from).map(|r| {
            let mut clone = r.clone();
            clone.release = 0;
            clone
        });
        let Some(first) = rows.next() else {
            return true;
        };
        rows.all(|r| r == first)
    }

    /// The release ledger as a release-indexed [`TimeSeries`]: one
    /// modeled tick per release at `t = release * 1_000_000` (a
    /// "release microsecond" axis, so the same tooling that reads
    /// sim-microsecond serve timelines reads fleet timelines). Gauges
    /// for skew, gap, cache hit rate and achieved speedup; a
    /// cumulative counter for translation drops. Derived purely from
    /// the ledger, so it is exactly as deterministic as the report
    /// itself.
    pub fn timeseries(&self) -> TimeSeries {
        let mut ts = TimeSeries::new();
        for r in &self.records {
            let t = u64::from(r.release) * 1_000_000;
            ts.gauge("fleet.skew", t, r.skew);
            ts.gauge("fleet.gap_pct", t, r.gap_pct);
            ts.gauge("fleet.cache_hit_rate", t, r.cache_hit_rate);
            ts.gauge("fleet.achieved_speedup_pct", t, r.achieved_speedup_pct);
            ts.counter_add("fleet.dropped_records", t, r.dropped_records as f64);
        }
        ts
    }

    /// Mean `gap_pct` over the post-bootstrap releases (0.0 when there
    /// are none) — the scalar the drift-monotonicity experiment plots.
    pub fn mean_gap_pct(&self) -> f64 {
        let gaps: Vec<f64> = self.records.iter().skip(1).map(|r| r.gap_pct).collect();
        if gaps.is_empty() {
            0.0
        } else {
            gaps.iter().sum::<f64>() / gaps.len() as f64
        }
    }
}

/// Splits `total` into Zipf-weighted machine budgets (`1/(m+1)`)
/// summing to exactly `total`, largest-remainder rounded.
fn machine_budgets(total: u64, machines: usize) -> Vec<u64> {
    let machines = machines.max(1);
    let weights: Vec<f64> = (0..machines).map(|m| 1.0 / (m as f64 + 1.0)).collect();
    let wsum: f64 = weights.iter().sum();
    let mut budgets: Vec<u64> = weights
        .iter()
        .map(|w| ((total as f64) * w / wsum).floor() as u64)
        .collect();
    let mut leftover = total - budgets.iter().sum::<u64>();
    for b in budgets.iter_mut() {
        if leftover == 0 {
            break;
        }
        *b += 1;
        leftover -= 1;
    }
    budgets
}

/// One past release retained in the merge window.
struct HistoryEntry {
    /// Address map of the metadata binary the profiles were sampled on.
    mapper: AddressMapper,
    machine_profiles: Vec<HardwareProfile>,
    /// Release index the profiles were collected on.
    release: u32,
}

/// Merges `sources` under the default age decay (a profile's influence
/// halves per release of staleness). Armed runs also get the log of
/// which sources funded the merge at what decayed weight.
fn merge(sources: &[ProfileSource], armed: bool) -> (AggregatedProfile, Option<MergeProvenance>) {
    let mut log = MergeProvenance::default();
    let agg = merge_profiles_logged(sources, &MergeOptions::default(), armed.then_some(&mut log));
    (agg, armed.then_some(log))
}

/// Runs a release's two arms and returns what each made, production's
/// first. With one worker they run on the calling thread, production to
/// completion before the oracle starts; with more the oracle runs on a
/// thread of its own beside production — two lanes, whatever `jobs`
/// says beyond that. Production's error wins when both fail, and a
/// panic on either lane comes back as an error naming lane and release.
fn two_lanes<P, O: Send>(
    jobs: usize,
    release: u32,
    production: impl FnOnce() -> Result<P, String>,
    oracle: impl FnOnce() -> Result<O, String> + Send,
) -> Result<(P, O), String> {
    let panicked = |lane: &str, payload: Box<dyn std::any::Any + Send>| {
        let message = panic_message(&*payload);
        format!("{lane} lane of release {release} panicked: {message}")
    };
    let production = || {
        catch_unwind(AssertUnwindSafe(production))
            .unwrap_or_else(|p| Err(panicked("production", p)))
    };
    let oracle =
        || catch_unwind(AssertUnwindSafe(oracle)).unwrap_or_else(|p| Err(panicked("oracle", p)));
    if jobs < 2 {
        let shipped = production()?;
        return Ok((shipped, oracle()?));
    }
    let (shipped, ideal) = std::thread::scope(|s| {
        let ideal = s.spawn(oracle);
        (
            production(),
            ideal.join().expect("a lane catches its own panic"),
        )
    });
    Ok((shipped?, ideal?))
}

/// Runs the fleet loop.
///
/// # Errors
///
/// Propagates the first pipeline or image-construction failure as a
/// rendered string (the loop has no partial-result mode: a failed
/// release invalidates the curve).
pub fn run_fleet(
    spec: &BenchmarkSpec,
    scale: f64,
    opts: &FleetOptions,
) -> Result<FleetReport, String> {
    let prod_caches = BuildCaches::new();
    // The oracle arm always runs this clean configuration: no fault
    // plan, and no decision record, which nothing would read.
    let oracle_popts = PropellerOptions {
        seed: opts.seed,
        jobs: opts.jobs,
        ..PropellerOptions::default()
    };
    let popts = PropellerOptions {
        faults: opts.faults.clone(),
        provenance: opts.provenance,
        ..oracle_popts.clone()
    };
    let budgets = machine_budgets(opts.profile_budget, opts.machines);
    let pool = Executor::new(popts.machine).with_jobs(opts.jobs);

    let mut bench = generate(
        spec,
        &GenParams {
            scale,
            ..GenParams::for_spec(spec)
        },
    );
    let mut history: Vec<HistoryEntry> = Vec::new();
    let mut records = Vec::new();
    // Previous release's provenance document, for cross-release
    // divergence citations (armed runs only).
    let mut prev_doc: Option<ProvenanceDoc> = None;

    for release in 0..opts.releases {
        if release > 0 {
            bench = evolve(
                &bench,
                &DriftParams {
                    drift: opts.drift,
                    seed: opts.seed,
                    release,
                },
            );
        }

        // Both arms share this release's program; it moves back into
        // `bench`, for the next `evolve`, once they are done with it.
        let program = Arc::new(bench.program);

        // Production build of this release, sharing caches with every
        // earlier release: phases 1-2 give the metadata binary the
        // fleet samples against.
        let cache_before = prod_caches.object_stats();
        let mut prod = Propeller::with_caches(
            program.clone(),
            bench.entries.clone(),
            popts.clone(),
            prod_caches.clone(),
        );
        prod.phase1_compile().map_err(|e| e.to_string())?;
        prod.phase2_build_metadata().map_err(|e| e.to_string())?;
        // What the oracle arm builds on: every labels object of this
        // release, and no way to write production's caches.
        let snapshot = prod_caches.snapshot();
        let pm = prod.pm_binary().ok_or("phase 2 produced no binary")?;
        let mapper = AddressMapper::from_binary(pm);

        // Per-machine collection on this release's binary: unequal
        // traffic shares, one profile each, in machine order whichever
        // worker ran it. A machine's seed is fixed for the whole run —
        // it keeps its workload identity across releases, so the
        // zero-drift control arm re-collects byte-identical profiles
        // every release.
        let image = ProgramImage::build(&program, &pm.layout).map_err(|e| e.to_string())?;
        let (machine_profiles, _) = pool
            .execute_indexed("machine collection", &budgets, |_, m, &budget| {
                let mut w = Workload::new(bench.entries.clone(), budget);
                w.seed = splitmix64(opts.seed ^ splitmix64(0xF1EE7 + m as u64));
                collect_profile(&image, &w, &popts.uarch, popts.sampling).0
            })
            .map_err(|e| e.to_string())?;
        let fresh_bytes: u64 = machine_profiles.iter().map(|p| p.raw_size_bytes()).sum();
        let fresh_sources: Vec<ProfileSource> = machine_profiles
            .iter()
            .map(|p| ProfileSource {
                agg: AggregatedProfile::from_profile(p),
                weight: p.samples.len() as u64,
                age: 0,
            })
            .collect();
        // Only the bootstrap release ships the fresh merge, so only it
        // logs the funding.
        let (fresh_agg, fresh_log) = merge(&fresh_sources, opts.provenance && release == 0);

        // Production's lane: ship what the policy chooses and measure
        // it. Everything a ledger byte or the fault injector's firing
        // order depends on happens here, on the calling thread.
        let production = || -> Result<(ReleaseRecord, CounterSet), String> {
            // The stale merge: every windowed past release's machines,
            // translated into this binary's address space, decayed by
            // age.
            let pm = prod.pm_binary().ok_or("phase 2 produced no binary")?;
            let mut stale_sources: Vec<ProfileSource> = Vec::new();
            let mut stale_bytes = 0u64;
            let mut translated_records = 0u64;
            let mut dropped_records = 0u64;
            let pm_index = LayoutIndex::new(pm);
            for entry in &history {
                let mut translator = Translator::new(&entry.mapper, &pm_index);
                let age = release - entry.release;
                for p in &entry.machine_profiles {
                    let (translated, tstats) = translator.translate(p);
                    translated_records += tstats.records_in;
                    dropped_records += tstats.records_dropped;
                    stale_bytes += translated.raw_size_bytes();
                    stale_sources.push(ProfileSource {
                        agg: AggregatedProfile::from_profile(&translated),
                        weight: translated.samples.len() as u64,
                        age,
                    });
                }
            }

            // The merge a relink would ship is made once per release
            // and serves both the skew decision and Phase 3.
            let stale_agg;
            let (skew, decision_str, decision, ship) = if release == 0 {
                // Bootstrap: no history exists, the first release
                // relinks against its own fresh collection.
                let ship = (&fresh_agg, fresh_bytes, fresh_log);
                (0.0, "bootstrap".to_string(), RelinkDecision::Relink, ship)
            } else {
                let log;
                (stale_agg, log) = merge(&stale_sources, opts.provenance);
                let skew = layout_skew(pm, &stale_agg, pm, &fresh_agg);
                let decision = opts.policy.decide(skew);
                let ship = (&stale_agg, stale_bytes, log);
                (skew, decision.as_str().to_string(), decision, ship)
            };

            // Ship the release the policy chose. Armed runs cite which
            // sources funded the shipped merge at what decayed weight.
            let merge_prov = match decision {
                RelinkDecision::Relink => {
                    let (agg, bytes, log) = ship;
                    prod.phase3_analyze_merged(agg, bytes)
                        .map_err(|e| e.to_string())?;
                    log
                }
                RelinkDecision::Reuse => {
                    prod.phase3_reuse_layout().map_err(|e| e.to_string())?;
                    None
                }
            };
            prod.phase4_relink().map_err(|e| e.to_string())?;

            // Armed: assemble this release's provenance document and
            // cite the top placement divergences from the previous
            // release.
            let mut divergences: Vec<String> = Vec::new();
            if opts.provenance {
                let doc = ProvenanceDoc::collect(spec.name, scale, opts.seed, &prod, merge_prov);
                if let Some(prev) = &prev_doc {
                    let d = diff_docs(prev, &doc);
                    if let Some(div) = &d.first_divergence {
                        divergences.push(div.clone());
                    }
                    for m in d.moved.iter().take(3) {
                        divergences.push(format!(
                            "{} moved: order {} -> {}, addr {:#x} -> {:#x}",
                            m.symbol, m.order_a, m.order_b, m.addr_a, m.addr_b
                        ));
                    }
                }
                prev_doc = Some(doc);
            }
            let cache_delta = prod_caches.object_stats().since(&cache_before);
            let eval = prod.evaluate(opts.eval_budget).map_err(|e| e.to_string())?;
            // The oracle's two columns are filled in once both lanes
            // are back.
            let record = ReleaseRecord {
                release,
                functions: program.num_functions(),
                skew,
                decision: decision_str,
                achieved_speedup_pct: eval.speedup_pct(),
                oracle_speedup_pct: 0.0,
                gap_pct: 0.0,
                hot_functions: prod.wpa_output().map_or(0, |w| w.stats.hot_functions),
                cache_lookups: cache_delta.lookups,
                cache_hits: cache_delta.hits,
                cache_hit_rate: cache_delta.hit_rate(),
                translated_records,
                dropped_records,
                divergences,
                degradation: prod.degradation().clone(),
            };
            Ok((record, eval.baseline))
        };

        // The oracle's lane: the same release relinked against its own
        // fresh collection — what a zero-staleness fleet would ship —
        // on the snapshot, so it shares nothing mutable with
        // production. Both arms hold the same program, seed,
        // microarchitecture and budget: the oracle measures only its
        // optimized binary, against the baseline production measures.
        let oracle = || {
            let mut oracle = Propeller::with_caches(
                program.clone(),
                bench.entries.clone(),
                oracle_popts.clone(),
                snapshot,
            );
            let mut relink = || -> Result<CounterSet, PipelineError> {
                oracle.phase1_compile()?;
                oracle.phase2_build_metadata()?;
                oracle.phase3_analyze_merged(&fresh_agg, fresh_bytes)?;
                oracle.phase4_relink()?;
                let sim = SimOptions::default();
                Ok(oracle
                    .evaluate_optimized(opts.eval_budget, &sim, None)?
                    .counters)
            };
            relink().map_err(|e| e.to_string())
        };

        let ((mut record, baseline), oracle_counters) =
            two_lanes(opts.jobs, release, production, oracle)?;
        record.oracle_speedup_pct = oracle_counters.speedup_pct_over(&baseline);
        record.gap_pct = record.oracle_speedup_pct - record.achieved_speedup_pct;
        records.push(record);

        history.push(HistoryEntry {
            mapper,
            machine_profiles,
            release,
        });
        if history.len() > opts.history_window as usize {
            let excess = history.len() - opts.history_window as usize;
            history.drain(..excess);
        }
        // The oracle's pipeline went with its lane; with production's
        // gone too the program has one owner again and moves, not
        // copies, into the next release.
        drop(prod);
        bench.program = Arc::try_unwrap(program)
            .map_err(|_| format!("a pipeline outlived release {release}"))?;
    }

    Ok(FleetReport {
        benchmark: spec.name.to_string(),
        scale,
        seed: opts.seed,
        drift: opts.drift,
        machines: opts.machines,
        skew_threshold: opts.policy.max_skew,
        history_window: opts.history_window,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_worker_runs_production_to_completion_before_the_oracle() {
        let log = std::sync::Mutex::new(Vec::new());
        let say = |what| log.lock().unwrap().push(what);
        let got = two_lanes(
            1,
            0,
            || {
                say("production starts");
                say("production ends");
                Ok('p')
            },
            || {
                say("oracle");
                Ok('o')
            },
        );
        assert_eq!(got, Ok(('p', 'o')));
        let log = log.into_inner().unwrap();
        assert_eq!(log, ["production starts", "production ends", "oracle"]);
    }

    #[test]
    fn two_workers_run_both_lanes_at_once_and_answer_in_lane_order() {
        // Each lane waits for the other to have started: run one after
        // the other they would never meet.
        let both_running = std::sync::Barrier::new(2);
        for jobs in [2, 8] {
            let got = two_lanes(
                jobs,
                0,
                || {
                    both_running.wait();
                    Ok(std::thread::current().id())
                },
                || {
                    both_running.wait();
                    Ok(std::thread::current().id())
                },
            );
            let (production, oracle) = got.expect("both lanes finish");
            assert_eq!(production, std::thread::current().id());
            assert_ne!(oracle, production);
        }
    }

    #[test]
    fn errors_and_panics_are_the_same_result_at_every_worker_count() {
        let fail = |lane: &str| Err::<(), _>(format!("{lane} failed"));
        for jobs in [1, 2] {
            let both = two_lanes(jobs, 3, || fail("production"), || fail("oracle"));
            assert_eq!(both, Err("production failed".to_string()), "jobs {jobs}");
            let oracle = two_lanes(jobs, 3, || Ok(()), || fail("oracle"));
            assert_eq!(oracle, Err("oracle failed".to_string()), "jobs {jobs}");
            let panicked = two_lanes(
                jobs,
                3,
                || Ok(()),
                || -> Result<(), String> { panic!("no layout for {}", "main") },
            );
            assert_eq!(
                panicked,
                Err("oracle lane of release 3 panicked: no layout for main".to_string()),
                "jobs {jobs}"
            );
            // A panic is production's error like any other: it wins.
            let panicked = two_lanes(
                jobs,
                3,
                || -> Result<(), String> { panic!("boom") },
                || fail("oracle"),
            );
            assert_eq!(
                panicked,
                Err("production lane of release 3 panicked: boom".to_string()),
                "jobs {jobs}"
            );
        }
    }

    #[test]
    fn machine_budgets_conserve_and_skew_zipf() {
        let b = machine_budgets(100_000, 4);
        assert_eq!(b.iter().sum::<u64>(), 100_000);
        assert!(b[0] > b[1] && b[1] > b[2] && b[2] > b[3]);
        assert_eq!(machine_budgets(7, 1), vec![7]);
        assert_eq!(machine_budgets(0, 3).iter().sum::<u64>(), 0);
    }

    #[test]
    fn report_json_and_csv_round_the_same_records() {
        let report = FleetReport {
            benchmark: "clang".into(),
            scale: 0.004,
            seed: 77,
            drift: 0.0,
            machines: 2,
            skew_threshold: 0.4,
            history_window: 3,
            records: vec![ReleaseRecord {
                release: 0,
                functions: 100,
                skew: 0.0,
                decision: "bootstrap".into(),
                achieved_speedup_pct: 5.0,
                oracle_speedup_pct: 5.0,
                gap_pct: 0.0,
                hot_functions: 12,
                cache_lookups: 40,
                cache_hits: 10,
                cache_hit_rate: 0.25,
                translated_records: 0,
                dropped_records: 0,
                divergences: Vec::new(),
                degradation: DegradationLedger::default(),
            }],
        };
        let json = report.to_json_string();
        assert!(json.contains("\"decision\": \"bootstrap\""));
        assert!(json.contains("\"skew_threshold\": 0.4"));
        let csv = report.curve_csv();
        assert!(csv.starts_with("release,skew,decision"));
        assert!(csv.contains("0,0,bootstrap,5,5,0,0.25"));
    }

    #[test]
    fn steady_check_ignores_release_index_and_warmup() {
        let row = |release: u32, skew: f64| ReleaseRecord {
            release,
            functions: 10,
            skew,
            decision: "relink".into(),
            achieved_speedup_pct: 1.0,
            oracle_speedup_pct: 1.0,
            gap_pct: 0.0,
            hot_functions: 2,
            cache_lookups: 5,
            cache_hits: 5,
            cache_hit_rate: 1.0,
            translated_records: 9,
            dropped_records: 0,
            divergences: Vec::new(),
            degradation: DegradationLedger::default(),
        };
        let mut report = FleetReport {
            benchmark: "x".into(),
            scale: 1.0,
            seed: 1,
            drift: 0.0,
            machines: 1,
            skew_threshold: 0.4,
            history_window: 2,
            records: vec![
                row(0, 0.9),
                row(1, 0.5),
                row(2, 0.1),
                row(3, 0.1),
                row(4, 0.1),
            ],
        };
        assert!(report.steady_after_warmup(2));
        assert!(!report.steady_after_warmup(0));
        report.records[4].skew = 0.2;
        assert!(!report.steady_after_warmup(2));
        // An all-warmup report is vacuously steady.
        assert!(report.steady_after_warmup(10));
    }

    #[test]
    fn timeseries_indexes_by_release_and_accumulates_drops() {
        let row = |release: u32, skew: f64, dropped: u64| ReleaseRecord {
            release,
            functions: 10,
            skew,
            decision: "relink".into(),
            achieved_speedup_pct: 2.0,
            oracle_speedup_pct: 3.0,
            gap_pct: 1.0,
            hot_functions: 2,
            cache_lookups: 5,
            cache_hits: 5,
            cache_hit_rate: 1.0,
            translated_records: 9,
            dropped_records: dropped,
            divergences: Vec::new(),
            degradation: DegradationLedger::default(),
        };
        let report = FleetReport {
            benchmark: "x".into(),
            scale: 1.0,
            seed: 1,
            drift: 0.1,
            machines: 1,
            skew_threshold: 0.4,
            history_window: 2,
            records: vec![row(0, 0.0, 0), row(1, 0.5, 3), row(2, 0.2, 4)],
        };
        let ts = report.timeseries();
        let skew = ts.get("fleet.skew").expect("skew series").ordered();
        assert_eq!(skew.len(), 3);
        assert_eq!(skew[2].t_us, 2_000_000);
        assert_eq!(skew[2].value, 0.2);
        // Drops are a cumulative counter: 0, 3, 7.
        let drops = ts
            .get("fleet.dropped_records")
            .expect("drops series")
            .ordered();
        assert_eq!(
            drops.iter().map(|p| p.value as u64).collect::<Vec<_>>(),
            [0, 3, 7]
        );
    }
}
