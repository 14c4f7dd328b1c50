//! The parallel-determinism gate: `--jobs` must never change a bit.
//!
//! The executor, the Phase 2/4 codegen fan-out, and the Ext-TSP gain
//! evaluation all shard real work across threads, but every reduction
//! happens in submission order — so the RunReport JSON (including the
//! embedded telemetry metrics snapshot), the degradation ledger, the
//! final binary image, and the symbol order must be bit-identical for
//! any job count, any seed, and any fault plan. These tests are the
//! in-tree version of the CI `cmp run_report.json` gate.
//!
//! The same sweep carries observer purity as one property: whichever
//! subset of the pipeline's collectors a case arms, every deterministic
//! artifact equals the all-disarmed `--jobs 1` run's.

use propeller::{FaultPlan, PipelineError, Propeller, PropellerOptions};
use propeller_buildsys::{BuildError, Executor, MachineConfig};
use propeller_doctor::{ProvenanceDoc, RunReport};
use propeller_integration_tests::small_benchmark;
use propeller_telemetry::Telemetry;
use propeller_wpa::cluster_map_to_text;
use proptest::prelude::*;

/// Which of the pipeline's pure observers a run arms, one bit each.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
struct Observers(u8);

impl Observers {
    const NONE: Observers = Observers(0);
    /// A live telemetry handle (spans, counters, the snapshot embedded
    /// in `run_report.json`) — what every `--jobs` gate below arms.
    const TELEMETRY: Observers = Observers(1);
    const PROVENANCE: Observers = Observers(2);
    const ATTRIBUTION: Observers = Observers(4);
    const HEATMAP: Observers = Observers(8);

    fn arms(self, one: Observers) -> bool {
        self.0 & one.0 != 0
    }
}

/// Every artifact the acceptance gate compares, captured from one full
/// pipeline run at the given job count.
struct Artifacts {
    /// `run_report.json` contents, with the telemetry snapshot embedded
    /// when telemetry was live. Armed collectors add `attr.*` counters
    /// to the snapshot by design, so this one is only ever compared
    /// between runs that armed the same observers.
    report_json: String,
    /// `run_report.json` collected without the metrics snapshot.
    bare_report_json: String,
    /// The rendered degradation ledger (empty line-set when clean).
    ledger: String,
    /// The final optimized binary's loaded image bytes.
    image: Vec<u8>,
    /// `cc_prof.txt` — the cluster directives handed to Phase 4.
    cc_prof: String,
    /// `ld_prof.txt` — the symbol order handed to the relink.
    symbol_order: String,
}

fn artifacts_at(
    bench: &str,
    scale: f64,
    seed: u64,
    plan: &FaultPlan,
    jobs: usize,
    observers: Observers,
) -> Artifacts {
    let gen = small_benchmark(bench, scale, seed);
    let opts = PropellerOptions {
        jobs,
        faults: plan.clone(),
        seed,
        provenance: observers.arms(Observers::PROVENANCE),
        attribution: observers.arms(Observers::ATTRIBUTION),
        heatmap: observers.arms(Observers::HEATMAP).then_some((16, 16)),
        ..PropellerOptions::default()
    };
    let mut p = Propeller::new(gen.program, gen.entries, opts);
    if observers.arms(Observers::TELEMETRY) {
        p.set_telemetry(Telemetry::enabled());
    }
    let report = p.run_all().expect("pipeline completes at every job count");
    let eval = p.evaluate(120_000).expect("phases ran");
    let audit = propeller_doctor::audit_pipeline(&p).expect("audit runs");
    let metrics = p.telemetry().is_enabled().then(|| p.telemetry().drain().metrics);
    let run_report = |metrics| {
        let (eval, audit) = (Some(&eval), Some(&audit));
        RunReport::collect(bench, scale, seed, &p, &report, eval, audit, metrics).to_json_string()
    };
    // An armed collector must really have collected — a knob that arms
    // nothing would pass every identity check below.
    let wpa = p.wpa_output().expect("phase 3 ran");
    assert_eq!(wpa.rich.is_some(), observers.arms(Observers::PROVENANCE));
    assert_eq!(p.profile_attribution().is_some(), observers.arms(Observers::ATTRIBUTION));
    assert_eq!(p.profile_heatmap().is_some(), observers.arms(Observers::HEATMAP));
    if wpa.rich.is_some() {
        let doc = ProvenanceDoc::collect(bench, scale, seed, &p, None);
        doc.validate_replay().expect("the armed records replay to the emitted layout");
    }
    Artifacts {
        report_json: run_report(metrics),
        bare_report_json: run_report(None),
        ledger: p.degradation().render(),
        image: p.po_binary().expect("phase 4 ran").image.clone(),
        cc_prof: cluster_map_to_text(&wpa.cluster_map, p.program()),
        symbol_order: wpa.symbol_order.to_file_contents(),
    }
}

/// Observer purity: whatever `armed` collected on the side, the
/// artifacts a build ships and CI `cmp`s equal those of `disarmed`, the
/// run with every observer off.
fn assert_pure(disarmed: &Artifacts, armed: &Artifacts, observers: Observers, jobs: usize) {
    let what = format!("{observers:?} at --jobs {jobs} against the all-disarmed --jobs 1 run");
    assert_eq!(disarmed.image, armed.image, "PO image: {what}");
    assert_eq!(disarmed.cc_prof, armed.cc_prof, "cc_prof.txt: {what}");
    assert_eq!(disarmed.symbol_order, armed.symbol_order, "ld_prof.txt: {what}");
    assert_eq!(disarmed.ledger, armed.ledger, "degradation ledger: {what}");
    assert_eq!(disarmed.bare_report_json, armed.bare_report_json, "run_report.json: {what}");
}

/// Asserts `b` is bit-identical to the serial reference `a`, and that
/// the layout is a well-formed permutation: same symbol multiset, no
/// symbol dropped or duplicated by a parallel merge.
fn assert_identical(a: &Artifacts, b: &Artifacts, jobs: usize) {
    assert_eq!(
        a.report_json, b.report_json,
        "run_report.json differs between --jobs 1 and --jobs {jobs}"
    );
    assert_eq!(
        a.ledger, b.ledger,
        "degradation ledger differs between --jobs 1 and --jobs {jobs}"
    );
    assert_eq!(
        a.image, b.image,
        "final binary image differs between --jobs 1 and --jobs {jobs}"
    );
    assert_eq!(
        a.symbol_order, b.symbol_order,
        "symbol order differs between --jobs 1 and --jobs {jobs}"
    );
    assert_eq!(a.cc_prof, b.cc_prof, "cc_prof.txt differs between --jobs 1 and --jobs {jobs}");
    let mut serial: Vec<&str> = a.symbol_order.lines().collect();
    let mut parallel: Vec<&str> = b.symbol_order.lines().collect();
    serial.sort_unstable();
    parallel.sort_unstable();
    assert_eq!(
        serial, parallel,
        "parallel layout is not a permutation of the serial layout"
    );
    serial.dedup();
    assert_eq!(
        serial.len(),
        a.symbol_order.lines().count(),
        "layout contains duplicate symbols"
    );
}

/// The fault plans the property sweeps: clean, retry pressure, cache
/// damage, and profile damage — each exercises a different parallel
/// code path (retry accounting, cache rebuild, profile degradation).
fn fault_plans() -> Vec<FaultPlan> {
    let parse = |s: &str| FaultPlan::parse(s).expect("static plan literal parses");
    vec![
        FaultPlan::none(),
        parse("transient=0.5"),
        parse("corrupt-cache=1:2,evict-cache=0.3"),
        parse("corrupt-lbr=0.4,truncate-samples=0.3"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// benchmark × seed × fault plan × observer subset × jobs ∈ {2, 8}:
    /// every artifact bit-identical to the `--jobs 1` legacy path with
    /// the same observers armed, and every artifact but the metrics
    /// snapshot bit-identical to the `--jobs 1` run with none armed.
    #[test]
    fn any_job_count_is_bit_identical_to_serial(
        bench_idx in 0usize..2,
        seed in 0u64..10_000,
        plan_idx in 0usize..4,
        observers in 0u8..16,
    ) {
        let bench = ["clang", "557.xz"][bench_idx];
        let plan = &fault_plans()[plan_idx];
        let observers = Observers(observers);
        let disarmed = artifacts_at(bench, 0.002, seed, plan, 1, Observers::NONE);
        let serial = artifacts_at(bench, 0.002, seed, plan, 1, observers);
        assert_pure(&disarmed, &serial, observers, 1);
        for jobs in [2, 8] {
            let parallel = artifacts_at(bench, 0.002, seed, plan, jobs, observers);
            assert_identical(&serial, &parallel, jobs);
            assert_pure(&disarmed, &parallel, observers, jobs);
        }
    }
}

/// The fixed-seed version of the sweep, so a deterministic failure is
/// always in the suite even when the property picks easy seeds.
#[test]
fn clang_under_kitchen_sink_faults_is_jobs_invariant() {
    let plan = FaultPlan::parse(
        "transient=0.4,timeout=0.2,corrupt-cache=0.4,evict-cache=0.2,\
         corrupt-lbr=0.3,truncate-samples=0.3,permanent-codegen=0.5",
    )
    .expect("plan parses");
    let all = Observers(15);
    let disarmed = artifacts_at("clang", POOLED_SCALE, 0xA5_2023, &plan, 1, Observers::NONE);
    let serial = artifacts_at("clang", POOLED_SCALE, 0xA5_2023, &plan, 1, all);
    assert_pure(&disarmed, &serial, all, 1);
    for jobs in [2, 8] {
        let parallel = artifacts_at("clang", POOLED_SCALE, 0xA5_2023, &plan, jobs, all);
        assert_identical(&serial, &parallel, jobs);
        assert_pure(&disarmed, &parallel, all, jobs);
    }
}

/// The clang scale at which a cold Phase 2 batch holds the ≥ 2^17
/// instructions that pay for two pool workers (`codegen_batch` fans out
/// one worker per 2^16 instructions of cache misses), so `jobs > 1`
/// really runs the pool there.
const POOLED_SCALE: f64 = 0.006;

/// Distinct worker lanes stamped on the `codegen:*` spans of a cold
/// Phase 1–2 run, and the program's instruction count.
fn codegen_lanes(scale: f64, jobs: usize) -> (usize, usize) {
    let gen = small_benchmark("clang", scale, 0xA5_2023);
    let insts = gen.program.stats().num_insts;
    let opts = PropellerOptions {
        jobs,
        ..PropellerOptions::default()
    };
    let mut p = Propeller::new(gen.program, gen.entries, opts);
    p.set_telemetry(Telemetry::enabled());
    p.phase1_compile().expect("phase 1");
    p.phase2_build_metadata().expect("phase 2");
    let spans = p.telemetry().drain().spans;
    let mut lanes: Vec<_> = spans
        .iter()
        .filter(|s| s.name.starts_with("codegen:"))
        .map(|s| s.worker)
        .collect();
    assert!(!lanes.is_empty(), "no codegen span recorded");
    lanes.sort_unstable();
    lanes.dedup();
    (lanes.len(), insts)
}

/// The fan-out is bought by the batch, not by `--jobs`: a batch too
/// small to pay for a second thread runs inline on lane 0 whatever the
/// job count, and the scale the fixed-seed gate above uses does run the
/// pool.
#[test]
fn codegen_fans_out_only_when_the_batch_pays_for_the_threads() {
    let (lanes, insts) = codegen_lanes(0.002, 8);
    assert!(insts < 1 << 17, "{insts} instructions afford a second worker");
    assert_eq!(lanes, 1, "a {insts}-instruction batch was fanned out");

    let (lanes, insts) = codegen_lanes(POOLED_SCALE, 8);
    assert!(insts >= 1 << 17, "only {insts} instructions at {POOLED_SCALE}");
    assert!(lanes >= 2, "a {insts}-instruction batch ran on {lanes} lane(s)");
    let (lanes, _) = codegen_lanes(POOLED_SCALE, 1);
    assert_eq!(lanes, 1, "jobs = 1 is the inline path");
}

/// A worker that panics must surface as a typed [`PipelineError`] —
/// never a hang, never a poisoned-lock cascade. The pool catches the
/// panic per item, finishes the batch, and reports the lowest-index
/// failure.
#[test]
fn panicked_worker_surfaces_as_pipeline_error_not_a_hang() {
    let ex = Executor::new(MachineConfig::default()).with_jobs(4);
    let items: Vec<u32> = (0..64).collect();
    let err = ex
        .execute_indexed("panic probe", &items, |_w, _i, &it| {
            if it == 33 {
                panic!("injected worker panic on item {it}");
            }
            it * 2
        })
        .expect_err("the panic must become an error, not a hang");
    assert!(
        matches!(err, BuildError::WorkerPanicked { .. }),
        "expected WorkerPanicked, got {err}"
    );
    let surfaced = PipelineError::from(err).to_string();
    assert!(
        surfaced.contains("panic probe") && surfaced.contains("injected worker panic"),
        "pipeline error must carry the pool context and payload: {surfaced}"
    );
}
