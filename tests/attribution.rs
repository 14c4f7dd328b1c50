//! Symbol-attribution integration tests: conservation (per-symbol
//! sums equal the whole-program counters bit-exactly), determinism,
//! the pipeline-level heat-map/attribution knobs, the `RunReport`
//! embedding, and per-symbol regression gating in `diff_reports`.

use propeller::{EvalReport, Propeller, PropellerOptions};
use propeller_doctor::{diff_reports, AttributionSection, RunReport};
use propeller_integration_tests::small_benchmark;
use propeller_sim::{Event, SimOptions};
use proptest::prelude::*;

/// Runs the pipeline on a small benchmark and returns it ready for
/// evaluation (phases 1–4 complete), plus the summary report.
fn built_pipeline(
    name: &str,
    scale: f64,
    seed: u64,
    opts: PropellerOptions,
) -> (Propeller, propeller::PropellerReport) {
    let g = small_benchmark(name, scale, seed);
    let mut p = Propeller::new(g.program, g.entries, opts);
    let report = p.run_all().expect("pipeline completes");
    (p, report)
}

/// Asserts the conservation law on one attributed run: summing every
/// symbol's counters reproduces the whole-program `CounterSet`
/// bit-exactly, and the folded stacks account for every cycle.
fn assert_conserved(report: &propeller_sim::SimReport) {
    let attr = report.attribution.as_ref().expect("attribution requested");
    let totals = attr.totals();
    for event in Event::ALL {
        assert_eq!(
            event.get(&totals),
            event.get(&report.counters),
            "per-symbol {} sum diverges from the whole-program counter",
            event.name()
        );
    }
    assert_eq!(totals, report.counters, "CounterSet-wide equality");
    let folded = report.folded.as_ref().expect("folded stacks requested");
    assert_eq!(
        folded.total_weight(),
        report.counters.cycles,
        "folded stacks must account for every cycle"
    );
}

#[test]
fn per_symbol_sums_equal_whole_program_counters() {
    let (p, _) = built_pipeline("clang", 0.004, 77, PropellerOptions::default());
    let opts = SimOptions {
        attribution: true,
        ..SimOptions::default()
    };
    let (base, opt) = p.evaluate_with(80_000, &opts).expect("phases ran");
    assert_conserved(&base);
    assert_conserved(&opt);
    // The two attributions describe different layouts of the same
    // program: retired instructions differ (jump deletion, prefetch
    // insertion) but the retired block trace is invariant.
    let (ab, ao) = (
        base.attribution.as_ref().unwrap(),
        opt.attribution.as_ref().unwrap(),
    );
    assert_eq!(ab.totals().blocks, ao.totals().blocks);
}

#[test]
fn attribution_is_deterministic_across_same_seed_runs() {
    let run = || {
        let (p, _) = built_pipeline("clang", 0.003, 9, PropellerOptions::default());
        let opts = SimOptions {
            attribution: true,
            ..SimOptions::default()
        };
        let (base, opt) = p.evaluate_with(60_000, &opts).expect("phases ran");
        (
            base.attribution.unwrap(),
            base.folded.unwrap(),
            opt.attribution.unwrap(),
            opt.folded.unwrap(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must reproduce the identical attribution");
}

#[test]
fn pipeline_knobs_populate_phase3_collectors() {
    // Satellite: the PropellerOptions heat-map knob must reach the
    // Phase 3 profiling simulation (it used to be dropped on the
    // floor), and the attribution knob rides the same plumbing.
    let opts = PropellerOptions {
        heatmap: Some((16, 16)),
        attribution: true,
        ..PropellerOptions::default()
    };
    let (p, report) = built_pipeline("clang", 0.004, 77, opts);
    let hm = p.profile_heatmap().expect("heat map collected in phase 3");
    assert_eq!((hm.addr_buckets, hm.time_buckets), (16, 16));
    assert!(
        hm.cells.iter().any(|&c| c > 0),
        "profiling run must have touched the heat map"
    );
    let attr = p
        .profile_attribution()
        .expect("attribution collected in phase 3")
        .clone();
    assert!(!attr.symbols.is_empty());
    let folded = p.profile_folded().expect("folded stacks collected");
    assert!(folded.total_weight() > 0);
    // And the whole-pipeline report carries the attribution out.
    assert_eq!(report.profile_attribution.as_ref(), Some(&attr));

    // Defaults stay off: no collector runs unless asked.
    let (p2, _) = built_pipeline("clang", 0.004, 77, PropellerOptions::default());
    assert!(p2.profile_heatmap().is_none());
    assert!(p2.profile_attribution().is_none());
    assert!(p2.profile_folded().is_none());
}

/// Collects a RunReport with an attribution section from a real run.
fn attributed_run_report(seed: u64) -> RunReport {
    let (p, summary) = built_pipeline("clang", 0.004, seed, PropellerOptions::default());
    let opts = SimOptions {
        attribution: true,
        ..SimOptions::default()
    };
    let (base, opt) = p.evaluate_with(80_000, &opts).expect("phases ran");
    let eval = EvalReport {
        baseline: base.counters,
        optimized: opt.counters,
    };
    let mut rr = RunReport::collect("clang", 0.004, seed, &p, &summary, Some(&eval), None, None);
    rr.attribution = Some(AttributionSection::from_attribution(
        opt.attribution.as_ref().unwrap(),
        10,
    ));
    rr
}

#[test]
fn run_report_attribution_survives_json_and_diff_gates_regressions() {
    let a = attributed_run_report(77);
    let parsed = RunReport::parse(&a.to_json_string()).expect("parses");
    assert_eq!(
        parsed.attribution, a.attribution,
        "attribution rows must survive the JSON round trip"
    );

    // Identical reports: nothing to flag.
    let clean = diff_reports(&a, &a, 0.5);
    assert!(clean.attribution_deltas.iter().all(|d| !d.regression));

    // Inflate one symbol's cycles past the tolerance: the per-symbol
    // gate must fire even though nothing else changed.
    let mut b = attributed_run_report(77);
    {
        let rows = &mut b.attribution.as_mut().expect("section present").symbols;
        rows[0].counters.cycles = rows[0].counters.cycles * 2 + 100;
    }
    let d = diff_reports(&a, &b, 0.5);
    assert!(
        d.attribution_deltas.iter().any(|x| x.regression),
        "a doubled per-symbol cycle count must gate:\n{}",
        d.render()
    );
    assert!(d.has_regression());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The conservation law holds for arbitrary workloads and seeds,
    /// on both the baseline and the Propeller-optimized layout, with
    /// the BOLT comparator's block budget varying too.
    #[test]
    fn attribution_conserves_for_random_workloads(
        seed in any::<u64>(),
        scale_ticks in 15u64..50,
        pick in 0usize..2,
        budget in 20_000u64..120_000,
    ) {
        let scale = scale_ticks as f64 * 1e-4; // 0.0015..0.0050
        let name = ["clang", "mysql"][pick];
        let (p, _) = built_pipeline(name, scale, seed, PropellerOptions::default());
        let opts = SimOptions { attribution: true, ..SimOptions::default() };
        let (base, opt) = p.evaluate_with(budget, &opts).expect("phases ran");
        assert_conserved(&base);
        assert_conserved(&opt);
        // Conservation must also hold from the raw block rows, not
        // just the per-symbol totals.
        let attr = opt.attribution.as_ref().unwrap();
        for e in Event::ALL {
            let from_blocks: u64 = attr
                .symbols
                .iter()
                .flat_map(|s| &s.blocks)
                .map(|b| e.get(&b.counters))
                .sum();
            prop_assert_eq!(from_blocks, e.get(&opt.counters), "event {}", e.name());
        }
    }
}
